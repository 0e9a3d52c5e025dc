"""Exception types shared across the package."""


class SegmarketError(Exception):
    """Base class for every package-specific error."""


class ZeroMarket(SegmarketError):
    """An operation that needs at least one buyer got a market of total mass zero."""


class EmptySupport(SegmarketError):
    """An equal-revenue construction was asked for an empty support set."""


class NegativeBound(SegmarketError):
    """A caller supplied a negative upper bound for an extraction weight."""


class SegmentationMismatch(SegmarketError):
    """Scheme segments do not sum to the scheme's aggregate market."""


class PriceOutsideWindow(SegmarketError):
    """A segment price falls outside the regulated price window."""


class InfeasibleWindow(SegmarketError):
    """The regulated window cannot support a full passive segmentation of the market."""


class NonTermination(SegmarketError):
    """An extraction loop exceeded its iteration guard; indicates a logic error."""


class InvariantViolation(SegmarketError):
    """An internal invariant failed; indicates a logic error, never bad input.

    Raised rather than asserted, so the check also runs under ``python -O``.
    """


class EmptyAboveFloor(SegmarketError):
    """No buyer mass at or above the window floor, so no regulated sale can happen."""


class PointOutsideRegion(SegmarketError):
    """A requested surplus point lies outside the achievable region."""


class HypothesisViolated(SegmarketError):
    """A screening test was invoked outside the hypothesis it is proved for."""


class BadRange(SegmarketError):
    """Endpoints of an integer range are out of order or below one."""
