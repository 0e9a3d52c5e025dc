"""Market model and primitive operations, all in exact rational arithmetic.

A market is a mass vector over a fixed strictly increasing grid of buyer
values. A monopolist quoting price ``v_i`` sells to every buyer with value at
least ``v_i``, so demand and revenue are tail sums. Segmentations split a
market into segments, each carrying its own instructed price; the regulated
price window constrains which grid values may be quoted.

Everything here is a pure function over immutable data. All comparisons are
exact; nothing is ever rounded.

Markets are validated where they enter: ``Market(...)`` and :func:`market`
check the shape and the sign of the masses, and so does every market the
``serialize`` decoders build. Markets that this module's own arithmetic
derives from valid ones (sums, scalings, checked differences, equal-revenue
slices) are nonnegative by construction and skip that second pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Sequence

from .errors import (
    EmptySupport,
    InvariantViolation,
    NegativeBound,
    PriceOutsideWindow,
    SegmentationMismatch,
    ZeroMarket,
)
from .rationals import as_rational

Model = Literal["passive", "active"]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ValueGrid:
    """Strictly increasing positive buyer values shared by aligned markets."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("value grid must be non-empty")
        if any(v <= 0 for v in self.values):
            raise ValueError("grid values must be positive")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("grid values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def index_of(self, value: int | str | Fraction) -> int:
        """Index of an exact grid value; no nearest-value snapping."""
        v = as_rational(value)
        try:
            return self.values.index(v)
        except ValueError:
            raise ValueError(f"value {v} is not a grid entry") from None


def grid(values: Iterable[int | str | Fraction]) -> ValueGrid:
    return ValueGrid(tuple(as_rational(v) for v in values))


@dataclass(frozen=True)
class Market:
    """Nonnegative buyer mass at each grid value. Total mass need not be 1."""

    grid: ValueGrid
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.masses) != len(self.grid):
            raise ValueError("mass vector length must match the grid")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")

    def mass(self) -> Fraction:
        return sum(self.masses, ZERO)

    # masses are nonnegative, so a nonzero mass is a positive one and the
    # two scans below test truth instead of comparing against zero
    def is_zero(self) -> bool:
        return not any(self.masses)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.masses) if m)

    def scaled(self, factor: Fraction) -> "Market":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return _derived(self.grid, tuple(m * factor for m in self.masses))

    def minus(self, other: "Market") -> "Market":
        """Entrywise difference; only the entries where *other* carries mass
        are subtracted, and only those are checked for going negative."""
        _check_same_grid(self, other)
        out = list(self.masses)
        for i, b in enumerate(other.masses):
            if b:
                d = out[i] - b
                if d < 0:
                    raise ValueError("subtraction would leave negative mass")
                out[i] = d
        return _derived(self.grid, tuple(out))

    def plus(self, other: "Market") -> "Market":
        _check_same_grid(self, other)
        return _derived(self.grid, tuple(a + b for a, b in zip(self.masses, other.masses)))


def _derived(g: ValueGrid, masses: tuple[Fraction, ...]) -> Market:
    """A market this module computed from valid ones, built without the
    validation pass of ``Market(...)``."""
    m = object.__new__(Market)
    object.__setattr__(m, "grid", g)
    object.__setattr__(m, "masses", masses)
    return m


def market(
    values: Iterable[int | str | Fraction], masses: Iterable[int | str | Fraction]
) -> Market:
    """Build a market from raw value/mass literals."""
    return Market(grid(values), tuple(as_rational(m) for m in masses))


def zero_market(g: ValueGrid) -> Market:
    return _derived(g, (ZERO,) * len(g))


def _check_same_grid(a: Market, b: Market) -> None:
    if a.grid.values != b.grid.values:
        raise ValueError("markets live on different grids")


@dataclass(frozen=True)
class PriceWindow:
    """Contiguous block of admissible grid prices, endpoints inclusive, 0-based."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError("window endpoints out of order")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi


def window_from_values(
    g: ValueGrid, lo_value: int | str | Fraction, hi_value: int | str | Fraction
) -> PriceWindow:
    return PriceWindow(g.index_of(lo_value), g.index_of(hi_value))


def _check_window(g: ValueGrid, w: PriceWindow) -> None:
    if w.hi >= len(g):
        raise ValueError("window exceeds the grid")


@dataclass(frozen=True)
class Segment:
    """A component market plus the price index its buyers are quoted."""

    market: Market
    price_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.price_index < len(self.market.grid):
            raise IndexError("price index outside the grid")


@dataclass(frozen=True)
class MarketScheme:
    """An aggregate market with priced segments.

    Whether the segments actually sum to the aggregate is checked by
    :func:`scheme_surplus` and reported by :func:`validate_scheme`, not
    enforced here, so externally supplied schemes can be loaded and examined.
    """

    aggregate: Market
    segments: tuple[Segment, ...]

    def segments_total(self) -> Market:
        total = zero_market(self.aggregate.grid)
        for seg in self.segments:
            total = total.plus(seg.market)
        return total


class SurplusSummary(NamedTuple):
    cs: Fraction
    ps: Fraction
    sw: Fraction


def demand(m: Market, i: int) -> Fraction:
    """Mass willing to buy at price ``v_i``: everyone with value at least ``v_i``."""
    if not 0 <= i < len(m.grid):
        raise IndexError("price index outside the grid")
    return sum(m.masses[i:], ZERO)


def revenue(m: Market, i: int) -> Fraction:
    return m.grid[i] * demand(m, i)


def opt_prices(m: Market) -> tuple[int, ...]:
    """All revenue-maximizing grid price indices, ties kept, ascending."""
    if m.is_zero():
        raise ZeroMarket("optimal prices are undefined on a zero market")
    revs: list[Fraction] = [ZERO] * len(m.grid)
    tail = ZERO
    for i in range(len(m.grid) - 1, -1, -1):
        tail += m.masses[i]
        revs[i] = m.grid[i] * tail
    best = max(revs)
    return tuple(i for i, r in enumerate(revs) if r == best)


def opt_prices_in_window(m: Market, w: PriceWindow) -> tuple[int, ...]:
    """Revenue-maximizing indices among window prices only."""
    if m.is_zero():
        raise ZeroMarket("optimal prices are undefined on a zero market")
    _check_window(m.grid, w)
    revs = {i: revenue(m, i) for i in w.indices()}
    best = max(revs.values())
    return tuple(i for i in w.indices() if revs[i] == best)


def uniform_revenue(m: Market) -> Fraction:
    """Best revenue from a single posted price on the unsegmented market."""
    if m.is_zero():
        return ZERO
    return max(revenue(m, i) for i in range(len(m.grid)))


def window_uniform_revenue(m: Market, w: PriceWindow) -> Fraction:
    """Best single-price revenue when the price must sit in the window."""
    _check_window(m.grid, w)
    return max(revenue(m, i) for i in w.indices())


def tail_value(m: Market, lo: int) -> Fraction:
    """Total value held by buyers at grid index ``lo`` and above."""
    return sum((m.masses[i] * m.grid[i] for i in range(lo, len(m.grid))), ZERO)


def segment_surplus(seg: Segment) -> SurplusSummary:
    """Consumer and producer surplus of one segment at its instructed price.

    Buyers below the price do not trade and contribute nothing.
    """
    p = seg.market.grid[seg.price_index]
    served = demand(seg.market, seg.price_index)
    ps = p * served
    cs = sum(
        (
            (seg.market.grid[i] - p) * seg.market.masses[i]
            for i in range(seg.price_index, len(seg.market.grid))
        ),
        ZERO,
    )
    return SurplusSummary(cs, ps, cs + ps)


def scheme_surplus(scheme: MarketScheme) -> SurplusSummary:
    """Totals across segments; raises if the segments do not sum to the aggregate."""
    if scheme.segments_total().masses != scheme.aggregate.masses:
        raise SegmentationMismatch("segments do not sum to the aggregate market")
    cs = ps = ZERO
    for seg in scheme.segments:
        s = segment_surplus(seg)
        cs += s.cs
        ps += s.ps
    return SurplusSummary(cs, ps, cs + ps)


def equal_revenue_market(g: ValueGrid, support: Iterable[int]) -> Market:
    """Unit-mass market over *support* whose revenue is flat across the support.

    With ``m = min`` and ``M = max`` of the supported values, mass at the top
    value is ``m/M`` and mass at any other supported value ``v`` is
    ``m * (1/v - 1/v')`` where ``v'`` is the next supported value above. Every
    supported price then earns revenue exactly ``m``, and prices off the
    support earn strictly less.
    """
    return _spread(g, _equal_revenue_entries(g, support), ONE)


def _equal_revenue_entries(
    g: ValueGrid, support: Iterable[int]
) -> list[tuple[int, Fraction]]:
    """The ``(index, mass)`` pairs of the unit equal-revenue market, in index
    order; every mass is positive. ``m * (v' - v) / (v * v')`` is
    ``m * (1/v - 1/v')`` exactly."""
    idx = sorted(set(support))
    if not idx:
        raise EmptySupport("equal-revenue market needs a non-empty support")
    if idx[0] < 0 or idx[-1] >= len(g):
        raise IndexError("support index outside the grid")
    m_low = g[idx[0]]
    entries = []
    for i, j in zip(idx, idx[1:]):
        v, v_next = g[i], g[j]
        entries.append((i, m_low * (v_next - v) / (v * v_next)))
    entries.append((idx[-1], m_low / g[idx[-1]]))
    return entries


def _spread(
    g: ValueGrid, entries: list[tuple[int, Fraction]], factor: Fraction
) -> Market:
    """The market with mass ``u * factor`` at each ``(i, u)`` of *entries*
    and zero elsewhere; *factor* is nonnegative."""
    masses = [ZERO] * len(g)
    for i, u in entries:
        masses[i] = u * factor
    return _derived(g, tuple(masses))


def largest_dominated_er(
    cap: Market,
    support: Iterable[int],
    extra_caps: Iterable[Fraction] = (),
) -> tuple[Fraction, Market]:
    """Largest equal-revenue slice over *support* that fits under *cap*.

    Returns ``(gamma, x)`` where ``x = gamma * unit`` for the unit
    equal-revenue market on the support, ``x <= cap`` coordinate-wise, gamma
    additionally at most every entry of *extra_caps*, and gamma maximal. At
    least one of the constraints holds with equality unless gamma is zero.
    Only the supported entries are computed.
    """
    entries = _equal_revenue_entries(cap.grid, support)
    bounds = [cap.masses[i] / u for i, u in entries]
    for b in extra_caps:
        if b < 0:
            raise NegativeBound("extraction bound must be nonnegative")
        bounds.append(b)
    gamma = min(bounds)
    if gamma < 0:
        raise InvariantViolation("extraction weight came out negative")
    return gamma, _spread(cap.grid, entries, gamma)


def standardize(scheme: MarketScheme, w: PriceWindow) -> MarketScheme:
    """Merge segments by price into one segment per window price.

    The result has exactly ``len(w)`` segments, the q-th priced at the q-th
    window value, zero segments kept so positions are predictable. Input
    prices must all lie in the window.
    """
    _check_window(scheme.aggregate.grid, w)
    g = scheme.aggregate.grid
    merged = {i: zero_market(g) for i in w.indices()}
    for seg in scheme.segments:
        if seg.price_index not in w:
            raise PriceOutsideWindow(
                f"segment priced at index {seg.price_index} is outside the window"
            )
        merged[seg.price_index] = merged[seg.price_index].plus(seg.market)
    return MarketScheme(
        scheme.aggregate,
        tuple(Segment(merged[i], i) for i in w.indices()),
    )


@dataclass(frozen=True)
class ValidationIssue:
    segment: int | None  # segment position, or None for an aggregate-level issue
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    model: Model
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_scheme(scheme: MarketScheme, w: PriceWindow, model: Model) -> ValidationReport:
    """Check a scheme against the window under the given intermediary model.

    Passive schemes need every instructed price to maximize revenue against
    the whole grid; active schemes only against window prices. Zero segments
    are exempt from the price test. All violations are reported, none raised.
    """
    _check_window(scheme.aggregate.grid, w)
    issues: list[ValidationIssue] = []
    total = scheme.segments_total()
    if total.masses != scheme.aggregate.masses:
        issues.append(
            ValidationIssue(
                None,
                "segmentation-sum",
                "segment masses do not sum to the aggregate market",
            )
        )
    for pos, seg in enumerate(scheme.segments):
        g = seg.market.grid
        if seg.price_index not in w:
            issues.append(
                ValidationIssue(
                    pos,
                    "price-outside-window",
                    f"price {g[seg.price_index]} not in the regulated window",
                )
            )
            continue
        if seg.market.is_zero():
            continue
        if model == "passive":
            optimal = opt_prices(seg.market)
        else:
            optimal = opt_prices_in_window(seg.market, w)
        if seg.price_index not in optimal:
            issues.append(
                ValidationIssue(
                    pos,
                    "price-not-optimal",
                    f"price {g[seg.price_index]} is not revenue-maximizing "
                    f"for the segment under the {model} model",
                )
            )
    return ValidationReport(model, tuple(issues))
