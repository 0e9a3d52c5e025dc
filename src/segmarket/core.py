"""Market model and primitive operations, all in exact rational arithmetic.

A market is a mass vector over a fixed strictly increasing grid of buyer
values. A monopolist quoting price ``v_i`` sells to every buyer with value at
least ``v_i``, so demand and revenue are tail sums. Segmentations split a
market into segments, each carrying its own instructed price; the regulated
price window constrains which grid values may be quoted.

Everything here is a pure function over immutable data. All comparisons are
exact; nothing is ever rounded.

A market is stored as one primitive integer ray: mass ``i`` is
``nums[i] / den`` with ``den > 0`` and ``gcd(*nums, den) == 1``, so every
mass vector has exactly one ray and equality and hashing compare rays. The
library computes with the ray alone; ``Market.masses``, its ``Fraction``
view for callers, is built anew on each read. A grid keeps two integer
scales: the reciprocals ``R_i = L / v_i``, with ``L`` the lcm of the value
numerators, and the values ``V_i = v_i * B``, with ``B`` the lcm of their
denominators. The unit equal-revenue slice over an ascending support is
``v_low / L`` times the integer vector ``R_s - R_next(s)`` (``R_top`` at
the top), and a value sum such as :func:`tail_value` is ``sum(nums * V)``
over ``den * B``; each costs integer arithmetic and one ``Fraction``.

Inputs are converted and checked in the constructors: ``ValueGrid(...)``
and ``Market(...)`` read every value and mass with the pair parser of
``rationals`` (it accepts what ``as_rational`` accepts; floats and bools are
refused) and check shape, order and sign on the integer pairs, and
``PriceWindow`` and ``Segment`` take int indices only; :func:`grid`,
:func:`market` and the ``serialize`` decoders convert nothing themselves.
Markets derived here from valid ones (sums, scalings, checked differences,
equal-revenue slices) are nonnegative by construction and skip that pass;
a sum of many markets is taken on one common denominator with one
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Literal, NamedTuple, Sequence

from .errors import (
    EmptySupport,
    InvariantViolation,
    NegativeBound,
    PriceOutsideWindow,
    SegmentationMismatch,
    ZeroMarket,
)
from .rationals import _pair, as_rational

Model = Literal["passive", "active"]

ZERO = Fraction(0)


@dataclass(frozen=True)
class ValueGrid:
    """Strictly increasing positive buyer values shared by aligned markets;
    the constructor reads each value as an integer pair (see ``rationals``)
    and holds them as Fractions."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pairs = list(map(_pair, self.values))
        if not pairs:
            raise ValueError("value grid must be non-empty")
        if any(n <= 0 for n, _ in pairs):
            raise ValueError("grid values must be positive")
        if any(a * d >= c * b for (a, b), (c, d) in zip(pairs, pairs[1:])):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", tuple([Fraction(n, d) for n, d in pairs]))

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

    @cached_property
    def _reciprocals(self) -> tuple[int, tuple[int, ...]]:
        """``(L, R)`` with ``L`` the lcm of the value numerators and
        ``R[i] = L / v_i``, an integer; computed on first use and kept on
        this grid."""
        big = lcm(*[v.numerator for v in self.values])
        return big, tuple([big // v.numerator * v.denominator for v in self.values])

    @cached_property
    def _scale(self) -> tuple[int, tuple[int, ...]]:
        """``(B, V)`` with ``B`` the lcm of the value denominators and
        ``V[i] = v_i * B``, an integer; computed on first use and kept on
        this grid."""
        big = lcm(*[v.denominator for v in self.values])
        return big, tuple([v.numerator * (big // v.denominator) for v in self.values])


def grid(values: Iterable[int | str | Fraction]) -> ValueGrid:
    return ValueGrid(tuple(values))


@dataclass(frozen=True, init=False, repr=False, slots=True)
class Market:
    """Nonnegative buyer mass at each grid value. Total mass need not be 1.

    The constructor reads each mass as an integer pair (see ``rationals``)
    and builds the primitive integer ray ``(_nums, _den)`` of the module
    docstring with one lcm and one gcd; equality and hashing compare the
    ray. ``masses`` is its ``Fraction`` view, built anew on each read;
    nothing in the library reads it.
    """

    grid: ValueGrid
    _nums: tuple[int, ...]
    _den: int

    def __init__(self, grid: ValueGrid, masses: Iterable[int | str | Fraction]) -> None:
        pairs = list(map(_pair, masses))
        den = lcm(*[d for _, d in pairs])
        nums = [n * (den // d) for n, d in pairs]
        common = gcd(den, *nums)
        _set_grid(self, grid)
        _set_nums(self, tuple(nums) if common == 1 else tuple([n // common for n in nums]))
        _set_den(self, den // common)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self._nums) != len(self.grid):
            raise ValueError("mass vector length must match the grid")
        if any(n < 0 for n in self._nums):
            raise ValueError("masses must be nonnegative")

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self._den) for n in self._nums])

    def __repr__(self) -> str:
        return f"Market(grid={self.grid!r}, masses={self.masses!r})"

    def mass(self) -> Fraction:
        return Fraction(sum(self._nums), self._den)

    # numerators are nonnegative, so a nonzero one is a positive one and the
    # two scans below test truth instead of comparing against zero
    def is_zero(self) -> bool:
        return not any(self._nums)

    def support(self) -> tuple[int, ...]:
        # via a list: tuple() of an iterator of unknown length grows by
        # resizing, and the tuple freelists keep what that allocates
        return tuple(list(compress(range(len(self._nums)), self._nums)))

    def scaled(self, factor: Fraction) -> "Market":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        a = factor.numerator
        return _ray(self.grid, [n * a for n in self._nums], self._den * factor.denominator)

    def minus(self, other: "Market") -> "Market":
        """Entrywise difference; only the entries where *other* carries mass
        are subtracted, and only those are checked for going negative."""
        _check_same_grid(self, other)
        out, b, den = _common(self, other)
        for i in compress(range(len(b)), b):
            d = out[i] - b[i]
            if d < 0:
                raise ValueError("subtraction would leave negative mass")
            out[i] = d
        return _ray(self.grid, out, den)

    def plus(self, other: "Market") -> "Market":
        _check_same_grid(self, other)
        out, b, den = _common(self, other)
        for i in compress(range(len(b)), b):
            out[i] += b[i]
        return _ray(self.grid, out, den)


def _common(a: Market, b: Market) -> tuple[list[int], Sequence[int], int]:
    """The numerators of *a* (as a fresh list) and of *b* over the least
    common denominator of the two rays, and that denominator."""
    g = gcd(a._den, b._den)
    sa, sb = b._den // g, a._den // g
    out = list(a._nums) if sa == 1 else [n * sa for n in a._nums]
    other = b._nums if sb == 1 else [n * sb for n in b._nums]
    return out, other, a._den * sa


def _derived(g: ValueGrid, nums: tuple[int, ...], den: int) -> Market:
    """A market this module computed from valid ones, given as a primitive
    ray and set slot by slot, without the validation pass of ``Market(...)``."""
    m = object.__new__(Market)
    _set_grid(m, g)
    _set_nums(m, nums)
    _set_den(m, den)
    return m


_set_grid, _set_nums, _set_den = (getattr(Market, n).__set__ for n in ("grid", "_nums", "_den"))


def _ray(g: ValueGrid, nums: list[int], den: int) -> Market:
    """The derived market with masses ``nums[i] / den``, reduced to its
    primitive ray; every numerator is nonnegative and *den* positive."""
    d = gcd(den, *nums)
    if d != 1:
        return _derived(g, tuple([n // d for n in nums]), den // d)
    return _derived(g, tuple(nums), den)


def market(
    values: Iterable[int | str | Fraction], masses: Iterable[int | str | Fraction]
) -> Market:
    """Build a market from raw value/mass literals."""
    return Market(grid(values), masses)


def zero_market(g: ValueGrid) -> Market:
    return _derived(g, (0,) * len(g), 1)


def _total(g: ValueGrid, parts: Sequence[Market]) -> Market:
    """The sum of *parts*, markets on *g*, added on their least common
    denominator and reduced once."""
    den = lcm(*[m._den for m in parts])
    nums = [0] * len(g)
    for m in parts:
        scale = den // m._den
        for i in compress(range(len(nums)), m._nums):
            nums[i] += m._nums[i] * scale
    return _ray(g, nums, den)


def _check_same_grid(a: Market, b: Market) -> None:
    if a.grid is not b.grid and a.grid.values != b.grid.values:
        raise ValueError("markets live on different grids")


@dataclass(frozen=True)
class PriceWindow:
    """Contiguous block of admissible grid prices, endpoints inclusive, 0-based."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if type(self.lo) is not int or type(self.hi) is not int:  # refuses bools too
            raise TypeError("window endpoints must be ints")
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError("window endpoints out of order")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi


def _check_window(g: ValueGrid, w: PriceWindow) -> None:
    if w.hi >= len(g):
        raise ValueError("window exceeds the grid")


@dataclass(frozen=True)
class Segment:
    """A component market plus the price index its buyers are quoted."""

    market: Market
    price_index: int

    def __post_init__(self) -> None:
        if type(self.price_index) is not int:  # refuses bools too
            raise TypeError("price index must be an int")
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
        parts = [seg.market for seg in self.segments]
        for part in parts:
            _check_same_grid(self.aggregate, part)
        return _total(self.aggregate.grid, parts)


class SurplusSummary(NamedTuple):
    cs: Fraction
    ps: Fraction
    sw: Fraction


def demand(m: Market, i: int) -> Fraction:
    """Mass willing to buy at price ``v_i``: everyone with value at least ``v_i``."""
    if not 0 <= i < len(m.grid):
        raise IndexError("price index outside the grid")
    return Fraction(sum(m._nums[i:]), m._den)


def revenue(m: Market, i: int) -> Fraction:
    return m.grid[i] * demand(m, i)


def _best_prices(m: Market, lo: int, hi: int) -> tuple[Fraction, tuple[int, ...]]:
    """The best single-price revenue over prices ``lo..hi`` and every index
    attaining it, ascending, from one suffix pass over the ray.

    Revenue at ``i`` is ``L * T_i / (R_i * den)`` with ``T_i`` the tail sum
    of the numerators, so prices compare by cross-multiplying ``T_i / R_i``.
    """
    big, recips = m.grid._reciprocals
    nums = m._nums
    tail = sum(nums[hi + 1 :])
    best_t, best_r, ties = -1, 1, []
    for i in range(hi, lo - 1, -1):
        tail += nums[i]
        r = recips[i]
        c = tail * best_r - best_t * r
        if c > 0:
            best_t, best_r, ties = tail, r, [i]
        elif c == 0:
            ties.append(i)
    ties.reverse()
    return Fraction(big * best_t, best_r * m._den), tuple(ties)


def opt_prices(m: Market) -> tuple[int, ...]:
    """All revenue-maximizing grid price indices, ties kept, ascending."""
    if m.is_zero():
        raise ZeroMarket("optimal prices are undefined on a zero market")
    return _best_prices(m, 0, len(m.grid) - 1)[1]


def opt_prices_in_window(m: Market, w: PriceWindow) -> tuple[int, ...]:
    """Revenue-maximizing indices among window prices only."""
    if m.is_zero():
        raise ZeroMarket("optimal prices are undefined on a zero market")
    _check_window(m.grid, w)
    return _best_prices(m, w.lo, w.hi)[1]


def uniform_revenue(m: Market) -> Fraction:
    """Best revenue from a single posted price on the unsegmented market."""
    if m.is_zero():
        return ZERO
    return _best_prices(m, 0, len(m.grid) - 1)[0]


def window_uniform_revenue(m: Market, w: PriceWindow) -> Fraction:
    """Best single-price revenue when the price must sit in the window."""
    _check_window(m.grid, w)
    return _best_prices(m, w.lo, w.hi)[0]


def tail_value(m: Market, lo: int) -> Fraction:
    """Total value held by buyers at grid index ``lo`` and above."""
    big, values = m.grid._scale
    return Fraction(sum(map(mul, m._nums[lo:], values[lo:])), m._den * big)


def segment_surplus(seg: Segment) -> SurplusSummary:
    """Consumer and producer surplus of one segment at its instructed price.

    Buyers below the price do not trade: welfare is the value held at or
    above the price, and the seller keeps the price times the demand there.
    """
    ps, sw = revenue(seg.market, seg.price_index), tail_value(seg.market, seg.price_index)
    return SurplusSummary(sw - ps, ps, sw)


def scheme_surplus(scheme: MarketScheme) -> SurplusSummary:
    """Totals across segments; raises if the segments do not sum to the aggregate."""
    if scheme.segments_total() != scheme.aggregate:
        raise SegmentationMismatch("segments do not sum to the aggregate market")
    cs = ps = ZERO
    for seg in scheme.segments:
        s = segment_surplus(seg)
        cs += s.cs
        ps += s.ps
    return SurplusSummary(cs, ps, cs + ps)


def _unit_weights(g: ValueGrid, support: Iterable[int]) -> tuple[list[int], list[int]]:
    """The ascending support and the integer weights ``R_s - R_next(s)``
    (``R_top`` at the top entry) to which the unit equal-revenue market over
    it is proportional; every weight is positive."""
    idx = sorted(set(support))
    if not idx:
        raise EmptySupport("equal-revenue market needs a non-empty support")
    if idx[0] < 0 or idx[-1] >= len(g):
        raise IndexError("support index outside the grid")
    recips = g._reciprocals[1]
    weights = [recips[i] - recips[j] for i, j in zip(idx, idx[1:])]
    weights.append(recips[idx[-1]])
    return idx, weights


def _spread(g: ValueGrid, idx: list[int], weights: list[int], num: int, den: int) -> Market:
    """The market with mass ``weights[k] * num / den`` at each ``idx[k]``
    and zero elsewhere; *num* is nonnegative and *den* positive. Reduced on
    the support alone: with ``num / den`` in lowest terms the ray's gcd is
    ``gcd(den, *weights)``."""
    d = gcd(num, den)
    num, den = num // d, den // d
    d = gcd(den, *weights)
    nums = [0] * len(g)
    for i, u in zip(idx, weights):
        nums[i] = u // d * num
    return _derived(g, tuple(nums), den // d)


def equal_revenue_market(g: ValueGrid, support: Iterable[int]) -> Market:
    """Unit-mass market over *support* whose revenue is flat across the support.

    With ``m = min`` and ``M = max`` of the supported values, mass at the top
    value is ``m/M`` and mass at any other supported value ``v`` is
    ``m * (1/v - 1/v')`` where ``v'`` is the next supported value above. Every
    supported price then earns revenue exactly ``m``, and prices off the
    support earn strictly less. In reciprocals that is ``m / L`` times the
    weights of :func:`_unit_weights`.
    """
    idx, weights = _unit_weights(g, support)
    low = g[idx[0]]
    return _spread(g, idx, weights, low.numerator, low.denominator * g._reciprocals[0])


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
    Only the supported entries are computed: the binding entry is the least
    ``nums[i] / weight`` found by cross-multiplying, and its bound
    ``nums[i] * L / (den * weight * v_low)`` is the one ``Fraction`` built.
    ``x`` is spread on the support alone, uncapped straight from the binding
    ratio as ``weights * nums[i] / (den * weight)``, capped from gamma.
    """
    g = cap.grid
    idx, weights = _unit_weights(g, support)
    nums = cap._nums
    best_n, best_u = nums[idx[0]], weights[0]
    for i, u in zip(idx[1:], weights[1:]):
        n = nums[i]
        if n * best_u < best_n * u:
            best_n, best_u = n, u
    low = g[idx[0]]
    big = g._reciprocals[0]
    gamma = bound = Fraction(best_n * big * low.denominator, cap._den * best_u * low.numerator)
    for b in extra_caps:
        if b < 0:
            raise NegativeBound("extraction bound must be nonnegative")
        if b < gamma:
            gamma = b
    if gamma.numerator < 0:
        raise InvariantViolation("extraction weight came out negative")
    num, den = best_n, cap._den * best_u  # uncapped: x = weights * nums[i] / (den * weight)
    if gamma is not bound:  # x = gamma * (v_low / L) * weights
        num, den = gamma.numerator * low.numerator, gamma.denominator * low.denominator * big
    return gamma, _spread(g, idx, weights, num, den)


def standardize(scheme: MarketScheme, w: PriceWindow) -> MarketScheme:
    """Merge segments by price into one segment per window price.

    The result has exactly ``len(w)`` segments, the q-th priced at the q-th
    window value, zero segments kept so positions are predictable. Input
    prices must all lie in the window.
    """
    _check_window(scheme.aggregate.grid, w)
    g = scheme.aggregate.grid
    merged: dict[int, list[Market]] = {i: [] for i in w.indices()}
    for seg in scheme.segments:
        if seg.price_index not in w:
            raise PriceOutsideWindow(
                f"segment priced at index {seg.price_index} is outside the window"
            )
        _check_same_grid(scheme.aggregate, seg.market)
        merged[seg.price_index].append(seg.market)
    return MarketScheme(
        scheme.aggregate,
        tuple(Segment(_total(g, merged[i]), i) for i in w.indices()),
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
    if total != scheme.aggregate:
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
