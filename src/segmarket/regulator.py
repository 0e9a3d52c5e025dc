"""Tools for a regulator choosing which prices to allow.

A regulator wants a window that still lets an intermediary segment the whole
market passively (so nobody is shut out) while pulling prices down. This
module offers a cheap sufficient screening test for feasibility, a designer
that finds the shortest feasible prefix window (cheapest prices only), and a
sweep that measures how common feasible windows are across uniform markets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Sequence

from .core import (
    Market,
    PriceWindow,
    ZERO,
    _check_window,
    market,
    opt_prices,
    uniform_revenue,
)
from .errors import BadRange, HypothesisViolated, ZeroMarket
from .passive import is_feasible


def sufficient_condition(m: Market, w: PriceWindow) -> bool:
    """Cheap screening test implying the window is feasible.

    Compares the value actually carried by window buyers (plus floor-price
    revenue on everyone above the window) against the unregulated
    single-price revenue. Only proved when the unregulated optimal price is
    unique and lies outside the window; other callers get
    :class:`HypothesisViolated` rather than an unreliable verdict. The test
    is one-sided: failing it decides nothing.
    """
    _check_window(m.grid, w)
    optimal = opt_prices(m)
    if len(optimal) != 1:
        raise HypothesisViolated("screening test needs a unique unregulated price")
    if optimal[0] in w:
        raise HypothesisViolated("screening test needs the optimal price outside the window")
    return _screen(m)(w.lo, w.hi)


def _screen(m: Market) -> Callable[[int, int], bool]:
    """The inequality of :func:`sufficient_condition` for window ``lo..hi``,
    in integers: values on the grid's scale ``q`` (see ``ValueGrid._scale``),
    masses times the ray's denominator, and the benchmark times both."""
    q, values = m.grid._scale
    value_prefix = [0, *accumulate(map(mul, m._nums, values))]
    mass_suffix = [*accumulate(reversed(m._nums))][::-1] + [0]
    target = uniform_revenue(m) * (m._den * q)
    num, den = target.numerator, target.denominator

    def passes(lo: int, hi: int) -> bool:
        lhs = value_prefix[hi + 1] - value_prefix[lo] + values[lo] * mass_suffix[hi + 1]
        return lhs * den >= num

    return passes


def design_prefix_window(m: Market) -> PriceWindow:
    """Shortest feasible window anchored at index 0 (the cheapest grid value).

    Returns ``PriceWindow(0, hi)`` for the least ``hi`` at which
    :func:`~segmarket.passive.is_feasible` holds. Feasibility is
    superset-monotone (a segmentation pricing inside a window also prices
    inside any window containing it), so the feasible prefixes are exactly
    those reaching some least ``hi``, and a bisection over ``0..p`` finds it
    in about ``log2 p`` feasibility checks, where ``p`` is the least
    unregulated optimal price: on ``[0, p]`` the market itself is a valid
    one-segment scheme, so that window is never checked.

    That contract is all this function promises. Whether the result also
    gives buyers the largest guaranteed consumer surplus among *all* feasible
    windows, anchored or not, is not proved here; acceptance criterion 10
    and ``tests/test_regulator.py`` check it on the reference market, on
    uniform markets 1..R for R <= 14 and on seeded random markets.
    """
    if m.is_zero():
        raise ZeroMarket("feasibility is undefined for a market with no buyers")
    lo, hi = 0, opt_prices(m)[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if is_feasible(m, PriceWindow(0, mid)):
            hi = mid
        else:
            lo = mid + 1
    return PriceWindow(0, hi)


def uniform_market(lo: int, hi: int) -> Market:
    """Unit-mass market spread evenly over the integer values lo..hi."""
    if lo < 1 or lo > hi:
        raise BadRange("need 1 <= lo <= hi")
    n = hi - lo + 1
    return market(range(lo, hi + 1), (Fraction(1, n),) * n)


@dataclass(frozen=True)
class SweepRow:
    """Feasibility census for one uniform market: all contiguous windows
    disjoint from the unregulated optimal prices."""

    lo: int
    hi: int
    n_sets: int
    n_feasible: int
    n_sufficient: int
    optprice_ties: bool

    @property
    def prop_feasible(self) -> Fraction:
        return Fraction(self.n_feasible, self.n_sets) if self.n_sets else ZERO

    @property
    def prop_sufficient(self) -> Fraction:
        return Fraction(self.n_sufficient, self.n_sets) if self.n_sets else ZERO


def _census(m: Market, exhaustive: bool, limit: Sequence[int]) -> tuple[int, int, int, bool, list]:
    """Count windows disjoint from the optimal prices, and how many are
    feasible / pass the screening test. The two pointers check no window
    whose left end passes ``limit[hi]``, a bound on the feasible ones ending
    at ``hi``; the returned ``reach`` is such a bound for ``m``, exact from
    the two pointers and the identity (no bound) from the exhaustive loop."""
    # the maximal index runs that avoid every optimal price are the gaps
    # between consecutive ones, empty gaps included, which count nothing
    edges = (-1, *opt_prices(m), len(m.grid))
    ties = len(edges) > 3
    n_sets = n_feasible = n_sufficient = 0
    passes = _screen(m)
    reach = list(range(len(m.grid)))  # a window holding an optimal price is feasible
    for left, right in zip(edges, edges[1:]):
        a, b = left + 1, right - 1
        size = b - a + 1
        n_sets += size * (size + 1) // 2
        if not ties:
            windows = ((lo, hi) for lo in range(a, b + 1) for hi in range(lo, b + 1))
            n_sufficient += sum(passes(lo, hi) for lo, hi in windows)
        if exhaustive:
            for lo in range(a, b + 1):
                for hi in range(lo, b + 1):
                    if is_feasible(m, PriceWindow(lo, hi)):
                        n_feasible += 1
        else:
            # feasibility is superset-monotone, so for each right endpoint
            # the feasible left endpoints form a prefix of the run and the
            # boundary moves one way; two pointers cover the run in a linear
            # number of feasibility checks
            best_lo = a - 1
            for hi in range(a, b + 1):
                while best_lo < limit[hi] and is_feasible(m, PriceWindow(best_lo + 1, hi)):
                    best_lo += 1
                n_feasible += best_lo - a + 1
                reach[hi] = best_lo
    return n_sets, n_feasible, n_sufficient, ties, reach


def feasibility_sweep(
    top: int,
    lows: Iterable[int] | None = None,
    exhaustive: bool = False,
) -> tuple[SweepRow, ...]:
    """Census over uniform markets on {lo..top} for each lo.

    Masses are rescaled to integers before counting; feasibility and the
    screening test are both invariant under scaling, and small integers keep
    the exact arithmetic quick.

    Each distinct low is counted once, from the highest down, and rows share
    verdicts by the drop-below-floor lemma: if ``[a, b]`` is feasible for
    ``m``, it stays feasible once the buyers valued below some ``t <= v_a``
    are removed, since every segment keeps its revenue at each price ``>= t``
    and can only lose revenue below it, so every instructed price stays
    optimal. Row ``lo'`` is row ``lo < lo'`` without its buyers below
    ``lo'``, so a value window ``[x, y]`` with ``x >= lo'`` that is
    infeasible on row ``lo'`` is infeasible on row ``lo`` too: each row
    passes its ``reach``, shifted to the next row's indices, as ``limit``.
    """
    if top < 1:
        raise BadRange("need top >= 1")
    low_list: Sequence[int] = tuple(lows) if lows is not None else tuple(range(1, top + 1))
    if any(lo < 1 or lo > top for lo in low_list):
        raise BadRange("each low must satisfy 1 <= low <= top")
    rows, reach, above = {}, [], top + 1
    for lo in sorted(set(low_list), reverse=True):
        shift = above - lo
        limit = [*range(shift), *(r + shift for r in reach)]
        scaled = uniform_market(lo, top).scaled(Fraction(top - lo + 1))
        n_sets, n_feasible, n_sufficient, ties, reach = _census(scaled, exhaustive, limit)
        rows[lo] = SweepRow(lo, top, n_sets, n_feasible, n_sufficient, ties)
        above = lo
    return tuple(rows[lo] for lo in low_list)
