"""Segmentations for the passive intermediary model.

Passive means the seller in each segment is free to deviate to ANY grid
price, so an instructed price must be a global revenue maximizer for its
segment while also lying inside the regulated window. All constructions here
share one move: repeatedly peel off the largest equal-revenue slice over a
carefully chosen support, so that the instructed price ties for optimal and
the leftover market keeps the structure the next step needs.

Every function is exact and deterministic. Extraction loops carry an
iteration guard (``2n + 2`` by default, override with the
``SEGMARKET_MAX_ITERS`` environment variable) that turns a logic error into a
:class:`~segmarket.errors.NonTermination` instead of a hang.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .core import (
    Market,
    MarketScheme,
    PriceWindow,
    Segment,
    ZERO,
    equal_revenue_market,
    largest_dominated_er,
    opt_prices,
    revenue,
    standardize,
    tail_value,
    uniform_revenue,
    zero_market,
)
from .errors import (
    InfeasibleWindow,
    InvariantViolation,
    NonTermination,
    NoSupportInWindow,
    ZeroMarket,
)


def iteration_guard(n: int) -> int:
    """Loop bound for extraction: 2n + 2, or SEGMARKET_MAX_ITERS if set."""
    raw = os.environ.get("SEGMARKET_MAX_ITERS")
    if raw is not None:
        value = int(raw)
        if value <= 0:
            raise ValueError("SEGMARKET_MAX_ITERS must be positive")
        return value
    return 2 * n + 2


@dataclass(frozen=True)
class ExtractionStep:
    """One peel: the support used, the slice weight, the priced slice, and
    what was left afterwards."""

    support: tuple[int, ...]
    gamma: Fraction
    segment: Segment
    residual: Market


@dataclass(frozen=True)
class SegmentationRun:
    """A finished construction: the scheme, any unsegmented remainder, and
    the per-iteration trace."""

    scheme: MarketScheme
    remainder: Market
    steps: tuple[ExtractionStep, ...]


def unregulated_consumer_optimal(m: Market) -> SegmentationRun:
    """Consumer-optimal segmentation with no price regulation.

    Each step peels the largest equal-revenue slice over the full remaining
    support and prices it at the cheapest supported value, so every buyer in
    the slice trades while the seller stays indifferent. The result always
    exhausts the market, total output equals total value, and producer
    surplus equals the single-price benchmark.
    """
    if m.is_zero():
        raise ZeroMarket("cannot segment a market with no buyers")
    guard = iteration_guard(len(m.grid))
    residual = m
    steps: list[ExtractionStep] = []
    while not residual.is_zero():
        if len(steps) >= guard:
            raise NonTermination("unregulated split exceeded its iteration guard")
        support = residual.support()
        gamma, slice_market = largest_dominated_er(residual, support)
        segment = Segment(slice_market, support[0])
        residual = residual.minus(slice_market)
        steps.append(ExtractionStep(support, gamma, segment, residual))
    scheme = MarketScheme(m, tuple(s.segment for s in steps))
    return SegmentationRun(scheme, zero_market(m.grid), tuple(steps))


def extraction_support(m: Market, w: PriceWindow) -> tuple[int, ...]:
    """Support for a seller-favoring peel: everything outside the window plus
    only the highest in-window supported value."""
    support = _seller_support(m.support(), w)
    if support is None:
        raise NoSupportInWindow("no buyer mass at any window value")
    return support


def _seller_support(support: tuple[int, ...], w: PriceWindow) -> tuple[int, ...] | None:
    """The seller-favoring peel support drawn from a market's ascending
    *support*, or None when no window value carries mass."""
    inside = [i for i in support if w.lo <= i <= w.hi]
    if not inside:
        return None
    top = inside[-1]
    return tuple([i for i in support if i == top or not w.lo <= i <= w.hi])


def _producer_steps(m: Market, w: PriceWindow) -> tuple[list[ExtractionStep], Market]:
    guard = iteration_guard(len(m.grid))
    residual = m
    steps: list[ExtractionStep] = []
    # one support scan per step decides both whether the window still holds
    # mass and what the next peel covers; the peel's only window index is
    # its top in-window value, which is also its price
    while (support := _seller_support(residual.support(), w)) is not None:
        if len(steps) >= guard:
            raise NonTermination("producer-optimal split exceeded its iteration guard")
        gamma, slice_market = largest_dominated_er(residual, support)
        price = next(i for i in support if i in w)
        residual = residual.minus(slice_market)
        steps.append(
            ExtractionStep(support, gamma, Segment(slice_market, price), residual)
        )
    return steps, residual


def producer_optimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Producer-optimal passive segmentation under a regulated window.

    Peels equal-revenue slices whose support keeps only the top in-window
    value, priced there, until no window value carries mass. The scheme is
    returned in standard form (one segment per window price); whatever the
    loop could not reach is the remainder. The remainder is zero exactly when
    the window is feasible for this market.
    """
    if m.is_zero():
        raise ZeroMarket("cannot segment a market with no buyers")
    steps, remainder = _producer_steps(m, w)
    covered = m.minus(remainder)
    scheme = standardize(
        MarketScheme(covered, tuple(s.segment for s in steps)), w
    )
    return SegmentationRun(scheme, remainder, tuple(steps))


def is_feasible(m: Market, w: PriceWindow) -> bool:
    """Whether some passive segmentation prices every buyer inside the window.

    The producer-optimal peel is greedy-complete: it leaves a zero remainder
    if and only if any full segmentation exists.
    """
    if m.is_zero():
        raise ZeroMarket("feasibility is undefined for a market with no buyers")
    _, remainder = _producer_steps(m, w)
    return remainder.is_zero()


def _preservation_caps(
    residual: Market, support: tuple[int, ...], optimal: tuple[int, ...]
) -> list[Fraction]:
    """Caps on the peel weight keeping every currently optimal price optimal.

    For an optimal price i (necessarily inside the peel support, where the
    unit slice earns its flat revenue C) and a supported rival j outside the
    peel support, revenues after removing ``gamma * unit`` stay ordered iff
    ``gamma * (C - R_unit(j)) <= R(i) - R(j)``; the denominator is strictly
    positive because j sits below the top of the unit slice's support.
    """
    unit = equal_revenue_market(residual.grid, support)
    flat = revenue(unit, support[0])
    caps: list[Fraction] = []
    outside = [j for j in residual.support() if j not in support]
    for i in optimal:
        for j in outside:
            caps.append(
                (revenue(residual, i) - revenue(residual, j))
                / (flat - revenue(unit, j))
            )
    return caps


def consumer_optimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Consumer-optimal passive segmentation under a regulated window.

    While no currently optimal price sits inside the window, peel over the
    seller-favoring support, additionally capped so the optimal-price set of
    the residual never shrinks; once an optimal price is inside the window,
    peel over the full support (which lowers all supported revenues by the
    same amount) and price at the cheapest in-window supported value. Total
    output is maximal and producer surplus stays at the single-price
    benchmark, so consumer surplus is maximal.
    """
    if not is_feasible(m, w):
        raise InfeasibleWindow("window cannot price every buyer passively")
    base_optimal = set(opt_prices(m))
    guard = iteration_guard(len(m.grid))
    residual = m
    steps: list[ExtractionStep] = []
    # the support scan of _producer_steps: one per step decides whether the
    # window still holds mass and gives the seller-favoring peel support
    while (seller := _seller_support(full := residual.support(), w)) is not None:
        if len(steps) >= guard:
            raise NonTermination("consumer-optimal split exceeded its iteration guard")
        optimal = opt_prices(residual)
        if not any(i in w for i in optimal):
            support = seller
            caps = _preservation_caps(residual, support, optimal)
            gamma, slice_market = largest_dominated_er(residual, support, caps)
            if gamma <= 0:
                raise InvariantViolation("seller-favoring peel stalled")
        else:
            support = full
            gamma, slice_market = largest_dominated_er(residual, support)
        price = min(i for i in support if i in w)
        residual = residual.minus(slice_market)
        steps.append(
            ExtractionStep(support, gamma, Segment(slice_market, price), residual)
        )
        if not residual.is_zero() and not base_optimal <= set(opt_prices(residual)):
            raise InvariantViolation("peel disturbed the optimal-price set")
    return _finished(m, w, residual, steps)


def _finished(
    m: Market, w: PriceWindow, residual: Market, steps: list[ExtractionStep]
) -> SegmentationRun:
    """The standardized run of a peel on a feasible window, which must have
    left no remainder."""
    if not residual.is_zero():
        raise InvariantViolation("feasible window left a remainder")
    scheme = standardize(MarketScheme(m, tuple(s.segment for s in steps)), w)
    return SegmentationRun(scheme, residual, tuple(steps))


@dataclass(frozen=True)
class ReducedWindow:
    """The tightest upper part of a window that is feasible on its own.

    ``floor`` is the highest index f in the window such that prices
    ``{f..hi}`` alone can still segment the whole market; ``floor_mass`` is
    the least mass of value-``floor`` buyers any such segmentation must sell
    at the floor price (computed by the LP oracle).
    """

    window: PriceWindow
    floor: int
    floor_mass: Fraction

    def reduced(self) -> PriceWindow:
        return PriceWindow(self.floor, self.window.hi)


def minimal_reduction(m: Market, w: PriceWindow) -> ReducedWindow:
    for floor in range(w.hi, w.lo - 1, -1):
        if is_feasible(m, PriceWindow(floor, w.hi)):
            floor_mass = lp.oracle_min_floor_mass(m, w, floor)
            return ReducedWindow(w, floor, floor_mass)
    raise InfeasibleWindow("window cannot price every buyer passively")


def welfare_minimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Least-total-surplus passive segmentation under a regulated window.

    Works inside the reduced window: while some supported value sits above
    the floor, peel seller-favoringly but keep a reserve of ``floor_mass``
    at the floor value (those buyers must eventually trade at the floor
    price; everyone else at the floor value is priced out). Once the floor is
    the top supported window value, peel it off at the floor price. Consumer
    surplus lands on its exact minimum while producer surplus stays at the
    single-price benchmark.
    """
    return _welfare_minimal(m, w, minimal_reduction(m, w))


def _welfare_minimal(m: Market, w: PriceWindow, red: ReducedWindow) -> SegmentationRun:
    sub = red.reduced()
    guard = iteration_guard(len(m.grid))
    residual = m
    steps: list[ExtractionStep] = []
    while (support := _seller_support(residual.support(), sub)) is not None:
        if len(steps) >= guard:
            raise NonTermination("welfare-minimal split exceeded its iteration guard")
        top = max(i for i in support if i in sub)
        caps: list[Fraction] = []
        if top > red.floor:
            # price will sit above the floor: the floor value may join the
            # peel only with its reserve protected
            at_floor = residual._mass(red.floor)
            if at_floor > red.floor_mass:
                support = tuple(sorted(set(support) | {red.floor}))
                unit = equal_revenue_market(m.grid, support)
                caps.append((at_floor - red.floor_mass) / unit._mass(red.floor))
            price = top
        else:
            price = red.floor
        gamma, slice_market = largest_dominated_er(residual, support, caps)
        residual = residual.minus(slice_market)
        steps.append(
            ExtractionStep(support, gamma, Segment(slice_market, price), residual)
        )
    return _finished(m, w, residual, steps)


def min_consumer_surplus(m: Market, w: PriceWindow) -> Fraction:
    """Exact least consumer surplus over all passive segmentations.

    Buyers above the reduced-window floor always trade; of the buyers at the
    floor value only the forced ``floor_mass`` does; producer surplus cannot
    drop below the single-price benchmark. The welfare-minimal construction
    attains this value.
    """
    return _min_consumer_surplus(m, minimal_reduction(m, w))


def _min_consumer_surplus(m: Market, red: ReducedWindow) -> Fraction:
    return (
        red.floor_mass * m.grid[red.floor]
        + tail_value(m, red.floor + 1)
        - uniform_revenue(m)
    )
