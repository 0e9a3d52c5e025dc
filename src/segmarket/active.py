"""Segmentations for the active intermediary model.

Active means the intermediary also runs the storefront: sellers can only
charge window prices, so an instructed price merely has to beat every rival
price INSIDE the window on its segment. Any window with buyer mass at or
above its floor can then price everybody, and the achievable surplus range
widens relative to the passive model.

The consumer-optimal and welfare-minimal constructions share one device:
collapse the market onto the window (drop everyone below the floor, park all
demand at or above the cap on the cap itself), run the unregulated split on
the collapsed market, then lift each piece back by spreading its cap-value
mass over the true upper tail proportionally. Revenues at window prices are
unchanged by the lift, so instructed prices stay optimal within the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Market,
    MarketScheme,
    PriceWindow,
    Segment,
    _check_window,
    _ray,
    tail_value,
    window_uniform_revenue,
)
from .errors import EmptyAboveFloor
from .passive import unregulated_consumer_optimal


def _check_served(m: Market, w: PriceWindow) -> None:
    _check_window(m.grid, w)
    if not sum(m._nums[w.lo :]):
        raise EmptyAboveFloor("no buyer mass at or above the window floor")


@dataclass(frozen=True)
class ActiveBenchmarks:
    """Closed-form bounds every active segmentation is squeezed between."""

    window_revenue: Fraction  # best single window price on the whole market
    min_consumer_surplus: Fraction  # rents of buyers strictly above the cap
    max_welfare: Fraction  # total value of buyers at or above the floor


def benchmarks(m: Market, w: PriceWindow) -> ActiveBenchmarks:
    _check_served(m, w)
    hi, (big, values) = w.hi, m.grid._scale
    rents = sum(n * (v - values[hi]) for n, v in zip(m._nums[hi + 1 :], values[hi + 1 :]))
    return ActiveBenchmarks(
        window_revenue=window_uniform_revenue(m, w),
        min_consumer_surplus=Fraction(rents, m._den * big),
        max_welfare=tail_value(m, w.lo),
    )


def producer_optimal(m: Market, w: PriceWindow) -> MarketScheme:
    """Producer-optimal active segmentation: isolate each window value.

    The floor segment holds everyone at or below the floor, the cap segment
    everyone at or above the cap, and each interior window value sits alone;
    every segment is priced at its own window value, extracting each served
    buyer's value up to the cap. One segment per window price, zeros kept.
    """
    _check_served(m, w)
    last = len(m.grid) - 1
    return MarketScheme(m, tuple(
        Segment(_part(m, 0 if q == w.lo else q, last if q == w.hi else q), q)
        for q in w.indices()
    ))


def _part(m: Market, lo: int, hi: int) -> Market:
    """*m* on the indices ``lo..hi`` and zero elsewhere, cut from its ray."""
    nums = [0] * len(m.grid)
    nums[lo : hi + 1] = m._nums[lo : hi + 1]
    return _ray(m.grid, nums, m._den)


def collapse_to_window(m: Market, w: PriceWindow) -> Market:
    """Project the market onto the window: zero below the floor, window
    interior kept as is, all demand at the cap parked on the cap value."""
    _check_served(m, w)
    nums = [0] * len(m.grid)
    nums[w.lo : w.hi] = m._nums[w.lo : w.hi]
    nums[w.hi] = sum(m._nums[w.hi :])
    return _ray(m.grid, nums, m._den)


def _lifted_split(m: Market, w: PriceWindow, favor: str) -> MarketScheme:
    run = unregulated_consumer_optimal(collapse_to_window(m, w))
    lo, hi, whole, den = w.lo, w.hi, m._nums, m._den
    cap = sum(whole[hi:]) or 1  # demand at the cap, over den; 0 parks nothing
    segments: list[Segment] = []
    for k, step in enumerate(run.steps):
        piece = step.segment.market
        # every mass of the lifted piece over piece._den * cap * den
        nums, scale = [0] * len(m.grid), piece._den * cap
        if k == 0:
            nums[:lo] = [x * scale for x in whole[:lo]]
        nums[lo:hi] = [x * cap * den for x in piece._nums[lo:hi]]
        if parked := piece._nums[hi]:
            # spread the parked mass over the true tail, pro rata
            nums[hi:] = [parked * x * den for x in whole[hi:]]
        support = piece.support()
        price = support[0] if favor == "consumer" else support[-1]
        segments.append(Segment(_ray(m.grid, nums, scale * den), price))
    return MarketScheme(m, tuple(segments))


def consumer_optimal(m: Market, w: PriceWindow) -> MarketScheme:
    """Consumer-optimal active segmentation.

    Lifted unregulated split priced at the cheapest supported window value of
    each piece: every buyer at or above the floor trades and producer surplus
    stays at the single-window-price benchmark, so consumer surplus is
    maximal.
    """
    return _lifted_split(m, w, "consumer")


def welfare_minimal(m: Market, w: PriceWindow) -> MarketScheme:
    """Least-total-surplus active segmentation.

    The same lifted pieces priced at the DEAREST supported window value:
    within the window the pieces are equal-revenue, so producer surplus is
    unchanged, but every buyer below a piece's top value is priced out and
    consumer surplus drops to the rents of buyers strictly above the cap.
    """
    return _lifted_split(m, w, "seller")
