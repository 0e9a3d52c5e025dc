"""Achievable (consumer surplus, producer surplus) regions and point mixing.

In both intermediary models the achievable set is a right triangle: consumer
surplus is bounded below, producer surplus is bounded below, and their sum is
bounded above by the welfare cap, with all three bounds attained jointly at
the corners. Interior points come from convex mixtures of the three corner
schemes; mixing segment masses mixes the surplus pair linearly, so the
weights solve in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from . import active, passive
from .core import (
    Market,
    MarketScheme,
    Model,
    PriceWindow,
    Segment,
    standardize,
    tail_value,
    uniform_revenue,
)
from .errors import PointOutsideRegion

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SurplusRegion:
    """Right triangle of achievable (cs, ps) pairs: ``cs >= cs_floor``,
    ``ps >= ps_floor`` and ``cs + ps <= welfare_cap``.

    Its corners are ``v_min``, the joint minimum, ``v_seller``, the
    producer-optimal corner above it, and ``v_buyer``, the consumer-optimal
    corner beside it; the hypotenuse has slope -1.
    """

    model: Model
    cs_floor: Fraction
    ps_floor: Fraction
    welfare_cap: Fraction

    def __post_init__(self) -> None:
        if self.cs_floor + self.ps_floor > self.welfare_cap:
            raise ValueError("surplus floors exceed the welfare cap")

    @property
    def v_min(self) -> Point:
        return (self.cs_floor, self.ps_floor)

    @property
    def v_seller(self) -> Point:
        return (self.cs_floor, self.welfare_cap - self.cs_floor)

    @property
    def v_buyer(self) -> Point:
        return (self.welfare_cap - self.ps_floor, self.ps_floor)

    def contains(self, point: Point) -> bool:
        cs, ps = point
        return cs >= self.cs_floor and ps >= self.ps_floor and cs + ps <= self.welfare_cap


def passive_region(m: Market, w: PriceWindow) -> SurplusRegion:
    """Corners of the passive region; requires the window to be feasible."""
    return _passive_region(m, w, passive.minimal_reduction(m, w))


def _passive_region(
    m: Market, w: PriceWindow, red: passive.ReducedWindow
) -> SurplusRegion:
    return SurplusRegion(
        "passive", passive._min_consumer_surplus(m, red), uniform_revenue(m), tail_value(m, w.lo)
    )


def active_region(m: Market, w: PriceWindow) -> SurplusRegion:
    marks = active.benchmarks(m, w)
    return SurplusRegion(
        "active", marks.min_consumer_surplus, marks.window_revenue, marks.max_welfare
    )


@dataclass(frozen=True)
class MixedScheme:
    """A convex combination of the three corner schemes hitting a target point."""

    weights: tuple[Fraction, Fraction, Fraction]  # (min, seller, buyer)
    scheme: MarketScheme


def _corner_schemes(
    m: Market, w: PriceWindow, red: passive.ReducedWindow | None
) -> tuple[MarketScheme, MarketScheme, MarketScheme]:
    """The (min, seller, buyer) corner schemes: passive when the window's
    reduction *red* is given, active otherwise."""
    if red is not None:
        return (
            passive._welfare_minimal(m, w, red).scheme,
            passive.producer_optimal(m, w).scheme,
            passive.consumer_optimal(m, w).scheme,
        )
    pieces = active._lifted_split(m, w)  # one lift for both of its corners
    return (
        active._priced(m, pieces, -1),
        active.producer_optimal(m, w),
        active._priced(m, pieces, 0),
    )


def mix_for_point(
    m: Market,
    w: PriceWindow,
    target: Point,
    model: Model,
    merge: bool = False,
) -> MixedScheme:
    """Scheme achieving *target* exactly, as a mixture of corner schemes.

    Both legs of the triangle have the same length measured along their own
    axis (the spread ``welfare_cap - cs_floor - ps_floor``), so the seller
    and buyer weights are just the target's normalized excess producer and
    consumer surplus. Weight-zero corners contribute no segments. With
    *merge* the result is standardized to one segment per window price.
    """
    # The passive window is reduced once, for the region and the corners.
    red = passive.minimal_reduction(m, w) if model == "passive" else None
    region = _passive_region(m, w, red) if red is not None else active_region(m, w)
    if not region.contains(target):
        cs, ps = target
        raise PointOutsideRegion(f"({cs}, {ps}) lies outside the {model} region")
    spread = region.welfare_cap - region.cs_floor - region.ps_floor
    if spread == 0:
        weights = (Fraction(1), Fraction(0), Fraction(0))
    else:
        w_seller = (target[1] - region.ps_floor) / spread
        w_buyer = (target[0] - region.cs_floor) / spread
        weights = (1 - w_seller - w_buyer, w_seller, w_buyer)
    corners = _corner_schemes(m, w, red)
    segments: list[Segment] = []
    for weight, corner in zip(weights, corners):
        if weight == 0:
            continue
        for seg in corner.segments:
            segments.append(Segment(seg.market.scaled(weight), seg.price_index))
    mixed = MarketScheme(m, tuple(segments))
    if merge:
        mixed = standardize(mixed, w)
    return MixedScheme(weights, mixed)
