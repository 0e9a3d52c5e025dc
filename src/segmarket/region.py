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
    """Right triangle of achievable (cs, ps) pairs.

    ``v_min`` is the joint minimum, ``v_seller`` the producer-optimal corner
    above it, ``v_buyer`` the consumer-optimal corner beside it; the
    hypotenuse has slope -1 (fixed welfare cap).
    """

    model: Model
    v_min: Point
    v_seller: Point
    v_buyer: Point

    def __post_init__(self) -> None:
        if self.v_seller[0] != self.v_min[0]:
            raise ValueError("seller corner must share the consumer-surplus floor")
        if self.v_buyer[1] != self.v_min[1]:
            raise ValueError("buyer corner must share the producer-surplus floor")
        if self.v_seller[0] + self.v_seller[1] != self.v_buyer[0] + self.v_buyer[1]:
            raise ValueError("corner welfare caps disagree")
        if self.v_seller[1] < self.v_min[1] or self.v_buyer[0] < self.v_min[0]:
            raise ValueError("corners sit below the joint minimum")

    @property
    def welfare_cap(self) -> Fraction:
        return self.v_seller[0] + self.v_seller[1]

    def contains(self, point: Point) -> bool:
        cs, ps = point
        return (
            cs >= self.v_min[0]
            and ps >= self.v_min[1]
            and cs + ps <= self.welfare_cap
        )


def passive_region(m: Market, w: PriceWindow) -> SurplusRegion:
    """Corners of the passive region; requires the window to be feasible."""
    return _passive_region(m, w, passive.minimal_reduction(m, w))


def _passive_region(
    m: Market, w: PriceWindow, red: passive.ReducedWindow
) -> SurplusRegion:
    return _triangle(
        "passive", passive._min_consumer_surplus(m, red), uniform_revenue(m), tail_value(m, w.lo)
    )


def active_region(m: Market, w: PriceWindow) -> SurplusRegion:
    marks = active.benchmarks(m, w)
    return _triangle(
        "active", marks.min_consumer_surplus, marks.window_revenue, marks.max_welfare
    )


def _triangle(
    model: Model, cs_floor: Fraction, ps_floor: Fraction, cap: Fraction
) -> SurplusRegion:
    """The region with surplus floors *cs_floor*, *ps_floor* and welfare cap *cap*."""
    return SurplusRegion(
        model,
        v_min=(cs_floor, ps_floor),
        v_seller=(cs_floor, cap - cs_floor),
        v_buyer=(cap - ps_floor, ps_floor),
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
    return (
        active.welfare_minimal(m, w),
        active.producer_optimal(m, w),
        active.consumer_optimal(m, w),
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
    # The passive floor-mass LP is solved once, for the region and the corners.
    red = passive.minimal_reduction(m, w) if model == "passive" else None
    region = _passive_region(m, w, red) if red is not None else active_region(m, w)
    if not region.contains(target):
        cs, ps = target
        raise PointOutsideRegion(f"({cs}, {ps}) lies outside the {model} region")
    spread = region.welfare_cap - region.v_min[0] - region.v_min[1]
    if spread == 0:
        weights = (Fraction(1), Fraction(0), Fraction(0))
    else:
        w_seller = (target[1] - region.v_min[1]) / spread
        w_buyer = (target[0] - region.v_min[0]) / spread
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
