from fractions import Fraction

import pytest

from segmarket import PriceWindow, lp, market, passive, scheme_surplus, validate_scheme
from segmarket.errors import PointOutsideRegion
from segmarket.region import (
    SurplusRegion,
    active_region,
    mix_for_point,
    passive_region,
)

F = Fraction


def test_passive_region_reference_market(m1, w23):
    region = passive_region(m1, w23)
    assert region.v_min == (F("0.86"), F("1.56"))
    assert region.v_seller == (F("0.86"), F("1.64"))
    assert region.v_buyer == (F("0.94"), F("1.56"))
    assert region.welfare_cap == F("2.50")


def test_active_region_reference_market(m1, w23):
    region = active_region(m1, w23)
    assert region.v_min == (F("0.78"), F("1.32"))
    assert region.v_seller == (F("0.78"), F("1.72"))
    assert region.v_buyer == (F("1.18"), F("1.32"))
    assert region.welfare_cap == F("2.50")


def test_passive_region_sits_inside_active(m1, w23):
    inner, outer = passive_region(m1, w23), active_region(m1, w23)
    for corner in (inner.v_min, inner.v_seller, inner.v_buyer):
        assert outer.contains(corner)


def test_region_contains(m1, w23):
    region = passive_region(m1, w23)
    assert region.contains((F("0.90"), F("1.60")))
    assert region.contains(region.v_min)
    assert not region.contains((F("0.85"), F("1.56")))  # below the cs floor
    assert not region.contains((F("0.94"), F("1.64")))  # beyond the cap


def test_region_shape_is_checked():
    with pytest.raises(ValueError):
        SurplusRegion("passive", F(1), F(2), F(5, 2))  # floors sum past the cap
    flat = SurplusRegion("passive", F(1), F(2), F(3))  # a single point
    assert flat.v_min == flat.v_seller == flat.v_buyer == (F(1), F(2))


def test_mix_reaches_the_corners(m1, w23):
    region = passive_region(m1, w23)
    for target, expect in [
        (region.v_min, (1, 0, 0)),
        (region.v_seller, (0, 1, 0)),
        (region.v_buyer, (0, 0, 1)),
    ]:
        mixed = mix_for_point(m1, w23, target, "passive")
        assert mixed.weights == tuple(F(v) for v in expect)
        s = scheme_surplus(mixed.scheme)
        assert (s.cs, s.ps) == target


def test_mix_reaches_an_interior_point(m1, w23):
    target = (F("0.90"), F("1.60"))
    mixed = mix_for_point(m1, w23, target, "passive")
    assert mixed.weights == (F(0), F("1/2"), F("1/2"))
    assert sum(mixed.weights) == 1
    s = scheme_surplus(mixed.scheme)
    assert (s.cs, s.ps) == target
    assert validate_scheme(mixed.scheme, w23, "passive").ok


def test_passive_point_reduces_the_window_once_without_the_lp(m1, w23, monkeypatch):
    """The region and the welfare-minimal corner share one reduced window,
    and finding it runs no LP."""
    solves, reductions = [], []
    real = passive.minimal_reduction

    def counting(*args):
        reductions.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "solve", lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(passive, "minimal_reduction", counting)
    mixed = mix_for_point(m1, w23, (F("0.90"), F("1.60")), "passive")
    assert mixed.weights == (F(0), F("1/2"), F("1/2"))
    assert solves == []
    assert len(reductions) == 1


def test_mix_merge_gives_standard_form(m1, w23):
    target = (F("0.88"), F("1.58"))
    mixed = mix_for_point(m1, w23, target, "passive", merge=True)
    assert len(mixed.scheme.segments) == len(w23)
    s = scheme_surplus(mixed.scheme)
    assert (s.cs, s.ps) == target
    assert validate_scheme(mixed.scheme, w23, "passive").ok


def test_mix_active_model(m1, w23):
    target = (F("1.00"), F("1.40"))
    mixed = mix_for_point(m1, w23, target, "active")
    s = scheme_surplus(mixed.scheme)
    assert (s.cs, s.ps) == target
    assert validate_scheme(mixed.scheme, w23, "active").ok


def test_mix_rejects_outside_points(m1, w23):
    with pytest.raises(PointOutsideRegion):
        mix_for_point(m1, w23, (F(0), F(0)), "passive")
    with pytest.raises(PointOutsideRegion):
        mix_for_point(m1, w23, (F(2), F(2)), "active")


def test_degenerate_region_mixes_trivially():
    m = market([2], [1])
    w = PriceWindow(0, 0)
    region = passive_region(m, w)
    assert region.v_min == region.v_seller == region.v_buyer == (F(0), F(2))
    mixed = mix_for_point(m, w, (F(0), F(2)), "passive")
    assert mixed.weights == (F(1), F(0), F(0))
    s = scheme_surplus(mixed.scheme)
    assert (s.cs, s.ps) == (F(0), F(2))
