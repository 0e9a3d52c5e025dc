from fractions import Fraction

import pytest

from segmarket import PriceWindow, active, cli, lp, market, passive, scheme_surplus, validate_scheme
from segmarket.errors import PointOutsideRegion
from segmarket.passive import is_feasible
from segmarket.region import (
    SurplusRegion,
    active_region,
    mix_for_point,
    passive_region,
)
from segmarket.regulator import uniform_market

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


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    positional arguments in the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_passive_point_reduces_the_window_once_without_the_lp(m1, w23, monkeypatch):
    """The region and the welfare-minimal corner share one reduced window,
    no LP is solved, and the window itself is proved feasible at most once,
    inside the reduction: the consumer corner proves it by its own run. On
    the reference market and every feasible window of uniform 1..8."""
    solves = _counting(monkeypatch, lp, "_simplex")
    reductions = _counting(monkeypatch, passive, "minimal_reduction")
    proofs = _counting(monkeypatch, passive, "is_feasible")
    mixed = mix_for_point(m1, w23, (F("0.90"), F("1.60")), "passive")
    assert mixed.weights == (F(0), F("1/2"), F("1/2"))
    assert len(reductions) == 1
    assert [w for _, w in proofs].count(w23) == 1
    m = uniform_market(1, 8)
    for w in (PriceWindow(lo, hi) for lo in range(8) for hi in range(lo, 8)):
        if not is_feasible(m, w):
            continue
        region = passive_region(m, w)
        proofs.clear()
        target = tuple(sum(c) / 3 for c in zip(region.v_min, region.v_seller, region.v_buyer))
        assert scheme_surplus(mix_for_point(m, w, target, "passive").scheme)[:2] == target
        assert [v for _, v in proofs].count(w) <= 1, w
    assert solves == []


def test_active_point_lifts_once_and_cs_max_proves_by_its_run(m1, w23, monkeypatch, tmp_path, capsys):
    """Active ``point`` prices both lifted corners from one unregulated run
    of the collapsed market; ``segment --objective cs-max`` proves a
    feasible window by its own run alone, and an infeasible one with a
    single feasibility check."""
    runs = _counting(monkeypatch, active, "unregulated_consumer_optimal")
    mixed = mix_for_point(m1, w23, (F("1.00"), F("1.40")), "active")
    assert all(mixed.weights) and len(runs) == 1
    proofs = _counting(monkeypatch, passive, "is_feasible")
    path = tmp_path / "market.json"
    path.write_text('{"values": ["1", "2", "3", "6"], "masses": ["0.36", "0.20", "0.18", "0.26"]}')
    argv = ["segment", "--market", str(path), "--model", "passive", "--objective", "cs-max"]
    assert cli.main([*argv, "--flo", "2", "--fhi", "3"]) == 0
    assert proofs == []
    assert cli.main([*argv, "--flo", "3", "--fhi", "3"]) == 2
    assert [w for _, w in proofs] == [PriceWindow(2, 2)]
    assert capsys.readouterr().err == "error: window cannot price every buyer passively\n"


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
