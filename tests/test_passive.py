import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from segmarket import (
    PriceWindow,
    market,
    opt_prices,
    scheme_surplus,
    tail_value,
    uniform_revenue,
    validate_scheme,
    zero_market,
)
from segmarket import passive
from segmarket.errors import (
    InfeasibleWindow,
    InvariantViolation,
    NonTermination,
    ZeroMarket,
)
from segmarket.lp import oracle_feasible, oracle_min_floor_mass
from segmarket.passive import (
    consumer_optimal,
    is_feasible,
    iteration_guard,
    min_consumer_surplus,
    minimal_reduction,
    producer_optimal,
    unregulated_consumer_optimal,
    welfare_minimal,
)
from segmarket.regulator import uniform_market

from strategies import markets_with_window

F = Fraction


def masses(step):
    return tuple(step.segment.market.masses)


def test_iteration_guard_default_and_override(monkeypatch):
    assert iteration_guard(4) == 10
    # a fixed bound: the environment does not change it
    monkeypatch.setenv("SEGMARKET_MAX_ITERS", "3")
    assert iteration_guard(4) == 10


def test_unregulated_split_reference_market(m1):
    run = unregulated_consumer_optimal(m1)
    assert run.remainder.is_zero()
    assert [s.support for s in run.steps] == [
        (0, 1, 2, 3),
        (1, 2, 3),
        (1, 3),
        (3,),
    ]
    assert [masses(s) for s in run.steps] == [
        (F("0.36"), F("0.12"), F("0.12"), F("0.12")),
        (F("0"), F("0.06"), F("0.06"), F("0.06")),
        (F("0"), F("0.02"), F("0"), F("0.01")),
        (F("0"), F("0"), F("0"), F("0.07")),
    ]
    assert [s.segment.price_index for s in run.steps] == [0, 1, 1, 3]
    s = scheme_surplus(run.scheme)
    assert (s.cs, s.ps) == (F("1.30"), F("1.56"))
    assert s.ps == uniform_revenue(m1)


def test_unregulated_split_rejects_zero_market(m1):
    with pytest.raises(ZeroMarket):
        unregulated_consumer_optimal(zero_market(m1.grid))


def test_producer_optimal_reference_market(m1, w23):
    run = producer_optimal(m1, w23)
    assert run.remainder.is_zero()
    assert [s.support for s in run.steps] == [(0, 2, 3), (2, 3), (1, 3), (1,)]
    assert [s.gamma for s in run.steps] == [
        F("0.54"),
        F("0.18"),
        F("0.24"),
        F("0.04"),
    ]
    assert [masses(s) for s in run.steps] == [
        (F("0.36"), F("0"), F("0.09"), F("0.09")),
        (F("0"), F("0"), F("0.09"), F("0.09")),
        (F("0"), F("0.16"), F("0"), F("0.08")),
        (F("0"), F("0.04"), F("0"), F("0")),
    ]
    assert [s.segment.price_index for s in run.steps] == [2, 2, 1, 1]
    # standard form: one segment per window price, cheap first
    assert [seg.price_index for seg in run.scheme.segments] == [1, 2]
    assert run.scheme.segments[0].market.masses == (
        F("0"), F("0.20"), F("0"), F("0.08"),
    )
    assert run.scheme.segments[1].market.masses == (
        F("0.36"), F("0"), F("0.18"), F("0.18"),
    )
    s = scheme_surplus(run.scheme)
    assert (s.cs, s.ps) == (F("0.86"), F("1.64"))
    assert validate_scheme(run.scheme, w23, "passive").ok


def test_producer_optimal_leaves_remainder_when_infeasible(m1):
    run = producer_optimal(m1, PriceWindow(2, 2))
    assert not run.remainder.is_zero()
    assert run.scheme.segments_total().plus(run.remainder).masses == m1.masses


def test_is_feasible_reference_windows(m1):
    assert is_feasible(m1, PriceWindow(1, 2))
    assert is_feasible(m1, PriceWindow(0, 3))
    assert is_feasible(m1, PriceWindow(3, 3))
    assert is_feasible(m1, PriceWindow(0, 1))
    assert not is_feasible(m1, PriceWindow(0, 0))
    assert not is_feasible(m1, PriceWindow(2, 2))


def test_is_feasible_without_window_mass():
    m = market([1, 2], [1, 0])
    assert not is_feasible(m, PriceWindow(1, 1))
    with pytest.raises(ZeroMarket):
        is_feasible(zero_market(m.grid), PriceWindow(0, 0))


def test_consumer_optimal_reference_market(m1, w23):
    run = consumer_optimal(m1, w23)
    assert [s.support for s in run.steps] == [
        (0, 2, 3),
        (2, 3),
        (1, 2, 3),
        (1, 3),
    ]
    assert [masses(s) for s in run.steps] == [
        (F("0.36"), F("0"), F("0.09"), F("0.09")),
        (F("0"), F("0"), F("0.05"), F("0.05")),
        (F("0"), F("0.04"), F("0.04"), F("0.04")),
        (F("0"), F("0.16"), F("0"), F("0.08")),
    ]
    assert [s.segment.price_index for s in run.steps] == [2, 2, 1, 1]
    s = scheme_surplus(run.scheme)
    assert (s.cs, s.ps) == (F("0.94"), F("1.56"))
    assert s.ps == uniform_revenue(m1)
    assert validate_scheme(run.scheme, w23, "passive").ok


def test_consumer_optimal_raises_on_infeasible(m1):
    with pytest.raises(InfeasibleWindow):
        consumer_optimal(m1, PriceWindow(2, 2))


def test_minimal_reduction_reference_market(m1, w23):
    red = minimal_reduction(m1, w23)
    assert m1.grid[red.floor] == 2
    assert red.floor_mass == F("4/25")
    assert red.reduced() == PriceWindow(1, 2)


def test_minimal_reduction_full_window(m1):
    red = minimal_reduction(m1, PriceWindow(0, 3))
    assert red.floor == 3
    assert red.floor_mass == F("0.26")
    with pytest.raises(InfeasibleWindow):
        minimal_reduction(m1, PriceWindow(2, 2))


def test_welfare_minimal_reference_market(m1, w23):
    run = welfare_minimal(m1, w23)
    assert [s.support for s in run.steps] == [
        (0, 1, 2, 3),
        (0, 2, 3),
        (2, 3),
        (1, 3),
    ]
    assert [s.gamma for s in run.steps] == [
        F("0.24"),
        F("0.36"),
        F("0.16"),
        F("0.24"),
    ]
    assert [masses(s) for s in run.steps] == [
        (F("0.12"), F("0.04"), F("0.04"), F("0.04")),
        (F("0.24"), F("0"), F("0.06"), F("0.06")),
        (F("0"), F("0"), F("0.08"), F("0.08")),
        (F("0"), F("0.16"), F("0"), F("0.08")),
    ]
    assert [s.segment.price_index for s in run.steps] == [2, 2, 2, 1]
    s = scheme_surplus(run.scheme)
    assert (s.cs, s.ps) == (F("0.86"), F("1.56"))
    assert validate_scheme(run.scheme, w23, "passive").ok


def test_min_consumer_surplus_reference_market(m1, w23):
    assert min_consumer_surplus(m1, w23) == F("0.86")
    # unregulated: everything can be extracted
    assert min_consumer_surplus(m1, PriceWindow(0, 3)) == 0


def test_reduction_and_welfare_minimal_scale_with_the_market():
    """Scaling every mass by ``c > 0`` keeps the reduced floor, scales the
    least floor mass and the least consumer surplus by ``c``, and scales
    every welfare-minimal gamma, slice and residual by ``c`` with the same
    supports and prices: checked without the LP on feasible windows of
    seeded markets of 30-40 values, half of them anchored on an optimal
    price."""
    rng = random.Random(2424)
    scales = (F(1, 3), F(7, 2), F(10**12 + 1, 10**6), F(2, 10**9 + 7))
    checked = 0
    while checked < 18:
        values = sorted(rng.sample(range(1, 400), rng.randint(30, 40)))
        masses = [F(rng.choice((0, 1, 2, 3, 5, 8, 13)), rng.randint(1, 50)) for _ in values]
        if not any(masses):
            continue
        m = market(values, masses)
        width = rng.randint(2, 10)
        p = rng.choice(opt_prices(m)) if checked % 2 else rng.randrange(len(values))
        lo = max(0, min(p - rng.randrange(width), len(values) - width))
        w = PriceWindow(lo, lo + width - 1)
        if not is_feasible(m, w):
            continue
        checked += 1
        c = scales[checked % len(scales)]
        big = m.scaled(c)
        red, red_c = minimal_reduction(m, w), minimal_reduction(big, w)
        assert (red_c.floor, red_c.floor_mass) == (red.floor, c * red.floor_mass), (m, w)
        assert min_consumer_surplus(big, w) == c * min_consumer_surplus(m, w), (m, w)
        steps, steps_c = welfare_minimal(m, w).steps, welfare_minimal(big, w).steps
        assert [(s.support, s.segment.price_index) for s in steps_c] == [
            (s.support, s.segment.price_index) for s in steps
        ], (m, w)
        for s, s_c in zip(steps, steps_c):
            assert s_c.gamma == c * s.gamma, (m, w)
            assert s_c.segment.market == s.segment.market.scaled(c), (m, w)
            assert s_c.residual == s.residual.scaled(c), (m, w)


def _random_feasible_windows(seed, count):
    """*count* seeded feasible windows on markets of 3-12 rational values,
    with zero masses among them."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        size = rng.randint(3, 12)
        values = sorted({F(rng.randint(1, 60), rng.choice((1, 1, 2, 3))) for _ in range(size)})
        masses = [F(rng.choice((0, 0, 1, 2, 3, 5, 7, 11)), rng.randint(1, 13)) for _ in values]
        if not any(masses):
            continue
        m = market(values, masses)
        lo = rng.randrange(len(values))
        w = PriceWindow(lo, rng.randint(lo, len(values) - 1))
        if is_feasible(m, w):
            found += 1
            yield m, w


def test_floor_mass_search_matches_the_lp():
    """The reserve search's least floor mass is the LP's, on random windows."""
    for m, w in _random_feasible_windows(1818, 320):
        red = minimal_reduction(m, w)
        assert red.floor_mass == oracle_min_floor_mass(m, w, red.floor), (m, w)


def test_lp_stays_off_the_product_path():
    """Importing the constructions, the region and the regulator loads no LP."""
    code = (
        "import sys\n"
        "import segmarket.passive, segmarket.region, segmarket.regulator\n"
        "sys.exit('segmarket.lp' in sys.modules)\n"
    )
    src = str(Path(passive.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_nontermination_guard_trips(m1, w23, monkeypatch):
    monkeypatch.setattr(passive, "iteration_guard", lambda n: 1)
    with pytest.raises(NonTermination):
        unregulated_consumer_optimal(m1)
    with pytest.raises(NonTermination):
        producer_optimal(m1, w23)
    with pytest.raises(NonTermination):
        is_feasible(m1, w23)
    with pytest.raises(NonTermination):
        consumer_optimal(m1, w23)


def test_reserve_search_guard_trips(m1, w23, monkeypatch):
    """A search whose runs never reach a root stops at its run guard."""
    monkeypatch.setattr(passive, "_reserve_run", lambda *_: (F(1), F(-1), F(0), None))
    with pytest.raises(NonTermination):
        minimal_reduction(m1, w23)


def test_stalled_peel_is_a_typed_error(m1, w23, monkeypatch):
    """A peel of weight zero raises, also under ``python -O``: a capped peel
    in the generic driver, and any peel of the reserve run behind the
    welfare-minimal construction and its search."""
    red = minimal_reduction(m1, w23)
    real = passive.largest_dominated_er

    def stalled(cap, support, extra_caps=()):
        if extra_caps:
            return F(0), zero_market(cap.grid)
        return real(cap, support)

    monkeypatch.setattr(passive, "largest_dominated_er", stalled)
    with pytest.raises(InvariantViolation, match="stalled"):
        consumer_optimal(m1, w23)
    monkeypatch.undo()
    # every grid index joins the reserve run's slice, so once one has emptied
    # the next slice has weight zero
    unit_weights = passive._unit_weights
    monkeypatch.setattr(passive, "_unit_weights", lambda g, _: unit_weights(g, range(len(g))))
    runs = [
        lambda m: passive._welfare_minimal(m, w23, red),
        lambda m: minimal_reduction(m, w23),
    ]
    for run in runs:
        with pytest.raises(InvariantViolation, match="stalled"):
            run(m1)


def test_oversized_slice_is_a_typed_error(m1, w23, monkeypatch):
    """A slice that does not fit under the residual raises in the peel's
    subtraction, also under ``python -O``: in the generic driver, and in the
    reserve run behind the welfare-minimal construction and its search."""
    red = minimal_reduction(m1, w23)
    real = passive.largest_dominated_er

    def doubled(cap, support, extra_caps=()):
        gamma, piece = real(cap, support, extra_caps)
        return 2 * gamma, piece.plus(piece)

    monkeypatch.setattr(passive, "largest_dominated_er", doubled)
    runs = [
        unregulated_consumer_optimal,
        lambda m: producer_optimal(m, w23),
        lambda m: is_feasible(m, w23),
        lambda m: consumer_optimal(m, w23),
    ]
    for run in runs:
        with pytest.raises(InvariantViolation, match="negative mass"):
            run(m1)
    monkeypatch.undo()
    unit_weights = passive._unit_weights

    def twice(g, support):  # each support entry listed twice: the slice is taken off twice
        idx, weights = unit_weights(g, support)
        return [i for i in idx for _ in "ab"], [u for u in weights for _ in "ab"]

    monkeypatch.setattr(passive, "_unit_weights", twice)
    runs = [
        lambda m: passive._welfare_minimal(m, w23, red),
        lambda m: welfare_minimal(m, w23),
        lambda m: minimal_reduction(m, w23),
    ]
    for run in runs:
        with pytest.raises(InvariantViolation, match="negative mass"):
            run(m1)


def _count_peels(monkeypatch):
    """A one-item list that counts peels, each one ``largest_dominated_er`` call."""
    real, count = passive.largest_dominated_er, [0]

    def counted(cap, support, extra_caps=()):
        count[0] += 1
        return real(cap, support, extra_caps)

    monkeypatch.setattr(passive, "largest_dominated_er", counted)
    return count


def test_early_verdict_runs_no_more_peels(monkeypatch):
    """is_feasible stops once no supported entry lies outside the window.

    A window holding the whole support runs no peel; on uniform markets no
    feasible window runs more peels than the producer-optimal run, some run
    fewer, and every verdict is whether that run leaves a remainder.
    """
    count = _count_peels(monkeypatch)
    m = market([1, 2, 3, 5, 8], ["0", "1/4", "1/2", "1/4", "0"])
    for w in (PriceWindow(1, 3), PriceWindow(0, 4), PriceWindow(0, 3)):
        assert is_feasible(m, w)
    assert count[0] == 0
    fewer = 0
    for top in range(1, 15):
        m = uniform_market(1, top)
        for lo in range(top):
            for hi in range(lo, top):
                w = PriceWindow(lo, hi)
                run = producer_optimal(m, w)
                count[0] = 0
                assert is_feasible(m, w) == run.remainder.is_zero(), (top, w)
                if run.remainder.is_zero():
                    assert count[0] <= len(run.steps), (top, w)
                    fewer += count[0] < len(run.steps)
    assert fewer > 0


def test_early_verdict_with_zero_mass_at_an_endpoint():
    """On random rational markets, windows with an empty endpoint get the
    producer-optimal verdict."""
    rng = random.Random(1515)
    checked = 0
    for _ in range(150):
        size = rng.randint(2, 8)
        values = sorted({F(rng.randint(1, 90), rng.randint(1, 4)) for _ in range(size)})
        masses = [F(rng.randint(0, 5), rng.randint(1, 7)) for _ in values]
        if not any(masses):
            continue
        m = market(values, masses)
        for lo in range(len(values)):
            for hi in range(lo, len(values)):
                if masses[lo] and masses[hi]:
                    continue
                w = PriceWindow(lo, hi)
                assert is_feasible(m, w) == producer_optimal(m, w).remainder.is_zero(), (m, w)
                checked += 1
    assert checked > 500


def _revenue_upper_bound(m, w):
    """The most any segmentation priced inside *w* can earn: every window
    buyer pays their value and every buyer above the window the cap price."""
    g = m.grid
    inside = sum((m.masses[i] * g[i] for i in w.indices()), F(0))
    return inside + g[w.hi] * sum(m.masses[w.hi + 1 :], F(0))


def _bounded_windows(m):
    """Every window of *m* and whether it fails the revenue upper bound."""
    n, base = len(m.grid), uniform_revenue(m)
    for lo in range(n):
        for hi in range(lo, n):
            w = PriceWindow(lo, hi)
            yield w, _revenue_upper_bound(m, w) < base


def test_windows_failing_the_revenue_bound_are_infeasible():
    """A passive scheme earns at least the single-price revenue, so a window
    whose revenue upper bound falls short of it cannot be feasible."""
    rng = random.Random(1313)
    markets = [uniform_market(1, top) for top in range(1, 15)]
    for _ in range(100):
        values = sorted(rng.sample(range(1, 80), rng.randint(2, 8)))
        markets.append(market(values, [F(rng.randint(0, 9), 20) for _ in values[:-1]] + ["1/20"]))
    decided = 0
    for m in markets:
        for w, fails in _bounded_windows(m):
            if fails:
                decided += 1
                assert not is_feasible(m, w), (m, w)
    assert decided > 500


@given(markets_with_window())
def test_feasibility_agrees_with_lp(mw):
    m, w = mw
    assert is_feasible(m, w) == oracle_feasible(m, w, "passive")


@given(markets_with_window())
def test_unregulated_split_properties(mw):
    m, _ = mw
    run = unregulated_consumer_optimal(m)
    assert run.remainder.is_zero()
    s = scheme_surplus(run.scheme)
    assert s.ps == uniform_revenue(m)
    assert s.sw == tail_value(m, 0)  # every buyer trades
    full = PriceWindow(0, len(m.grid) - 1)
    assert validate_scheme(run.scheme, full, "passive").ok


@given(markets_with_window())
def test_extreme_schemes_hit_their_corners(mw):
    m, w = mw
    if not is_feasible(m, w):
        return
    cap = tail_value(m, w.lo)
    base = uniform_revenue(m)
    floor = min_consumer_surplus(m, w)
    assert 0 <= floor <= cap - base

    ps_run = producer_optimal(m, w)
    s = scheme_surplus(ps_run.scheme)
    assert (s.cs, s.ps) == (floor, cap - floor)
    assert validate_scheme(ps_run.scheme, w, "passive").ok

    cs_run = consumer_optimal(m, w)
    s = scheme_surplus(cs_run.scheme)
    assert (s.cs, s.ps) == (cap - base, base)
    assert validate_scheme(cs_run.scheme, w, "passive").ok

    sw_run = welfare_minimal(m, w)
    s = scheme_surplus(sw_run.scheme)
    assert (s.cs, s.ps) == (floor, base)
    assert validate_scheme(sw_run.scheme, w, "passive").ok
