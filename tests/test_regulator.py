import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from segmarket import PriceWindow, market, opt_prices, regulator, serialize
from segmarket.errors import BadRange, HypothesisViolated, ZeroMarket
from segmarket.lp import oracle_feasible
from segmarket.passive import is_feasible, min_consumer_surplus
from segmarket.regulator import (
    design_prefix_window,
    feasibility_sweep,
    sufficient_condition,
    uniform_market,
)

F = Fraction


def test_sufficient_condition_holds(v152):
    w = PriceWindow(0, 1)
    assert sufficient_condition(v152, w)
    assert is_feasible(v152, w)


def test_sufficient_condition_is_not_necessary(m1, w23):
    # the screening inequality fails (1.46 < 1.56) yet the window is feasible
    assert not sufficient_condition(m1, w23)
    assert is_feasible(m1, w23)


def test_sufficient_condition_hypothesis_gate(m1):
    with pytest.raises(HypothesisViolated):
        sufficient_condition(m1, PriceWindow(2, 3))  # optimal price inside
    tied = uniform_market(1, 4)
    assert len(opt_prices(tied)) == 2
    with pytest.raises(HypothesisViolated):
        sufficient_condition(tied, PriceWindow(0, 0))


def test_windows_past_the_grid_are_rejected(m1):
    n = len(m1.grid)
    for w in (PriceWindow(0, n), PriceWindow(n, n + 1), PriceWindow(n + 1, n + 5)):
        with pytest.raises(ValueError, match="window exceeds the grid"):
            is_feasible(m1, w)
        with pytest.raises(ValueError, match="window exceeds the grid"):
            sufficient_condition(m1, w)


def test_design_prefix_window_reference_market(m1):
    w = design_prefix_window(m1)
    assert (w.lo, w.hi) == (0, 1)
    # minimality and feasibility, both also confirmed by the LP
    assert is_feasible(m1, w) and oracle_feasible(m1, w, "passive")
    assert not is_feasible(m1, PriceWindow(0, 0))
    assert not oracle_feasible(m1, PriceWindow(0, 0), "passive")


def test_design_prefix_window_maximizes_protection(m1):
    """Among all contiguous feasible windows, the designed prefix gives
    buyers the largest guaranteed consumer surplus."""
    w = design_prefix_window(m1)
    best = min_consumer_surplus(m1, w)
    assert best == F("1.29")
    n = len(m1.grid)
    for lo in range(n):
        for hi in range(lo, n):
            cand = PriceWindow(lo, hi)
            if is_feasible(m1, cand):
                assert min_consumer_surplus(m1, cand) <= best


def _most_protective(m):
    """The largest least consumer surplus over every feasible window of *m*."""
    n = len(m.grid)
    windows = (PriceWindow(lo, hi) for lo in range(n) for hi in range(lo, n))
    return max(min_consumer_surplus(m, w) for w in windows if is_feasible(m, w))


def test_design_prefix_window_maximizes_protection_at_scale():
    """The designed prefix guarantees buyers the most consumer surplus of any
    feasible window, on uniform markets and seeded random ones."""
    rng = random.Random(4242)
    markets = [uniform_market(1, top) for top in range(1, 15)]
    while len(markets) < 114:
        values = sorted(rng.sample(range(1, 90), rng.randint(4, 10)))
        masses = [F(rng.choice((0, 1, 2, 3, 5, 8)), rng.randint(1, 9)) for _ in values]
        if any(masses):
            markets.append(market(values, masses))
    for m in markets:
        best = min_consumer_surplus(m, design_prefix_window(m))
        assert best == _most_protective(m), m


def test_design_prefix_window_trivial_cases():
    bottom_heavy = market([1, 2], [1, 0])
    assert design_prefix_window(bottom_heavy) == PriceWindow(0, 0)
    u9 = uniform_market(1, 9)
    assert design_prefix_window(u9) == PriceWindow(0, 3)  # values 1..4


def _linear_prefix(m):
    """Reference designer: the first feasible prefix, scanning upward."""
    for hi in range(len(m.grid)):
        if is_feasible(m, PriceWindow(0, hi)):
            return PriceWindow(0, hi)
    raise AssertionError("the full grid window is always feasible")


def test_design_prefix_window_matches_a_linear_scan_on_uniforms():
    for top in range(1, 41):
        m = uniform_market(1, top)
        assert design_prefix_window(m) == _linear_prefix(m), top


def _random_design_markets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        values = sorted(rng.sample(range(1, 400), n))
        grid_values = [Fraction(v, rng.choice((1, 2, 3, 7))) for v in values]
        grid_values = sorted(set(grid_values))
        masses = [Fraction(rng.choice((0, 0, 1, 3, 17)), rng.randint(1, 90)) for _ in grid_values]
        if not any(masses):
            masses[-1] = Fraction(1)
        yield market(grid_values, masses)


def test_design_prefix_window_matches_a_linear_scan_on_random_markets():
    for m in _random_design_markets(5150, 50):
        assert design_prefix_window(m) == _linear_prefix(m), m


@pytest.fixture
def feasibility_calls(monkeypatch):
    """Every window ``regulator`` hands to ``is_feasible``, in call order."""
    calls = []

    def counting(m, w):
        calls.append((m, w))
        return is_feasible(m, w)

    monkeypatch.setattr(regulator, "is_feasible", counting)
    return calls


def test_design_prefix_window_never_checks_an_optimal_price(feasibility_calls):
    """A window holding an unregulated optimal price is feasible (the market
    is its own one-segment scheme), so the bisection never checks one."""
    uniforms = (uniform_market(1, top) for top in range(1, 71))
    for m in (*uniforms, *_random_design_markets(6160, 200)):
        feasibility_calls.clear()
        assert design_prefix_window(m) == _linear_prefix(m), m
        assert not any(set(opt_prices(m)) & set(w.indices()) for _, w in feasibility_calls), m


@pytest.mark.parametrize("m", [market([1], [0]), market([1, 2], [0, 0])])
def test_design_prefix_window_rejects_zero_markets(m):
    with pytest.raises(ZeroMarket):
        design_prefix_window(m)


def test_uniform_market_shapes():
    m = uniform_market(1, 4)
    assert m.grid.values == (1, 2, 3, 4)
    assert m.masses == (F("1/4"),) * 4
    point = uniform_market(5, 5)
    assert point.masses == (F(1),)
    assert opt_prices(uniform_market(1, 99)) == (49,)  # value 50


def test_uniform_market_rejects_bad_ranges():
    with pytest.raises(BadRange):
        uniform_market(0, 5)
    with pytest.raises(BadRange):
        uniform_market(3, 2)


SWEEP9 = [
    (1, 20, 6, 3),
    (2, 16, 5, 3),
    (3, 13, 4, 3),
    (4, 11, 3, 3),
    (5, 10, 3, 3),
    (6, 6, 1, 1),
    (7, 3, 0, 0),
    (8, 1, 0, 0),
    (9, 0, 0, 0),
]


def test_sweep_reference_counts():
    rows = feasibility_sweep(9)
    got = [(r.lo, r.n_sets, r.n_feasible, r.n_sufficient) for r in rows]
    assert got == SWEEP9
    assert all(r.hi == 9 for r in rows)
    assert not any(r.optprice_ties for r in rows)  # 5 is the unique optimum


def test_sweep_flags_ties():
    rows = feasibility_sweep(4, lows=[1])
    assert rows[0].optprice_ties
    assert rows[0].n_sufficient == 0  # screening test skipped under ties


def test_sweep_counts_are_consistent():
    for rows in (feasibility_sweep(9), feasibility_sweep(12)):
        for r in rows:
            assert 0 <= r.n_sufficient <= r.n_feasible <= r.n_sets
            assert r.prop_sufficient <= r.prop_feasible


def test_sweep_pruned_equals_exhaustive():
    assert feasibility_sweep(9) == feasibility_sweep(9, exhaustive=True)
    assert feasibility_sweep(12) == feasibility_sweep(12, exhaustive=True)


def test_sweep_pruned_equals_exhaustive_at_16():
    assert feasibility_sweep(16) == feasibility_sweep(16, exhaustive=True)


def test_sweep_carry_cuts_the_feasibility_checks(feasibility_calls):
    """Rows share infeasible verdicts downwards, so the whole top-24 census
    takes at most 200 checks (380 with every row on its own)."""
    feasibility_sweep(24)
    assert 0 < len(feasibility_calls) <= 200


def test_sweep_rows_equal_rows_computed_alone():
    """The carry between rows changes no row, whatever order, repeats or
    gaps the lows come in."""
    alone = {}

    def row(top, lo):
        if (top, lo) not in alone:
            alone[top, lo] = feasibility_sweep(top, [lo])[0]
        return alone[top, lo]

    for top in range(1, 13):
        assert feasibility_sweep(top) == tuple(row(top, lo) for lo in range(1, top + 1))
    rng = random.Random(1717)
    for _ in range(80):
        top = rng.randint(1, 30)
        lows = [rng.randint(1, top) for _ in range(rng.choice((1, 2, 3, 6, 12)))]
        assert feasibility_sweep(top, lows) == tuple(row(top, lo) for lo in lows), (top, lows)


def test_sweep_reproduces_the_census_golden_rows():
    """Every recorded census row comes back byte for byte, with the lows of
    each top in ascending, descending and shuffled order."""
    golden = json.loads((Path(__file__).resolve().parents[1] / "bench/golden/census.json").read_text())
    by_top = {}
    for key, line in golden["rows"].items():
        top, lo = map(int, key.split(","))
        by_top.setdefault(top, {})[lo] = line
    rng = random.Random(2020)
    for top, lines in by_top.items():
        ascending = sorted(lines)
        shuffled = rng.sample(ascending, len(ascending))
        for lows in (ascending, ascending[::-1], shuffled):
            expected = "\n".join([golden["header"], *(lines[lo] for lo in lows)]) + "\n"
            assert serialize.sweep_to_csv(feasibility_sweep(top, lows)) == expected, (top, lows)


def test_drop_below_floor_keeps_windows_feasible():
    """If ``[a, b]`` is feasible, zeroing the masses below any index
    ``t <= a`` keeps it feasible: every price at or above the floor keeps its
    revenue in each segment and lower prices can only lose, so every
    instructed price stays optimal."""
    rng = random.Random(3030)
    checked = 0
    for _ in range(80):
        values = sorted({F(rng.randint(1, 90), rng.randint(1, 4)) for _ in range(rng.randint(3, 12))})
        masses = [F(rng.choice((0, 0, 1, 2, 5, 9)), rng.randint(1, 7)) for _ in values]
        if not any(masses):
            continue
        m = market(values, masses)
        for a in range(len(values)):
            for b in range(a, len(values)):
                w = PriceWindow(a, b)
                if not is_feasible(m, w):
                    continue
                for t in range(1, a + 1):
                    dropped = market(values, [F(0)] * t + masses[t:])
                    assert is_feasible(dropped, w), (m, w, t)
                    checked += 1
    assert checked > 2000


def test_sweep_respects_lows_selection():
    full = feasibility_sweep(9)
    chosen = feasibility_sweep(9, lows=[2, 5])
    assert chosen == (full[1], full[4])


def test_sweep_empty_census_row():
    row = feasibility_sweep(9, lows=[9])[0]
    assert row.n_sets == 0
    assert row.prop_feasible == 0 and row.prop_sufficient == 0


def test_sweep_rejects_bad_ranges():
    with pytest.raises(BadRange):
        feasibility_sweep(0)
    with pytest.raises(BadRange):
        feasibility_sweep(9, lows=[10])
    with pytest.raises(BadRange):
        feasibility_sweep(9, lows=[0])


def test_screening_soundness_on_small_uniforms():
    """Whenever the screening inequality fires, the window is feasible."""
    fired = 0
    for top in range(2, 11):
        m = uniform_market(1, top).scaled(F(top))
        optimal = set(opt_prices(m))
        if len(optimal) != 1:
            continue
        n = len(m.grid)
        for lo in range(n):
            for hi in range(lo, n):
                w = PriceWindow(lo, hi)
                if optimal & set(w.indices()):
                    continue
                if sufficient_condition(m, w):
                    fired += 1
                    assert is_feasible(m, w)
    assert fired > 0
