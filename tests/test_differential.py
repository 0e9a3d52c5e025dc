"""Constructions against the LP oracle at the grid sizes users run.

Seeded adversarial markets on 20-24 values with windows of 2-4 prices:
masses with denominators near 10^30, zero mass at the window floor or cap,
and forced ties between optimal prices. Half the windows are anchored on an
optimal price (hence feasible unless a zeroed endpoint breaks that), the
rest fall anywhere on the grid.
"""

import random
from fractions import Fraction

import pytest

from segmarket import (
    Market,
    PriceWindow,
    active,
    market,
    opt_prices,
    revenue,
    scheme_surplus,
    uniform_revenue,
)
from segmarket.lp import oracle_feasible, oracle_max_ps, oracle_min_floor_mass, oracle_min_ps
from segmarket.passive import is_feasible, minimal_reduction, producer_optimal

F = Fraction
KINDS = ("huge", "tie", "zero", "plain")


def _with_tie(m: Market) -> Market:
    """*m* with its top-value mass shifted until a second price ties for
    optimal.

    Shifting the top mass by ``d`` moves every revenue ``R(j)`` by
    ``v_j * d``. Adding mass, the highest optimal price ``a`` is first caught
    by a dearer price ``j`` at ``d = (R(a) - R(j)) / (v_j - v_a)``; when
    ``a`` is the top value itself, removing mass lets a cheaper price catch
    it the same way.
    """
    g = m.grid
    a = max(opt_prices(m))
    top = len(g) - 1
    rivals = range(a + 1, top + 1) if a < top else range(a)
    shift = min((revenue(m, a) - revenue(m, j)) / abs(g[j] - g[a]) for j in rivals)
    masses = list(m.masses)
    masses[top] += shift if a < top else -shift
    return Market(g, tuple(masses))


def adversarial(rng: random.Random, kind: str) -> tuple[Market, PriceWindow]:
    n = rng.randint(20, 24)
    values = sorted(rng.sample(range(1, 200), n))
    if kind == "huge":
        masses = [
            F(rng.randrange(10**30), 10**30 + rng.randrange(1, 10**6)) for _ in values
        ]
    else:
        masses = [F(rng.randint(0, 99), 100) for _ in values]
    masses[rng.randrange(n)] += F(1, 100)
    m = market(values, masses)
    if kind == "tie":
        m = _with_tie(m)
        assert len(opt_prices(m)) >= 2
    width = rng.randint(2, 4)
    if rng.random() < 0.5:
        p = rng.choice(opt_prices(m))
        lo = rng.randint(max(0, p - width + 1), min(p, n - width))
    else:
        lo = rng.randint(0, n - width)
    w = PriceWindow(lo, lo + width - 1)
    if kind == "zero":
        masses = list(m.masses)
        masses[rng.choice([w.lo, w.hi])] = F(0)
        m = Market(m.grid, tuple(masses))
    return m, w


@pytest.mark.parametrize("seed", range(4))
def test_constructions_match_the_oracle_at_user_sizes(seed):
    rng = random.Random(7717 + seed)
    for kind in KINDS:
        m, w = adversarial(rng, kind)
        feasible = is_feasible(m, w)
        assert oracle_feasible(m, w, "passive") == feasible, (kind, m, w)
        if feasible:
            ps = scheme_surplus(producer_optimal(m, w).scheme).ps
            assert oracle_max_ps(m, w, "passive") == ps, (kind, m, w)
            assert oracle_min_ps(m, w, "passive") == uniform_revenue(m), (kind, m, w)
            red = minimal_reduction(m, w)
            assert red.floor_mass == oracle_min_floor_mass(m, w, red.floor), (kind, m, w)
        marks = active.benchmarks(m, w)
        want = marks.max_welfare - marks.min_consumer_surplus
        assert oracle_max_ps(m, w, "active") == want, (kind, m, w)
