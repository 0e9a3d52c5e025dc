"""The integer-ray market representation against a dense Fraction reference.

Every peel step of ``producer_optimal`` and ``unregulated_consumer_optimal``
must match ``peel_reference`` exactly (support, gamma, price, segment masses
and residual masses) on every window of uniform 1..R for R <= 12 and on
seeded random markets with ~10^30 mass denominators and non-integer grid
values, and ``is_feasible`` must say feasible exactly when the reference
remainder is zero. Every step of ``welfare_minimal`` must match the
reference's reserve-keeping peels at the least floor mass, there and on the
adversarial net of ``test_differential``, and every step of passive
``consumer_optimal`` the reference's capped peels. The remaining tests pin
the ray's canonical form: markets built by ``Market(...)`` and derived
ones compare and hash alike, every zero market is the same, and ``minus``
still refuses to go negative.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from segmarket import (
    Market,
    PriceWindow,
    equal_revenue_market,
    grid,
    largest_dominated_er,
    market,
    zero_market,
)
from segmarket.passive import (
    consumer_optimal,
    is_feasible,
    minimal_reduction,
    producer_optimal,
    unregulated_consumer_optimal,
    welfare_minimal,
)
from segmarket.regulator import uniform_market

from peel_reference import (
    consumer_steps,
    producer_steps,
    unregulated_steps,
    welfare_minimal_steps,
)
from test_differential import KINDS, adversarial

F = Fraction


def _steps(run):
    return [
        (s.support, s.gamma, s.segment.price_index, list(s.segment.market.masses),
         list(s.residual.masses))
        for s in run.steps
    ]


def _check_canonical(m):
    """The ray is primitive with a positive denominator, every mass is a
    Fraction, and the market equals (and hashes like) a validated copy."""
    assert m._den > 0 and gcd(m._den, *m._nums) == 1, (m._nums, m._den)
    assert all(type(x) is Fraction for x in m.masses)
    built = Market(grid(m.grid.values), m.masses)
    assert m == built and hash(m) == hash(built)


def _check_market(m, windows):
    """Producer peels on each window and the unregulated peels match the
    dense reference step by step, with every derived market canonical, and
    the remainder-only ``is_feasible`` agrees with the reference remainder."""
    g = m.grid
    for w in windows:
        run = producer_optimal(m, w)
        ref, remainder = producer_steps(g, m.masses, w.lo, w.hi)
        assert _steps(run) == ref
        assert list(run.remainder.masses) == remainder
        assert is_feasible(m, w) == (not any(remainder))
        for s in run.steps:
            _check_canonical(s.segment.market)
            _check_canonical(s.residual)
    run = unregulated_consumer_optimal(m)
    assert _steps(run) == unregulated_steps(g, m.masses)


@pytest.mark.parametrize("top", range(1, 13))
def test_every_window_of_uniform_markets_matches_the_reference(top):
    m = uniform_market(1, top)
    windows = [PriceWindow(lo, hi) for lo in range(top) for hi in range(lo, top)]
    _check_market(m, windows)


def _random_market(rng):
    n = rng.randint(3, 9)
    values, v = [], F(0)
    for _ in range(n):
        v += F(rng.randint(1, 40), rng.randint(2, 9))
        values.append(v)
    masses = [F(rng.randrange(10**30), 10**30 + rng.randrange(1, 10**6)) for _ in values]
    for _ in range(rng.randint(0, n // 3)):
        masses[rng.randrange(n)] = F(0)
    if not any(masses):
        masses[0] = F(1, 3)
    return Market(grid(values), tuple(masses))


@pytest.mark.parametrize("seed", range(30))
def test_random_huge_denominator_markets_match_the_reference(seed):
    rng = random.Random(6000 + seed)
    m = _random_market(rng)
    n = len(m.grid)
    windows = []
    for _ in range(3):
        lo = rng.randrange(n)
        windows.append(PriceWindow(lo, rng.randrange(lo, n)))
    _check_market(m, windows)


def _check_welfare_minimal(m, w):
    """The welfare-minimal run on a feasible window matches the reference
    step by step at its least floor mass, leaves nothing, and sells exactly
    that mass at the floor."""
    red = minimal_reduction(m, w)
    ref, remainder = welfare_minimal_steps(m.grid, m.masses, red.floor, w.hi, red.floor_mass)
    assert _steps(welfare_minimal(m, w)) == ref, (m, w)
    assert not any(remainder), (m, w)
    sold = sum(piece[red.floor] for _, _, price, piece, _ in ref if price == red.floor)
    assert sold == red.floor_mass, (m, w)


def test_welfare_minimal_matches_the_reference():
    """On every feasible window of uniform 1..R (R <= 10) and of 15 seeded
    markets with ~10^30 mass denominators, and on the adversarial net."""
    checked = 0
    markets = [uniform_market(1, top) for top in range(1, 11)]
    markets += [_random_market(random.Random(6000 + seed)) for seed in range(15)]
    for m in markets:
        n = len(m.grid)
        for w in (PriceWindow(lo, hi) for lo in range(n) for hi in range(lo, n)):
            if is_feasible(m, w):
                _check_welfare_minimal(m, w)
                checked += 1
    for seed in range(7717, 7721):
        rng = random.Random(seed)
        for kind in KINDS:
            m, w = adversarial(rng, kind)
            if is_feasible(m, w):
                _check_welfare_minimal(m, w)
                checked += 1
    assert checked > 300


def test_consumer_optimal_matches_the_reference():
    """On every feasible window of uniform 1..R (R <= 10) and of 30 seeded
    markets with ~10^30 mass denominators, every step of the passive
    consumer-optimal run (support, gamma, price, slice and residual)
    matches the dense reference, whose caps come pair by pair from the
    unit slice's revenues, and the reference leaves nothing. A capped peel
    empties no entry of its support; enough of them occur to test the
    caps."""
    checked = capped = 0
    markets = [uniform_market(1, top) for top in range(1, 11)]
    markets += [_random_market(random.Random(6000 + seed)) for seed in range(30)]
    for m in markets:
        n = len(m.grid)
        for w in (PriceWindow(lo, hi) for lo in range(n) for hi in range(lo, n)):
            if not is_feasible(m, w):
                continue
            ref, remainder = consumer_steps(m.grid, m.masses, w.lo, w.hi)
            assert _steps(consumer_optimal(m, w)) == ref, (m, w)
            assert not any(remainder), (m, w)
            checked += 1
            capped += sum(all(res[i] for i in sup) for sup, _, _, _, res in ref)
    assert checked > 500 and capped > 50, (checked, capped)


@pytest.mark.parametrize("seed", range(5))
def test_validated_and_derived_markets_agree(seed):
    m = _random_market(random.Random(7000 + seed))
    g = m.grid
    half = m.scaled(F(1, 2))
    gamma, piece = largest_dominated_er(m, m.support())
    derived = [
        half,
        m.minus(half),
        half.plus(half),
        m.scaled(3),
        equal_revenue_market(g, range(len(g))),
        piece,
        m.minus(piece),
    ]
    for d in derived:
        _check_canonical(d)
    assert half.plus(half) == m and hash(half.plus(half)) == hash(m)
    assert m.minus(half) == half
    assert m != half and m != m.masses


def test_every_zero_market_is_the_same():
    m = market(["1/2", "5/3", 4], ["1/10000000000000000000000000000001", 0, "2/7"])
    g = m.grid
    _, empty = largest_dominated_er(m, (1, 2))  # index 1 holds no mass
    zeros = [
        zero_market(g),
        m.minus(m),
        m.scaled(0),
        m.scaled(F(0)),
        empty,
        Market(g, (F(0),) * 3),
        market(["1/2", "5/3", 4], [0, "0/7", "0.0"]),
    ]
    for z in zeros:
        _check_canonical(z)
        assert z.is_zero() and z.support() == () and z.mass() == 0
        assert z.masses == (0, 0, 0)
        assert z == zeros[0] and hash(z) == hash(zeros[0])
    assert m.plus(zeros[0]) == m


def test_minus_raises_on_negative_mass_across_denominators():
    m = _random_market(random.Random(8001))
    tiny = F(1, 10**31 + 7)
    for i in range(len(m.grid)):
        bump = [F(0)] * len(m.grid)
        bump[i] = tiny
        over = m.plus(Market(m.grid, tuple(bump)))
        with pytest.raises(ValueError, match="negative mass"):
            m.minus(over)
        assert over.minus(m).masses == tuple(bump)
    _, piece = largest_dominated_er(m, m.support())
    residual = m.minus(piece)
    with pytest.raises(ValueError, match="negative mass"):
        residual.minus(piece)
