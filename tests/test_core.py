from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segmarket import (
    Market,
    MarketScheme,
    PriceWindow,
    Segment,
    ValueGrid,
    demand,
    grid,
    largest_dominated_er,
    market,
    opt_prices,
    opt_prices_in_window,
    revenue,
    scheme_surplus,
    segment_surplus,
    standardize,
    tail_value,
    uniform_revenue,
    validate_scheme,
    window_uniform_revenue,
)
from segmarket.core import _total
from segmarket.errors import (
    EmptySupport,
    NegativeBound,
    PriceOutsideWindow,
    SegmentationMismatch,
    ZeroMarket,
)

from peel_reference import dense_equal_revenue
from strategies import markets_with_window, small_markets


def F(text):
    return Fraction(text)


def unit_slice(g, support):
    """The unit equal-revenue slice over *support*: the largest one under
    unit masses (each entry of the slice is at most 1), its weight capped
    at 1."""
    return largest_dominated_er(Market(g, [1] * len(g)), support, [1])[1]


def test_grid_rejects_bad_values():
    with pytest.raises(ValueError):
        grid([])
    with pytest.raises(ValueError):
        grid([0, 1])
    with pytest.raises(ValueError):
        grid([1, 1, 2])
    with pytest.raises(ValueError):
        grid([2, 1])


def test_grid_index_of_is_exact():
    g = grid([1, 2, 3, 6])
    assert g.index_of("3") == 2
    assert g.index_of(Fraction(6)) == 3
    with pytest.raises(ValueError):
        g.index_of("4")


def test_market_shape_checks():
    g = grid([1, 2])
    with pytest.raises(ValueError):
        Market(g, (Fraction(1),))
    with pytest.raises(ValueError):
        Market(g, (Fraction(-1), Fraction(2)))


def test_market_arithmetic(m1):
    assert sum(m1.masses) == 1
    assert m1.support() == (0, 1, 2, 3)
    half = m1.scaled(F("1/2"))
    assert half.masses[0] == F("0.18")
    assert m1.minus(half).masses == half.masses
    assert _total(m1.grid, [half, half]) == m1
    with pytest.raises(ValueError):
        half.minus(m1)
    with pytest.raises(ValueError):
        m1.scaled(Fraction(-1))


def test_minus_raises_on_negative_mass(m1):
    for i in range(len(m1.grid)):
        over = [Fraction(0)] * len(m1.grid)
        over[i] = m1.masses[i] + F("1/100")
        with pytest.raises(ValueError, match="negative mass"):
            m1.minus(Market(m1.grid, tuple(over)))
    assert m1.minus(m1).is_zero()
    gap = market([1, 2, 3, 6], [0, "0.20", 0, "0.26"])
    with pytest.raises(ValueError, match="negative mass"):
        gap.minus(market([1, 2, 3, 6], [0, "0.10", "0.01", 0]))


def test_derived_markets_equal_validated_ones(m1):
    half = m1.scaled(F("1/2"))
    gamma, piece = largest_dominated_er(m1, (0, 2, 3))
    derived = [
        half,
        m1.minus(half),
        _total(m1.grid, [half, half]),
        m1.minus(m1),
        unit_slice(m1.grid, (1, 3)),
        piece,
        m1.minus(piece),
    ]
    for d in derived:
        built = Market(grid(m1.grid.values), d.masses)
        assert d == built and hash(d) == hash(built)
        assert all(isinstance(x, Fraction) for x in d.masses)


def test_zero_market(m1):
    z = Market(m1.grid, [0] * 4)
    assert z.is_zero()
    assert z.support() == ()


def test_window_basics():
    w = PriceWindow(1, 2)
    assert len(w) == 2
    assert list(w.indices()) == [1, 2]
    assert 1 in w and 2 in w and 0 not in w and 3 not in w
    with pytest.raises(ValueError):
        PriceWindow(2, 1)
    with pytest.raises(ValueError):
        PriceWindow(-1, 0)


def test_constructors_refuse_floats_and_bools(m1):
    """The constructors own the literal policy: a float would be stored as its
    binary expansion and a bool would pass for an index, so both are refused."""
    g = grid([1, 2])
    for build in (
        lambda: Market(grid([1]), (0.1,)),
        lambda: Market(g, (True, 1)),
        lambda: ValueGrid((0.5, 1.0)),
        lambda: PriceWindow(0.5, 1),
        lambda: PriceWindow(0, 1.0),
        lambda: PriceWindow(True, 1),
        lambda: Segment(m1, True),
        lambda: Segment(m1, 1.0),
    ):
        with pytest.raises(TypeError):
            build()


def test_constructors_convert_literals(m1):
    values, masses = [1, 2, 3, 6], ["0.36", "1/5", F("0.18"), "13/50"]
    built = Market(grid(values), masses)
    assert built == market(values, masses) == m1
    assert all(type(x) is Fraction for x in built.masses)
    assert ValueGrid(("1", 2, "3.0", F(6))) == m1.grid
    assert all(type(v) is Fraction for v in ValueGrid(("1/2", 1)).values)


def test_demand_and_revenue(m1):
    assert demand(m1, 0) == 1
    assert demand(m1, 1) == F("0.64")
    assert demand(m1, 3) == F("0.26")
    assert revenue(m1, 2) == F("1.32")
    assert revenue(m1, 3) == F("1.56")
    with pytest.raises(IndexError):
        demand(m1, 4)


def test_opt_prices(m1):
    assert opt_prices(m1) == (3,)
    with pytest.raises(ZeroMarket):
        opt_prices(Market(m1.grid, [0] * 4))


def test_opt_prices_keeps_ties(m1):
    er = unit_slice(m1.grid, (1, 3))
    assert opt_prices(er) == (1, 3)


def test_opt_prices_in_window(m1, w23):
    assert opt_prices_in_window(m1, w23) == (2,)
    residual = market([1, 2, 3, 6], [0, "0.20", 0, "0.09"])
    assert opt_prices_in_window(residual, w23) == (1,)


def test_uniform_revenues(m1, w23):
    assert uniform_revenue(m1) == F("1.56")
    assert window_uniform_revenue(m1, w23) == F("1.32")
    assert uniform_revenue(Market(m1.grid, [0] * 4)) == 0


def test_tail_value(m1):
    assert tail_value(m1, 0) == F("2.86")
    assert tail_value(m1, 1) == F("2.50")
    assert tail_value(m1, 4) == 0


def test_equal_revenue_market_full_support(m1):
    er = unit_slice(m1.grid, (0, 1, 2, 3))
    assert er.masses == (F("1/2"), F("1/6"), F("1/6"), F("1/6"))
    assert all(revenue(er, i) == 1 for i in er.support())


def test_equal_revenue_market_partial_support(m1):
    er = unit_slice(m1.grid, (2, 3))
    assert er.masses == (0, 0, F("1/2"), F("1/2"))
    assert revenue(er, 2) == revenue(er, 3) == 3
    # off-support prices earn strictly less
    assert revenue(er, 0) < 3 and revenue(er, 1) < 3


def test_equal_revenue_market_errors(m1):
    with pytest.raises(EmptySupport):
        largest_dominated_er(m1, ())
    with pytest.raises(IndexError):
        largest_dominated_er(m1, (4,))


def test_largest_dominated_er_mass_bound(m1):
    gamma, piece = largest_dominated_er(m1, (0, 1, 2, 3))
    assert gamma == F("0.72")
    assert piece.masses == (F("0.36"), F("0.12"), F("0.12"), F("0.12"))
    # the binding coordinate is exhausted
    assert m1.minus(piece).masses[0] == 0


def test_largest_dominated_er_extra_cap(m1):
    cap = market([1, 2, 3, 6], [0, "0.20", "0.09", "0.17"])
    gamma, piece = largest_dominated_er(cap, (2, 3), [F("0.10")])
    assert gamma == F("0.10")
    assert piece.masses == (0, 0, F("0.05"), F("0.05"))


def test_largest_dominated_er_rejects_negative_cap(m1):
    with pytest.raises(NegativeBound):
        largest_dominated_er(m1, (0, 1), [Fraction(-1)])


def test_segment_surplus(m1):
    piece = market([1, 2, 3, 6], ["0.36", "0.12", "0.12", "0.12"])
    s = segment_surplus(Segment(piece, 0))
    assert s.ps == F("0.72")
    assert s.cs == F("0.96")
    assert s.sw == F("1.68")
    # buyers below the price are shut out entirely
    s2 = segment_surplus(Segment(piece, 2))
    assert s2.ps == 3 * F("0.24")
    assert s2.cs == 3 * F("0.12")


def test_scheme_surplus_requires_exact_cover(m1):
    short = MarketScheme(m1, (Segment(m1.scaled(F("1/2")), 3),))
    with pytest.raises(SegmentationMismatch):
        scheme_surplus(short)


def test_standardize_merges_by_price(m1, w23):
    a = market([1, 2, 3, 6], ["0.36", 0, "0.09", "0.09"])
    b = market([1, 2, 3, 6], [0, 0, "0.09", "0.09"])
    c = market([1, 2, 3, 6], [0, "0.20", 0, "0.08"])
    scheme = MarketScheme(
        _total(m1.grid, [a, b, c]), (Segment(a, 2), Segment(b, 2), Segment(c, 1))
    )
    std = standardize(scheme, w23)
    assert len(std.segments) == 2
    assert std.segments[0].price_index == 1
    assert std.segments[0].market.masses == c.masses
    assert std.segments[1].market == _total(m1.grid, [a, b])


def test_standardize_keeps_zero_segments(m1, w23):
    scheme = MarketScheme(m1, (Segment(m1, 2),))
    std = standardize(scheme, w23)
    assert std.segments[0].market.is_zero()
    assert std.segments[1].market.masses == m1.masses


def test_standardize_rejects_outside_prices(m1, w23):
    scheme = MarketScheme(m1, (Segment(m1, 3),))
    with pytest.raises(PriceOutsideWindow):
        standardize(scheme, w23)


def test_validate_scheme_flags_bad_sum(m1, w23):
    piece = market([1, 2, 3, 6], [0, "0.20", 0, "0.08"])  # price 2 is optimal
    scheme = MarketScheme(m1, (Segment(piece, 1),))
    report = validate_scheme(scheme, w23, "passive")
    assert not report.ok
    assert [i.kind for i in report.issues] == ["segmentation-sum"]


def test_validate_scheme_passive_vs_active(m1, w23):
    # optimal inside the window is 2 (tie with 3), globally it is 6
    piece = market([1, 2, 3, 6], [0, "0.1", 0, "0.2"])
    scheme = MarketScheme(piece, (Segment(piece, 1),))
    assert validate_scheme(scheme, w23, "active").ok
    passive_report = validate_scheme(scheme, w23, "passive")
    assert [i.kind for i in passive_report.issues] == ["price-not-optimal"]


def test_validate_scheme_zero_segments_exempt(m1, w23):
    zero = Market(m1.grid, [0] * 4)
    scheme = MarketScheme(zero, (Segment(zero, 1),))
    assert validate_scheme(scheme, w23, "passive").ok


@given(small_markets())
def test_equal_revenue_market_is_flat(m):
    support = m.support()
    er = unit_slice(m.grid, support)
    flat = revenue(er, support[0])
    assert all(revenue(er, i) == flat for i in support)
    assert all(revenue(er, j) < flat for j in range(len(m.grid)) if j not in support)
    assert sum(er.masses) == 1


@given(small_markets())
def test_opt_prices_are_the_argmax_set(m):
    revs = [revenue(m, i) for i in range(len(m.grid))]
    best = max(revs)
    assert opt_prices(m) == tuple(i for i, r in enumerate(revs) if r == best)
    assert uniform_revenue(m) == best


@given(small_markets())
def test_demand_is_antitone(m):
    pairs = zip(range(len(m.grid) - 1), range(1, len(m.grid)))
    assert all(demand(m, i) >= demand(m, j) for i, j in pairs)


@given(markets_with_window())
def test_largest_dominated_er_fits_under_cap(mw):
    m, w = mw
    gamma, piece = largest_dominated_er(m, m.support())
    assert gamma > 0
    residual = m.minus(piece)  # raises if the slice overshoots
    binding = any(residual.masses[i] == 0 for i in m.support())
    assert binding


@st.composite
def markets_with_support(draw):
    m = draw(small_markets())
    n = len(m.grid)
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return m, support


@given(markets_with_support())
def test_equal_revenue_market_matches_the_reciprocal_formula(ms):
    m, support = ms
    er = unit_slice(m.grid, support)
    assert list(er.masses) == dense_equal_revenue(m.grid, support)
    assert er.support() == tuple(sorted(set(support)))


@given(
    markets_with_support(),
    st.lists(st.fractions(min_value=0, max_value=2, max_denominator=50), max_size=2),
)
def test_largest_dominated_er_matches_the_dense_formula(ms, extra):
    m, support = ms
    unit = dense_equal_revenue(m.grid, support)
    bounds = [m.masses[i] / unit[i] for i in range(len(m.grid)) if unit[i] > 0]
    gamma = min(bounds + extra)
    got_gamma, piece = largest_dominated_er(m, support, extra)
    assert got_gamma == gamma
    assert list(piece.masses) == [u * gamma for u in unit]
    assert m.minus(piece).masses == tuple(a - b for a, b in zip(m.masses, piece.masses))
