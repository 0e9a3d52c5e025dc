import random
from fractions import Fraction
from math import gcd

import pytest

from segmarket import Market, MarketScheme, PriceWindow, Segment, market, validate_scheme
from segmarket import lp
from segmarket.errors import InfeasibleWindow, InvariantViolation
from segmarket.lp import (
    LPResult,
    LPRow,
    build_lp,
    dump_lp,
    oracle_feasible,
    oracle_max_ps,
    oracle_min_cs,
    oracle_min_floor_mass,
    oracle_min_ps,
    solve,
)

from lp_reference import brute_force, dense_dump, dense_rows

F = Fraction


def test_solve_small_min():
    # min x
    # s.t. x + y == 4, x >= 1
    rows = [
        LPRow("sum", (F(1), F(1)), "==", F(4)),
        LPRow("floor", (F(1), F(0)), ">=", F(1)),
    ]
    result = solve(2, rows, [F(1), F(0)], "min")
    assert result.status == "optimal"
    assert result.value == 1
    assert result.assignment == (F(1), F(3))


def test_solve_max_sense():
    rows = [LPRow("cap", (F(2), F(1)), "<=", F(10))]
    result = solve(2, rows, [F(3), F(1)], "max")
    assert result.status == "optimal"
    assert result.value == 15


def test_solve_detects_infeasible():
    rows = [
        LPRow("lo", (F(1),), ">=", F(2)),
        LPRow("hi", (F(1),), "<=", F(1)),
    ]
    assert solve(1, rows, [F(1)], "min").status == "infeasible"


def test_solve_handles_redundant_equalities():
    rows = [
        LPRow("a", (F(1), F(1)), "==", F(2)),
        LPRow("b", (F(2), F(2)), "==", F(4)),
    ]
    result = solve(2, rows, [F(1), F(0)], "min")
    assert result.status == "optimal"
    assert result.value == 0


def test_solve_unbounded_raises():
    with pytest.raises(RuntimeError):
        solve(1, [], [F(-1)], "min")


def test_solve_rejects_bad_widths():
    with pytest.raises(ValueError):
        solve(2, [], [F(1)], "min")
    with pytest.raises(ValueError):
        solve(1, [LPRow("r", (F(1), F(1)), "<=", F(1))], [F(1)], "min")


@pytest.mark.parametrize("rows,objective", [
    ([LPRow("r", (0.1,), "<=", F(1))], [F(1)]),
    ([LPRow("r", (F(1),), "<=", 0.5)], [F(1)]),
    ([LPRow("r", (F(1),), "<=", F(1))], [0.3]),
    ([LPRow("r", (True,), "<=", F(1))], [F(1)]),
    ([LPRow("r", (F(1),), "<=", True)], [F(1)]),
    ([LPRow("r", (F(1),), "<=", F(1))], [False]),
])
def test_solve_refuses_floats_and_bools(rows, objective):
    """Coefficients, right-hand sides and objective entries are read like
    ``Market`` masses: a float or a bool is a TypeError, not its binary
    expansion or 1."""
    with pytest.raises(TypeError):
        solve(1, rows, objective, "max")


def test_solve_terminates_on_beales_cycling_example():
    """Beale (1955): the largest-coefficient rule cycles here; Bland's rule
    must reach the optimum -5/4 at x = (1, 0, 1, 0)."""
    rows = [
        LPRow("r1", (F(1, 4), F(-8), F(-1), F(9)), "<=", F(0)),
        LPRow("r2", (F(1, 2), F(-12), F(-1, 2), F(3)), "<=", F(0)),
        LPRow("r3", (F(0), F(0), F(1), F(0)), "<=", F(1)),
    ]
    result = solve(4, rows, [F(-3, 4), F(20), F(-1, 2), F(6)], "min")
    assert result.status == "optimal"
    assert result.value == F(-5, 4)
    assert result.assignment == (F(1), F(0), F(1), F(0))


def test_solve_zero_rhs_lower_rows():
    """``>=`` rows with rhs 0 (which start basic on their own slack) mixed
    with an equality, and with no equality at all (no phase 1)."""
    rows = [
        LPRow("sum", (F(1), F(1), F(1)), "==", F(6)),
        LPRow("x>=y", (F(1), F(-1), F(0)), ">=", F(0)),
        LPRow("y>=2z", (F(0), F(1), F(-2)), ">=", F(0)),
    ]
    result = solve(3, rows, [F(1), F(0), F(0)], "min")
    assert result.status == "optimal"
    assert result.value == F(12, 5)
    assert result.assignment == (F(12, 5), F(12, 5), F(6, 5))
    assert solve(3, rows, [F(0), F(0), F(1)], "max").value == F(6, 5)

    rows = [
        LPRow("x>=y", (F(1), F(-1)), ">=", F(0)),
        LPRow("2y>=x", (F(-1), F(2)), ">=", F(0)),
        LPRow("cap", (F(1), F(0)), "<=", F(4)),
    ]
    result = solve(2, rows, [F(1), F(1)], "max")
    assert result.status == "optimal"
    assert result.value == 8
    assert result.assignment == (F(4), F(4))


def test_solve_leaves_its_arguments_unchanged():
    rows = [
        LPRow("a", (F(1, 3), F(2)), ">=", F(1, 7)),
        LPRow("b", (F(1), F(1)), "==", F(5, 2)),
        LPRow("c", (F(-1), F(3)), "<=", F(-1, 2)),
    ]
    objective = [F(2, 9), F(-1, 4)]
    rows_before, objective_before = list(rows), list(objective)
    for sense in ("min", "max"):
        assert solve(2, rows, objective, sense).status == "optimal"
        assert rows == rows_before
        assert objective == objective_before


def test_optimum_without_a_value_is_a_typed_error(m1, w23, monkeypatch):
    """The invariant holds under ``python -O`` too: it raises, not asserts."""
    monkeypatch.setattr(lp, "_simplex", lambda *args: LPResult("optimal", None, None))
    with pytest.raises(InvariantViolation):
        oracle_min_cs(m1, w23, "passive")


def test_solve_matches_vertex_enumeration():
    """Random boxed LPs: status and optimal value agree with brute force."""
    rng = random.Random(4117)
    relations = ["<=", ">=", "=="]
    for trial in range(60):
        num_vars = rng.randint(1, 3)
        rows = [
            LPRow(
                f"r{k}",
                tuple(F(rng.randint(-3, 3)) for _ in range(num_vars)),
                rng.choice(relations),
                F(rng.randint(-4, 4)),
            )
            for k in range(rng.randint(1, 4))
        ]
        rows.append(LPRow("box", (F(1),) * num_vars, "<=", F(10)))
        objective = [F(rng.randint(-3, 3)) for _ in range(num_vars)]
        sense = rng.choice(["min", "max"])
        got = solve(num_vars, rows, objective, sense)
        want = brute_force(num_vars, rows, objective, sense)
        if want is None:
            assert got.status == "infeasible", (trial, rows)
        else:
            assert got.status == "optimal", (trial, rows)
            assert got.value == want, (trial, rows, objective, sense)


def test_build_lp_shapes(m1, w23):
    lp = build_lp(m1, w23, "passive")
    assert len(lp.columns) == 8  # 2 window prices x 4 grid values
    assert sum(1 for r in lp.rows if r.relation == "==") == 4
    assert sum(1 for r in lp.rows if r.relation == ">=") == 6  # 3 rivals each
    active = build_lp(m1, w23, "active")
    assert sum(1 for r in active.rows if r.relation == ">=") == 2  # 1 rival each


def test_build_lp_rejects_bad_inputs(m1):
    with pytest.raises(ValueError):
        build_lp(m1, PriceWindow(1, 4), "passive")
    with pytest.raises(ValueError):
        build_lp(m1, PriceWindow(1, 2), "passive", price_indices=[0])
    with pytest.raises(ValueError):
        build_lp(m1, PriceWindow(1, 2), "passive", price_indices=[1, 2, 1])


def _assembly_cases():
    """Seeded markets with integer, fractional and 10**30-denominator values
    and masses, zero masses included, each with a window and a price subset."""
    rng = random.Random(2417)
    huge = 10**30 + 7
    yield market([1, 2, 3, 6], ["0.36", "0.20", "0.18", "0.26"]), PriceWindow(1, 2), None
    yield market([1, 2, 3], [0, 0, 0]), PriceWindow(0, 2), None
    for trial in range(240):
        n = rng.randint(2, 9)
        d = [1, rng.randint(2, 12), huge][trial % 3]
        values = sorted({F(rng.randint(1, 50 * d), d) for _ in range(n)})
        n = len(values)
        masses = [
            0 if rng.random() < 0.25 else F(rng.randint(1, huge), rng.choice([1, 100, huge]))
            for _ in range(n)
        ]
        lo = rng.randrange(n)
        w = PriceWindow(lo, rng.randrange(lo, n))
        subset = [q for q in w.indices() if rng.random() < 0.6]
        yield market(values, masses), w, subset if trial % 2 else None


def test_build_lp_rows_match_the_dense_fraction_builder():
    """The integer assembly, read back through ``rows`` and ``dump_lp``, is
    the dense Fraction builder's LP row for row and byte for byte."""
    for m, w, subset in _assembly_cases():
        for model in ("passive", "active"):
            lp = build_lp(m, w, model, subset)
            columns, rows = dense_rows(m, w, model, subset)
            assert lp.columns == columns
            assert len(lp.rows) == len(rows)
            for got, want in zip(lp.rows, rows):
                assert got.name == want.name
                assert got.relation == want.relation
                assert got.coeffs == want.coeffs and got.rhs == want.rhs, want.name
            assert dump_lp(lp) == dense_dump(m, model, columns, rows)


def test_integer_rows_are_primitive_and_start_the_same_simplex():
    """Each integer row is its dense row scaled to gcd 1, so the oracles and
    ``solve`` on the dense rows give the same answers."""
    for m, w, subset in list(_assembly_cases())[:20]:
        lp = build_lp(m, w, "passive", subset)
        for row, dense in zip(lp.int_rows, lp.rows):
            assert gcd(*row.coeffs.values(), row.rhs) == (1 if row.coeffs or row.rhs else 0)
            assert all(
                F(c) * F(*row.unit) == dense.coeffs[k] for k, c in row.coeffs.items()
            )
        feasible = solve(len(lp.columns), lp.rows, [F(0)] * len(lp.columns)).status
        assert oracle_feasible(m, w, "passive") == (feasible == "optimal")


def test_oracle_values_reference_market(m1, w23):
    assert oracle_feasible(m1, w23, "passive")
    assert oracle_min_cs(m1, w23, "passive") == F("43/50")
    assert oracle_max_ps(m1, w23, "passive") == F("41/25")
    assert oracle_min_ps(m1, w23, "passive") == F("39/25")
    assert oracle_min_cs(m1, w23, "active") == F("39/50")
    assert oracle_max_ps(m1, w23, "active") == F("43/25")
    assert oracle_min_ps(m1, w23, "active") == F("33/25")


def test_oracle_detects_infeasible_window(m1):
    w3 = PriceWindow(2, 2)
    assert not oracle_feasible(m1, w3, "passive")
    with pytest.raises(InfeasibleWindow):
        oracle_min_cs(m1, w3, "passive")
    # the active model can always confine prices to one value with mass above
    assert oracle_feasible(m1, w3, "active")


def test_oracle_min_floor_mass(m1, w23):
    eta = oracle_min_floor_mass(m1, w23, floor=1)
    assert eta == F("4/25")
    # minimality certificate: capping the floor cell below eta kills the LP
    lp = build_lp(m1, w23, "passive", price_indices=[1, 2])
    cap = [F(0)] * len(lp.columns)
    cap[lp.columns.index((1, 1))] = F(1)
    rows = [*lp.rows, LPRow("cap", tuple(cap), "<=", eta - F("1/100"))]
    assert solve(len(lp.columns), rows, [F(0)] * len(lp.columns)).status == "infeasible"
    with pytest.raises(ValueError):
        oracle_min_floor_mass(m1, w23, floor=0)


def test_solution_scheme_validates(m1, w23):
    lp = build_lp(m1, w23, "passive")
    result = solve(len(lp.columns), lp.rows, [F(0)] * len(lp.columns))
    assert result.status == "optimal"
    # the columns come in blocks of n, one block per window price
    n = len(m1.grid)
    x = result.assignment
    scheme = MarketScheme(m1, tuple(
        Segment(Market(m1.grid, x[k * n : (k + 1) * n]), q)
        for k, q in enumerate(w23.indices())
    ))
    assert scheme.segments_total().masses == m1.masses
    assert validate_scheme(scheme, w23, "passive").ok


def test_segmentation_lp_against_vertex_enumeration():
    """A grid small enough for brute force still agrees on the surplus bounds."""
    m = market([1, 2, 4], ["1/2", "1/4", "1/4"])
    w = PriceWindow(0, 1)
    lp = build_lp(m, w, "passive")
    for kind, sense, oracle in [
        ("cs", "min", oracle_min_cs),
        ("ps", "max", oracle_max_ps),
        ("ps", "min", oracle_min_ps),
    ]:
        objective = [
            (m.grid[i] - m.grid[q] if kind == "cs" else m.grid[q]) if i >= q else F(0)
            for q, i in lp.columns
        ]
        want = brute_force(len(lp.columns), lp.rows, objective, sense)
        assert want is not None
        assert oracle(m, w, "passive") == want


def test_dump_lp_is_readable(m1, w23):
    text = dump_lp(build_lp(m1, w23, "passive"))
    assert "mass[v=1]" in text
    assert ">=" in text and "==" in text
