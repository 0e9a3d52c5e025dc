"""Exact linear-programming oracle for segmentation problems.

This module is deliberately independent of the constructive algorithms in
``passive.py`` and ``active.py``. It writes segmentation down as a linear
program over per-segment mass variables ``x[p, v]`` (mass of value-``v``
buyers placed in the segment priced ``p``) and solves it with a two-phase
simplex using Bland's rule, so every verdict and optimum is exact. The
tableau is fraction-free and sparse, in the spirit of Bareiss (1968) and of
QSopt_ex (Applegate, Cook, Dash & Espinoza, 2007): each row holds only its
nonzero entries as Python ints, a pivot cross-multiplies the rows it touches
and divides out their gcd, and only the final value and assignment are
turned into Fractions. The constructive route and this oracle must agree;
the test suite leans on that redundancy.

The LP for a market ``x*`` and price window ``F``:

* variables ``x[q, i] >= 0`` for every window price index ``q`` and grid
  index ``i``;
* segmentation rows: for each ``i``, ``sum_q x[q, i] = x*_i``;
* instruction rows: pricing segment ``q`` at ``v_q`` must earn at least as
  much as any rival price ``v_j`` on that segment, where rivals range over
  the whole grid in the passive model but only over the window in the active
  model.

The rows are assembled in integers, straight from the market's ray
``x* = _nums / _den`` and the value scale the grid keeps
(``ValueGrid._scale``): the values times the lcm ``L`` of their
denominators, ``V = v * L``. Each is written once, as the primitive integer
row the simplex starts from (gcd 1, same signs), with the positive rational
``unit`` that turns it back into the row as written:

* mass row ``i``: ``_den`` on every ``x[q, i]`` and ``_nums[i]`` on the
  right, over their gcd ``c``; the unit is ``c / _den``;
* instruction row ``(q, j)``: on ``x[q, i]``, ``V_q - V_j`` for
  ``i >= max(q, j)``, ``V_q`` for ``q <= i < j`` and ``-V_j`` for
  ``j <= i < q``, over ``t = gcd(V_q, V_j)``; the unit is ``t / L``.

The oracles hand these rows to the simplex core; ``SegmentationLP.rows``,
the ``LPRow`` view that :func:`dump_lp` and :func:`solve` read, is derived
from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Literal, NamedTuple, Sequence

from .core import Market, Model, PriceWindow, ZERO, _check_window
from .errors import InfeasibleWindow, InvariantViolation
from .rationals import _pair

Relation = Literal["==", "<=", ">="]
Status = Literal["optimal", "infeasible"]

_SIGN = {"<=": 1, ">=": -1, "==": 0}  # the sign of a row's slack; "==" has none


@dataclass(frozen=True)
class LPRow:
    name: str
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class LPResult:
    status: Status
    value: Fraction | None
    assignment: tuple[Fraction, ...] | None


class _Row(NamedTuple):
    """A row as the simplex starts from it: the nonzero integer coefficients
    by column and the right-hand side, together primitive; ``unit`` is the
    positive rational ``(num, den)`` that scales it back to the row as
    written."""

    coeffs: dict[int, int]
    relation: Relation
    rhs: int
    unit: tuple[int, int] = (1, 1)


def solve(
    num_vars: int,
    rows: Sequence[LPRow],
    objective: Sequence[Fraction],
    sense: Literal["min", "max"] = "min",
) -> LPResult:
    """Solve min/max of ``objective . x`` subject to *rows* and ``x >= 0``.

    Every coefficient, right-hand side and objective entry is read as an
    exact rational through ``rationals._pair``, so floats and bools raise
    TypeError as they do in ``Market(...)``. Each row becomes a primitive
    integer row (times the lcm of its denominators, over its gcd) and the
    objective an integer vector over one positive scale; :func:`_simplex`
    solves the result, the same core the oracles call on the rows
    :func:`build_lp` assembles.
    """
    if len(objective) != num_vars:
        raise ValueError("objective length must equal the variable count")
    lines = []
    for row in rows:
        if len(row.coeffs) != num_vars:
            raise ValueError(f"row {row.name} has the wrong width")
        *coeffs, rhs = _primitive([*row.coeffs, row.rhs])
        lines.append(_Row({j: c for j, c in enumerate(coeffs) if c}, row.relation, rhs))
    *cost, scale = _primitive([*objective, 1])
    return _simplex(num_vars, lines, {j: c for j, c in enumerate(cost) if c}, scale, sense)


def _primitive(values: Sequence[int | str | Fraction]) -> list[int]:
    """*values* read as exact rationals, times the lcm of their denominators,
    over the gcd of the results: the primitive integer vector with the same
    signs."""
    pairs = [_pair(v) for v in values]
    scale = lcm(*[d for _, d in pairs])
    ints = [n * (scale // d) for n, d in pairs]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _simplex(
    num_vars: int,
    rows: Sequence[_Row],
    objective: dict[int, int],
    scale: int,
    sense: Literal["min", "max"],
) -> LPResult:
    """Min/max of ``objective . x / scale`` subject to the integer *rows* and
    ``x >= 0``; *scale* is positive and *objective* holds nonzero entries.

    Two-phase simplex with Bland's rule, so it terminates on every input. The
    tableau is fraction-free and sparse: a row is a ``{column: int}`` dict of
    its nonzeros, kept primitive (any positive multiple of an equation is the
    same equation), and a basic variable's value is the row's right-hand side
    over its own coefficient. The rows come in primitive: an artificial
    enters with coefficient 1, so a row's scale would weight phase 1. Sign
    and ratio tests are exact, so the pivots are those a Fraction tableau
    would take; the value and assignment come back as Fractions.
    Unboundedness raises RuntimeError: the segmentation polytopes this module
    builds are bounded, so hitting it means a malformed program.
    """
    # Columns: structural variables, then slacks, then one artificial slot
    # per row (column art_start + i), then the right-hand side and, in cost
    # rows only, their positive denominator: cost = row / row[den].
    art_start = num_vars + sum(1 for r in rows if r.relation != "==")
    rhs = art_start + len(rows)
    den = rhs + 1
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    slack = num_vars
    for i, (coeffs, relation, b, _) in enumerate(rows):
        sign = _SIGN[relation]
        # Sign the row so its rhs is >= 0 and, when the rhs is 0, its slack
        # is +1: such a row starts basic on its slack, the rest on an
        # artificial.
        if b < 0 or (sign < 0 and not b):
            line = {j: -v for j, v in coeffs.items()}
            b, sign = -b, -sign
        else:
            line = dict(coeffs)
        if b:
            line[rhs] = b
        if sign:
            line[slack] = sign
            slack += 1
        if sign <= 0:
            line[art_start + i] = 1
        basis.append(slack - 1 if sign > 0 else art_start + i)
        tableau.append(line)

    if any(b >= art_start for b in basis):
        # Phase 1: minimize the sum of artificials.
        cost = {b: 1 for b in basis if b >= art_start}
        cost[den] = 1
        cost = _iterate(tableau, basis, cost, rhs, rhs)
        if cost.get(rhs, 0) < 0:
            return LPResult("infeasible", None, None)

        # Drive leftover artificials out of the basis; drop redundant rows
        # and the artificial columns.
        keep: list[int] = []
        for i, b in enumerate(basis):
            if b >= art_start:
                cols = [j for j in tableau[i] if j < art_start]
                if not cols:
                    continue  # all-zero row: redundant constraint
                _pivot(tableau, basis, i, min(cols))
            keep.append(i)
        tableau = [
            {j: v for j, v in tableau[i].items() if not art_start <= j < rhs}
            for i in keep
        ]
        basis = [basis[i] for i in keep]

    # Phase 2 over the original objective.
    flip = -1 if sense == "max" else 1
    cost = {j: flip * v for j, v in objective.items()}
    cost[den] = scale
    cost = _iterate(tableau, basis, cost, art_start, rhs)
    value = Fraction(-cost.get(rhs, 0), cost[den])
    x = [ZERO] * num_vars
    for line, b in zip(tableau, basis):
        if b < num_vars:
            x[b] = Fraction(line.get(rhs, 0), line[b])
    return LPResult("optimal", flip * value, tuple(x))


def _combine(line: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """``p * line - line[col] * prow`` for the pivot entry ``p = prow[col] > 0``,
    made primitive: *line* with *col* eliminated, up to a positive factor.
    Only *line*'s and *prow*'s nonzeros are visited."""
    p, f = prow[col], line[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {j: p * v for j, v in line.items()} if p != 1 else dict(line)
    for j, v in prow.items():
        x = out.get(j, 0) - f * v
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def _iterate(
    tableau: list[dict[int, int]],
    basis: list[int],
    cost: dict[int, int],
    allowed: int,
    rhs: int,
) -> dict[int, int]:
    """Price the basic columns out of *cost*, then pivot until no reduced cost
    among columns < *allowed* is negative; return the final cost row. Ratios
    ``rhs / a`` compare by cross-multiplying."""
    for line, b in zip(tableau, basis):
        if b in cost:
            cost = _combine(cost, line, b)
    while True:
        col = min((j for j, v in cost.items() if v < 0 and j < allowed), default=-1)
        if col < 0:
            return cost
        row, best_b, best_a = -1, 0, 1
        for i, line in enumerate(tableau):
            a = line.get(col, 0)
            if a > 0:
                b = line.get(rhs, 0)
                d = b * best_a - best_b * a
                if row < 0 or d < 0 or (d == 0 and basis[i] < basis[row]):
                    row, best_b, best_a = i, b, a
        if row < 0:
            raise RuntimeError("LP is unbounded; segmentation LPs never are")
        _pivot(tableau, basis, row, col)
        cost = _combine(cost, tableau[row], col)


def _pivot(tableau: list[dict[int, int]], basis: list[int], row: int, col: int) -> None:
    """Make *col* basic in *row*, eliminating it from every other row that has it.

    A negative pivot entry (driving out an artificial, whose rhs is 0) flips
    the pivot row's sign first, so every row keeps a positive scale."""
    if tableau[row][col] < 0:
        tableau[row] = {j: -v for j, v in tableau[row].items()}
    prow = tableau[row]
    for i, line in enumerate(tableau):
        if i != row and col in line:
            tableau[i] = _combine(line, prow, col)
    basis[row] = col


@dataclass(frozen=True)
class SegmentationLP:
    """A segmentation LP instance: its integer rows (mass rows in grid order,
    then one instruction row per ``(q, j)`` of *pairs*), and which
    ``x[q, i]`` each column holds, so objectives and renderings can address
    variables."""

    market: Market
    model: Model
    columns: tuple[tuple[int, int], ...]  # column -> (price index q, grid index i)
    pairs: tuple[tuple[int, int], ...]  # instruction row -> (price q, rival j)
    int_rows: tuple[_Row, ...]

    @cached_property
    def rows(self) -> tuple[LPRow, ...]:
        """The rows as written: each integer row times its unit, as a dense
        ``Fraction`` row named after what it constrains."""
        g = self.market.grid
        names = [f"mass[v={v}]" for v in g.values]
        names += [f"opt[p={g[q]},rival={g[j]}]" for q, j in self.pairs]
        out = []
        for name, (coeffs, relation, rhs, (num, den)) in zip(names, self.int_rows):
            dense = [ZERO] * len(self.columns)
            for k, c in coeffs.items():
                dense[k] = Fraction(c * num, den)
            out.append(LPRow(name, tuple(dense), relation, Fraction(rhs * num, den)))
        return tuple(out)


def build_lp(
    m: Market,
    w: PriceWindow,
    model: Model,
    price_indices: Sequence[int] | None = None,
) -> SegmentationLP:
    """Assemble the segmentation LP as primitive integer rows (see the module
    docstring), read straight from the market's ray and the scaled grid.

    *price_indices* restricts which window prices get a segment (defaults to
    all of them); they must be distinct. Instruction rows still compare
    against the full rival set of the model.
    """
    _check_window(m.grid, w)
    prices = tuple(price_indices) if price_indices is not None else tuple(w.indices())
    if any(q not in w for q in prices):
        raise ValueError("segment prices must lie inside the window")
    if len(set(prices)) != len(prices):
        raise ValueError("segment prices must be distinct")
    n = len(m.grid)
    columns = tuple((q, i) for q in prices for i in range(n))
    den = m._den
    rows = []
    for i, num in enumerate(m._nums):
        c = gcd(den, num) if prices else num or 1
        coeffs = dict.fromkeys(range(i, len(columns), n), den // c)
        rows.append(_Row(coeffs, "==", num // c, (c, den)))
    big, values = m.grid._scale
    rivals = range(n) if model == "passive" else w.indices()
    pairs = []
    for base, q in zip(range(0, len(columns), n), prices):
        for j in rivals:
            if j == q:
                continue
            t = gcd(values[q], values[j])
            vq, vj = values[q] // t, values[j] // t
            lo, hi = (q, j) if q < j else (j, q)
            coeffs = dict.fromkeys(range(base + lo, base + hi), vq if q < j else -vj)
            for k in range(base + hi, base + n):
                coeffs[k] = vq - vj
            rows.append(_Row(coeffs, ">=", 0, (t, big)))
            pairs.append((q, j))
    return SegmentationLP(m, model, columns, tuple(pairs), tuple(rows))


def dump_lp(lp: SegmentationLP, objective: Sequence[Fraction] | None = None) -> str:
    """Plain-text equational rendering for debugging and auditing."""
    g = lp.market.grid
    names = [f"x[p={g[q]},v={g[i]}]" for q, i in lp.columns]

    def term_list(coeffs: Sequence[Fraction]) -> str:
        parts = []
        for c, name in zip(coeffs, names):
            if c == 0:
                continue
            parts.append(f"{'+ ' if c > 0 and parts else ''}{c}*{name}")
        return " ".join(parts) if parts else "0"

    lines = []
    if objective is not None:
        lines.append(f"objective: {term_list(objective)}")
    lines.append(f"model: {lp.model}")
    lines.append("subject to:")
    for row in lp.rows:
        lines.append(f"  {row.name}: {term_list(row.coeffs)} {row.relation} {row.rhs}")
    lines.append("  all variables >= 0")
    return "\n".join(lines)


def _surplus_objective(lp: SegmentationLP, kind: Literal["cs", "ps"]) -> tuple[dict[int, int], int]:
    """The consumer or producer surplus of a segmentation as ``(c, L)``:
    ``c . x / L``, with ``c`` the nonzero integer coefficients by column."""
    big, values = lp.market.grid._scale
    out = {}
    for k, (q, i) in enumerate(lp.columns):
        if i >= q and (c := values[i] - values[q] if kind == "cs" else values[q]):
            out[k] = c
    return out, big


def oracle_feasible(m: Market, w: PriceWindow, model: Model) -> bool:
    """Whether any model-consistent segmentation prices everything in the window."""
    lp = build_lp(m, w, model)
    return _simplex(len(lp.columns), lp.int_rows, {}, 1, "min").status == "optimal"


def _optimum(
    lp: SegmentationLP,
    objective: tuple[dict[int, int], int],
    sense: Literal["min", "max"],
    infeasible: str = "no valid segmentation prices everything in the window",
) -> Fraction:
    """The optimal value of ``c . x / L`` for ``objective = (c, L)``, or
    InfeasibleWindow with message *infeasible*."""
    result = _simplex(len(lp.columns), lp.int_rows, *objective, sense)
    if result.status != "optimal":
        raise InfeasibleWindow(infeasible)
    if result.value is None:
        raise InvariantViolation("an optimal LP result carries no value")
    return result.value


def oracle_min_cs(m: Market, w: PriceWindow, model: Model) -> Fraction:
    lp = build_lp(m, w, model)
    return _optimum(lp, _surplus_objective(lp, "cs"), "min")


def oracle_max_ps(m: Market, w: PriceWindow, model: Model) -> Fraction:
    lp = build_lp(m, w, model)
    return _optimum(lp, _surplus_objective(lp, "ps"), "max")


def oracle_min_ps(m: Market, w: PriceWindow, model: Model) -> Fraction:
    lp = build_lp(m, w, model)
    return _optimum(lp, _surplus_objective(lp, "ps"), "min")


def oracle_min_floor_mass(m: Market, w: PriceWindow, floor: int) -> Fraction:
    """Least mass of value-``floor`` buyers that any passive segmentation
    restricted to prices ``{floor..hi}`` must place in the segment priced at
    the floor value."""
    if floor not in w:
        raise ValueError("floor must lie inside the window")
    lp = build_lp(m, w, "passive", price_indices=range(floor, w.hi + 1))
    return _optimum(
        lp, ({lp.columns.index((floor, floor)): 1}, 1), "min",
        "no passive segmentation prices everything in the reduced window",
    )
