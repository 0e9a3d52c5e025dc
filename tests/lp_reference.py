"""Independent cross-checks for the LP oracle.

* :func:`brute_force` checks the simplex by exact vertex enumeration. Every
  LP handed to it must be bounded (the callers include a box row), so a
  nonempty feasible set has at least one vertex and the optimum of a linear
  objective is attained at one. The enumeration tries every way to make
  ``num_vars`` constraints tight, keeps the feasible intersections, and
  scans the objective over them. Exponential, fine for a handful of
  variables.
* :func:`dense_rows` and :func:`dense_dump` check the integer assembly of
  ``build_lp``: they write the segmentation LP as dense ``Fraction`` rows
  straight from ``Market.masses`` and the grid values, and render them as
  ``dump_lp`` does.
"""

from fractions import Fraction
from itertools import combinations

from segmarket.lp import LPRow

ZERO = Fraction(0)


def dense_rows(m, w, model, price_indices=None):
    """``(columns, rows)`` of the segmentation LP, one dense Fraction row per
    constraint: mass rows in grid order, then the instruction rows."""
    prices = tuple(price_indices) if price_indices is not None else tuple(w.indices())
    n = len(m.grid)
    columns = tuple((q, i) for q in prices for i in range(n))
    col = {qi: k for k, qi in enumerate(columns)}
    g = m.grid
    rows = []
    for i in range(n):
        coeffs = [ZERO] * len(columns)
        for q in prices:
            coeffs[col[(q, i)]] = Fraction(1)
        rows.append(LPRow(f"mass[v={g[i]}]", tuple(coeffs), "==", m.masses[i]))
    rivals = range(n) if model == "passive" else w.indices()
    for q in prices:
        for j in rivals:
            if j == q:
                continue
            coeffs = [ZERO] * len(columns)
            for i in range(q, n):
                coeffs[col[(q, i)]] += g[q]
            for i in range(j, n):
                coeffs[col[(q, i)]] -= g[j]
            rows.append(LPRow(f"opt[p={g[q]},rival={g[j]}]", tuple(coeffs), ">=", ZERO))
    return columns, tuple(rows)


def dense_dump(m, model, columns, rows):
    """The text ``dump_lp`` writes for these rows, with no objective."""
    g = m.grid
    names = [f"x[p={g[q]},v={g[i]}]" for q, i in columns]

    def term_list(coeffs):
        parts = []
        for c, name in zip(coeffs, names):
            if c != 0:
                parts.append(f"{'+ ' if c > 0 and parts else ''}{c}*{name}")
        return " ".join(parts) if parts else "0"

    lines = [f"model: {model}", "subject to:"]
    for row in rows:
        lines.append(f"  {row.name}: {term_list(row.coeffs)} {row.relation} {row.rhs}")
    lines.append("  all variables >= 0")
    return "\n".join(lines)


def _solve_square(system):
    """Solve a square exact linear system; None if singular."""
    n = len(system)
    a = [list(coeffs) + [rhs] for coeffs, rhs in system]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _satisfies(x, row: LPRow) -> bool:
    lhs = sum((c * v for c, v in zip(row.coeffs, x)), Fraction(0))
    if row.relation == "==":
        return lhs == row.rhs
    if row.relation == "<=":
        return lhs <= row.rhs
    return lhs >= row.rhs


def brute_force(num_vars, rows, objective, sense="min"):
    """Optimal objective value over the polytope, or None when it is empty."""
    axes = [
        LPRow(
            f"axis{i}",
            tuple(Fraction(1 if j == i else 0) for j in range(num_vars)),
            ">=",
            Fraction(0),
        )
        for i in range(num_vars)
    ]
    pool = list(rows) + axes
    best = None
    for combo in combinations(range(len(pool)), num_vars):
        system = [(pool[k].coeffs, pool[k].rhs) for k in combo]
        x = _solve_square(system)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if not all(_satisfies(x, row) for row in rows):
            continue
        value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
        if best is None:
            best = value
        elif sense == "min":
            best = min(best, value)
        else:
            best = max(best, value)
    return best
