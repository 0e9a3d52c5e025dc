"""Regenerate the input pools and golden outputs under bench/golden/.

Run from the repository root:

    python3 bench/record_golden.py

The pools are drawn from fixed master seeds, so rerunning at the same commit
writes identical files. Every golden value is computed by the library at the
recording commit and cross-checked on an independent path before it is
written; the benchmark later compares the CLI's output against it.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from segmarket import active, lp, passive, region, regulator, serialize  # noqa: E402
from segmarket.core import Market, PriceWindow, ValueGrid, scheme_surplus  # noqa: E402

import workloads  # noqa: E402

GOLDEN = HERE / "golden"
EXHAUSTIVE_TOP = 24  # census tops up to here are re-derived with exhaustive=True
REGION_CANDIDATES = 8  # per size, of which the most typical is kept
ORACLE_CANDIDATES = 16  # per size and verdict, of which the two most typical are kept


def lp_work(fn, *args):
    """Call *fn*, also returning the LP tableau cells its pivots touched.

    A deterministic stand-in for the cost of an LP-bound job, used to pick
    pool entries of typical cost for their size rather than outliers.
    """
    cells = 0
    original = lp._pivot

    def counting(tableau, basis, row, col):
        nonlocal cells
        cells += len(tableau) * len(tableau[0])
        return original(tableau, basis, row, col)

    lp._pivot = counting
    try:
        return fn(*args), cells
    finally:
        lp._pivot = original


def typical(candidates: list[tuple[int, dict]], keep: int) -> list[dict]:
    """The *keep* entries whose LP work is closest to the median, in log terms."""
    mid = sorted(w for w, _ in candidates)[len(candidates) // 2]
    ranked = sorted(candidates, key=lambda c: abs(math.log((c[0] + 1) / (mid + 1))))
    return [entry for _, entry in ranked[:keep]]


def random_market(rng: random.Random, n: int) -> Market:
    """Distinct integer values below 4n with masses p/100, 1 <= p <= 99."""
    values = sorted(rng.sample(range(1, 4 * n), n))
    masses = [Fraction(rng.randint(1, 99), 100) for _ in range(n)]
    return Market(ValueGrid(tuple(Fraction(v) for v in values)), tuple(masses))


def point(p: tuple[Fraction, Fraction]) -> list[str]:
    return [str(p[0]), str(p[1])]


def corners(r: region.SurplusRegion) -> dict[str, list[str]]:
    return {"min": point(r.v_min), "seller": point(r.v_seller), "buyer": point(r.v_buyer)}


def record_census() -> dict:
    rows: dict[str, str] = {}
    for top in range(workloads.CENSUS_TOPS[0], workloads.CENSUS_TOPS[1] + 1):
        lows = [top - n + 1 for n in range(workloads.CENSUS_SIZES[0], workloads.CENSUS_SIZES[1] + 1)]
        lows = [lo for lo in lows if lo >= 1]
        fast = regulator.feasibility_sweep(top, lows)
        if top <= EXHAUSTIVE_TOP:
            if regulator.feasibility_sweep(top, lows, exhaustive=True) != fast:
                raise SystemExit(f"pruned and exhaustive census disagree at top={top}")
        for row, line in zip(fast, serialize.sweep_to_csv(fast).splitlines()[1:]):
            rows[f"{top},{row.lo}"] = line
        print(f"census top={top}: {len(lows)} rows", flush=True)
    design: dict[str, str] = {}
    for top in range(workloads.DESIGN_TOPS[0], workloads.DESIGN_TOPS[1] + 1):
        m = regulator.uniform_market(1, top)
        w = regulator.design_prefix_window(m)
        if not passive.is_feasible(m, w) or (
            w.hi > 0 and passive.is_feasible(m, PriceWindow(0, w.hi - 1))
        ):
            raise SystemExit(f"design window for 1..{top} is not the shortest feasible prefix")
        design[str(top)] = serialize.window_to_str(m.grid, w)
    print(f"design-f tops: {len(design)}", flush=True)
    return {"header": serialize.SWEEP_HEADER, "rows": rows, "design": design}


def reduced_floor(m: Market, hi: int) -> int | None:
    """Highest floor f with {f..hi} feasible, found by the LP-free peel."""
    for f in range(hi, -1, -1):
        if passive.is_feasible(m, PriceWindow(f, hi)):
            return f
    return None


def record_region() -> dict:
    rng = random.Random(20240601)
    entries = []
    for n in workloads.REGION_SIZES:
        max_reduced = 2 if n <= workloads.REGION_TWO_PRICE_MAX_N else 1
        candidates: list[tuple[int, dict]] = []
        while len(candidates) < REGION_CANDIDATES:
            m = random_market(rng, n)
            hi = rng.randint(n // 3, n - 1)
            floor = reduced_floor(m, hi)
            if floor is None or hi - floor + 1 > max_reduced:
                continue
            w = PriceWindow(rng.randint(max(0, floor - 4), floor), hi)
            red = passive.minimal_reduction(m, w)
            if red.floor != floor:
                raise SystemExit("minimal_reduction disagrees with the peel floor")
            pr, work = lp_work(region.passive_region, m, w)
            ar = region.active_region(m, w)
            marks = active.benchmarks(m, w)
            if ar.v_min != (marks.min_consumer_surplus, marks.window_revenue):
                raise SystemExit("active region disagrees with its closed form")
            obj = serialize.market_to_obj(m)
            entry = {
                "values": obj["values"],
                "masses": obj["masses"],
                "lo": w.lo,
                "hi": w.hi,
                "floor": floor,
                "passive": corners(pr),
                "active": corners(ar),
            }
            candidates.append((work, entry))
        entries.extend(typical(candidates, 1))
        print(f"region n={n}: kept 1 of {len(candidates)}", flush=True)
    return {"markets": entries}


def record_oracle() -> dict:
    rng = random.Random(20240602)
    entries = []
    for n in range(workloads.ORACLE_SIZES[0], workloads.ORACLE_SIZES[1] + 1):
        candidates: dict[bool, list[tuple[int, dict]]] = {True: [], False: []}
        while min(len(c) for c in candidates.values()) < ORACLE_CANDIDATES:
            m = random_market(rng, n)
            lo = rng.randint(0, n - 2)
            w = PriceWindow(lo, rng.randint(lo, min(n - 1, lo + 3)))
            feasible = passive.is_feasible(m, w)
            if len(candidates[feasible]) >= ORACLE_CANDIDATES:
                continue
            values: dict[str, dict] = {}
            work = 0
            for model in ("passive", "active"):
                ok, cells = lp_work(lp.oracle_feasible, m, w, model)
                work += cells
                out: dict = {"feasible": ok}
                if ok:
                    for objective, fn in (("min-cs", lp.oracle_min_cs), ("max-ps", lp.oracle_max_ps)):
                        value, cells = lp_work(fn, m, w, model)
                        work += cells
                        out[objective] = str(value)
                values[model] = out
            if values["passive"]["feasible"] != feasible:
                raise SystemExit("LP and peel disagree on feasibility")
            if feasible:
                seller = scheme_surplus(passive.producer_optimal(m, w).scheme)
                if Fraction(values["passive"]["max-ps"]) != seller.ps:
                    raise SystemExit("LP max-ps disagrees with the producer-optimal peel")
                if Fraction(values["passive"]["min-cs"]) != passive.min_consumer_surplus(m, w):
                    raise SystemExit("LP min-cs disagrees with the welfare-minimal bound")
            marks = active.benchmarks(m, w)
            if Fraction(values["active"]["min-cs"]) != marks.min_consumer_surplus or Fraction(
                values["active"]["max-ps"]
            ) != marks.max_welfare - marks.min_consumer_surplus:
                raise SystemExit("active LP values disagree with active.benchmarks")
            obj = serialize.market_to_obj(m)
            candidates[feasible].append(
                (work, {"values": obj["values"], "masses": obj["masses"], "lo": w.lo, "hi": w.hi, **values})
            )
        for feasible in (True, False):
            entries.extend(typical(candidates[feasible], workloads.ORACLE_PER_SIZE))
        print(f"oracle n={n}: done", flush=True)
    return {"entries": entries}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    recorders = {"census": record_census, "region": record_region, "oracle": record_oracle}
    for name, record in recorders.items():
        data = record()
        (GOLDEN / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
