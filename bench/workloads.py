"""Seeded job lists for the three benchmark workloads, with output checks.

Each workload is a closed loop: one client issues the next job only after the
previous one returns. A job is one ``segmarket`` command line, run in-process
through ``segmarket.cli.main``. Jobs come in rounds with a fixed mix of input
sizes, so a run's total work hardly depends on the seed.

* ``census``: ``sweep`` rows on uniform integer markets plus ``design-f`` on
  uniform 1..R. All time goes to the passive peel and ``core`` primitives on
  small integers; no LP runs.
* ``region``: ``region`` and ``point`` in both models on random rational
  markets with 10, 15, 20 and 24 values, then ``validate`` reading each
  point scheme back. The passive jobs reach the LP through ``minimal_reduction``; the
  active jobs are cheap contrast jobs on the same layers.
* ``oracle``: ``oracle --objective feasible|min-cs|max-ps`` in both models on
  markets with 6-10 values, over windows that are feasible and infeasible.

Markets for ``region`` and ``oracle`` come from pools recorded with their
golden outputs by ``record_golden.py``, and every run uses all of them: the
seed orders the jobs and draws the ``point`` targets. Letting the seed pick
markets as well made the run-to-run spread 10-20 %, because LP cost varies
widely between markets of one size. Census inputs are uniform markets named
by their endpoints, so the seed draws those endpoints directly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

# Census: a sweep row covers the uniform market {R-n+1..R}; n sets its cost.
# A round has one row of every size n, paired smallest with largest so the
# sweeps cost about the same, and one design-f; the design-f tops cycle.
CENSUS_TOPS = (20, 40)
CENSUS_SIZES = (10, 22)
DESIGN_TOPS = (62, 68)  # design-f on uniform 1..R: the tail of the workload

# Region: a round has one market of each size. Sizes 25-30 are left out: one
# passive point job there takes 2.5-4 s, too few jobs per run for a steady
# median and tail.
REGION_SIZES = (10, 15, 20, 24)
REGION_TWO_PRICE_MAX_N = 16  # larger grids keep a one-price reduced window

# Oracle: the pool holds two feasible and two infeasible windows of every
# size; a round takes one of each, alternating, so two rounds cover the pool.
ORACLE_SIZES = (6, 10)
ORACLE_PER_SIZE = 2

# Rounds generated at set-up: a little more than a 22 s run completes at the
# recording commit. A run that exhausts them starts over from the first.
ROUNDS = {"census": 16, "region": 6, "oracle": 6}
TRACE_ROUNDS = {"census": 3, "region": 1, "oracle": 2}

WORKLOADS = ("census", "region", "oracle")


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    out_text: str  # contents of the job's --out file, "" when it has none


@dataclass
class Job:
    argv: list[str]
    check: Callable[[Outcome], str | None]  # an error message, or None
    out: str | None = None


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list[Job] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # inputs, by name
    warmup: list[Job] = field(default_factory=list)
    round_ends: list[int] = field(default_factory=list)  # job counts after each round

    def end_round(self) -> None:
        self.round_ends.append(len(self.jobs))

    @property
    def trace_jobs(self) -> int:
        """The traced run replays this many leading jobs."""
        return self.round_ends[TRACE_ROUNDS[self.workload] - 1]

    def digest(self) -> str:
        """SHA-256 over every command line and input file, in order."""
        h = hashlib.sha256()
        payload = {"argv": [j.argv for j in self.jobs + self.warmup], "files": self.files}
        h.update(json.dumps(payload, sort_keys=True).encode())
        return h.hexdigest()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _window_args(entry: dict) -> list[str]:
    return ["--flo", f"#{entry['lo'] + 1}", "--fhi", f"#{entry['hi'] + 1}"]


def _market_text(entry: dict) -> str:
    return json.dumps({"values": entry["values"], "masses": entry["masses"]}) + "\n"


def _expect_stdout(code: int, text: str) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if (o.code, o.stdout) != (code, text):
            return f"expected exit {code} and {text!r}, got exit {o.code} and {o.stdout!r}"
        return None

    return check


def _expect_out(code: int, text: str) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.code != code or o.out_text != text:
            return f"expected exit {code} and the golden file, got exit {o.code}"
        return None

    return check


# ----------------------------------------------------------------- census


def census_plan(seed: int) -> Plan:
    golden = load_golden("census")
    rng = random.Random(seed)
    plan = Plan("census", seed)

    def sweep_job(top: int, lows: list[int], name: str) -> Job:
        rows = [golden["rows"][f"{top},{lo}"] for lo in lows]
        text = "\n".join([golden["header"], *rows]) + "\n"
        argv = ["sweep", "--top", str(top), "--lows", ",".join(map(str, lows)), "--out", name]
        return Job(argv, _expect_out(0, text), out=name)

    def design_job(top: int) -> Job:
        name = f"uniform_1_{top}.json"
        plan.files[name] = json.dumps(
            {"values": [str(v) for v in range(1, top + 1)], "masses": [f"1/{top}"] * top}
        ) + "\n"
        return Job(["design-f", "--market", name], _expect_stdout(0, golden["design"][str(top)] + "\n"))

    design_tops = list(range(DESIGN_TOPS[0], DESIGN_TOPS[1] + 1))
    rng.shuffle(design_tops)
    for r in range(ROUNDS["census"]):
        sizes = list(range(CENSUS_SIZES[0], CENSUS_SIZES[1] + 1))
        jobs = []
        for k in range((len(sizes) + 1) // 2):
            pair = sorted({sizes[k], sizes[-1 - k]})
            top = rng.randint(max(CENSUS_TOPS[0], *pair), CENSUS_TOPS[1])
            lows = [top - n + 1 for n in pair]
            rng.shuffle(lows)
            jobs.append(sweep_job(top, lows, f"census_{r}_{k}.csv"))
        jobs.append(design_job(design_tops[r % len(design_tops)]))
        rng.shuffle(jobs)
        plan.jobs.extend(jobs)
        plan.end_round()
    low = CENSUS_SIZES[0]
    plan.warmup = [sweep_job(CENSUS_TOPS[0], [CENSUS_TOPS[0] - low + 1], "census_warmup.csv")]
    return plan


# ----------------------------------------------------------------- region


def _check_region(entry: dict, model: str) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        from segmarket import active, serialize
        from segmarket.core import PriceWindow

        if o.code != 0:
            return f"region exited {o.code}"
        got = json.loads(o.out_text)
        if got != {"model": model, "vertices": entry[model]}:
            return f"{model} region corners differ from the golden corners"
        if model == "active":
            m = serialize.market_from_obj({"values": entry["values"], "masses": entry["masses"]})
            marks = active.benchmarks(m, PriceWindow(entry["lo"], entry["hi"]))
            if [Fraction(v) for v in got["vertices"]["min"]] != [
                marks.min_consumer_surplus,
                marks.window_revenue,
            ]:
                return "active region floor differs from active.benchmarks"
        return None

    return check


def _check_point(entry: dict, model: str, target: tuple[Fraction, Fraction]) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        from segmarket import serialize
        from segmarket.core import PriceWindow, scheme_surplus, validate_scheme

        if o.code != 0:
            return f"point exited {o.code}"
        scheme = serialize.scheme_from_obj(json.loads(o.out_text))
        if serialize.market_to_obj(scheme.aggregate) != {"values": entry["values"], "masses": entry["masses"]}:
            return "point scheme aggregate is not the input market"
        if not validate_scheme(scheme, PriceWindow(entry["lo"], entry["hi"]), model).ok:
            return f"point scheme fails {model} validation"
        s = scheme_surplus(scheme)
        if (s.cs, s.ps) != target:
            return f"point scheme reaches ({s.cs}, {s.ps}), not the target {target}"
        return None

    return check


def _region_jobs(plan: Plan, rng: random.Random, idx: int, entry: dict, tag: str) -> list[Job]:
    market = f"region_m{idx}.json"
    plan.files[market] = _market_text(entry)
    window = _window_args(entry)
    jobs = []
    for model in ("passive", "active"):
        out = f"region_{tag}_{model}.json"
        argv = ["region", "--market", market, *window, "--model", model, "--out", out]
        jobs.append(Job(argv, _check_region(entry, model), out=out))
        # a target inside the triangle: a convex mix of the corners in twelfths
        a, b = sorted(rng.sample(range(13), 2))
        weights = (Fraction(a, 12), Fraction(b - a, 12), Fraction(12 - b, 12))
        c = entry[model]
        pts = [(Fraction(c[k][0]), Fraction(c[k][1])) for k in ("min", "seller", "buyer")]
        target = (
            sum((w * p[0] for w, p in zip(weights, pts)), Fraction(0)),
            sum((w * p[1] for w, p in zip(weights, pts)), Fraction(0)),
        )
        scheme = f"point_{tag}_{model}.json"
        argv = ["point", "--market", market, *window, "--model", model,
                "--cs", str(target[0]), "--ps", str(target[1]), "--out", scheme]
        jobs.append(Job(argv, _check_point(entry, model, target), out=scheme))
        argv = ["validate", "--scheme", scheme, *window, "--model", model]
        jobs.append(Job(argv, _expect_stdout(0, "valid: 0 violations\n")))
    return jobs


def region_plan(seed: int) -> Plan:
    markets = load_golden("region")["markets"]
    rng = random.Random(seed)
    plan = Plan("region", seed)
    for r in range(ROUNDS["region"]):
        order = list(range(len(markets)))
        rng.shuffle(order)
        for idx in order:
            plan.jobs.extend(_region_jobs(plan, rng, idx, markets[idx], f"{r}_{idx}"))
        plan.end_round()
    smallest = min(range(len(markets)), key=lambda i: len(markets[i]["values"]))
    plan.warmup = _region_jobs(plan, random.Random(0), smallest, markets[smallest], "warmup")
    return plan


# ----------------------------------------------------------------- oracle


def _check_oracle(entry: dict, model: str, objective: str) -> Callable[[Outcome], str | None]:
    golden = entry[model]
    if objective == "feasible":
        return _expect_stdout(0, "feasible\n") if golden["feasible"] else _expect_stdout(2, "infeasible\n")

    def check(o: Outcome) -> str | None:
        from segmarket import active, serialize
        from segmarket.core import PriceWindow

        value = o.stdout.split(" ")[0]
        if o.code != 0 or value != golden[objective]:
            return f"oracle {objective} gave exit {o.code} and {value!r}, not {golden[objective]!r}"
        if model == "active":
            m = serialize.market_from_obj({"values": entry["values"], "masses": entry["masses"]})
            marks = active.benchmarks(m, PriceWindow(entry["lo"], entry["hi"]))
            closed = {
                "min-cs": marks.min_consumer_surplus,
                "max-ps": marks.max_welfare - marks.min_consumer_surplus,
            }[objective]
            if Fraction(value) != closed:
                return f"active {objective} differs from active.benchmarks"
        return None

    return check


def _oracle_jobs(plan: Plan, idx: int, entry: dict) -> list[Job]:
    market = f"oracle_m{idx}.json"
    plan.files[market] = _market_text(entry)
    jobs = []
    for model in ("passive", "active"):
        objectives = ["feasible"] + (["min-cs", "max-ps"] if entry[model]["feasible"] else [])
        for objective in objectives:
            argv = ["oracle", "--market", market, *_window_args(entry),
                    "--model", model, "--objective", objective]
            jobs.append(Job(argv, _check_oracle(entry, model, objective)))
    return jobs


def oracle_plan(seed: int) -> Plan:
    entries = load_golden("oracle")["entries"]
    rng = random.Random(seed)
    plan = Plan("oracle", seed)
    slots: dict[tuple[int, bool], list[int]] = {}
    for i, e in enumerate(entries):
        slots.setdefault((len(e["values"]), e["passive"]["feasible"]), []).append(i)
    for r in range(ROUNDS["oracle"]):
        order = [pool[r % len(pool)] for pool in slots.values()]
        rng.shuffle(order)
        for idx in order:
            plan.jobs.extend(_oracle_jobs(plan, idx, entries[idx]))
        plan.end_round()
    small = min(range(len(entries)), key=lambda i: (len(entries[i]["values"]), entries[i]["passive"]["feasible"]))
    plan.warmup = _oracle_jobs(plan, small, entries[small])
    return plan


PLANS = {"census": census_plan, "region": region_plan, "oracle": oracle_plan}
