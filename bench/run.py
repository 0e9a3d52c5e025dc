"""Benchmark entry point: one workload, one seed, one line of JSON results.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 22 --trace 0

``--trace 0`` sets up the workload, sets it up again in fresh interpreters
to time set-up several times, then issues jobs in a closed loop, whole
rounds at a time, until ``--seconds`` of job time at the nominal speed set
by ``Gauge`` have passed, and reports the end-to-end metrics. ``--trace 1``
replays a fixed prefix of the same jobs, each once plain and once with every
``segmarket`` layer wrapped in spans, and reports the per-layer metrics.
Every job's output is checked outside its timed span; a wrong output counts
as a failed job. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5  # this process's set-up and four in fresh interpreters
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
REFERENCE_S = 0.002  # nominal duration of reference_work; times are scaled to it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, bad set-up)."""


def tail_latency(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Value and percentile of the highest rank with *beyond* samples above it."""
    if len(samples) <= beyond:
        raise BenchError(f"need more than {beyond} samples for a tail, got {len(samples)}")
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def reference_work() -> Fraction:
    """Fixed Fraction arithmetic, independent of segmarket, that gauges the
    machine's speed at the moment it runs: best single-price revenue over
    rotations of a market with small masses, then of one with large masses,
    as the census and the LP workloads use them."""
    best = Fraction(0)
    small = [Fraction(k % 7 + 1, k % 5 + 2) for k in range(40)]
    large = [Fraction(k * 7919 % 997 + 1, k * 104729 % 991 + 2) for k in range(30)]
    for masses, turns in ((small, 6), (large, 3)):
        for shift in range(turns):
            tail = Fraction(0)
            for i in range(len(masses) - 1, -1, -1):
                tail += masses[(i + shift) % len(masses)]
                best = max(best, tail * (i + 1))
    return best


class Gauge:
    """Times ``reference_work`` between jobs and scales job times by it.

    On a shared machine the speed of this process drifts by +-25 %, in
    spells of a few hundred milliseconds: consecutive reference times are
    bimodal (about 1.3 and 2.3 ms) and correlate 0.8 at lag 1 and 0.4 at
    0.2 s. Measured over 90 s, a census row's time varied from 75 to 125 ms
    between 10 s windows, while its ratio to the window's mean reference time
    stayed within 63-66. So a job time is reported at a nominal speed:
    multiplied by ``REFERENCE_S`` over the mean reference time near the job.
    Means are used because the median of a bimodal sample jumps between
    modes.
    """

    REPS = 3
    NEAR_S = (0.01, 0.5)  # bounds on the half-width of the window around a job

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPS):
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            self.stamps.append(t1)
            self.samples.append(t1 - t0)

    def scale_around(self, t0: float, t1: float) -> float:
        """Nominal over reference time for work done from *t0* to *t1*
        (below 1 on a fast moment), from the samples within one job length
        (bounded by ``NEAR_S``) on either side: the adjacent samples for a
        short job, which shares their speed spell, and several spells' worth
        for a long job, which averages over them."""
        half = min(max(t1 - t0, self.NEAR_S[0]), self.NEAR_S[1])
        first = bisect.bisect_left(self.stamps, t0 - half)
        last = max(bisect.bisect_right(self.stamps, t1 + half), bisect.bisect_right(self.stamps, t1) + 1)
        near = self.samples[first:last]
        return REFERENCE_S * len(near) / sum(near)


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?")


def max_bits(text: str) -> int:
    """Largest bit length of an integer, numerator or denominator in *text*.

    Decimal renderings are skipped: they repeat an exact value already present.
    """
    best = 0
    for token in _NUMBER.findall(text):
        if "." not in token:
            best = max(best, *(int(part).bit_length() for part in token.split("/")))
    return best


def import_package():
    """Import ``segmarket.cli`` from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("segmarket.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import segmarket from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"segmarket was imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    def __init__(self, cli) -> None:
        self.cli = cli

    def run(self, job):
        """Run one job; return its latency in seconds, its outcome and its stderr."""
        from workloads import Outcome

        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(job.argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        latency = perf_counter() - t0
        out_text = ""
        if job.out and os.path.exists(job.out):
            with open(job.out, encoding="utf-8") as fh:
                out_text = fh.read()
        return latency, Outcome(code, out.getvalue(), out_text), err.getvalue()


def check(job, outcome, stderr: str, errors: list[str]) -> None:
    """Append to *errors* what is wrong with the job's outcome, if anything."""
    problem = job.check(outcome) if outcome.code != -1 else "crashed:\n" + stderr
    if problem is not None:
        errors.append(f"{' '.join(job.argv)}: {problem}")


def set_up(workload: str, seed: int):
    """Import, generate inputs, write input files and warm up."""
    import workloads

    cli = import_package()
    plan = workloads.PLANS[workload](seed)
    for name, text in plan.files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    runner = Runner(cli)
    errors: list[str] = []
    for job in plan.warmup:
        _, outcome, stderr = runner.run(job)
        check(job, outcome, stderr, errors)
    if errors:
        raise BenchError("warm-up job failed: " + errors[0])
    return runner, plan


def fresh_set_up(workload: str, seed: int, gauge: Gauge) -> tuple[float, float]:
    """Set up once more in a new interpreter, so that every import is paid
    again; return the start and duration of that set-up on this clock."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up in a fresh interpreter took over 120 s") from exc
    done = perf_counter()
    gauge.sample()
    if proc.returncode != 0:
        raise BenchError("set-up in a fresh interpreter failed: " + proc.stderr.strip())
    elapsed = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return done - elapsed, elapsed


def end_to_end(runner: Runner, plan, seconds: float, setup: list[tuple[float, float]], gauge: Gauge, info: dict):
    """Cycle through the job list, a whole round at a time, until *seconds*
    of scaled job time have passed. Whole rounds keep the mix of job sizes
    fixed, and scaled time makes a run do the same work however fast the
    machine is."""
    boundaries = {0, *plan.round_ends[:-1]}
    errors: list[str] = []
    spans: list[tuple[float, float]] = []  # (start, latency) per job
    budget = 0.0
    while budget < seconds or len(spans) % len(plan.jobs) not in boundaries:
        job = plan.jobs[len(spans) % len(plan.jobs)]
        start = perf_counter()
        latency, outcome, stderr = runner.run(job)
        gauge.sample()
        spans.append((start, latency))
        budget += latency * gauge.scale_around(start, start + latency)
        check(job, outcome, stderr, errors)
    raw = [latency for _, latency in spans]
    scaled = [latency * gauge.scale_around(start, start + latency) for start, latency in spans]
    tail, pct = tail_latency(scaled)
    metrics = {
        "setup_s": statistics.median(d * gauge.scale_around(t0, t0 + d) for t0, d in setup),
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_ms": 1000 * statistics.median(scaled),
        "job_tail_ms": 1000 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update(
        samples={"jobs": len(scaled), "setup_rounds": len(setup), "reference": len(gauge.samples)},
        tail_percentile=pct,
        error_rate=len(errors) / len(scaled),
        unscaled={
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": 1000 * statistics.median(raw),
            "job_tail_ms": 1000 * tail_latency(raw)[0],
            "reference_ms": 1000 * statistics.fmean(gauge.samples),
            "setup_s": statistics.median(d for _, d in setup),
        },
    )
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, len(scaled), errors


def per_layer(runner: Runner, plan, info: dict):
    """Run each job of the trace prefix plain, then traced; the pairs share
    the machine's speed of the moment, so their ratio is the overhead."""
    from tracing import Tracer

    jobs = plan.jobs[: plan.trace_jobs]
    errors: list[str] = []
    tracer = Tracer()
    plain = traced = 0.0
    bits = 0
    for k, job in enumerate(jobs):
        latency, outcome, stderr = runner.run(job)
        plain += latency
        check(job, outcome, stderr, errors)
        tracer.job_id = k
        with tracer.installed():
            latency, outcome, stderr = runner.run(job)
        traced += latency
        check(job, outcome, stderr, errors)
        bits = max(bits, max_bits(outcome.stdout), max_bits(outcome.out_text))
    metrics = tracer.layer_metrics()
    metrics["rationals.max_bits"] = bits
    metrics["trace.overhead"] = traced / plain
    info["samples"] = {"jobs": len(jobs), "spans": len(tracer.start)}
    units = {
        k: "s" if k.endswith("_s") else "bytes" if k == "serialize.bytes" else
        "bits" if k == "rationals.max_bits" else "ratio" if k == "trace.overhead" else "count"
        for k in metrics
    }
    return metrics, units, 2 * len(jobs), errors


def commit_id() -> str:
    """The checked-out commit when this tree is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # no git, or a tree copied without its .git inside another repository
    return lines[1]


def environment(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "segmarket").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    home = os.getcwd()
    try:
        if not (SRC / "segmarket").is_dir():
            raise BenchError(f"no segmarket package under {SRC}")
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        runner, plan = set_up(args.workload, args.seed)
        ready = perf_counter()
        if args.setup_only:
            print(json.dumps({"setup_s": ready - PROCESS_START}))
            return 0
        gauge = Gauge()
        gauge.sample()
        setup = [(PROCESS_START, ready - PROCESS_START)]
        if not args.trace:
            setup += [fresh_set_up(args.workload, args.seed, gauge) for _ in range(SETUP_ROUNDS - 1)]
        info = environment(args.workload, args.seed)
        info["inputs_digest"] = plan.digest()
        if args.trace:
            metrics, units, attempted, errors = per_layer(runner, plan, info)
        else:
            metrics, units, attempted, errors = end_to_end(runner, plan, args.seconds, setup, gauge, info)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for err in errors[:5]:
        sys.stderr.write(f"wrong output: {err}\n")
    print("info: " + json.dumps(info, sort_keys=True))
    samples = {"setup_s": f"{SETUP_ROUNDS} set-ups", "peak_rss_mb": "1 process"}
    for name, value in metrics.items():
        n = samples.get(name, f"{info['samples']['jobs']} jobs")
        print(f"{name} = {value:.6g} {units[name]} (n = {n})")
    if not args.trace:
        print(f"job_tail_ms is p{info['tail_percentile']:.1f}; error_rate = {info['error_rate']:.6g}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
