"""Tests of the benchmark harness itself: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import contextlib
import io
import types
from array import array

import pytest

import run
import tracing


def test_tail_keeps_ten_samples_beyond() -> None:
    value, pct = run.tail_latency([float(v) for v in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, pct = run.tail_latency(samples)
    assert value == 1.0 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_more_samples_than_the_margin() -> None:
    with pytest.raises(run.BenchError):
        run.tail_latency([1.0] * 10)


def test_self_time_subtracts_direct_children_only() -> None:
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]
    start = array("d", [0, 1, 2, 5])
    end = array("d", [10, 4, 3, 9])
    parent = array("l", [-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent) == [3, 2, 1, 4]


def test_gauge_scales_by_the_samples_around_a_job() -> None:
    gauge = run.Gauge()
    # slow spell until t=1.0 (reference takes 4 ms), fast after (1 ms)
    gauge.stamps = [0.90, 0.95, 0.99, 1.05, 1.06, 1.07, 3.00]
    gauge.samples = [0.004, 0.004, 0.004, 0.001, 0.001, 0.001, 0.002]
    short = gauge.scale_around(1.02, 1.04)  # 20 ms job: only the adjacent samples
    assert short == pytest.approx(run.REFERENCE_S / 0.001)
    long = gauge.scale_around(0.96, 1.04)  # 80 ms job: both spells
    assert long == pytest.approx(run.REFERENCE_S * 6 / 0.015)


def test_same_seed_same_inputs() -> None:
    import workloads

    for name, plan in workloads.PLANS.items():
        assert plan(7).digest() == plan(7).digest()
        assert plan(7).digest() != plan(8).digest(), name


def test_max_bits_reads_fractions_and_skips_decimals() -> None:
    assert run.max_bits("1023/1024 (0.999023)") == 11
    assert run.max_bits("L,R\n3,40,7\n") == 6


def _wrappers_left() -> list[str]:
    left = []
    for mod in tracing.package_modules():
        for name, value in vars(mod).items():
            if getattr(value, tracing.MARKER, False):
                left.append(f"{mod.__name__}.{name}")
            if isinstance(value, dict):
                for key, item in value.items():
                    if getattr(item, tracing.MARKER, False):
                        left.append(f"{mod.__name__}.{name}[{key!r}]")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, tracing.MARKER, False):
                        left.append(f"{mod.__name__}.{name}.{attr}")
    return left


def test_traced_run_leaves_no_wrapper_behind() -> None:
    cli = run.import_package()
    from segmarket import core, passive, regulator

    originals = (regulator.is_feasible, passive.is_feasible, core.Market.__post_init__, cli._DISPATCH["sweep"])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert regulator.is_feasible is passive.is_feasible is not originals[0]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["sweep", "--top", "6"]) == 0
    assert out.getvalue().startswith("L,R,")
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == 3  # main, build_parser and cmd_sweep via cli._DISPATCH
    assert "cli.cmd_sweep" in tracer.names
    assert metrics["core.peels"] > 0 and metrics["core.markets_built"] > 0
    assert metrics["passive.is_feasible.calls"] > 0 and metrics["lp.solve.calls"] == 0
    assert metrics["serialize.bytes"] == len(out.getvalue())
    assert _wrappers_left() == []
    assert (regulator.is_feasible, passive.is_feasible, core.Market.__post_init__, cli._DISPATCH["sweep"]) == originals


def test_wrappers_are_removed_when_a_job_raises() -> None:
    run.import_package()
    from segmarket import lp

    tracer = tracing.Tracer()
    with pytest.raises(ValueError), tracer.installed():
        lp.solve(1, [], [0, 0])  # objective longer than the variable count
    assert tracer.layer_metrics()["lp.solve.calls"] == 1
    assert _wrappers_left() == []
    assert isinstance(lp.solve, types.FunctionType)
