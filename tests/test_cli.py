"""End-to-end command tests, run in process through ``cli.main``."""

import json
import sys

import pytest

from segmarket import Market, PriceWindow, market, scheme_surplus, validate_scheme
from segmarket import cli, region, serialize
from segmarket.cli import build_parser, main
from segmarket.passive import unregulated_consumer_optimal
from segmarket.regulator import feasibility_sweep


@pytest.fixture
def m1_file(tmp_path, m1):
    path = tmp_path / "m1.json"
    path.write_text(serialize.dumps(serialize.market_to_obj(m1)))
    return str(path)


def test_segment_ps_max(m1_file, tmp_path, capsys, m1, w23):
    out = tmp_path / "scheme.json"
    trace = tmp_path / "trace.json"
    code = main([
        "segment", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", "ps-max",
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "CS=43/50 (0.860000)" in printed
    assert "PS=41/25 (1.640000)" in printed
    scheme = serialize.scheme_from_obj(json.loads(out.read_text()))
    assert validate_scheme(scheme, w23, "passive").ok
    s = scheme_surplus(scheme)
    assert str(s.ps) == "41/25"
    steps = json.loads(trace.read_text())
    assert len(steps) == 4
    assert steps[0]["support"] == [1, 3, 4]


def test_segment_all_objectives_both_models(m1_file, capsys):
    for model, objective, cs in [
        ("passive", "cs-max", "CS=47/50"),
        ("passive", "sw-min", "CS=43/50"),
        ("active", "ps-max", "CS=39/50"),
        ("active", "cs-max", "CS=59/50"),
        ("active", "sw-min", "CS=39/50"),
    ]:
        code = main([
            "segment", "--market", m1_file, "--flo", "2", "--fhi", "3",
            "--model", model, "--objective", objective,
        ])
        assert code == 0
        assert cs in capsys.readouterr().out


def test_segment_infeasible_window(m1_file, capsys):
    code = main([
        "segment", "--market", m1_file, "--flo", "3", "--fhi", "3",
        "--model", "passive", "--objective", "ps-max",
    ])
    assert code == 2
    code = main([
        "segment", "--market", m1_file, "--flo", "3", "--fhi", "3",
        "--model", "passive", "--objective", "cs-max",
    ])
    assert code == 2


def test_segment_trace_needs_passive(m1_file, tmp_path):
    code = main([
        "segment", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "active", "--objective", "ps-max",
        "--trace", str(tmp_path / "t.json"),
    ])
    assert code == 1


def test_hash_index_window_form(m1_file, capsys):
    code = main([
        "segment", "--market", m1_file, "--flo", "#2", "--fhi", "#3",
        "--model", "passive", "--objective", "ps-max",
    ])
    assert code == 0
    assert "PS=41/25" in capsys.readouterr().out


def test_region_command(m1_file, tmp_path):
    out = tmp_path / "region.json"
    code = main([
        "region", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["vertices"]["min"] == ["43/50", "39/25"]


def test_point_command(m1_file, tmp_path, capsys, m1, w23):
    out = tmp_path / "mixed.json"
    code = main([
        "point", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--cs", "9/10", "--ps", "8/5",
        "--out", str(out),
    ])
    assert code == 0
    assert "seller=1/2" in capsys.readouterr().out
    scheme = serialize.scheme_from_obj(json.loads(out.read_text()))
    s = scheme_surplus(scheme)
    assert (str(s.cs), str(s.ps)) == ("9/10", "8/5")
    assert validate_scheme(scheme, w23, "passive").ok


def test_point_outside_region(m1_file, capsys):
    code = main([
        "point", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--cs", "0", "--ps", "0",
    ])
    assert code == 3
    assert capsys.readouterr().err == "error: (0, 0) lies outside the passive region\n"
    code = main([
        "point", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "active", "--cs", "1e400", "--ps=-1/3",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "Fraction(" not in err
    assert err == f"error: (1{'0' * 400}, -1/3) lies outside the active region\n"


def test_point_rejects_huge_exponents(m1_file, capsys):
    """A surplus target past the int digit limit, in its exponent or in its
    value, is a clean usage error, not a hang or a failure to print."""
    for cs, ps in (("1e999999999", "1"), ("1", "-1e999999999"), ("1e4300", "0")):
        code = main([
            "point", "--market", m1_file, "--flo", "2", "--fhi", "3",
            "--model", "passive", "--cs", cs, f"--ps={ps}",
        ])
        assert code == 1
        _single_error(capsys)


@pytest.mark.parametrize("command", ["region", "segment"])
def test_results_past_the_digit_limit_are_a_one_line_error(tmp_path, capsys, command):
    """Accepted literals whose results have too many digits to print (the
    welfare cap here is 10^4300) exit 1 with one line saying so."""
    path = tmp_path / "big.json"
    path.write_text('{"values": ["1", "10"], "masses": ["0", "1e4299"]}')
    argv = [command, "--market", str(path), "--flo", "1", "--fhi", "10", "--model", "passive"]
    if command == "segment":
        argv += ["--objective", "ps-max"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: a result has too many digits to print\n"
    assert captured.out == ""


# tokens that are no plain decimal integer: Python's underscore digits
# (int() reads "0_1" as 1), inner blanks, other scripts' digits, and, where
# Python has an int string-digit limit (4300 by default), one past it
BAD_INTEGER_TOKENS = {
    "underscore": "0_1",
    "inner-blank": " 2",
    "arabic-indic": "\u0663",
    "word": "x",
    "empty": "",
}
if hasattr(sys, "get_int_max_str_digits"):
    BAD_INTEGER_TOKENS["past-the-digit-limit"] = "1" * 5000


@pytest.mark.parametrize("case", sorted(BAD_INTEGER_TOKENS))
def test_index_tokens_must_be_plain_decimal_integers(m1_file, capsys, case):
    """A '#k' index that is not a plain decimal integer exits 1 with one
    error line naming the token, long ones shortened."""
    token = "#" + BAD_INTEGER_TOKENS[case]
    argv = ["region", "--market", m1_file, "--flo", token, "--fhi", "6", "--model", "passive"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    shown = repr(token) if len(token) <= 40 else f"{token[:20]!r}... (5001 characters)"
    assert err == f"error: index must be a plain decimal integer: {shown}\n"


@pytest.mark.parametrize("case", sorted(set(BAD_INTEGER_TOKENS) - {"empty", "inner-blank"}))
def test_lows_tokens_must_be_plain_decimal_integers(capsys, case):
    """Each --lows entry, stripped, must be a plain decimal integer; the
    error line names the bad one."""
    token = BAD_INTEGER_TOKENS[case]
    assert main(["sweep", "--top", "8", "--lows", f"2,{token}"]) == 1
    captured = capsys.readouterr()
    shown = repr(token) if len(token) <= 40 else f"{token[:20]!r}... (5000 characters)"
    assert captured.err == f"error: --lows entry must be a plain decimal integer: {shown}\n"
    assert captured.out == ""


def test_plain_integer_tokens_keep_working(m1_file, capsys):
    """Signs and blanks around a --lows entry are still accepted."""
    assert main(["feasible", "--market", m1_file, "--flo", "#+2", "--fhi", " #3 "]) == 0
    assert capsys.readouterr().out == "feasible\n"
    assert main(["sweep", "--top", "9", "--lows", " 2 , 5"]) == 0
    assert capsys.readouterr().out == serialize.sweep_to_csv(feasibility_sweep(9, [2, 5]))
    assert main(["feasible", "--market", m1_file, "--flo", "#-1", "--fhi", "#3"]) == 1
    assert capsys.readouterr().err == "error: index -1 outside the grid (1..4)\n"


def test_feasible_command(m1_file, capsys):
    assert main(["feasible", "--market", m1_file, "--flo", "2", "--fhi", "3"]) == 0
    assert capsys.readouterr().out.strip() == "feasible"
    assert main(["feasible", "--market", m1_file, "--flo", "3", "--fhi", "3"]) == 2
    assert capsys.readouterr().out.strip() == "infeasible"


def test_design_f_command(m1_file, capsys):
    assert main(["design-f", "--market", m1_file]) == 0
    assert capsys.readouterr().out.strip() == "1..2"


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--top", "9", "--out", str(out)])
    assert code == 0
    assert out.read_text() == serialize.sweep_to_csv(feasibility_sweep(9))
    code = main(["sweep", "--top", "9", "--lows", "2,5"])
    assert code == 0
    assert capsys.readouterr().out.startswith(serialize.SWEEP_HEADER)


def test_sweep_guards_large_tops(capsys):
    assert main(["sweep", "--top", "50"]) == 1
    assert main(["sweep", "--top", "50", "--lows", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("pass --allow-large") == 2


def test_sweep_allow_large_warns_and_prints(capsys):
    assert main(["sweep", "--top", "50", "--lows", "50", "--allow-large"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: top=50 may take tens of seconds\n"
    assert captured.out == serialize.sweep_to_csv(feasibility_sweep(50, [50]))


def test_validate_command(m1_file, tmp_path, capsys, m1):
    # a scheme that is fine under the full grid but not under the window
    scheme = unregulated_consumer_optimal(m1).scheme
    path = tmp_path / "scheme.json"
    path.write_text(serialize.dumps(serialize.scheme_to_obj(scheme)))
    code = main([
        "validate", "--scheme", str(path), "--flo", "2", "--fhi", "3",
        "--model", "passive",
    ])
    assert code == 2
    printed = capsys.readouterr().out
    assert "price-outside-window" in printed
    assert "invalid: 2 violation(s)" in printed
    code = main([
        "validate", "--scheme", str(path), "--flo", "1", "--fhi", "6",
        "--model", "passive",
    ])
    assert code == 0
    assert "valid: 0 violations" in capsys.readouterr().out


def test_oracle_values(m1_file, capsys, tmp_path):
    code = main([
        "oracle", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", "eta0", "--i0", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4/25 (0.160000)"
    code = main([
        "oracle", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", "min-cs",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "43/50 (0.860000)"
    dump = tmp_path / "lp.txt"
    code = main([
        "oracle", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", "feasible", "--dump-lp", str(dump),
    ])
    assert code == 0
    assert "mass[v=1]" in dump.read_text()


def test_oracle_infeasible(m1_file, capsys):
    code = main([
        "oracle", "--market", m1_file, "--flo", "3", "--fhi", "3",
        "--model", "passive", "--objective", "feasible",
    ])
    assert code == 2
    assert capsys.readouterr().out.strip() == "infeasible"


def test_oracle_eta0_needs_floor(m1_file):
    code = main([
        "oracle", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", "eta0",
    ])
    assert code == 1


@pytest.mark.parametrize("objective", ["feasible", "min-cs", "max-ps", "min-ps"])
def test_oracle_i0_needs_eta0(m1_file, tmp_path, capsys, objective):
    dump = tmp_path / "lp.txt"
    code = main([
        "oracle", "--market", m1_file, "--flo", "2", "--fhi", "3",
        "--model", "passive", "--objective", objective, "--i0", "banana",
        "--dump-lp", str(dump),
    ])
    assert code == 1
    _single_error(capsys)
    assert not dump.exists()


def test_usage_errors(m1_file, tmp_path):
    assert main([]) == 1
    assert main(["segment"]) == 1
    assert main([
        "feasible", "--market", m1_file, "--flo", "4", "--fhi", "6",
    ]) == 1  # 4 is not a grid value
    missing = str(tmp_path / "missing.json")
    assert main(["feasible", "--market", missing, "--flo", "2", "--fhi", "3"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["feasible", "--market", str(bad), "--flo", "2", "--fhi", "3"]) == 1
    assert main(["sweep", "--top", "6", "--exhaustive"]) == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_runs_after_a_usage_error_match_fresh_runs(m1_file, tmp_path, capsys, monkeypatch):
    design = ["design-f", "--market", m1_file]
    sweep = ["sweep", "--top", "7"]

    def alone(argv):
        monkeypatch.setattr(cli, "_PARSER", None)
        code = main(argv)
        return code, capsys.readouterr().out

    expected = [alone(design), alone(sweep)]
    assert expected[0] == (0, "1..2\n")
    assert main(["design-f", "--market", m1_file, "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err
    got = []
    for argv in (design, sweep):
        code = main(argv)
        got.append((code, capsys.readouterr().out))
    assert got == expected


def _single_error(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("values,masses", [([1], [0]), ([1, 2], [0, 0])])
def test_design_f_rejects_zero_markets(tmp_path, capsys, values, masses):
    path = tmp_path / "zero.json"
    path.write_text(serialize.dumps(serialize.market_to_obj(market(values, masses))))
    assert main(["design-f", "--market", str(path)]) == 1
    _single_error(capsys)


MALFORMED_MARKETS = {
    "float-masses": '{"values": ["1", "2"], "masses": [0.5, 0.5]}',
    "short-masses": '{"values": ["1", "2", "3"], "masses": ["1", "1"]}',
    "negative-mass": '{"values": ["1", "2"], "masses": ["1", "-1/2"]}',
    "bare-list": '[["1", "2"], ["1", "1"]]',
    "decreasing-grid": '{"values": ["2", "1"], "masses": ["1", "1"]}',
    "empty-grid": '{"values": [], "masses": []}',
    "non-rational": '{"values": ["1", "two"], "masses": ["1", "1"]}',
    "zero-denominator": '{"values": ["1", "2"], "masses": ["1/0", "1"]}',
    "boolean": '{"values": ["1", "2"], "masses": [true, "1"]}',
    "truncated": '{"values": ["1", "2"], "masses": ["1", ',
    "huge-exponent": '{"values": ["1", "2"], "masses": ["1e-999999999", "1"]}',
    "digit-limit": '{"values": ["1", "2"], "masses": ["1e-4300", "1"]}',
    "string-vectors": '{"values": "12", "masses": "11"}',
    "object-vector": '{"values": ["1", "2"], "masses": {"1": "1", "2": "1"}}',
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "long-integer": '{"values": ["1", "2"], "masses": [' + "7" * 5000 + ', "1"]}',
}


def _as_scheme(text):
    """The scheme file holding a malformed market as its aggregate; input
    that is no market object at all stays as it is."""
    if not text.startswith("{") or not text.endswith("}"):
        return text
    return '{"aggregate": ' + text + ', "segments": []}'


# malformed --lows lists for sweep, which reads no market file
MALFORMED_LOWS = {
    "no-number": ",,",
    "blank-tokens": " , ",
    "non-integer": "3,x",
    "out-of-range": "0",
}

MALFORMED_CASES = [
    pytest.param(command, case, id=f"{case}-{command}")
    for case in sorted(MALFORMED_MARKETS)
    for command in ("design-f", "feasible", "region", "validate")
] + [pytest.param("sweep", case, id=f"{case}-sweep") for case in sorted(MALFORMED_LOWS)]


# malformed segment lists around a valid two-value aggregate, for validate
MALFORMED_SEGMENTS = {
    "float-index": '[{"masses": ["1", "1"], "price_index": 1.0}]',
    "fractional-index": '[{"masses": ["1", "1"], "price_index": 2.9}]',
    "boolean-index": '[{"masses": ["1", "1"], "price_index": true}]',
    "string-index": '[{"masses": ["1", "1"], "price_index": "1"}]',
    "index-past-grid": '[{"masses": ["1", "1"], "price_index": 3}]',
    "missing-index": '[{"masses": ["1", "1"]}]',
    "string-masses": '[{"masses": "11", "price_index": 1}]',
    "string-segments": '"segments"',
    "long-index": '[{"masses": ["1", "1"], "price_index": ' + "1" * 5000 + "}]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SEGMENTS))
def test_malformed_scheme_is_a_one_line_usage_error(tmp_path, capsys, case):
    path = tmp_path / "scheme.json"
    aggregate = '{"values": ["1", "2"], "masses": ["1", "1"]}'
    path.write_text(f'{{"aggregate": {aggregate}, "segments": {MALFORMED_SEGMENTS[case]}}}')
    argv = ["validate", "--scheme", str(path), "--flo", "1", "--fhi", "2", "--model", "passive"]
    assert main(argv) == 1
    _single_error(capsys)


@pytest.mark.parametrize("command,case", MALFORMED_CASES)
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, command, case):
    path = tmp_path / "input.json"
    if command != "sweep":
        text = MALFORMED_MARKETS[case]
        path.write_text(_as_scheme(text) if command == "validate" else text)
    window = ["--flo", "1", "--fhi", "2"]
    argv = {
        "design-f": ["design-f", "--market", str(path)],
        "feasible": ["feasible", "--market", str(path), *window],
        "region": ["region", "--market", str(path), *window, "--model", "passive"],
        "validate": ["validate", "--scheme", str(path), *window, "--model", "passive"],
        "sweep": ["sweep", "--top", "3", "--lows", MALFORMED_LOWS.get(case, "")],
    }[command]
    assert main(argv) == 1
    _single_error(capsys)


# JSON that the decoder itself cannot read, and the one line that says why
HOSTILE_JSON = {
    "deep-nesting": ("--market", MALFORMED_MARKETS["deep-nesting"], "JSON input is nested too deeply"),
    "deep-scheme": ("--scheme", MALFORMED_MARKETS["deep-nesting"], "JSON input is nested too deeply"),
    "long-mass": ("--market", MALFORMED_MARKETS["long-integer"], "a JSON integer has too many digits"),
    "long-index": (
        "--scheme",
        '{"aggregate": {"values": ["1", "2"], "masses": ["1", "1"]}, "segments": '
        + MALFORMED_SEGMENTS["long-index"] + "}",
        "a JSON integer has too many digits",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
def test_undecodable_json_is_one_error_naming_the_fault(tmp_path, capsys, case):
    flag, text, message = HOSTILE_JSON[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    command = "region" if flag == "--market" else "validate"
    argv = [command, flag, str(path), "--flo", "1", "--fhi", "2", "--model", "passive"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _every_command(m1_file, m1, w23):
    """Every command on the reference market at window 2..3, with ``{out}``
    standing for a directory to write files to: segment (all objectives,
    --out, and --trace when passive), validate on what it wrote, region and
    point (with and without --merge, aimed at the region's centroid) in
    both models, feasible, design-f, sweep, and oracle with --dump-lp and
    with eta0."""
    window = ["--flo", "2", "--fhi", "3"]
    runs = []
    for model in ("passive", "active"):
        for objective in ("ps-max", "cs-max", "sw-min"):
            scheme = f"{{out}}/{model}-{objective}.json"
            argv = ["segment", "--market", m1_file, *window, "--model", model,
                    "--objective", objective, "--out", scheme]
            if model == "passive":
                argv += ["--trace", f"{{out}}/{objective}-trace.json"]
            runs.append(argv)
            runs.append(["validate", "--scheme", scheme, *window, "--model", model])
        corners = region.passive_region if model == "passive" else region.active_region
        triangle = corners(m1, w23)
        points = (triangle.v_min, triangle.v_seller, triangle.v_buyer)
        cs, ps = (str(sum(p[k] for p in points) / 3) for k in (0, 1))
        runs.append(["region", "--market", m1_file, *window, "--model", model])
        for merge in ([], ["--merge"]):
            runs.append(["point", "--market", m1_file, *window, "--model", model,
                         "--cs", cs, "--ps", ps, *merge])
        runs.append(["oracle", "--market", m1_file, *window, "--model", model,
                     "--objective", "feasible", "--dump-lp", f"{{out}}/{model}.lp"])
        for objective in ("min-cs", "max-ps", "min-ps"):
            runs.append(["oracle", "--market", m1_file, *window, "--model", model,
                         "--objective", objective])
    runs.append(["oracle", "--market", m1_file, *window, "--model", "passive",
                 "--objective", "eta0", "--i0", "2"])
    runs.append(["feasible", "--market", m1_file, *window])
    runs.append(["design-f", "--market", m1_file])
    runs.append(["sweep", "--top", "6"])
    return runs


def _run_all(runs, out, capsys):
    out.mkdir()
    results = []
    for argv in runs:
        code = main([arg.format(out=out) for arg in argv])
        captured = capsys.readouterr()
        results.append((argv[0], code, captured.out, captured.err))
    files = {path.name: path.read_text() for path in sorted(out.iterdir())}
    return results, files


def test_no_command_reads_fraction_masses(m1_file, m1, w23, tmp_path, capsys, monkeypatch):
    """The library computes with a market's integer ray only: with
    ``Market.masses`` made to raise, every command gives what it gave."""
    runs = _every_command(m1_file, m1, w23)
    before = _run_all(runs, tmp_path / "before", capsys)
    assert all(code == 0 for _, code, _, _ in before[0])

    def refuse(self):
        raise AssertionError("library code read Market.masses")

    monkeypatch.setattr(Market, "masses", property(refuse))
    assert _run_all(runs, tmp_path / "after", capsys) == before
