"""Command-line interface.

Exit codes: 0 success (and "feasible" verdicts), 1 usage or input errors,
2 infeasible window (or a scheme that fails validation), 3 requested surplus
point outside the achievable region.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from . import active, lp, passive, region, regulator, serialize
from .core import (
    Market,
    MarketScheme,
    PriceWindow,
    SurplusSummary,
    ValueGrid,
    scheme_surplus,
    validate_scheme,
)
from .errors import (
    EmptyAboveFloor,
    InfeasibleWindow,
    PointOutsideRegion,
    SegmarketError,
)
from .rationals import _plain_int, as_rational, decimal_str

USAGE_ERROR = 1
INFEASIBLE = 2
OUTSIDE_REGION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for infeasibility."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_market_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--market", required=True, help="market JSON file")


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flo", required=True, help="window floor: grid value or '#k' 1-based index")
    p.add_argument("--fhi", required=True, help="window cap: grid value or '#k' 1-based index")


_PARSER: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser. It depends on no input, so it is built on
    the first call and that same parser is returned afterwards."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segmarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("segment", help="construct an extreme segmentation")
    _add_market_arg(p)
    _add_window_args(p)
    p.add_argument("--model", choices=["passive", "active"], required=True)
    p.add_argument("--objective", choices=["ps-max", "cs-max", "sw-min"], required=True)
    p.add_argument("--trace", help="write the extraction trace JSON here (passive only)")
    p.add_argument("--out", help="write the scheme JSON here")

    p = sub.add_parser("region", help="achievable (CS, PS) region corners")
    _add_market_arg(p)
    _add_window_args(p)
    p.add_argument("--model", choices=["passive", "active"], required=True)
    p.add_argument("--out", help="write the region JSON here")

    p = sub.add_parser("point", help="scheme hitting a target (CS, PS) point")
    _add_market_arg(p)
    _add_window_args(p)
    p.add_argument("--model", choices=["passive", "active"], required=True)
    p.add_argument("--cs", required=True, help="target consumer surplus (exact rational)")
    p.add_argument("--ps", required=True, help="target producer surplus (exact rational)")
    p.add_argument("--merge", action="store_true", help="merge segments by price")
    p.add_argument("--out", help="write the mixed scheme JSON here")

    p = sub.add_parser("feasible", help="can the window price every buyer passively?")
    _add_market_arg(p)
    _add_window_args(p)

    p = sub.add_parser("design-f", help="shortest feasible window anchored at the cheapest value")
    _add_market_arg(p)

    p = sub.add_parser("sweep", help="feasibility census over uniform markets")
    p.add_argument("--top", type=int, required=True, help="highest grid value R")
    p.add_argument("--lows", help="comma-separated list of lows (default 1..R)")
    p.add_argument("--allow-large", action="store_true", help="permit top > 49")
    p.add_argument("--out", help="write the CSV here")

    p = sub.add_parser("validate", help="check a scheme JSON against a window and model")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    _add_window_args(p)
    p.add_argument("--model", choices=["passive", "active"], required=True)

    p = sub.add_parser("oracle", help="exact LP values for segmentation extremes")
    _add_market_arg(p)
    _add_window_args(p)
    p.add_argument("--model", choices=["passive", "active"], required=True)
    p.add_argument(
        "--objective",
        choices=["min-cs", "max-ps", "min-ps", "eta0", "feasible"],
        required=True,
    )
    p.add_argument("--i0", help="floor for the eta0 objective: grid value or '#k'")
    p.add_argument("--dump-lp", help="write a plain-text rendering of the LP here")
    return parser


def _load_market(path: str) -> Market:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.market_from_obj(serialize.loads(fh.read()))


def _load_scheme(path: str) -> MarketScheme:
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.scheme_from_obj(serialize.loads(fh.read()))


def _int_token(token: str, what: str, skip: int = 0) -> int:
    """``token[skip:]`` read as a plain decimal integer (an optional sign,
    then ASCII digits, within the int string-digit limit); anything else is
    an input error that names the token, shortened when long."""
    k = _plain_int(token[skip:])
    if k is None:
        shown = repr(token) if len(token) <= 40 else f"{token[:20]!r}... ({len(token)} characters)"
        raise ValueError(f"{what} must be a plain decimal integer: {shown}")
    return k


def _resolve_index(g: ValueGrid, token: str) -> int:
    """Grid values match exactly; '#k' addresses the k-th value, 1-based."""
    token = token.strip()
    if token.startswith("#"):
        k = _int_token(token, "index", skip=1)
        if not 1 <= k <= len(g):
            raise ValueError(f"index {k} outside the grid (1..{len(g)})")
        return k - 1
    return g.index_of(token)


def _resolve_window(g: ValueGrid, flo: str, fhi: str) -> PriceWindow:
    return PriceWindow(_resolve_index(g, flo), _resolve_index(g, fhi))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _surplus_line(s: SurplusSummary) -> str:
    return (
        f"CS={s.cs} ({decimal_str(s.cs)}) "
        f"PS={s.ps} ({decimal_str(s.ps)}) "
        f"SW={s.sw} ({decimal_str(s.sw)})"
    )


def cmd_segment(args: argparse.Namespace) -> int:
    m = _load_market(args.market)
    w = _resolve_window(m.grid, args.flo, args.fhi)
    if args.model == "passive":
        builder = {
            "ps-max": passive.producer_optimal,
            "cs-max": passive.consumer_optimal,
            "sw-min": passive.welfare_minimal,
        }[args.objective]
        run = builder(m, w)
        if not run.remainder.is_zero():
            sys.stderr.write("window is infeasible: a remainder is left unpriced\n")
            return INFEASIBLE
        scheme = run.scheme
        if args.trace:
            _write_or_print(serialize.dumps(serialize.trace_to_obj(run.steps)), args.trace)
    else:
        if args.trace:
            raise ValueError("--trace applies only to the passive model")
        builder_a = {
            "ps-max": active.producer_optimal,
            "cs-max": active.consumer_optimal,
            "sw-min": active.welfare_minimal,
        }[args.objective]
        scheme = builder_a(m, w)
    print(_surplus_line(scheme_surplus(scheme)))
    if args.out:
        _write_or_print(serialize.dumps(serialize.scheme_to_obj(scheme)), args.out)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    m = _load_market(args.market)
    w = _resolve_window(m.grid, args.flo, args.fhi)
    builder = region.passive_region if args.model == "passive" else region.active_region
    _write_or_print(serialize.dumps(serialize.region_to_obj(builder(m, w))), args.out)
    return 0


def cmd_point(args: argparse.Namespace) -> int:
    m = _load_market(args.market)
    w = _resolve_window(m.grid, args.flo, args.fhi)
    target = (as_rational(args.cs), as_rational(args.ps))
    mixed = region.mix_for_point(m, w, target, args.model, merge=args.merge)
    names = ("min", "seller", "buyer")
    print("weights: " + " ".join(f"{n}={v}" for n, v in zip(names, mixed.weights)))
    _write_or_print(serialize.dumps(serialize.scheme_to_obj(mixed.scheme)), args.out)
    return 0


def cmd_feasible(args: argparse.Namespace) -> int:
    m = _load_market(args.market)
    w = _resolve_window(m.grid, args.flo, args.fhi)
    if passive.is_feasible(m, w):
        print("feasible")
        return 0
    print("infeasible")
    return INFEASIBLE


def cmd_design_f(args: argparse.Namespace) -> int:
    m = _load_market(args.market)
    w = regulator.design_prefix_window(m)
    print(serialize.window_to_str(m.grid, w))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.top > 49 and not args.allow_large:
        raise ValueError("top > 49 is slow; pass --allow-large to run it anyway")
    if args.top > 49:
        sys.stderr.write(f"warning: top={args.top} may take tens of seconds\n")
    lows = None
    if args.lows is not None:
        tokens = [tok.strip() for tok in args.lows.split(",")]
        lows = [_int_token(tok, "--lows entry") for tok in tokens if tok]
        if not lows:
            raise ValueError("--lows lists no number")
    rows = regulator.feasibility_sweep(args.top, lows)
    _write_or_print(serialize.sweep_to_csv(rows), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.scheme)
    w = _resolve_window(scheme.aggregate.grid, args.flo, args.fhi)
    report = validate_scheme(scheme, w, args.model)
    if report.ok:
        print("valid: 0 violations")
        return 0
    for issue in report.issues:
        where = "aggregate" if issue.segment is None else f"segment {issue.segment + 1}"
        print(f"violation[{issue.kind}] {where}: {issue.detail}")
    print(f"invalid: {len(report.issues)} violation(s)")
    return INFEASIBLE


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.i0 is not None and args.objective != "eta0":
        raise ValueError("--i0 applies only to the eta0 objective")
    m = _load_market(args.market)
    w = _resolve_window(m.grid, args.flo, args.fhi)
    if args.dump_lp:
        _write_or_print(lp.dump_lp(lp.build_lp(m, w, args.model)) + "\n", args.dump_lp)
    if args.objective == "feasible":
        if lp.oracle_feasible(m, w, args.model):
            print("feasible")
            return 0
        print("infeasible")
        return INFEASIBLE
    if args.objective == "eta0":
        if args.model != "passive":
            raise ValueError("eta0 is defined for the passive model")
        if not args.i0:
            raise ValueError("--i0 is required for the eta0 objective")
        floor = _resolve_index(m.grid, args.i0)
        value = lp.oracle_min_floor_mass(m, w, floor)
    else:
        fn = {
            "min-cs": lp.oracle_min_cs,
            "max-ps": lp.oracle_max_ps,
            "min-ps": lp.oracle_min_ps,
        }[args.objective]
        value = fn(m, w, args.model)
    print(f"{value} ({decimal_str(value)})")
    return 0


_DISPATCH = {
    "segment": cmd_segment,
    "region": cmd_region,
    "point": cmd_point,
    "feasible": cmd_feasible,
    "design-f": cmd_design_f,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except PointOutsideRegion as exc:
        sys.stderr.write(f"error: {exc}\n")
        return OUTSIDE_REGION
    except (InfeasibleWindow, EmptyAboveFloor) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INFEASIBLE
    except (OSError, ValueError, TypeError, SegmarketError) as exc:
        if "integer string conversion;" in str(exc):  # an int past the str digit limit
            exc = "a result has too many digits to print"
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
