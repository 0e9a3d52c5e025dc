"""JSON and CSV codecs for the on-disk formats.

Numbers travel as exact strings ("p/q" or finite decimals); indices visible
in files are 1-based. Decoding checks the JSON shape and leaves the literals
to the ``core`` constructors, which read each one as an integer pair into a
market's ray and check them, and semantic checks (does a scheme sum to its
aggregate?) to ``validate_scheme`` so that defective inputs can be loaded
and examined. Encoding prints each mass straight from the market's ray
``nums / den``: ``n / g`` over ``den / g`` with ``g = gcd(n, den)``, the
same text as ``str(Fraction(n, den))``, so no ``Fraction`` is built.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Any, Iterable, Sequence

from .core import (
    Market,
    MarketScheme,
    PriceWindow,
    Segment,
    ValueGrid,
    grid,
)
from .passive import ExtractionStep
from .rationals import decimal_str
from .region import SurplusRegion
from .regulator import SweepRow


def _mass_strs(m: Market) -> list[str]:
    """Each mass of *m* as ``str`` renders its ``Fraction``, from the ray."""
    den, out = m._den, []
    for n in m._nums:
        g = gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


def market_to_obj(m: Market) -> dict[str, Any]:
    return {
        "values": [str(v) for v in m.grid.values],
        "masses": _mass_strs(m),
    }


def _list(obj: dict[str, Any], key: str) -> list[Any]:
    if not isinstance(obj[key], list):
        raise ValueError(f"'{key}' must be a JSON list")
    return obj[key]


def market_from_obj(obj: Any) -> Market:
    if not isinstance(obj, dict) or set(obj) != {"values", "masses"}:
        raise ValueError("market object needs exactly 'values' and 'masses'")
    return Market(grid(_list(obj, "values")), _list(obj, "masses"))


def scheme_to_obj(scheme: MarketScheme) -> dict[str, Any]:
    return {
        "aggregate": market_to_obj(scheme.aggregate),
        "segments": [
            {
                "masses": _mass_strs(seg.market),
                "price_index": seg.price_index + 1,
            }
            for seg in scheme.segments
        ],
    }


def scheme_from_obj(obj: Any) -> MarketScheme:
    if not isinstance(obj, dict) or "aggregate" not in obj or "segments" not in obj:
        raise ValueError("scheme object needs 'aggregate' and 'segments'")
    aggregate = market_from_obj(obj["aggregate"])
    g = aggregate.grid
    segments = []
    for entry in _list(obj, "segments"):
        if not isinstance(entry, dict) or not {"masses", "price_index"} <= set(entry):
            raise ValueError("each segment needs 'masses' and 'price_index'")
        k = entry["price_index"]
        if type(k) is not int or not 1 <= k <= len(g):  # JSON true and 2.0 are refused
            raise ValueError(f"segment price_index must be an integer in 1..{len(g)}")
        segments.append(Segment(Market(g, _list(entry, "masses")), k - 1))
    return MarketScheme(aggregate, tuple(segments))


def region_to_obj(region: SurplusRegion) -> dict[str, Any]:
    def point(p: tuple) -> list[str]:
        return [str(p[0]), str(p[1])]

    return {
        "model": region.model,
        "vertices": {
            "min": point(region.v_min),
            "seller": point(region.v_seller),
            "buyer": point(region.v_buyer),
        },
    }


def trace_to_obj(steps: Iterable[ExtractionStep]) -> list[dict[str, Any]]:
    out = []
    for step in steps:
        out.append(
            {
                "support": [i + 1 for i in step.support],
                "gamma": str(step.gamma),
                "segment": _mass_strs(step.segment.market),
                "price_index": step.segment.price_index + 1,
                "residual": _mass_strs(step.residual),
            }
        )
    return out


def window_to_str(g: ValueGrid, w: PriceWindow) -> str:
    """Human-facing "lo..hi" rendering in grid values."""
    return f"{g[w.lo]}..{g[w.hi]}"


SWEEP_HEADER = (
    "L,R,n_sets,n_feasible,n_sufficient,prop_feasible,prop_sufficient,"
    "prop_feasible_dec,prop_sufficient_dec,optprice_ties"
)


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        pf, ps = row.prop_feasible, row.prop_sufficient
        lines.append(
            ",".join(
                [
                    str(row.lo),
                    str(row.hi),
                    str(row.n_sets),
                    str(row.n_feasible),
                    str(row.n_sufficient),
                    str(pf),
                    str(ps),
                    decimal_str(pf),
                    decimal_str(ps),
                    str(int(row.optprice_ties)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def loads(text: str) -> Any:
    """The JSON value of *text*; input nested past the decoder's recursion limit,
    or with an integer past the int string-digit limit, is a ValueError saying so."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError("a JSON integer has too many digits") from None
