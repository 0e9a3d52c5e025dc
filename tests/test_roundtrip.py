"""Schemes at user scale survive validation and the file round trip, and
the passive region nests in the active one.

Markets of 30-40 values are written as JSON literals, as users write them:
decimal values and masses, and masses over denominators near 10^30. On
seeded feasible windows of them, every corner scheme of both models and one
``mix_for_point`` scheme per model (at the region's centroid) must pass
``validate_scheme``; each scheme must come back from ``dumps``, ``loads``
and ``scheme_from_obj`` with equal rays, render to the same text again, and
render each mass as ``str`` renders its ``Fraction``; and every corner of
the passive region must lie in the active region.
"""

import random

from segmarket import PriceWindow, active, passive, validate_scheme
from segmarket import serialize
from segmarket.passive import is_feasible
from segmarket.region import active_region, mix_for_point, passive_region


def _literal_market(rng):
    """A market object of 30-40 values in the JSON file form: decimal values
    and either decimal masses or masses over a denominator near 10^30."""
    values = sorted(rng.sample(range(10, 4000), rng.randint(30, 40)))
    value_strs = [f"{v // 10}.{v % 10}" if v % 10 else str(v // 10) for v in values]
    if rng.random() < 0.5:
        masses = [f"0.{rng.choice((0, 0, 1, 25, 5, 125, 3)):04d}" for _ in values]
    else:
        den = 10**30 + rng.randrange(1, 10**6)
        masses = [f"{rng.choice((0, 1, 7, 10**12, 3 * 10**29))}/{den}" for _ in values]
    masses[rng.randrange(len(masses))] = "1"  # never a zero market
    return {"values": value_strs, "masses": masses}


def _feasible_windows(seed, count):
    rng = random.Random(seed)
    found = 0
    while found < count:
        m = serialize.market_from_obj(serialize.loads(serialize.dumps(_literal_market(rng))))
        width = rng.randint(3, 12)
        lo = rng.randrange(len(m.grid) - width + 1)
        w = PriceWindow(lo, lo + width - 1)
        if is_feasible(m, w):
            found += 1
            yield m, w


def _centroid(region):
    points = (region.v_min, region.v_seller, region.v_buyer)
    return tuple(sum(p[k] for p in points) / 3 for k in (0, 1))


def _assert_round_trips(scheme):
    obj = serialize.scheme_to_obj(scheme)
    text = serialize.dumps(obj)
    back = serialize.scheme_from_obj(serialize.loads(text))
    assert back.aggregate == scheme.aggregate
    assert [(s.market, s.price_index) for s in back.segments] == [
        (s.market, s.price_index) for s in scheme.segments
    ]
    assert serialize.dumps(serialize.scheme_to_obj(back)) == text
    assert obj["aggregate"]["masses"] == [str(x) for x in scheme.aggregate.masses]
    for entry, seg in zip(obj["segments"], scheme.segments):
        assert entry["masses"] == [str(x) for x in seg.market.masses]


def test_user_scale_schemes_validate_round_trip_and_nest():
    for m, w in _feasible_windows(2222, 18):
        schemes = {
            "passive": [
                passive.producer_optimal(m, w).scheme,
                passive.consumer_optimal(m, w).scheme,
                passive.welfare_minimal(m, w).scheme,
            ],
            "active": [
                active.producer_optimal(m, w),
                active.consumer_optimal(m, w),
                active.welfare_minimal(m, w),
            ],
        }
        regions = {"passive": passive_region(m, w), "active": active_region(m, w)}
        for model, region in regions.items():
            schemes[model].append(mix_for_point(m, w, _centroid(region), model).scheme)
        for model, group in schemes.items():
            for scheme in group:
                assert validate_scheme(scheme, w, model).ok, (model, m, w)
                _assert_round_trips(scheme)
        outer = regions["active"]
        inner = regions["passive"]
        for corner in (inner.v_min, inner.v_seller, inner.v_buyer):
            assert outer.contains(corner), (m, w)
