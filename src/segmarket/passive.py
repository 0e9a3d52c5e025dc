"""Segmentations for the passive intermediary model.

Passive means the seller in each segment is free to deviate to ANY grid
price, so an instructed price must be a global revenue maximizer for its
segment while also lying inside the regulated window. All constructions here
share one move: repeatedly peel off the largest equal-revenue slice over a
carefully chosen support, so that the instructed price ties for optimal and
the leftover market keeps the structure the next step needs.

Two loops run the peels. The generic driver :func:`_peel` runs four
constructions (the unregulated, producer- and consumer-optimal splits and
the feasibility check), each handing it a policy that picks the peel
support, extra caps on the weight and the price; the consumer-optimal run
proves its window by leaving no remainder. The reserve run
:func:`_reserve_run` is both the welfare-minimal construction, which keeps a
fixed reserve of floor-value buyers out of the dearer peels, and one run of
the exact search by which :func:`minimal_reduction` finds the least such
reserve (:func:`_least_floor_mass`); the LP oracle only checks the answer,
in the tests and ``segmarket oracle``. Steps are built only when asked for.

Every function is exact and deterministic. Both loops carry an iteration
guard of ``2n + 2`` peels on an ``n``-value grid that turns a logic error
into a :class:`~segmarket.errors.NonTermination` instead of a hang; the
reserve search bounds its runs the same way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Sequence

from .core import (
    ZERO,
    Market,
    MarketScheme,
    PriceWindow,
    Segment,
    _check_window,
    _ray,
    _spread,
    _unit_weights,
    largest_dominated_er,
    opt_prices,
    standardize,
    tail_value,
    uniform_revenue,
)
from .errors import (
    InfeasibleWindow,
    InvariantViolation,
    NonTermination,
    ZeroMarket,
)


def iteration_guard(n: int) -> int:
    """Loop bound for extraction on an *n*-value grid: 2n + 2 peels."""
    return 2 * n + 2


@dataclass(frozen=True)
class ExtractionStep:
    """One peel: the support used, the slice weight, the priced slice, and
    what was left afterwards."""

    support: tuple[int, ...]
    gamma: Fraction
    segment: Segment
    residual: Market


@dataclass(frozen=True)
class SegmentationRun:
    """A finished construction: the scheme, any unsegmented remainder, and
    the per-iteration trace."""

    scheme: MarketScheme
    remainder: Market
    steps: tuple[ExtractionStep, ...]


# A peel policy maps the residual and its ascending support to the next peel,
# as a new ascending support list, extra caps on the weight and a price; or
# to None to stop.
_Pick = Callable[[Market, list], "tuple[list, Sequence[Fraction], int] | None"]


def _peel(m: Market, what: str, pick: _Pick, steps: list[ExtractionStep] | None = None) -> Market:
    """Peel *m* as *pick* directs, one :func:`core.largest_dominated_er`
    call per peel, and return the remainder; steps go to *steps* if given.

    The slice is zero off its support, so it is taken off the residual in one
    pass over that support, on the rays' common denominator, each entry checked
    for going negative, then one gcd reduction. Only support entries can empty,
    so the carried support list is rebuilt once per peel, not rescanned.
    """
    guard = iteration_guard(len(m.grid))
    residual = m
    full = list(m.support())
    done = 0
    while (choice := pick(residual, full)) is not None:
        if done >= guard:
            raise NonTermination(f"{what} split exceeded its iteration guard")
        done += 1
        support, caps, price = choice
        gamma, piece = largest_dominated_er(residual, support, caps)
        if not gamma:
            raise InvariantViolation(f"{what} peel stalled")
        c = gcd(residual._den, piece._den)
        to_common, piece_scale, taken = piece._den // c, residual._den // c, piece._nums
        nums = [n * to_common for n in residual._nums]
        for i in support:
            nums[i] -= taken[i] * piece_scale
            if nums[i] < 0:
                raise InvariantViolation(f"{what} peel left negative mass")
        residual = _ray(m.grid, nums, piece_scale * piece._den)
        if steps is not None:
            steps.append(ExtractionStep(tuple(support), gamma, Segment(piece, price), residual))
        full = [i for i in full if nums[i]]
    return residual


def _seller_peel(full: Sequence[int], w: PriceWindow) -> tuple[list[int], tuple, int] | None:
    """The seller-favoring peel over an ascending support *full*: every entry
    outside the window plus the top one inside it, no extra caps, priced at
    that top entry; None when no window value carries mass."""
    a = bisect_left(full, w.lo)
    b = bisect_right(full, w.hi, a)
    if a == b:
        return None
    top = full[b - 1]
    return [*full[:a], top, *full[b:]], (), top


def unregulated_consumer_optimal(m: Market) -> SegmentationRun:
    """Consumer-optimal segmentation with no price regulation.

    Each step peels the largest equal-revenue slice over the full remaining
    support and prices it at the cheapest supported value, so every buyer in
    the slice trades while the seller stays indifferent. The result always
    exhausts the market, total output equals total value, and producer
    surplus equals the single-price benchmark.
    """
    if m.is_zero():
        raise ZeroMarket("cannot segment a market with no buyers")
    steps: list[ExtractionStep] = []
    remainder = _peel(
        m, "unregulated", lambda _, full: (full[:], (), full[0]) if full else None, steps
    )
    scheme = MarketScheme(m, tuple(s.segment for s in steps))
    return SegmentationRun(scheme, remainder, tuple(steps))


def producer_optimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Producer-optimal passive segmentation under a regulated window.

    Peels equal-revenue slices whose support keeps only the top in-window
    value, priced there, until no window value carries mass. The scheme is
    returned in standard form (one segment per window price); whatever the
    loop could not reach is the remainder. The remainder is zero exactly when
    the window is feasible for this market.
    """
    if m.is_zero():
        raise ZeroMarket("cannot segment a market with no buyers")
    steps: list[ExtractionStep] = []
    remainder = _peel(m, "producer-optimal", lambda _, full: _seller_peel(full, w), steps)
    covered = m.minus(remainder)
    scheme = standardize(MarketScheme(covered, tuple(s.segment for s in steps)), w)
    return SegmentationRun(scheme, remainder, tuple(steps))


def is_feasible(m: Market, w: PriceWindow) -> bool:
    """Whether some passive segmentation prices every buyer inside the window.

    The producer-optimal peel is greedy-complete: it leaves a zero remainder
    if and only if any full segmentation exists. It runs only while some
    supported entry lies outside the window, and the verdict is that the
    remainder has no mass outside it: a market supported inside the window
    has all its optimal prices there (a lower price sells no more, a higher
    one nothing), so it is one valid segment by itself. No step is kept.
    """
    _check_window(m.grid, w)
    if m.is_zero():
        raise ZeroMarket("feasibility is undefined for a market with no buyers")

    def pick(_: Market, full: list[int]):
        straddles = full and (full[0] < w.lo or full[-1] > w.hi)
        return _seller_peel(full, w) if straddles else None

    return all(i in w for i in _peel(m, "producer-optimal", pick).support())


def _preservation_caps(
    residual: Market, low: int, top: int, rivals: Sequence[int], best: int
) -> list[Fraction]:
    """Caps on the weight of a seller peel over a support from *low* up,
    priced at *top*, that keep every optimal price optimal: one per rival,
    a supported window entry below *top*; *best* is any optimal price.

    Proof. Each optimal price is supported and, in this phase, outside the
    window, so it lies in the peel support, where removing ``gamma * unit``
    lowers the revenue by ``gamma * v_low``. The rivals are the other
    supported prices; at rival ``j`` the slice's demand is its mass from
    *top* up, ``gamma * v_low / v_top``, so the revenue drops by
    ``gamma * v_low * v_j / v_top``. An unsupported price never beats the
    supported one above it. So every optimal price stays optimal iff
    ``gamma * v_low * (1 - v_j / v_top) <= R* - R(j)`` for every rival,
    with ``R*`` the best revenue. In the grid reciprocals ``v_i = L / r_i``
    and the ray's tail sums, ``R(i) = L * T_i / (r_i * den)``, so the cap is
    ``r_low * (T_best * r_j - T_j * r_best) / (den * r_best * (r_j - r_top))``,
    the same for every optimal price; ``r_j > r_top`` as ``v_j < v_top``.
    """
    r, nums = residual.grid._reciprocals[1], residual._nums
    r_best, r_top, t_best = r[best], r[top], sum(nums[best:])
    den = residual._den * r_best
    return [
        Fraction(r[low] * (t_best * r[j] - sum(nums[j:]) * r_best), den * (r[j] - r_top))
        for j in rivals
    ]


def consumer_optimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Consumer-optimal passive segmentation under a regulated window.

    While no currently optimal price sits inside the window (phase 1), peel
    over the seller-favoring support, additionally capped so the
    optimal-price set of the residual never shrinks; once an optimal price
    is inside the window (phase 2), peel over the full support (which lowers
    all supported revenues by the same amount) and price at the cheapest
    in-window supported value. Total
    output is maximal and producer surplus stays at the single-price
    benchmark, so consumer surplus is maximal.

    The run decides the window itself: it leaves no remainder exactly when
    the window is feasible, so :func:`is_feasible` runs only to confirm a
    remainder. Proof, on any window:

    * It never stalls. A phase-1 cap is positive, as no rival is optimal
      yet; every supported entry of a peel is positive.
    * It never drops an optimal price while mass remains. In phase 1 by the
      proof of :func:`_preservation_caps`, which does not use feasibility.
      In phase 2 all supported revenues drop alike, and an optimal entry
      that emptied would earn less than the next supported price above it.
    * Each peel empties an entry or binds a cap, and a binding cap makes
      its rival optimal and starts phase 2, so it makes at most ``n + 1``
      peels.
    * With no remainder its slices, each equal-revenue and priced on its
      support inside the window, are a passive segmentation in the window.
      With one, it never reached phase 2 (there an in-window optimal price
      stays supported while mass remains), so no cap bound: it made the
      producer-optimal peels step for step and kept their remainder, which
      is nonzero only on an infeasible window (:func:`is_feasible`).
    """
    _check_window(m.grid, w)
    if m.is_zero():
        raise ZeroMarket("feasibility is undefined for a market with no buyers")
    base = set(opt_prices(m))

    def pick(residual: Market, full: list[int]):
        if not full:
            return None
        optimal = opt_prices(residual)
        if not base <= set(optimal):
            raise InvariantViolation("peel disturbed the optimal-price set")
        peel = _seller_peel(full, w)
        if peel is None:
            return None
        if any(i in w for i in optimal):
            return full[:], (), full[bisect_left(full, w.lo)]
        seller, _, top = peel
        rivals = full[bisect_left(full, w.lo) : bisect_left(full, top)]
        return seller, _preservation_caps(residual, seller[0], top, rivals, optimal[0]), top

    steps: list[ExtractionStep] = []
    residual = _peel(m, "consumer-optimal", pick, steps)
    if not residual.is_zero() and not is_feasible(m, w):
        raise InfeasibleWindow("window cannot price every buyer passively")
    return _finished(m, w, residual, steps)


def _finished(
    m: Market, w: PriceWindow, residual: Market, steps: list[ExtractionStep]
) -> SegmentationRun:
    """The standardized run of a peel on a feasible window, which must have
    left no remainder."""
    if not residual.is_zero():
        raise InvariantViolation("feasible window left a remainder")
    scheme = standardize(MarketScheme(m, tuple(s.segment for s in steps)), w)
    return SegmentationRun(scheme, residual, tuple(steps))


@dataclass(frozen=True)
class ReducedWindow:
    """The tightest upper part of a window that is feasible on its own.

    ``floor`` is the highest index f in the window such that prices
    ``{f..hi}`` alone can still segment the whole market; ``floor_mass`` is
    the least mass of value-``floor`` buyers any such segmentation must sell
    at the floor price (computed by the reserve search of
    :func:`_least_floor_mass`).
    """

    window: PriceWindow
    floor: int
    floor_mass: Fraction

    def reduced(self) -> PriceWindow:
        return PriceWindow(self.floor, self.window.hi)


def minimal_reduction(m: Market, w: PriceWindow) -> ReducedWindow:
    """The reduced window of *w*: its highest floor ``f`` with ``{f..hi}``
    feasible, and the least value-``f`` mass sold at price ``f``, from the
    reserve search of :func:`_least_floor_mass`.

    Feasibility of ``{f..hi}`` is monotone in ``f`` (a wider window keeps
    every scheme of a narrower one), so the floor is found by galloping down
    from ``hi`` (checking ``hi, hi-1, hi-3, hi-7, ...``) and bisecting the
    last gap: one check when the floor is ``hi``, two when it is ``hi - 1``,
    and about ``2 log2 d`` when it sits ``d`` places below ``hi``.

    Raises :class:`~segmarket.errors.InfeasibleWindow` when no floor works,
    that is when *w* itself is infeasible.
    """
    hi = w.hi
    floor, above = hi, hi + 1  # every floor at or past `above` is infeasible
    while not is_feasible(m, PriceWindow(floor, hi)):
        if floor == w.lo:
            raise InfeasibleWindow("window cannot price every buyer passively")
        floor, above = max(w.lo, 2 * floor - hi - 1), floor
    while above - floor > 1:
        mid = (floor + above) // 2
        if is_feasible(m, PriceWindow(mid, hi)):
            floor = mid
        else:
            above = mid
    return ReducedWindow(w, floor, _least_floor_mass(m, PriceWindow(floor, hi)))


def _least_floor_mass(m: Market, sub: PriceWindow) -> Fraction:
    """Least mass of value-``f`` buyers sold at price ``f`` by a passive
    segmentation priced in the feasible window ``sub = {f..hi}``, where no
    higher floor is feasible; exact, by a search over the reserve.

    Let :func:`_reserve_run` run the welfare-minimal peel with reserve
    ``eta`` (slope 1), call ``R(eta)`` the value-weighted remainder it
    leaves and ``s(eta)`` the value-``f`` mass it sells at price ``f``; the
    construction is its slope-0 run at the answer, checked to sell exactly
    that mass at the floor and leave nothing. Starting at ``eta = 0``: stop
    when ``R(eta) = 0`` and return ``s(eta)``; when the right slope ``R'``
    is negative, take the Newton step ``eta -= R / R'``; otherwise (a flat
    or rising piece) step to the run's next breakpoint, the least reserve
    above ``eta`` at which a comparison the run made flips.

    Proved:

    * Given its sequence of decisions, a run's residual is affine in the
      reserve, and the reserves that lead to one sequence form an interval,
      a *piece*. A Newton step on a piece lands exactly on the piece's root
      when that root lies in the piece.
    * At ``eta = m_f`` (all of the floor's mass) the reserve covers the
      floor, so it never joins a peel priced above it. The run is then the
      producer peel over ``sub``, which completes because ``sub`` is
      feasible. So ``R`` has a root at or below ``m_f``, and so does every
      larger reserve.
    * Termination: ``eta`` only grows, and each run after the first starts
      on a piece to the right of the last (a Newton step that misses its
      root leaves its piece rightward, and a breakpoint starts the next
      piece). A run makes at most ``2n + 2`` peels with finitely many
      choices each, so there are finitely many pieces below ``m_f``. A
      guard of ``2n + 2`` runs (seeded tests need at most 4) turns a logic
      error into :class:`~segmarket.errors.NonTermination`.

    Tested, not proved: ``s(eta0)``, at the root ``eta0`` the search
    reaches, equals the least floor mass that
    :func:`segmarket.lp.oracle_min_floor_mass` computes. The tests check it
    on seeded random, adversarial (20-24 values, denominators near 10^30)
    and reference markets; a per-instance certificate would prove it.
    """
    eta = ZERO
    for _ in range(iteration_guard(len(m.grid))):
        value, slope, sold, step = _reserve_run(m, sub, eta, 1)
        if not value:
            return sold
        if slope < 0:
            eta -= value / slope
        elif step is None:
            raise InvariantViolation("reserve search found no root below the floor mass")
        else:
            eta += step
    raise NonTermination("reserve search exceeded its iteration guard")


def _flip(d0: int, d1: int, least: tuple[int, int] | None) -> tuple[int, int] | None:
    """The lesser of *least* and the ``t > 0`` where ``d0 + d1 * t`` changes
    sign, if it does; each as a ``(numerator, denominator)`` pair."""
    if d0 and d1 and (d0 > 0) != (d1 > 0):
        t0, t1 = abs(d0), abs(d1)
        if least is None or t0 * least[1] < least[0] * t1:
            return t0, t1
    return least


def _reserve_run(
    m: Market, sub: PriceWindow, eta: Fraction, slope: int, steps: list | None = None
) -> tuple[Fraction, Fraction, Fraction, Fraction | None]:
    """The welfare-minimal peel over *sub* with reserve ``eta + slope * t``,
    taken as ``t -> 0+``, returning its remainder instead of raising; steps
    go to *steps* if given. *slope* 1 is one run of the search of
    :func:`_least_floor_mass`; *slope* 0 fixes the reserve, and at the least
    floor mass is the construction, required to sell exactly that mass at
    the floor and leave nothing (:func:`_welfare_minimal`).

    Each residual entry is an affine pair ``(a_i + b_i * t) / den`` over one
    integer denominator (``b_i = 0`` at slope 0), and pairs compare
    lexicographically (value, then slope), so every choice is the one made
    just right of ``eta`` and every slope is exact. Returns the
    value-weighted remainder and its slope, the value-``f`` mass sold at
    price ``f``, and the least ``t > 0`` at which a comparison the run made
    flips (None if none does): a floor mass crossing the reserve, or a
    residual entry reaching zero, which is where a binding ratio changes. A
    peel of weight zero or a negative entry raises ``InvariantViolation``.
    """
    g, floor = m.grid, sub.lo
    scale = eta.denominator // gcd(m._den, eta.denominator)
    den = m._den * scale
    a = [x * scale for x in m._nums]
    b = [0] * len(a)
    keep = eta.numerator * (den // eta.denominator)  # reserve: (keep + slope * den * t) / den
    sold = 0
    step = None
    full = list(m.support())
    guard = iteration_guard(len(g))
    while (peel := _seller_peel(full, sub)) is not None:
        if (guard := guard - 1) < 0:
            raise NonTermination("welfare-minimal run exceeded its iteration guard")
        support, _, top = peel
        capped = False
        if top != floor:
            # a dearer peel may take only the floor's mass above the reserve
            d0, d1 = a[floor] - keep, b[floor] - slope * den
            step = _flip(d0, d1, step)
            if (d0, d1) > (0, 0):
                capped = True
                insort(support, floor)
                a[floor], b[floor] = d0, d1
        idx, weights = _unit_weights(g, support)
        best0, best1, best_w = a[idx[0]], b[idx[0]], weights[0]
        for i, u in zip(idx[1:], weights[1:]):
            c = a[i] * best_w - best0 * u
            if c < 0 or (not c and b[i] * best_w < best1 * u):
                best0, best1, best_w = a[i], b[i], u
        # the slice takes weights[k] * (best0 + best1 t) / best_w at idx[k]
        c = gcd(best0, best1, best_w)
        best0, best1, best_w = best0 // c, best1 // c, best_w // c
        if not (best0 or best1):
            raise InvariantViolation("welfare-minimal peel stalled")
        if best_w != 1:  # at slope 0 every b_i stays 0, so b is left alone
            a = [x * best_w for x in a]
            b = [x * best_w for x in b] if slope else b
            den, keep, sold = den * best_w, keep * best_w, sold * best_w
        for i, u in zip(idx, weights):
            a[i] -= u * best0
            b[i] -= u * best1
            if a[i] < 0 or not a[i] and b[i] < 0:  # (a_i, b_i) < (0, 0)
                raise InvariantViolation("welfare-minimal peel left negative mass")
            if b[i] < 0 < a[i]:  # the one sign pattern of a residual entry that can flip
                step = _flip(a[i], b[i], step)
        if capped:
            a[floor] += keep
            b[floor] += slope * den
        elif top == floor:
            sold += weights[idx.index(floor)] * best0
        c = gcd(den, keep, sold, *a, *b)
        if c > 1:
            a, b = [x // c for x in a], [x // c for x in b] if slope else b
            den, keep, sold = den // c, keep // c, sold // c
        if steps is not None:  # slice: weights * best0 / (c * den) = gamma * weights * v_low / L
            low = g[idx[0]]
            gamma = Fraction(best0 * g._reciprocals[0] * low.denominator, c * den * low.numerator)
            piece = Segment(_spread(g, idx, weights, best0, c * den), top)
            steps.append(ExtractionStep(tuple(idx), gamma, piece, _ray(g, a, den)))
        full = [i for i in full if a[i] or b[i]]
    big, values = g._scale
    value, rate = (Fraction(sum(map(mul, values, x)), den * big) for x in (a, b))
    return value, rate, Fraction(sold, den), Fraction(*step) if step else None


def welfare_minimal(m: Market, w: PriceWindow) -> SegmentationRun:
    """Least-total-surplus passive segmentation under a regulated window.

    Works inside the reduced window: while some supported value sits above
    the floor, peel seller-favoringly but keep a reserve of ``floor_mass``
    at the floor value (those buyers must eventually trade at the floor
    price; everyone else at the floor value is priced out). Once the floor is
    the top supported window value, peel it off at the floor price. Consumer
    surplus lands on its exact minimum while producer surplus stays at the
    single-price benchmark.
    """
    return _welfare_minimal(m, w, minimal_reduction(m, w))


def _welfare_minimal(m: Market, w: PriceWindow, red: ReducedWindow) -> SegmentationRun:
    steps: list[ExtractionStep] = []
    _, _, sold, _ = _reserve_run(m, red.reduced(), red.floor_mass, 0, steps)
    if sold != red.floor_mass:
        raise InvariantViolation("welfare-minimal run sold other than the floor mass")
    return _finished(m, w, steps[-1].residual if steps else m, steps)


def min_consumer_surplus(m: Market, w: PriceWindow) -> Fraction:
    """Exact least consumer surplus over all passive segmentations.

    Buyers above the reduced-window floor always trade; of the buyers at the
    floor value only the forced ``floor_mass`` does; producer surplus cannot
    drop below the single-price benchmark. The welfare-minimal construction
    attains this value.
    """
    return _min_consumer_surplus(m, minimal_reduction(m, w))


def _min_consumer_surplus(m: Market, red: ReducedWindow) -> Fraction:
    return (
        red.floor_mass * m.grid[red.floor]
        + tail_value(m, red.floor + 1)
        - uniform_revenue(m)
    )
