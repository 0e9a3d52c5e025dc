"""Equal-revenue peels written out densely in ``Fraction`` arithmetic.

A reference for the integer-ray peels of ``segmarket.core``: every vector
here is a list of ``Fraction`` masses over the whole grid, and the unit
equal-revenue slice comes straight from the reciprocal formula
``v_low * (1/v - 1/v')`` (``v_low / v_top`` at the top). Nothing here calls
the library, so agreement means something.
"""

from fractions import Fraction


def dense_equal_revenue(g, support):
    """The unit equal-revenue masses written out over the whole grid."""
    idx = sorted(set(support))
    low = g[idx[0]]
    out = [Fraction(0)] * len(g)
    for k, i in enumerate(idx):
        if k + 1 == len(idx):
            out[i] = low / g[i]
        else:
            out[i] = low * (1 / g[i] - 1 / g[idx[k + 1]])
    return out


def dense_peel(g, masses, support, caps=()):
    """``(gamma, slice, residual)`` for the largest equal-revenue slice over
    *support* that fits under *masses*, its weight at most each of *caps*."""
    unit = dense_equal_revenue(g, support)
    gamma = min([*(masses[i] / unit[i] for i in range(len(g)) if unit[i] > 0), *caps])
    piece = [u * gamma for u in unit]
    return gamma, piece, [a - b for a, b in zip(masses, piece)]


def producer_steps(g, masses, lo, hi):
    """Seller-favoring peels until no value in ``lo..hi`` holds mass: each
    covers every supported value outside the window plus the top supported
    one inside it, which is also its price. Returns the steps as
    ``(support, gamma, price, slice, residual)`` and the remainder."""
    residual = list(masses)
    steps = []
    while any(residual[i] > 0 for i in range(lo, hi + 1)):
        held = [i for i, x in enumerate(residual) if x > 0]
        top = max(i for i in held if lo <= i <= hi)
        support = tuple(i for i in held if i == top or not lo <= i <= hi)
        gamma, piece, residual = dense_peel(g, residual, support)
        steps.append((support, gamma, top, piece, residual))
    return steps, residual


def _revenue(g, masses, i):
    return g[i] * sum(masses[i:])


def consumer_steps(g, masses, lo, hi):
    """Consumer-optimal peels over ``lo..hi``. While no revenue-maximizing
    price of the residual lies in the window, each is a seller-favoring peel
    as in :func:`producer_steps`, its weight also capped so that every
    optimal price ``i`` still beats every supported window value ``j``
    below the top: ``(R(i) - R(j)) / (C - U(j))``, one cap per pair, with
    ``U`` the revenue of the unit slice and ``C`` its flat revenue on the
    support. Once one does, each peel covers the whole support, priced at
    its cheapest window value. Returns the steps as
    ``(support, gamma, price, slice, residual)`` and the remainder."""
    residual = list(masses)
    steps = []
    while any(residual[i] > 0 for i in range(lo, hi + 1)):
        held = [i for i, x in enumerate(residual) if x > 0]
        revenues = [_revenue(g, residual, i) for i in range(len(g))]
        optimal = [i for i, r in enumerate(revenues) if r == max(revenues)]
        if any(lo <= i <= hi for i in optimal):
            support = tuple(held)
            price = min(i for i in held if lo <= i <= hi)
            caps = []
        else:
            price = max(i for i in held if lo <= i <= hi)
            support = tuple(i for i in held if i == price or not lo <= i <= hi)
            unit = dense_equal_revenue(g, support)
            flat = _revenue(g, unit, support[0])
            caps = [
                (revenues[i] - revenues[j]) / (flat - _revenue(g, unit, j))
                for i in optimal
                for j in held
                if j not in support
            ]
        gamma, piece, residual = dense_peel(g, residual, support, caps)
        steps.append((support, gamma, price, piece, residual))
    return steps, residual


def welfare_minimal_steps(g, masses, floor, hi, reserve):
    """Seller-favoring peels over ``floor..hi`` that keep *reserve* buyers
    at the floor value out of every peel priced above the floor: such a peel
    also covers the floor value when it holds more than the reserve, and
    takes at most the mass above the reserve there. A peel whose top is the
    floor is priced there like any other. Returns the steps as
    ``(support, gamma, price, slice, residual)`` and the remainder."""
    residual = list(masses)
    steps = []
    while any(residual[i] > 0 for i in range(floor, hi + 1)):
        held = [i for i, x in enumerate(residual) if x > 0]
        top = max(i for i in held if floor <= i <= hi)
        support = [i for i in held if i == top or not floor <= i <= hi]
        cap = list(residual)
        if top != floor and residual[floor] > reserve:
            support = sorted(support + [floor])
            cap[floor] = residual[floor] - reserve
        gamma, piece, _ = dense_peel(g, cap, support)
        residual = [a - b for a, b in zip(residual, piece)]
        steps.append((tuple(support), gamma, top, piece, residual))
    return steps, residual


def unregulated_steps(g, masses):
    """Peels over the whole remaining support, each priced at its cheapest
    value, until nothing is left."""
    residual = list(masses)
    steps = []
    while any(residual):
        support = tuple(i for i, x in enumerate(residual) if x > 0)
        gamma, piece, residual = dense_peel(g, residual, support)
        steps.append((support, gamma, support[0], piece, residual))
    return steps
