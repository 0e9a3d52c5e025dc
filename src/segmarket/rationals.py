"""Exact rational parsing and rendering.

Every number in this package is a ``fractions.Fraction``. Inputs may be written
as "p/q" or as finite decimal literals ("0.36" means exactly 9/25); both parse
without rounding. Floats are rejected since they rarely mean what their printed
form says. ``str`` renders a Fraction exactly as "p/q", or as a bare integer.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert *value* to an exact Fraction.

    Accepts ints, Fractions, and strings in "p/q" or finite-decimal form.
    Floats raise TypeError: the caller should write the literal as a string.
    Strings past the int string-digit limit, which could never be printed,
    are refused: the exponent before its power of ten is built, the value by
    its bit length (more than ``d`` digits take more than ``3 * d`` bits);
    only a string with an exponent or longer than the limit can be past it.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        limit = _digit_limit()
        try:
            suspect = limit and ("e" in value or "E" in value or len(value) > limit)
            if suspect and limit < abs(int(value.upper().partition("E")[2] or 0)):
                raise ValueError("exponent too large")
            x = Fraction(value.strip())
            top = max(x.numerator, -x.numerator, x.denominator) if suspect else 0
            if top.bit_length() > 3 * limit and top >= 10**limit:
                raise ValueError("too many digits")
            return x
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def decimal_str(value: Fraction) -> str:
    """Render *value* rounded half-even to six decimal places.

    The rounding is done in integer arithmetic so the string is exact for the
    stated precision regardless of magnitude.
    """
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    q, rem = divmod(abs(num) * 10**6, den)
    # round half to even on the discarded remainder
    if 2 * rem > den or (2 * rem == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**6)
    return f"{sign}{whole}.{frac:06d}"
