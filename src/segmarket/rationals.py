"""Exact rational parsing and rendering.

Every number in this package is a ``fractions.Fraction``. Inputs may be written
as "p/q" or as finite decimal literals ("0.36" means exactly 9/25); both parse
without rounding. Floats are rejected since they rarely mean what their printed
form says. ``str`` renders a Fraction exactly as "p/q", or as a bare integer.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert *value* to an exact Fraction.

    Accepts ints, Fractions, and strings in "p/q" or finite-decimal form.
    Floats raise TypeError: the caller should write the literal as a string.
    An exponent past the int string-digit limit is rejected before it is built.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value or "E" in value:
                limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
                if 0 < limit < abs(int(value.upper().partition("E")[2])):
                    raise ValueError("exponent too large")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def decimal_str(value: Fraction, places: int = 6) -> str:
    """Render *value* rounded half-even to *places* decimal digits.

    The rounding is done in integer arithmetic so the string is exact for the
    stated precision regardless of magnitude.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    scale = 10**places
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    q, rem = divmod(num * scale, den)
    # round half to even on the discarded remainder
    if 2 * rem > den or (2 * rem == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"
