"""The literal parser as it stood before literals were read as integer pairs.

A reference for ``segmarket.rationals._pair``: every string goes through
``Fraction(str)`` and the digit-limit guard, nothing through ``int()``
directly. It calls nothing in the library, so agreement means something.
"""

import sys
from fractions import Fraction

_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def reference_as_rational(value):
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
