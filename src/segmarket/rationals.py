"""Exact rational parsing and rendering.

Every number in this package is a ``fractions.Fraction``. Inputs may be written
as "p/q" or as finite decimal literals ("0.36" means exactly 9/25); both parse
without rounding. Floats are rejected since they rarely mean what their printed
form says. ``str`` renders a Fraction exactly as "p/q", or as a bare integer.

Literals cross the file boundary as integer pairs: :func:`_pair` turns one
into ``(numerator, denominator)``, which the ``core`` constructors assemble
into a market's integer ray without building a ``Fraction`` per mass. A plain
integer or "p/q" string (an optional sign, ASCII decimal digits, no longer
than the int string-digit limit) takes two ``int()`` calls; every other
literal goes through ``Fraction(str)`` and its digit-limit guard.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def _plain_pair(text: str) -> tuple[int, int] | None:
    """``(int(p), int(q))`` for a plain "p/q" string, ``(int(p), 1)`` for a
    plain integer, or None. Plain means an optional sign, then ASCII decimal
    digits only, a nonzero denominator of digits alone, and no more
    characters than the digit limit: ``int()`` reads each part, and nothing
    else is taken (no whitespace, no underscores, no other script's digits)."""
    num, slash, den = text.partition("/")
    body = num[1:] if num[:1] in ("+", "-") else num
    limit = _digit_limit()
    if (
        text.isascii()
        and body.isdigit()
        and (not slash or den.isdigit())
        and (not limit or len(text) <= limit)
    ):
        d = int(den) if slash else 1
        if d:
            return int(num), d
    return None


def _plain_int(text: str) -> int | None:
    """The int that a plain decimal integer *text* spells, or None."""
    pair = None if "/" in text else _plain_pair(text)
    return None if pair is None else pair[0]


def _pair(value: int | str | Fraction) -> tuple[int, int]:
    """The integer pair behind :func:`as_rational`: ``(numerator,
    denominator)`` of *value*, the denominator positive, the pair not
    necessarily in lowest terms. A plain string takes :func:`_plain_pair`;
    every other literal, a zero denominator included, takes ``Fraction``'s
    parser, so the same literals are accepted and refused, with the same
    errors, as when every string went through ``Fraction``."""
    if type(value) is str and (pair := _plain_pair(value)) is not None:
        return pair
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
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
            return x.numerator, x.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert *value* to an exact Fraction.

    Accepts ints, Fractions, and strings in "p/q" or finite-decimal form.
    Floats raise TypeError: the caller should write the literal as a string.
    Strings past the int string-digit limit, which could never be printed,
    are refused: the exponent before its power of ten is built, the value by
    its bit length (more than ``d`` digits take more than ``3 * d`` bits);
    only a string with an exponent or longer than the limit can be past it.
    The value is ``Fraction(*_pair(value))``: a plain "p/q" or integer
    string is read by ``int()``, not by ``Fraction``'s regular expression.
    """
    return Fraction(*_pair(value))


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
