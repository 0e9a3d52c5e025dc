"""The integer-pair literal parser against ``Fraction`` and the old parser.

``rationals._pair`` reads plain integer and "p/q" strings with ``int()``
and hands every other literal to ``Fraction(str)``. On a corpus of signs,
leading zeros, zero denominators, stray slashes, other scripts' digits,
whitespace, underscores, decimals, exponents, lengths around the int
string-digit limit and non-string inputs, it must give what
``rational_reference.reference_as_rational`` gives (the same value, or the
same exception type and message), and so must ``as_rational``; where
``Fraction(s.strip())`` reads a string within the digit limit, the value
must be the same, and where it does not, the parser must refuse it.

``Fraction``'s string grammar differs between Python versions, so this
module also runs as a plain script, with no pytest, under any interpreter:

    PYTHONPATH=src python tests/test_parser_differential.py

prints the number of cases and of mismatches and exits 1 on any mismatch.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rational_reference import reference_as_rational  # noqa: E402

from segmarket.rationals import _digit_limit, _pair, as_rational  # noqa: E402


def corpus():
    limit = _digit_limit() or 4300
    bodies = [
        "0", "7", "007", "0/3", "6/4", "12/5", "007/0010", "1/0", "0/0", "3/", "/3", "/",
        "3/-4", "3/+4", "1/2/3", "1//2",
    ]
    out = [sign + body for sign in ("", "+", "-", "++", "+-", "--") for body in bodies]
    out += [
        "-0", "+0", "-0/5",
        # other scripts' digits and superscripts
        "٣/٤", "٣", "３", "１/２", "²", "1/²", "¹²",
        # whitespace, outer and inner
        " 1/2", "1/2 ", "\t3\n", " -3 ", "1 /2", "1/ 2", "- 3", "1 2", " ", "", " 7",
        # underscores
        "1_0", "1_0/3", "3/1_0", "_1", "1_", "1__0", "-1_000",
        # decimals, exponents and other words
        "0.36", "-0.20", ".5", "5.", "1.5/2", "1e3", "1E-2", "-2.5e+3", "1e", "e3",
        "inf", "nan", "0x10", "1j", "three",
    ]
    for n in (limit - 1, limit, limit + 1):
        out += [
            "9" * n, "-" + "9" * (n - 1), "+" + "1" * (n - 1), "0" * n, "0" * (n - 1) + "7",
            "1/" + "9" * (n - 2), "9" * (n - 2) + "/7", "-1/" + "3" * (n - 3),
            "1/" + "9" * n, "9" * n + "/3", "3" * (n // 2) + "/" + "7" * (n - n // 2 - 1),
        ]
    out += [
        0, 5, -3, 10**5000, Fraction(3, 4), Fraction(-6, 4), True, False, 0.5, 1.0, None,
        [1], b"1", 1j,
    ]
    return out


def _outcome(fn, value):
    try:
        x = fn(value)
    except Exception as exc:  # the exception itself is compared
        return ("raises", type(exc), str(exc))
    return ("value", type(x), x)


def _from_pair(value):
    num, den = _pair(value)
    if type(num) is not int or type(den) is not int or den <= 0:
        raise AssertionError(f"malformed pair {(num, den)!r}")
    return Fraction(num, den)


def _fraction_disagrees(text, got):
    """Whether the parser's outcome *got* on *text* contradicts
    ``Fraction(text.strip())`` read under the digit limit."""
    limit = _digit_limit()
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return got[0] != "raises" or got[1] is not ValueError
    if limit and max(abs(x.numerator), x.denominator) >= 10**limit:
        return got[0] != "raises" or got[1] is not ValueError
    return got != ("value", Fraction, x)


def mismatches():
    """``(case, description)`` for every case where the parsers disagree."""
    bad = []
    cases = corpus()
    for value in cases:
        want = _outcome(reference_as_rational, value)
        for name, fn in (("_pair", _from_pair), ("as_rational", as_rational)):
            got = _outcome(fn, value)
            if got != want:
                bad.append((value, f"{name} gave {got!r}, the reference {want!r}"))
        if isinstance(value, str) and _fraction_disagrees(value, _outcome(_from_pair, value)):
            bad.append((value, "disagrees with Fraction(s.strip())"))
    return len(cases), bad


def test_pair_parser_matches_fraction_and_the_old_parser():
    n, bad = mismatches()
    assert n > 150
    assert bad == [], bad[:5]


if __name__ == "__main__":
    n, bad = mismatches()
    for value, what in bad[:20]:
        print(f"mismatch on {str(value)[:40]!r}: {what[:300]}")
    print(f"{sys.version.split()[0]}: {n} cases, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
