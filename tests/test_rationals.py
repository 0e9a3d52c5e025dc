import sys
from fractions import Fraction

import pytest

from segmarket import as_rational, decimal_str


def test_parses_fraction_strings():
    assert as_rational("9/25") == Fraction(9, 25)
    assert as_rational(" 7/2 ") == Fraction(7, 2)
    assert as_rational("-3/4") == Fraction(-3, 4)


def test_parses_decimal_strings_exactly():
    assert as_rational("0.36") == Fraction(9, 25)
    assert as_rational("1.56") == Fraction(39, 25)
    assert as_rational("2") == 2


def test_passes_through_ints_and_fractions():
    assert as_rational(6) == Fraction(6)
    assert as_rational(Fraction(4, 25)) == Fraction(4, 25)


def test_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.36)
    with pytest.raises(TypeError):
        as_rational(True)


def test_rejects_garbage_strings():
    with pytest.raises(ValueError):
        as_rational("three")
    with pytest.raises(ValueError):
        as_rational("1/0")


def test_rejects_exponents_past_the_digit_limit():
    """Such a literal would take minutes to build and could never be printed;
    it is refused before its power of ten is computed."""
    for text in ("1e999999999", "1E-999999999", "2.5e+1000000", f"1e{'9' * 5000}"):
        with pytest.raises(ValueError, match="not a rational literal"):
            as_rational(text)
    assert as_rational("1e400") == 10**400
    assert as_rational("1e4299") == 10**4299
    assert as_rational("1e-400") == Fraction(1, 10**400)
    assert as_rational(" 2.5E3 ") == 2500


def test_decimal_str_default_places():
    assert decimal_str(Fraction(43, 50)) == "0.860000"
    assert decimal_str(Fraction(4, 25)) == "0.160000"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333"


def test_decimal_str_rounds_half_to_even():
    assert decimal_str(Fraction(25, 10**7)) == "0.000002"
    assert decimal_str(Fraction(35, 10**7)) == "0.000004"
    assert decimal_str(Fraction(-25, 10**7)) == "-0.000002"


def test_rejects_values_past_the_digit_limit():
    """A value with more digits than the limit parses but could never be
    printed, so it is refused as a literal; one digit fewer still parses."""
    limit = sys.get_int_max_str_digits()
    long_tail = "." + "0" * (limit - 1) + "1"  # no exponent, limit + 1 digits below
    for text in (f"1e{limit}", f"1e-{limit}", f"-1e{limit}", f"{'9' * 9}e{limit - 1}", long_tail):
        with pytest.raises(ValueError, match="not a rational literal"):
            as_rational(text)
    assert as_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert as_rational(f"-1e-{limit - 1}") == Fraction(-1, 10 ** (limit - 1))
    assert as_rational("9" * limit) == 10**limit - 1
    assert as_rational(long_tail[:1] + long_tail[2:]) == Fraction(1, 10 ** (limit - 1))
    assert as_rational(f"1/{'9' * limit}") == Fraction(1, 10**limit - 1)
