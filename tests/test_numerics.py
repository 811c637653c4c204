import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lambdaset.numerics import (Enclosure, PrecisionConfig, _decimal,
                                dyadic_str, exact_str, on_grid, parse_rational)

F = Fraction


def decimal(q: Fraction) -> str:
    """The decimal that an Enclosure prints for the dyadic end q."""
    _, m, e = Enclosure.point(q, 8).cell
    return _decimal(m, e)


def test_parse_rational():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(ValueError):
        parse_rational("x/y")


def test_parse_rational_bounds_decimal_exponents():
    """An exponent of magnitude up to 4300, the default integer-to-string
    digit limit, is read; a larger one is refused before Fraction builds
    10^|e|, whatever its case, sign, leading zeros or underscores."""
    assert parse_rational("1e-4300") == F(1, 10 ** 4300)
    assert parse_rational("1E+0_4300") == 10 ** 4300
    assert parse_rational(" 2.5e-0004300 ") == F(25, 10 ** 4301)
    for text in ("1e4301", "1E-4301", "1e-1_000_000", "1e-10000000",
                 " 3.5E+00043010 ", "1e" + "0" * 5000 + "1"):
        with pytest.raises(ValueError,
                           match=re.escape(f"not a rational: {text!r}")):
            parse_rational(text)


def test_dyadic_decimal_exact():
    assert decimal(F(5, 2**3)) == "0.625"
    assert decimal(F(-5, 2**3)) == "-0.625"
    assert decimal(F(3 * 2**2)) == "12"
    assert decimal(F(0)) == "0"
    assert decimal(F(1, 2**10)) == "0.0009765625"
    # a cell end need not be in lowest terms
    assert _decimal(5 << 9, 12) == _decimal(-(-5 << 9), 12) == "0.625"
    assert _decimal(3 << 7, 5) == "12" and _decimal(0, 9) == "0"
    # decimal string parses back to the same value
    d = F(12345677, 2**27)
    assert F(decimal(d)) == d
    with pytest.raises(ValueError):
        decimal(F(1, 3))


def _rebuild(text: str) -> int:
    """The integer that a decimal numeral names, read in chunks short
    enough for int() under any integer-to-string digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert re.fullmatch(r"0|[1-9][0-9]*", digits)
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_exact_str_prints_past_the_digit_limit():
    """Integers and Fractions print as str() would, also with far more than
    the interpreter's 4300-digit conversion limit, and read back exactly."""
    rng = random.Random(5)
    for bits in (0, 1, 64, 1999, 2000, 2001, 15000, 40000):
        n = rng.getrandbits(bits) | (1 << bits)
        for value in (n, -n):
            text = exact_str(value)
            assert _rebuild(text) == value
            if bits < 2000:
                assert text == str(value)
        q = Fraction(n, 3 * (1 << bits) + 1)
        num, den = exact_str(q).split("/")
        assert Fraction(_rebuild(num), _rebuild(den)) == q
        assert exact_str(Fraction(-n)) == exact_str(-n)
    # 3 / 2^15000 has 15000 decimal places and over 10000 significant digits
    whole, places = decimal(Fraction(3, 1 << 15000)).split(".")
    assert whole == "0" and len(places) == 15000
    assert (Fraction(_rebuild(places.lstrip("0")), 10 ** 15000)
            == Fraction(3, 1 << 15000))


def test_from_fraction_directed():
    for q in (F(1, 3), F(2, 7), F(-5, 11), F(355, 113)):
        e = Enclosure.from_fraction(q, 64)
        assert e.lo <= q <= e.hi
        assert e.width() <= abs(q) * F(1, 1 << 60)
    # dyadic inputs convert exactly
    e = Enclosure.from_fraction(F(3, 8), 64)
    assert e.lo == e.hi == F(3, 8)


def _mantissa_bits(d: Fraction) -> int:
    """Bit length of the odd part of a dyadic rational's numerator."""
    m = abs(d.numerator)
    return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0


rationals = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
dyadics = st.builds(lambda m, e: F(m) * F(2) ** e,
                    st.integers(-2**80, 2**80), st.integers(-200, 200))


@given(rationals, st.integers(1, 160))
def test_from_fraction_brackets_with_few_bits(q, bits):
    e = Enclosure.from_fraction(q, bits)
    lo, hi = e.lo, e.hi
    assert lo <= q <= hi
    for d in (lo, hi):
        assert d.denominator & (d.denominator - 1) == 0
        assert _mantissa_bits(d) <= bits
    # one unit in the last of `bits` places of |q| at most
    assert hi - lo <= abs(q) * F(2) ** (2 - bits)


@given(dyadics, st.integers(1, 160))
def test_from_fraction_keeps_dyadics_that_fit(d, bits):
    if _mantissa_bits(d) <= bits:
        e = Enclosure.from_fraction(d, bits)
        assert e.lo == d == e.hi


@given(dyadics)
def test_decimal_is_exact(d):
    assert F(decimal(d)) == d


@given(rationals)
def test_decimal_rejects_non_dyadics(q):
    if q.denominator & (q.denominator - 1):
        with pytest.raises(ValueError):
            decimal(q)
    else:
        assert F(decimal(q)) == q


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(precision_bits=16)
    with pytest.raises(ValueError):
        PrecisionConfig(width_bits=-1)
    # a copy with one field replaced is checked like a fresh build
    with pytest.raises(ValueError):
        PrecisionConfig()._replace(width_bits=-1)


def test_enclosure_json():
    e = Enclosure((5, 6, 3), 64)
    js = e.to_json()
    assert js == {"lo": "0.625", "hi": "0.75", "bits": 64}
    assert F(js["lo"]) == e.lo


def test_enclosure_views_its_integer_cell():
    """An Enclosure holds the integers it is given, and its Fraction ends
    are built once, on first read."""
    e = Enclosure((40, 48, 6), 64)
    assert e.cell == (40, 48, 6) and repr(e) == "Enclosure[0.625, 0.75]@64"
    assert (e.lo, e.hi, e.width(), e.mid_fraction()) == (
        F(5, 8), F(3, 4), F(1, 8), F(11, 16))
    assert e.lo is e.lo and e.contains(F(2, 3)) and not e.contains(F(1, 2))
    assert Enclosure.point(F(3, 8), 64).cell == (3, 3, 3)
    with pytest.raises(ValueError, match="not a dyadic rational: 1/3"):
        Enclosure.point(F(1, 3), 64)


@given(st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(0, 2**8),
                          st.integers(0, 90)), min_size=1, max_size=5))
def test_on_grid_keeps_every_value(cells):
    cells = [(lo, lo + extra, e) for lo, extra, e in cells]
    ends, top = on_grid(cells)
    assert top == max(e for _, _, e in cells)
    assert [F(v, 1 << top) for v in ends] == [
        F(v, 1 << e) for lo, hi, e in cells for v in (lo, hi)]


@given(st.integers(-2**300, 2**300), st.integers(0, 400),
       st.integers(1, 2**80))
def test_dyadic_str_prints_the_fraction(num, e, den):
    assert dyadic_str(num, e, den) == exact_str(F(num, den << e))
    assert dyadic_str(num, e) == exact_str(F(num, 1 << e))
