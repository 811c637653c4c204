from fractions import Fraction

import pytest

from lambdaset.numerics import Dyadic, Enclosure, PrecisionConfig, parse_rational

F = Fraction


def test_parse_rational():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(ValueError):
        parse_rational("x/y")


def test_dyadic_decimal_exact():
    assert Dyadic(5, -3).decimal() == "0.625"
    assert Dyadic(-5, -3).decimal() == "-0.625"
    assert Dyadic(3, 2).decimal() == "12"
    assert Dyadic(0).decimal() == "0"
    assert Dyadic(1, -10).decimal() == "0.0009765625"
    # decimal string parses back to the same value
    d = Dyadic(12345677, -27)
    assert F(d.decimal()) == d.to_fraction()


def test_from_fraction_directed():
    for q in (F(1, 3), F(2, 7), F(-5, 11), F(355, 113)):
        lo = Dyadic.from_fraction(q, 64, False)
        hi = Dyadic.from_fraction(q, 64, True)
        assert lo.to_fraction() <= q <= hi.to_fraction()
        assert hi.to_fraction() - lo.to_fraction() <= abs(q) * F(1, 1 << 60)
    # dyadic inputs convert exactly
    assert Dyadic.from_fraction(F(3, 8), 64, False).to_fraction() == F(3, 8)
    assert Dyadic.from_fraction(F(3, 8), 64, True).to_fraction() == F(3, 8)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(precision_bits=16)
    with pytest.raises(ValueError):
        PrecisionConfig(target_width=F(0))


def test_enclosure_json():
    e = Enclosure(Dyadic(5, -3), Dyadic(3, -2), 64)
    js = e.to_json()
    assert js == {"lo": "0.625", "hi": "0.75", "bits": 64}
    assert F(js["lo"]) == e.lo.to_fraction()
