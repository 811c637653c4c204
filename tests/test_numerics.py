import random
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


def test_containment_soundness_bulk():
    """Exact rational evaluation stays inside the enclosure evaluation
    across 10^5 random composed operations."""
    rng = random.Random(20240817)
    bits = 64
    exact = F(1, 3)
    enc = Enclosure.from_fraction(exact, bits)
    checked = 0
    while checked < 100_000:
        op = rng.randrange(5)
        q = F(rng.randint(-50, 50), rng.randint(1, 50))
        other = Enclosure.from_fraction(q, bits)
        if op == 0:
            exact, enc = exact + q, enc + other
        elif op == 1:
            exact, enc = exact - q, enc - other
        elif op == 2:
            exact, enc = exact * q, enc * other
        elif op == 3:
            if q == 0:
                continue
            exact, enc = exact / q, enc.div(other)
        else:
            n = rng.randint(0, 3)
            exact, enc = exact ** n, enc ** n
        checked += 1
        assert enc.contains(exact)
        if abs(exact.numerator) > 10 ** 40 or exact.denominator > 10 ** 40:
            exact = F(rng.randint(-9, 9), rng.randint(1, 9)) or F(1, 2)
            enc = Enclosure.from_fraction(exact, bits)


def test_pow_enclosure_examples():
    p = Enclosure.point(Dyadic(1, -1), 128) ** 3
    assert p.lo.to_fraction() == F(1, 8) == p.hi.to_fraction()
    e = Enclosure.from_fraction(F(2, 5), 128).hull(
        Enclosure.from_fraction(F(1, 2), 128))
    sq = e ** 2
    assert sq.lo.to_fraction() <= F(4, 25) and sq.hi.to_fraction() >= F(1, 4)
    unit = e ** 0
    assert unit.lo.to_fraction() == 1 == unit.hi.to_fraction()


def test_precision_refinement_never_widens():
    q = F(2, 7)
    for build in (lambda b: Enclosure.from_fraction(q, b) ** 5,
                  lambda b: (Enclosure.from_fraction(q, b)
                             + Enclosure.from_fraction(F(1, 3), b))
                  .div(Enclosure.from_fraction(F(5, 3), b))):
        coarse, fine = build(64), build(128)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


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
