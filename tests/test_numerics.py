import random
from fractions import Fraction

import pytest

from lambdaset.errors import Inconclusive, NoSignChange, StepLimit
from lambdaset.numerics import (Dyadic, Enclosure, PrecisionConfig,
                                bisect_monotone, parse_rational)

F = Fraction
BR_BITS = 128


def bracket_unit_half(bits=BR_BITS):
    return Enclosure(Dyadic(0), Dyadic(1, -1), bits)


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


def oracle_bisect(f, lo, hi, target, iters=140):
    """Independent plain bisection with exact rational arithmetic."""
    assert f(lo) <= target <= f(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_bisect_identity(cfg):
    r = bisect_monotone(lambda t: t, bracket_unit_half(), F(1, 3), cfg)
    assert r.contains(F(1, 3))
    assert r.width() <= cfg.target_width


def test_bisect_cubic_against_oracle(cfg):
    f_exact = lambda l: l - l ** 3
    olo, ohi = oracle_bisect(f_exact, F(0), F(1, 2), F(1, 4))
    r = bisect_monotone(lambda t: t - t ** 3, bracket_unit_half(), F(1, 4), cfg)
    assert r.width() <= cfg.target_width
    # exact rational values bracket the target across the returned enclosure
    assert f_exact(r.lo.to_fraction()) <= F(1, 4) <= f_exact(r.hi.to_fraction())
    assert r.lo.to_fraction() <= ohi and olo <= r.hi.to_fraction()
    # frozen oracle digits
    assert abs(r.mid_fraction() - F("0.269594436405444558262937951349")) < F(1, 10 ** 25)


def test_bisect_root_at_bracket_end(cfg):
    one = Enclosure.exact_int(1, cfg.precision_bits)
    r = bisect_monotone(lambda t: t.div(one + t), bracket_unit_half(),
                        F(1, 3), cfg)
    assert r.contains(F(1, 2))


def test_bisect_decreasing(cfg):
    one = Enclosure.exact_int(1, cfg.precision_bits)
    # root of 1 - t = 2/3 inside [0, 1/2] is t = 1/3
    r = bisect_monotone(lambda t: one - t, bracket_unit_half(), F(2, 3), cfg)
    assert r.contains(F(1, 3))


def test_bisect_errors(cfg):
    with pytest.raises(NoSignChange):
        bisect_monotone(lambda t: t, bracket_unit_half(), F(2), cfg)
    with pytest.raises(StepLimit):
        bisect_monotone(lambda t: t, bracket_unit_half(), F(1, 3),
                        cfg.with_(max_bisection_steps=3))
    wide = Enclosure(Dyadic(0), Dyadic(1), cfg.precision_bits)
    with pytest.raises(NoSignChange):
        # evaluator too coarse to even infer a direction
        bisect_monotone(lambda t: wide, bracket_unit_half(), F(1, 3), cfg)
    with pytest.raises(Inconclusive):
        bisect_monotone(lambda t: wide, bracket_unit_half(), F(1, 3), cfg,
                        increasing=True)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(precision_bits=16)
    with pytest.raises(ValueError):
        PrecisionConfig(target_width=F(0))
    with pytest.raises(ValueError):
        PrecisionConfig(max_bisection_steps=0)


def test_enclosure_json():
    e = Enclosure(Dyadic(5, -3), Dyadic(3, -2), 64)
    js = e.to_json()
    assert js == {"lo": "0.625", "hi": "0.75", "bits": 64}
    assert F(js["lo"]) == e.lo.to_fraction()
