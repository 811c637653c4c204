import random
from fractions import Fraction

import pytest

from lambdaset.errors import NeedsLargerTruncation, OutOfRange
from lambdaset.ifs_core import (Member, NotMember, Unresolved, apply_branch,
                                greedy_digits, membership, pi_derivative,
                                pi_eval, pi_root_poly, poly_sign)
from lambdaset.numerics import Enclosure
from lambdaset.seqcode import EpSequence, Word

F = Fraction
S = EpSequence.from_string


def test_apply_branch_examples():
    assert apply_branch(0, F(1, 3), F(1)) == F(1, 3)
    assert apply_branch(1, F(1, 3), F(0)) == F(2, 3)
    assert apply_branch(1, F(1, 2), F(1)) == F(1)
    lam = Enclosure.from_fraction(F(1, 3), 128)
    t = Enclosure.from_fraction(F(1, 7), 128)
    out = apply_branch(1, lam, t)
    assert out.contains(F(1, 3) * F(1, 7) + F(2, 3))
    with pytest.raises(ValueError):
        apply_branch(2, F(1, 3), F(0))


def test_pi_eval_examples():
    assert pi_eval(S("0(1)"), F(2, 5)) == F(2, 5)
    assert pi_eval(S("1(0)"), F(1, 3)) == F(2, 3)
    assert pi_eval(S("(01)"), F(1, 2)) == F(1, 3)


def test_pi_root_poly_sign_matches_pi_eval():
    """The integer polynomial's exact sign at a dyadic ratio is the sign of
    the exact coding map value minus the target."""
    rng = random.Random(7)
    for _ in range(300):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        s = EpSequence(Word(pre), Word(per))
        x = F(rng.randint(1, 99), rng.randint(100, 200))
        k = rng.randint(1, 12)
        m = rng.randint(1, (1 << k) - 1)
        diff = pi_eval(s, F(m, 1 << k)) - x
        assert poly_sign(pi_root_poly(s, x), m, k) == (diff > 0) - (diff < 0)
    # roots that are dyadic give an exact zero
    assert poly_sign(pi_root_poly(S("0(1)"), F(3, 8)), 3, 3) == 0
    assert poly_sign(pi_root_poly(S("(01)"), F(1, 3)), 1, 1) == 0


def test_pi_eval_floats_track_exact_values():
    rng = random.Random(11)
    for _ in range(100):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        s = EpSequence(Word(pre), Word(per))
        lam = F(rng.randint(1, 99), 100)
        assert abs(pi_eval(s, float(lam)) - float(pi_eval(s, lam))) < 1e-14


def test_pi_derivative_wide_enclosure_containment():
    lam = Enclosure.from_fraction(F(1, 4), 128).hull(
        Enclosure.from_fraction(F(3, 10), 128))
    wide = pi_derivative(S("011(010)"), lam, 96)
    for point in (F(1, 4), F(27, 100), F(3, 10)):
        narrow = pi_derivative(S("011(010)"), point, 96)
        assert wide.lo <= narrow.hi and narrow.lo <= wide.hi


def test_pi_derivative_closed_forms():
    # pi(0 1^inf) = lam, so the derivative is exactly 1
    d = pi_derivative(S("0(1)"), F(1, 4), 64)
    assert d.contains(F(1)) and d.width() < F(1, 1 << 40)
    # pi(0 1 0^inf) = (1-lam) lam, derivative 1 - 2 lam = 1/2 at lam = 1/4
    d = pi_derivative(S("01(0)"), F(1, 4), 64)
    assert d.contains(F(1, 2))


def test_pi_derivative_positive_for_admissible():
    rng = random.Random(11)
    for _ in range(30):
        pre = (0,) + tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        s = EpSequence(Word(pre), Word(per))
        if s.canonical().period.bits == (0,) and 1 not in s.preperiod.bits:
            continue  # 0^inf excluded by the operation's domain
        d = pi_derivative(s, F(3, 10), 96)
        assert d.lo.m > 0


def test_pi_derivative_vs_central_difference():
    h = F(1, 1 << 30)
    for text, lam in (("0(1)", F(1, 4)), ("01(0)", F(1, 4)),
                      ("011(010)", F(3, 10)), ("0110(1)", F(2, 5))):
        s = S(text)
        diff = (pi_eval(s, lam + h) - pi_eval(s, lam - h)) / (2 * h)
        d = pi_derivative(s, lam, 96)
        pad = F(1, 1 << 20)
        assert d.lo.to_fraction() - pad <= diff <= d.hi.to_fraction() + pad


def test_pi_derivative_errors():
    with pytest.raises(OutOfRange):
        pi_derivative(S("1(0)"), F(1, 4), 64)      # starts with 1
    with pytest.raises(OutOfRange):
        pi_derivative(S("(0)"), F(1, 4), 64)       # equals 0^inf
    with pytest.raises(NeedsLargerTruncation):
        pi_derivative(EpSequence(Word((0,) * 100), Word((1,))), F(1, 4), 64)


def test_greedy_examples():
    out = greedy_digits(F(1, 4), F(1, 2), 64)
    assert isinstance(out, Member) and out.coding == S("01(0)")
    out = greedy_digits(F(1, 3), F(1, 3), 64)
    assert isinstance(out, Member) and out.coding == S("0(1)")
    out = greedy_digits(F(1, 3), F(2, 5), 64)
    assert isinstance(out, NotMember) and out.reject_step == 3


def test_membership_examples():
    assert membership(F(1, 3), F(1, 2)) is True
    assert membership(F(1, 3), F(1, 4)) is False
    assert membership(F(1, 4), F(1, 4), 64) is True


def test_greedy_unresolved_is_a_value():
    # an irrational-like orbit: tiny step budget forces the unresolved arm
    out = greedy_digits(F(355, 1130), F(113, 355), 2)
    assert isinstance(out, (Member, NotMember, Unresolved))
    out = greedy_digits(F(2, 5), F(49, 100), 3)
    if isinstance(out, Unresolved):
        assert len(out.digits) == 3


def test_roundtrip_on_random_members():
    """pi_eval of the greedy coding reproduces x exactly, 1000 cases."""
    rng = random.Random(123)
    done = 0
    while done < 1000:
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        lam = F(rng.randint(1, 99), 200)
        if lam > F(1, 2):
            continue
        s = EpSequence(Word(pre), Word(per))
        x = pi_eval(s, lam)
        out = greedy_digits(x, lam, 512)
        assert isinstance(out, Member), (s, lam)
        assert pi_eval(out.coding, lam) == x
        done += 1


def test_monotone_in_sequence():
    """Strictly increasing in the coding for lam below 1/2; 10^4 pairs."""
    rng = random.Random(321)
    done = 0
    while done < 10_000:
        n1, n2 = rng.randint(0, 20), rng.randint(0, 20)
        w1 = tuple(rng.randint(0, 1) for _ in range(n1))
        w2 = tuple(rng.randint(0, 1) for _ in range(n2))
        s = EpSequence(Word(w1), Word((rng.randint(0, 1),)))
        t = EpSequence(Word(w2), Word((rng.randint(0, 1),)))
        from lambdaset.seqcode import Ordering, lex_compare
        order = lex_compare(s, t)
        if order is Ordering.EQUAL:
            continue
        if order is Ordering.GREATER:
            s, t = t, s
        lam = F(rng.randint(1, 499), 1000)
        assert pi_eval(s, lam) < pi_eval(t, lam)
        done += 1


def _all_codings_to_depth(x: F, depth: int) -> list[tuple[int, ...]]:
    """Brute-force enumeration of every digit string of length `depth` that
    can start a coding of x at ratio 1/2."""
    out = []

    def walk(y: F, prefix: tuple[int, ...]):
        if len(prefix) == depth:
            out.append(prefix)
            return
        if y >= F(1, 2):
            walk((y - F(1, 2)) * 2, prefix + (1,))
        if y <= F(1, 2):
            walk(y * 2, prefix + (0,))

    walk(x, ())
    return out


def test_greedy_maximality_for_dyadic_targets():
    for x in (F(1, 4), F(3, 8), F(5, 16), F(7, 32), F(15, 32)):
        out = greedy_digits(x, F(1, 2), 128)
        assert isinstance(out, Member)
        assert out.coding.canonical().period.bits != (1,)   # never ends 1^inf
        prefix = tuple(out.coding.digit(n) for n in range(1, 21))
        assert prefix == max(_all_codings_to_depth(x, 20))


def test_greedy_domain_errors():
    with pytest.raises(OutOfRange):
        greedy_digits(F(3, 2), F(1, 2))
    with pytest.raises(OutOfRange):
        greedy_digits(F(1, 4), F(3, 5))
