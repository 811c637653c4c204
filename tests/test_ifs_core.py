import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lambdaset import ifs_core
from lambdaset.errors import DepthBudgetExceeded, InvalidInput
from lambdaset.ifs_core import (GUARD_BITS, SEARCH, Member, NotMember,
                                Unresolved, greedy_cycle, greedy_digits,
                                membership, newton_cell, pi_eval,
                                pi_root_poly, poly_sign)
from lambdaset.seqcode import MAX_DIGITS, EpSequence
import exact

F = Fraction
S = EpSequence.from_string


def test_pi_eval_examples():
    assert pi_eval(S("0(1)"), F(2, 5)) == F(2, 5)
    assert pi_eval(S("1(0)"), F(1, 3)) == F(2, 3)
    assert pi_eval(S("(01)"), F(1, 2)) == F(1, 3)


def test_pi_root_poly_sign_matches_pi_eval():
    """The integer polynomial's sign at a dyadic ratio, from any number of
    fraction bits, is the sign of exact.pi's coding map value minus the
    target."""
    rng = random.Random(7)
    for _ in range(300):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        s = EpSequence(pre, per)
        x = F(rng.randint(1, 99), rng.randint(100, 200))
        k = rng.randint(1, 12)
        m = rng.randint(1, (1 << k) - 1)
        diff = exact.pi((pre, per), F(m, 1 << k)) - x
        bits = rng.randint(0, 80)
        assert (poly_sign(pi_root_poly(s, x), m, k, bits)
                == (diff > 0) - (diff < 0))
    # roots that are dyadic give an exact zero
    assert poly_sign(pi_root_poly(S("0(1)"), F(3, 8)), 3, 3, 64) == 0
    assert poly_sign(pi_root_poly(S("(01)"), F(1, 3)), 1, 1, 64) == 0


@st.composite
def sign_cases(draw):
    """A coding's root polynomial, a probe m 2^-k anywhere in (0, 1) and a
    fixed-point precision; in half the cases the polynomial has a root on
    the probe's grid, at the probe or a few points from it."""
    pre = tuple(draw(st.lists(st.integers(0, 1), max_size=8)))
    per = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=6)))
    s = EpSequence(pre, per)
    k = draw(st.integers(1, 80))
    m = draw(st.integers(1, (1 << k) - 1))
    if draw(st.booleans()):
        root = min(max(m + draw(st.integers(-2, 2)), 1), (1 << k) - 1)
        x = pi_eval(s, F(root, 1 << k))
    else:
        x = F(draw(st.integers(1, 999)), 1000)
    return pi_root_poly(s, x), m, k, draw(st.integers(0, 200))


@settings(max_examples=300, deadline=None)
@given(sign_cases())
# R(3/4) = 1/4 for (01) and 2/5: one fraction bit leaves acc = 0
@example(case=(pi_root_poly(S("(01)"), F(2, 5)), 3, 2, 1))
# a root at the probe, 8 lam - 3 at 3/8: 2^3 divides the top coefficient,
# so the retry goes from 0 bits straight to the exact 3 * 1
@example(case=(pi_root_poly(S("0(1)"), F(3, 8)), 3, 3, 0))
# 2 lam^2 - 1 just past 1/sqrt(2), about 2^-17.6: from 0 bits the pass
# doubles six times, to 32 bits, below the exact 20 * 2
@example(case=((-1, 0, 2), 741457, 20, 0))
# the zero polynomial has no top coefficient: it may vanish, so the retry
# goes from 0 bits to the exact 4 * 2; lam = 0 is exact at 0 bits
@example(case=((0, 0, 0), 5, 4, 0))
@example(case=((0, 1, -1), 0, 7, 0))
def test_fixed_point_sign_is_the_exact_sign(case):
    """poly_sign's sign, whatever its starting bits, is the sign of R's
    exact value as a sum of Fractions."""
    coeffs, m, k, bits = case
    lam = F(m, 1 << k)
    value = sum(c * lam ** i for i, c in enumerate(coeffs))
    assert poly_sign(coeffs, m, k, bits) == (value > 0) - (value < 0)


def test_newton_cell_matches_fraction_step():
    """At k + GUARD_BITS fraction bits the fixed-point Newton step lands
    within one cell of the cell an exact rational step lam - R(lam) / R'(lam)
    lands in."""
    rng = random.Random(11)
    for _ in range(300):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        coeffs = pi_root_poly(EpSequence(pre, per),
                              F(rng.randint(1, 99), rng.randint(100, 200)))
        k = rng.randint(1, 40)
        m = rng.randint(1, (1 << k) - 1)
        base, width = rng.randint(0, m), rng.randint(1, 9)
        lam = F(m, 1 << k)
        value = sum(c * lam ** i for i, c in enumerate(coeffs))
        slope = sum(i * c * lam ** (i - 1) for i, c in enumerate(coeffs) if i)
        step = lam - value / slope if slope else lam
        exact = math.floor((step * (1 << k) - base) / width)
        guess = newton_cell(coeffs, m, k, base, width, k + GUARD_BITS)
        assert abs(guess - exact) <= 1
    # a linear R is solved in one step, into its root's cell
    assert newton_cell((-3, 8), 1, 1, 0, 1, 1 + GUARD_BITS) == 0
    assert newton_cell((-3, 8), 7, 4, 0, 1, 4 + GUARD_BITS) == 6
    root = F((1 << 28) + 12345, 1 << 30)
    for m in (1 << 39, (1 << 40) // 3):
        j = newton_cell((-root.numerator, root.denominator), m, 40, 0, 1,
                        40 + GUARD_BITS)
        assert j == root * (1 << 40)
    # (4 lam - 1)^2 has a zero slope at its double root 1/4: no step is taken
    for k, base, width in ((2, 0, 1), (10, 200, 7), (40, 0, 1 << 30)):
        m = 1 << (k - 2)
        assert newton_cell((1, -8, 16), m, k, base, width,
                           k + GUARD_BITS) == (m - base) // width


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
    # the orbit 1/3, 2/3, 1/3 of base 2 cycles at its second step
    assert membership(F(1, 3), F(1, 2), 1) is None


def test_greedy_unresolved_is_a_value():
    # an irrational-like orbit: tiny step budget forces the unresolved arm
    out = greedy_digits(F(355, 1130), F(113, 355), 2)
    assert isinstance(out, (Member, NotMember, Unresolved))
    out = greedy_digits(F(2, 5), F(49, 100), 3)
    if isinstance(out, Unresolved):
        assert len(out.digits) == 3


def test_monotone_in_sequence():
    """Strictly increasing in the coding for lam below 1/2; 10^4 pairs."""
    rng = random.Random(321)
    done = 0
    while done < 10_000:
        n1, n2 = rng.randint(0, 20), rng.randint(0, 20)
        w1 = tuple(rng.randint(0, 1) for _ in range(n1))
        w2 = tuple(rng.randint(0, 1) for _ in range(n2))
        s = EpSequence(w1, (rng.randint(0, 1),))
        t = EpSequence(w2, (rng.randint(0, 1),))
        if s == t:
            continue
        if not s <= t:
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
        assert out.coding.key[1] != (1,)   # never ends 1^inf
        assert out.coding.prefix(20) == max(_all_codings_to_depth(x, 20))


def test_greedy_domain_errors():
    with pytest.raises(InvalidInput, match=r"^x must lie in \[0, 1\]$"):
        greedy_digits(F(3, 2), F(1, 2))
    with pytest.raises(InvalidInput, match=r"^lam must lie in \(0, 1/2\]$"):
        greedy_digits(F(1, 4), F(3, 5))
    with pytest.raises(InvalidInput, match=r"^lam must lie in \(0, 1/2\]$"):
        greedy_digits(F(1, 4), F(0))
    with pytest.raises(InvalidInput, match="^max_steps must be positive$"):
        greedy_digits(F(1, 4), F(1, 3), 0)


def reference_greedy(x: F, lam: F, max_steps: int):
    """exact.greedy's outcome as the library's outcome value."""
    kind, *found = exact.greedy(x, lam, max_steps)
    if kind == "member":
        return Member(EpSequence(*found))
    return (NotMember if kind == "not_member" else Unresolved)(*found)


@st.composite
def greedy_cases(draw):
    """lam = p/q in (0, 1/2]; x is an end of [0, 1] or of a branch image,
    a rational in [0, 1], or the coding-map value of an eventually periodic
    sequence (a member with a cycling orbit)."""
    q = draw(st.integers(2, 400))
    lam = F(draw(st.integers(1, q // 2)), q)
    digit_words = st.lists(st.integers(0, 1), max_size=8).map(tuple)
    x = draw(st.one_of(
        st.sampled_from((F(0), F(1), lam, 1 - lam)),
        st.integers(1, 1000).flatmap(
            lambda d: st.builds(F, st.integers(0, d), st.just(d))),
        st.builds(lambda pre, per: pi_eval(EpSequence(pre, per + (1,)), lam),
                  digit_words, digit_words)))
    return x, lam, draw(st.integers(1, 600))


@settings(deadline=None, max_examples=300)
@given(greedy_cases())
@example((F(1, 4), F(1, 2), 64))
@example((F(1, 2), F(1, 2), 8))
@example((F(1), F(1, 3), 600))
@example((F(1, 3), F(499999, 1000000), 600))
def test_greedy_matches_fraction_reference(case):
    # the representation too: the CLI prints preperiod and period as found
    assert repr(greedy_digits(*case)) == repr(reference_greedy(*case))


def test_greedy_orbit_past_the_denominator_exit_is_quadratic():
    """Past the first step whose numerator 499999 does not divide, the
    orbit of 1/3 neither cycles nor rejects, and its integers grow by
    about 19 bits a step: 4000 steps on the unreduced state take well under
    2 s, where a gcd of the state at every step makes them cubic."""
    started = time.perf_counter()
    outcome = greedy_digits(F(1, 3), F(499999, 1000000), 4000)
    assert time.perf_counter() - started < 2
    assert isinstance(outcome, Unresolved) and len(outcome.digits) == 4000


def test_greedy_steps_are_capped(monkeypatch):
    """A budget of MAX_DIGITS steps runs, and one step more is refused
    before the orbit's first step."""
    assert membership(F(1, 4), F(1, 4), MAX_DIGITS) is True
    monkeypatch.setattr(ifs_core, "_orbit", None)
    with pytest.raises(DepthBudgetExceeded, match=(
            f"^more than {MAX_DIGITS} greedy steps: {MAX_DIGITS + 1}$")):
        greedy_digits(F(1, 3), F(499999, 1000000), MAX_DIGITS + 1)


def probe(x: F, lam: F, max_steps: int = 600):
    """greedy_cycle's coding of x at lam, and the search counts it added."""
    before = dict(SEARCH)
    coding = greedy_cycle(x, lam.numerator, lam.denominator, max_steps)
    return coding, {key: SEARCH[key] - before[key] for key in SEARCH}


@settings(deadline=None, max_examples=500)
@given(greedy_cases())
@example((F(5, 14), F(2, 5), 600))
@example((F(2, 7), F(2, 5), 600))
@example((F(6, 13), F(6, 13), 600))
@example((F(1230, 3679), F(6, 13), 600))
@example((F(1, 5), F(6, 13), 600))
@example((F(5410, 15771), F(10, 21), 600))
@example((F(1, 3), F(10, 21), 600))
@example((F(1), F(1, 3), 600))
@example((F(1, 3), F(499999, 1000000), 600))
def test_probe_matches_greedy_digits(case):
    """The probe is the greedy membership test: a coding exactly when the
    orbit of exact.greedy's Fraction loop cycles within the budget, with
    the same preperiod and period, and None when that loop rejects or
    leaves it unresolved."""
    x, lam, max_steps = case
    outcome = reference_greedy(x, lam, max_steps)
    expected = outcome.coding if isinstance(outcome, Member) else None
    assert repr(probe(x, lam, max_steps)[0]) == repr(expected)


def test_probe_examples():
    # 2 divides 14 and the numerator of 2/5: no step is taken
    assert probe(F(5, 14), F(2, 5)) == (None, {"probes": 1, "orbit_steps": 0,
                                                "denominator_exits": 1})
    assert isinstance(greedy_digits(F(5, 14), F(2, 5), 600), NotMember)
    coding, counts = probe(F(2, 7), F(2, 5))
    assert repr(coding) == repr(EpSequence((), (0, 1)))
    assert counts == {"probes": 1, "orbit_steps": 2, "denominator_exits": 0}
    # composite numerators: one prime of 6 or 10 in a denominator suffices,
    # at step 0 (3 | 6) or after the first step, long before greedy_digits
    # rejects the orbit (at step 66 for 1/5 at 6/13)
    for x, lam, steps in ((F(1, 3), F(6, 13), 0), (F(3, 8), F(6, 13), 0),
                          (F(1, 5), F(6, 13), 1), (F(1, 5), F(10, 21), 0),
                          (F(1, 3), F(10, 21), 1)):
        assert probe(x, lam) == (None, {"probes": 1, "orbit_steps": steps,
                                        "denominator_exits": 1})
        assert greedy_digits(x, lam, 600).reject_step > steps
    for lam in (F(6, 13), F(10, 21)):
        for word in ("(01)", "1(001)", "01(011)", "(0010111)", "0(1)"):
            x = pi_eval(S(word), lam)
            coding, counts = probe(x, lam)
            assert repr(coding) == repr(greedy_digits(x, lam, 600).coding)
            assert counts["denominator_exits"] == 0
            assert counts["orbit_steps"] == len(coding.preperiod) + len(
                coding.period)


@st.composite
def member_cases(draw):
    """lam = p/q in (0, 1/2] and the coding-map value there of an
    eventually periodic sequence, whose greedy orbit cycles."""
    q = draw(st.integers(2, 400))
    lam = F(draw(st.integers(1, q // 2)), q)
    digit_words = st.lists(st.integers(0, 1), max_size=8).map(tuple)
    pre, per = draw(digit_words), draw(digit_words)
    return pi_eval(EpSequence(pre, per + (1,)), lam), lam


@settings(deadline=None, max_examples=300)
@given(member_cases())
@example((F(2, 7), F(2, 5)))
@example((F(1230, 3679), F(6, 13)))
def test_a_cycling_orbit_never_grows_its_denominator(case):
    """Along a cycling orbit each reduced denominator divides the one
    before and shares no prime with the ratio's numerator, the two facts
    the probe's early exit rests on."""
    x, lam = case
    outcome = greedy_digits(x, lam, 600)
    assert isinstance(outcome, Member)
    coding = outcome.coding
    y = x
    assert math.gcd(y.denominator, lam.numerator) == 1
    for digit in coding.prefix(len(coding.preperiod) + len(coding.period)):
        before = y.denominator
        y = (y - (1 - lam) * digit) / lam
        assert before % y.denominator == 0
        assert math.gcd(y.denominator, lam.numerator) == 1
