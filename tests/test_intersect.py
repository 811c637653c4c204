from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lambdaset.errors import InvalidInput, OutOfRange
from lambdaset.ifs_core import Member, NotMember, greedy_digits, membership
from lambdaset.intersect import _forced_digits, find_common, intersect_covers
from lambdaset.lambda_set import binary_expansion, cover
from lambdaset.numerics import Enclosure

F = Fraction


def test_intersect_with_full_interval_clips(cfg):
    base = cover(F(1, 3), 4, cfg)
    for full in (cover(F(1, 3), 1, cfg),     # single interval [1/3, 1/2]
                 cover(F(1, 100), 1, cfg)):  # single interval [1/100, 1/2]
        both = intersect_covers([base, full])
        assert len(both.intervals) == len(base.intervals)
        for got, expect in zip(both.intervals, base.intervals):
            assert got.lo.lo == expect.lo.lo
            assert got.hi.hi == expect.hi.hi


def test_intersection_contains_half(cfg):
    inter = intersect_covers([cover(F(1, 3), 5, cfg), cover(F(1, 4), 5, cfg),
                              cover(F(2, 5), 5, cfg)])
    assert inter.covers(F(1, 2))


def test_intersection_shrinks(cfg):
    a, b = cover(F(1, 3), 6, cfg), cover(F(1, 4), 6, cfg)
    inter = intersect_covers([a, b])
    assert inter.intervals
    assert inter.total_length() < min(a.total_length(), b.total_length())


def test_intersection_commutative_associative(cfg):
    covers = [cover(F(1, 3), 4, cfg), cover(F(1, 4), 4, cfg),
              cover(F(2, 5), 4, cfg)]

    def outline(ic):
        return [(iv.lo.lo, iv.hi.hi)
                for iv in ic.intervals]

    ab_c = intersect_covers([intersect_covers(covers[:2]), covers[2]])
    a_bc = intersect_covers([covers[0], intersect_covers(covers[1:])])
    cba = intersect_covers(covers[::-1])
    tol = F(1, 1 << 70)
    for left, right in ((ab_c, a_bc), (ab_c, cba)):
        assert len(outline(left)) == len(outline(right))
        for (l0, l1), (r0, r1) in zip(outline(left), outline(right)):
            assert abs(l0 - r0) <= tol and abs(l1 - r1) <= tol
    with pytest.raises(InvalidInput):
        intersect_covers([])


def test_find_common_single_target(cfg):
    certs = find_common([F(1, 3)], 4, cfg)
    top = [c for c in certs if c.lam_exact == F(1, 2)]
    assert len(top) == 1
    assert top[0].status == "Exact"
    assert top[0].per_target_codings[0] == binary_expansion(F(1, 3))


def test_find_common_pair(cfg):
    certs = find_common([F(1, 3), F(1, 4)], 6, cfg)
    assert [c.sort_key() for c in certs] == sorted(c.sort_key() for c in certs)
    exact = {c.lam_exact for c in certs if c.lam_exact is not None}
    assert F(1, 2) in exact
    assert F(1, 3) in exact               # 1/4 and 1/3 both lie in K_{1/3}
    # replayability of every exact certificate
    for c in certs:
        if c.lam_exact is not None:
            assert all(membership(y, c.lam_exact, 600) is True
                       for y in c.targets)
    # ratio lower bound: never below the largest target
    assert all(c.lam.hi >= F(1, 3) for c in certs)


def test_find_common_extreme_targets(cfg):
    certs = find_common([F(49, 100), F(1, 100)], 3, cfg)
    assert any(c.lam_exact == F(1, 2) for c in certs)
    assert all(c.lam.hi >= F(49, 100) for c in certs)


def test_find_common_validation(cfg):
    with pytest.raises(InvalidInput):
        find_common([], 4, cfg)
    with pytest.raises(OutOfRange):
        find_common([F(3, 4)], 4, cfg)


@st.composite
def targets_and_dyadic_cells(draw):
    """y = p/q below 1/2 and dyadic ratios y <= lo <= hi <= 1/2."""
    q = draw(st.integers(3, 64))
    y = F(draw(st.integers(1, (q - 1) // 2)), q)
    # 1/2 - y >= 1/128, so [y, 1/2] holds a multiple of 2^-k for k >= 7
    k = draw(st.integers(7, 20))
    ceil_y = -((-y.numerator << k) // y.denominator)
    lo = draw(st.integers(ceil_y, 1 << (k - 1)))
    hi = draw(st.integers(lo, 1 << (k - 1)))
    return y, F(lo, 2**k), F(hi, 2**k)


def _greedy_head(y, lam, n):
    """The first n greedy digits of y at lam, or the NotMember outcome."""
    out = greedy_digits(y, lam, n)
    if isinstance(out, Member):
        return out.coding.prefix(n)
    return out if isinstance(out, NotMember) else out.digits


@given(targets_and_dyadic_cells())
def test_forced_digits_at_a_point_follow_the_greedy_orbit(case):
    y, lam, _ = case
    digits, outcome = _forced_digits(y, Enclosure.point(lam, 128), 48)
    head = _greedy_head(y, lam, 48)
    if isinstance(head, NotMember):
        assert outcome == "rejected" and len(digits) == head.reject_step - 1
    else:
        assert outcome == "ok" and tuple(digits) == head


@given(targets_and_dyadic_cells())
def test_forced_digits_on_a_cell_hold_at_both_ends(case):
    y, lo, hi = case
    digits, outcome = _forced_digits(y, Enclosure(lo, hi, 128), 48)
    n = len(digits)
    for lam in (lo, hi):
        if digits:
            assert _greedy_head(y, lam, n) == tuple(digits)
        if outcome == "rejected":
            assert _greedy_head(y, lam, n + 1) == NotMember(n + 1)
