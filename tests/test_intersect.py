from fractions import Fraction

import pytest

from lambdaset import intersect
from lambdaset.errors import InvalidInput
from lambdaset.ifs_core import greedy_cycle
from lambdaset.intersect import find_common, intersect_covers
from lambdaset.lambda_set import CoverInterval, IntervalCover, cover
from lambdaset.numerics import Enclosure, PrecisionConfig

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


def test_intersection_shrinks(cfg):
    a, b = cover(F(1, 3), 6, cfg), cover(F(1, 4), 6, cfg)
    inter = intersect_covers([a, b])
    assert inter.intervals
    def length(c):
        return sum(iv.hi.hi - iv.lo.lo for iv in c.intervals)
    assert length(inter) < min(length(a), length(b))


def test_intersection_compares_cells_on_one_grid():
    """Cells on different grids are intersected by value: 3/8 at 2^-3
    lies below the point 1/2 at 2^-1, though its integer is larger."""
    def point(m, e):
        return Enclosure((m, m, e), 128)

    def one_block(lo, hi):
        return IntervalCover(F(1, 5), 1, (CoverInterval(lo, hi, None, None),),
                             PrecisionConfig())

    for a, b, outline in (
            # [3/8, 7/8] and [1/4, 1/2] share [3/8, 1/2]
            ((point(3, 3), point(7, 3)), (point(1, 2), point(1, 1)),
             [(F(3, 8), F(1, 2))]),
            # [3/8, 7/16] lies below [1/2, 3/4]
            ((point(3, 3), point(7, 4)), (point(1, 1), point(3, 2)), [])):
        for first, second in ((a, b), (b, a)):
            out = intersect._intersect_pair(one_block(*first),
                                            one_block(*second), 128)
            assert [(iv.lo.lo, iv.hi.hi) for iv in out] == outline


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


def test_find_common_pair(cfg):
    certs = find_common([F(1, 3), F(1, 4)], 6, cfg)
    ratios = [c.lam_exact for c in certs]
    assert ratios == sorted(ratios)
    assert F(1, 2) in ratios
    assert F(1, 3) in ratios              # 1/4 and 1/3 both lie in K_{1/3}
    # the target order orders only the codings
    backward = find_common([F(1, 4), F(1, 3)], 6, cfg)
    assert [c.lam_exact for c in backward] == ratios
    assert [c.per_target_codings[::-1] for c in backward] == [
        c.per_target_codings for c in certs]
    # ratio lower bound: never below the largest target
    assert all(c.lam.hi >= F(1, 3) for c in certs)


def test_find_common_validation(cfg):
    with pytest.raises(InvalidInput, match="^no targets given$"):
        find_common([], 4, cfg)
    with pytest.raises(InvalidInput,
                       match=r"^targets must lie in \(0, 1/2\)$"):
        find_common([F(3, 4)], 4, cfg)


def test_probe_stops_at_the_first_non_member(cfg, monkeypatch):
    calls = []

    def recording(y, p, q, max_steps):
        coding = greedy_cycle(y, p, q, max_steps)
        calls.append((y, F(p, q), coding is not None))
        return coding

    monkeypatch.setattr(intersect, "greedy_cycle", recording)
    find_common([F(1, 3), F(1, 4)], 4, cfg)
    first = {lam: member for y, lam, member in calls if y == F(1, 3)}
    second = [lam for y, lam, _ in calls if y == F(1, 4)]
    assert second and all(first[lam] for lam in second)
    assert len(second) == sum(first.values()) < len(first)


def test_search_stops_at_max_certificates(cfg, monkeypatch):
    # uncapped the search finds 1/5, 1/4 and 1/2; denominators are probed
    # in increasing order, so a cap of two keeps 1/4 beside 1/2
    full = find_common([F(1, 5)], 9, cfg)
    assert [c.lam_exact for c in full] == [F(1, 5), F(1, 4), F(1, 2)]
    monkeypatch.setattr(intersect, "MAX_CERTIFICATES", 2)
    capped = find_common([F(1, 5)], 9, cfg)
    assert [c.lam_exact for c in capped] == [F(1, 4), F(1, 2)]
