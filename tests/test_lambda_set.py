import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lambdaset import lambda_set
from lambdaset.errors import (DepthBudgetExceeded, InvalidInput,
                              NotAdmissible, OutOfRange)
from lambdaset.ifs_core import membership, pi_eval
from lambdaset.lambda_set import (admissible, admissible_prefixes,
                                  binary_expansion, block_codes,
                                  box_dim_estimate, cover, gaps,
                                  lipschitz_check, psi_inverse, subshift_dim)
from lambdaset.numerics import Dyadic, PrecisionConfig
from lambdaset.seqcode import (SEQ_01INF, EpSequence, Ordering, Word,
                               lex_compare)

F = Fraction
S = EpSequence.from_string

BETA1_QUARTER = F("0.269594436405444558262937951349")   # root of l - l^3 = 1/4
ALPHA2_QUARTER = F("0.319448459735676311182676718920")  # root of l - l^2 + l^3 = 1/4


def test_binary_expansion_examples():
    assert binary_expansion(F(1, 4)) == S("01(0)")
    assert binary_expansion(F(1, 3)) == S("(01)")
    assert binary_expansion(F(7, 16)) == S("0111(0)")
    for bad in (F(0), F(1, 2), F(3, 4), F(-1, 4)):
        with pytest.raises(OutOfRange):
            binary_expansion(bad)


def test_expansion_properties():
    rng = random.Random(5)
    for _ in range(50):
        x = F(rng.randint(1, 499), 1000)
        s = binary_expansion(x)
        assert s.digit(1) == 0
        assert s.canonical().period.bits != (1,)
        assert pi_eval(s, F(1, 2)) == x


def test_psi_inverse_examples(cfg):
    e = psi_inverse(F(1, 3), S("0(1)"), cfg)
    assert e.contains(F(1, 3)) and e.width() <= F(1, 1 << 80)
    e = psi_inverse(F(1, 3), S("(01)"), cfg)
    assert e.contains(F(1, 2))
    e = psi_inverse(F(1, 4), S("011(0)"), cfg)
    lo, hi = e.lo.to_fraction(), e.hi.to_fraction()
    assert lo - lo ** 3 <= F(1, 4) <= hi - hi ** 3     # exact bracket check
    assert abs(e.mid_fraction() - BETA1_QUARTER) < F(1, 10 ** 24)


def grid_oracle(s, x, cfg):
    """Plain bisection in exact Fractions on the solver's grid: the halving
    of [x rounded down, 1/2] until cells are at most target_width wide, and
    a point wherever the coding map meets x exactly."""
    lo = Dyadic.from_fraction(x, cfg.precision_bits, False).to_fraction()
    hi = F(1, 2)
    for end in (lo, hi):
        if pi_eval(s, end) == x:
            return end, end
    while hi - lo > cfg.target_width:
        mid = (lo + hi) / 2
        value = pi_eval(s, mid)
        if value == x:
            return mid, mid
        lo, hi = (mid, hi) if value < x else (lo, mid)
    return lo, hi


@st.composite
def targets_and_codings(draw):
    q = draw(st.integers(3, 64))
    x = F(draw(st.integers(1, (q - 1) // 2)), q)
    words = admissible_prefixes(x, draw(st.integers(1, 6)))
    word = words[draw(st.integers(0, len(words) - 1))]
    return x, block_codes(binary_expansion(x), word)[draw(st.integers(0, 1))]


@settings(max_examples=80, deadline=None)
@given(targets_and_codings(), st.sampled_from([32, 64, 128]),
       st.sampled_from([16, 40, 80]))
def test_psi_inverse_matches_fraction_oracle(case, bits, width_bits):
    x, s = case
    cfg = PrecisionConfig(bits, target_width=F(1, 1 << width_bits))
    e = psi_inverse(x, s, cfg)
    lo, hi = e.lo.to_fraction(), e.hi.to_fraction()
    assert (lo, hi) == grid_oracle(s, x, cfg)
    assert pi_eval(s, lo) <= x <= pi_eval(s, hi)


def test_psi_inverse_recovers_from_a_bad_seed(cfg, monkeypatch):
    x = F(2, 7)
    xs = binary_expansion(x)
    codes = [c for w in admissible_prefixes(x, 5) for c in block_codes(xs, w)]
    expected = [lambda_set._solve_psi.__wrapped__(x, s, cfg) for s in codes]
    monkeypatch.setattr(lambda_set, "_float_root", lambda s, x: 0.49)
    for s, e in zip(codes, expected):
        got = lambda_set._solve_psi.__wrapped__(x, s, cfg)
        assert got.to_json() == e.to_json()


def test_grid_roots_come_back_as_points(cfg, monkeypatch):
    # 8 lam - 3 vanishes at 3/8, the first midpoint of [1/4, 1/2]
    monkeypatch.setattr(lambda_set, "pi_root_poly", lambda s, x: (-3, 8))
    for seed in (0.375, 0.49):       # a seed on the root, and one that misses
        monkeypatch.setattr(lambda_set, "_float_root", lambda s, x: seed)
        e = lambda_set._solve_psi.__wrapped__(F(1, 4), S("011(0)"), cfg)
        assert e.lo == e.hi and e.lo.to_fraction() == F(3, 8)


def test_psi_inverse_rejects_inadmissible(cfg):
    with pytest.raises(NotAdmissible):
        psi_inverse(F(1, 3), S("00(1)"), cfg)          # below the expansion
    with pytest.raises(NotAdmissible):
        psi_inverse(F(1, 3), S("1(0)"), cfg)           # above 0 1^inf


def test_block_codes_bound_each_prefix_block():
    xs = binary_expansion(F(1, 4))                     # 01(0)
    assert block_codes(xs, Word((0, 1, 1))) == (S("011(1)"), S("011(0)"))
    assert block_codes(xs, Word((0, 1, 0))) == (S("010(1)"), S("01(0)"))
    for w in admissible_prefixes(F(1, 4), 5):
        low, high = block_codes(xs, w)
        assert admissible(xs, low) and admissible(xs, high)
        assert lex_compare(low, high) is not Ordering.LESS
    assert not admissible(xs, S("00(1)")) and not admissible(xs, S("1(0)"))


def test_admissible_prefixes_examples():
    assert [str(w) for w in admissible_prefixes(F(1, 3), 1)] == ["0"]
    assert [str(w) for w in admissible_prefixes(F(1, 3), 2)] == ["01"]
    assert [str(w) for w in admissible_prefixes(F(1, 4), 3)] == ["011", "010"]


def test_cover_examples(cfg):
    c = cover(F(1, 3), 2, cfg)
    assert len(c.intervals) == 1
    assert c.intervals[0].lo.contains(F(1, 3))
    assert c.intervals[0].hi.contains(F(1, 2))

    c = cover(F(1, 4), 3, cfg)
    assert len(c.intervals) == 2
    assert c.intervals[0].lo.contains(F(1, 4))
    assert abs(c.intervals[0].hi.mid_fraction() - BETA1_QUARTER) < F(1, 10 ** 24)
    assert abs(c.intervals[1].lo.mid_fraction() - ALPHA2_QUARTER) < F(1, 10 ** 24)
    assert c.intervals[1].hi.contains(F(1, 2))

    c = cover(F(2, 7), 1, cfg)
    assert len(c.intervals) == 1
    assert c.intervals[0].lo.contains(F(2, 7))
    assert c.intervals[0].hi.contains(F(1, 2))


def test_gaps_examples(cfg):
    g = gaps(F(1, 4), 3, cfg)
    assert len(g) == 1
    assert g[0].left_end.overlaps(cover(F(1, 4), 3, cfg).intervals[0].hi)
    assert gaps(F(1, 3), 2, cfg) == []
    assert gaps(F(2, 7), 1, cfg) == []


def test_order_reversal(fast_cfg):
    """Lex-smaller admissible coding maps to a larger ratio; 1000 pairs."""
    rng = random.Random(99)
    x = F(1, 3)
    xs = binary_expansion(x)
    done = 0
    while done < 1000:
        pre_len = rng.randint(1, 10)
        bits1 = (0,) + tuple(rng.randint(0, 1) for _ in range(pre_len))
        bits2 = (0,) + tuple(rng.randint(0, 1) for _ in range(pre_len))
        s = EpSequence(Word(bits1), Word((rng.randint(0, 1),)))
        t = EpSequence(Word(bits2), Word((rng.randint(0, 1),)))
        from lambdaset.seqcode import lex_le
        if not all(lex_le(xs, u) and lex_le(u, SEQ_01INF) for u in (s, t)):
            continue
        order = lex_compare(s, t)
        if order is Ordering.EQUAL:
            continue
        if order is Ordering.GREATER:
            s, t = t, s
        es, et = psi_inverse(x, s, fast_cfg), psi_inverse(x, t, fast_cfg)
        if es.overlaps(et):
            continue   # separation below solver width; cannot certify order
        assert es.lo >= et.hi
        done += 1


def test_cover_nesting(cfg):
    for x in (F(1, 4), F(1, 3)):
        previous = None
        slack = F(1, 1 << 70)
        for depth in range(1, 7):
            current = cover(x, depth, cfg)
            if previous is not None:
                for child in current.intervals:
                    clo = child.lo.lo.to_fraction()
                    chi = child.hi.hi.to_fraction()
                    assert any(
                        p.lo.lo.to_fraction() - slack <= clo
                        and chi <= p.hi.hi.to_fraction() + slack
                        for p in previous.intervals), (x, depth)
            previous = current


def test_cover_endpoint_attainment(cfg):
    for x in (F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(49, 100)):
        c = cover(x, 4, cfg)
        assert c.intervals[0].lo.contains(x)
        assert c.intervals[-1].hi.contains(F(1, 2))


def test_cover_soundness_sample(cfg):
    rng = random.Random(17)
    x = F(1, 3)
    c = cover(x, 6, cfg)
    gap_list = gaps(x, 6, cfg)
    for _ in range(200):
        lam = x + (F(1, 2) - x) * F(rng.randint(0, 1000), 1000)
        verdict = membership(x, lam, 400)
        if verdict is True:
            assert c.covers(lam)
        if any(g.interior_contains(lam) for g in gap_list):
            assert verdict is not True


def test_lipschitz_check(cfg):
    rep = lipschitz_check(F(1, 3), F(45, 100), 60, seed=3, cfg=cfg)
    assert rep.bound == F(1, 3) * F(1, 100) / F(45, 100)
    assert rep.violations == 0
    assert rep.min_ratio >= rep.bound
    assert rep.pairs == 60
    with pytest.raises(OutOfRange):
        lipschitz_check(F(1, 3), F(1, 4), 10)


def test_subshift_dim_examples():
    assert subshift_dim(F(1, 2), 1) == 0.0
    assert abs(subshift_dim(F(1, 2), 64) - 63 / 64) < 1e-12
    assert abs(subshift_dim(F(1, 4), 2) - 0.25) < 1e-12


def test_subshift_word_count_oracle():
    """#length-m words with forced 1s at multiples of k is 2^(m - m//k)."""
    for k in range(1, 7):
        for m in range(1, 15):      # exhaustive enumeration
            count = sum(
                all(w[n - 1] == 1 for n in range(k, m + 1, k))
                for w in product((0, 1), repeat=m))
            assert count == 1 << (m - m // k)
        for m in range(15, 25):     # per-position product
            count = 1
            for n in range(1, m + 1):
                count *= 1 if n % k == 0 else 2
            assert count == 1 << (m - m // k)


def test_box_dim_smoke():
    fast = PrecisionConfig(64, target_width=F(1, 1 << 22))
    r = box_dim_estimate(F(1, 3), (F(1, 2) - F(1, 16), F(1, 2)),
                         [7, 8, 9, 10], fast)
    assert 0.6 < r.slope < 1.1
    assert r.segments > 0
    assert len(r.points) == 4


def test_box_dim_errors(cfg):
    with pytest.raises(InvalidInput):
        box_dim_estimate(F(1, 3), (F(1, 8), F(1, 4)), [6, 7], cfg)   # below x
    with pytest.raises(InvalidInput):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [6], cfg)      # one eps
    with pytest.raises(DepthBudgetExceeded):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [10, 12],
                         PrecisionConfig(64, target_width=F(1, 1 << 30)),
                         max_depth=3)
