from fractions import Fraction

import pytest

from lambdaset.cantor_metrics import newhouse_lower, thickness_of
from lambdaset.constructions import (defining_sequence_Cl,
                                     defining_sequence_Fk, first_switch_index,
                                     gap_record, piece_endpoints,
                                     thickness_Cl, verify_caseA, verify_caseB)
from lambdaset.errors import HypothesisUnsatisfiable
from lambdaset.lambda_set import psi_inverse
from lambdaset.seqcode import WORD_EPSILON, EpSequence, Word, word_at_position

F = Fraction
S = EpSequence.from_string

BETA1_QUARTER = F("0.269594436405444558262937951349")
ALPHA2_QUARTER = F("0.319448459735676311182676718920")


def test_first_switch_index():
    assert first_switch_index(F(1, 3)) == 4
    assert first_switch_index(F(1, 5)) == 3
    assert first_switch_index(F(2, 5)) == 3
    with pytest.raises(HypothesisUnsatisfiable):
        first_switch_index(F(1, 4))


def test_piece_endpoints_quarter(cfg):
    p1 = piece_endpoints(F(1, 4), 1, cfg)
    assert p1.n_k == 3
    assert p1.alpha.contains(F(1, 4))
    lo, hi = p1.beta.lo.to_fraction(), p1.beta.hi.to_fraction()
    assert lo - lo ** 3 <= F(1, 4) <= hi - hi ** 3
    assert abs(p1.beta.mid_fraction() - BETA1_QUARTER) < F(1, 10 ** 24)
    # alpha_2 solves l - l^2 + l^3 = 1/4, equivalently (1/2 - l)^2 = l^3
    lo, hi = p1.alpha_next.lo.to_fraction(), p1.alpha_next.hi.to_fraction()
    assert lo - lo ** 2 + lo ** 3 <= F(1, 4) <= hi - hi ** 2 + hi ** 3
    assert abs(p1.alpha_next.mid_fraction() - ALPHA2_QUARTER) < F(1, 10 ** 24)
    p2 = piece_endpoints(F(1, 4), 2, cfg)
    assert p2.n_k == 4
    assert p1.alpha_next.overlaps(p2.alpha)


def test_pieces_separated_and_increasing(cfg):
    for x in (F(1, 3), F(1, 4)):
        last_alpha = None
        for k in range(1, 9):
            p = piece_endpoints(x, k, cfg)
            assert p.alpha.hi < p.beta.lo < p.beta.hi < p.alpha_next.lo
            assert p.alpha_next.hi.cmp_fraction(F(1, 2)) <= 0
            if last_alpha is not None:
                assert p.alpha.lo > last_alpha.hi     # min of pieces increases
            last_alpha = p.alpha
            assert piece_endpoints(x, k + 1, cfg).alpha.overlaps(p.alpha_next)


def test_gap_record_first_gap(cfg):
    g = gap_record(F(1, 3), 1, WORD_EPSILON, cfg)
    assert g.position == 1
    assert g.left_ratio_lo > 0 and g.right_ratio_lo > 0
    # bridges flank the gap
    assert g.left_bridge[1].overlaps(g.gap[0])
    assert g.right_bridge[0].overlaps(g.gap[1])


def test_gap_record_ratio_bound_caseA(cfg):
    x, m = F(1, 3), 4
    for k in (2, 3):
        piece = piece_endpoints(x, k, cfg)
        assert piece.n_k > m
        a_hi = piece.alpha.hi.to_fraction()
        bound = x ** (m - 1) / (8 * (1 - 2 * a_hi))
        g = gap_record(x, k, Word((0,)), cfg)
        assert g.left_ratio_lo >= bound
        assert g.right_ratio_lo >= bound


def test_defining_sequence_Fk_quarter(cfg):
    ds = defining_sequence_Fk(F(1, 4), 1, 2, cfg)
    assert len(ds.removals) == 7          # words of length <= 2
    # enumeration follows the length-then-lex listing
    expected = ["", "0", "1", "00", "01", "10", "11"]
    assert [str(word_at_position(j)) for j in range(1, 8)] == expected
    for j, (left, right) in enumerate(ds.removals, start=1):
        rec = gap_record(F(1, 4), 1, word_at_position(j), cfg)
        assert left.overlaps(rec.gap[0]) and right.overlaps(rec.gap[1])
    assert thickness_of(ds) > 0


def test_defining_sequence_Cl_structure(cfg):
    x, ell = F(1, 3), 2
    ds = defining_sequence_Cl(x, ell, 5, 3, cfg)
    piece = piece_endpoints(x, ell, cfg)
    # first removal is the inter-piece gap, second is the piece's first gap
    assert ds.removals[0][0] is piece.beta
    assert ds.removals[0][1] is piece.alpha_next
    first_gap = gap_record(x, ell, WORD_EPSILON, cfg)
    assert ds.removals[1][0].overlaps(first_gap.gap[0])
    assert ds.removals[1][1].overlaps(first_gap.gap[1])
    assert ds.hull[1].contains(F(1, 2))
    # count: k_max inter-piece gaps plus k_max * (2^(q_max+1) - 1) piece gaps
    assert len(ds.removals) == 5 + 5 * 15
    # well-formedness: every removal strictly interior to its component
    assert thickness_of(ds) > 0


def test_thickness_report_trend(cfg):
    r2 = thickness_Cl(F(1, 3), 2, 4, 2, cfg)
    r3 = thickness_Cl(F(1, 3), 3, 4, 2, cfg)
    assert r2.bound_violations == () and r3.bound_violations == ()
    assert r3.tau_truncated >= r2.tau_truncated - F(1, 1 << 20)
    assert newhouse_lower(r2.tau_truncated) > 0.8
    assert set(r2.per_family_minima) == {"bridge_F", "piece_ratios",
                                         "bridge_half"}
    assert r2.tau_truncated == min(r2.per_family_minima.values())


def test_right_tail_ratio_bound_exceptional_target(cfg):
    """Right-tail ratios for the exceptional target beat 1/alpha^(n_k/2 - 1)."""
    x = F(1, 4)
    rep = thickness_Cl(x, 2, 4, 2, cfg)
    assert rep.bound_violations == ()
    for k in range(2, 6):
        p = piece_endpoints(x, k, cfg)
        num = F(1, 2) - p.alpha_next.hi.to_fraction()
        den = p.alpha_next.hi.to_fraction() - p.beta.lo.to_fraction()
        ratio = num / den
        a_lo = p.alpha_next.lo.to_fraction()
        bound_sq = 1 / a_lo ** (p.n_k - 2)      # bound^2 without the sqrt
        assert ratio ** 2 >= bound_sq


def test_thickness_agrees_across_precisions(cfg):
    """Raising the working precision moves the certified truncated value by
    no more than the solver widths."""
    from lambdaset.numerics import PrecisionConfig
    high = PrecisionConfig(192, target_width=F(1, 1 << 100))
    r_default = thickness_Cl(F(1, 3), 2, 3, 2, cfg)
    r_high = thickness_Cl(F(1, 3), 2, 3, 2, high)
    assert abs(r_default.tau_truncated - r_high.tau_truncated) <= F(1, 1 << 60)
    assert r_high.bound_violations == ()


def test_bound_violations_empty_for_standard_targets(cfg):
    for x in (F(1, 5), F(1, 4), F(1, 3)):
        for ell in range(1, 5):
            rep = thickness_Cl(x, ell, 6, 3, cfg)
            assert rep.bound_violations == (), (x, ell)


def test_verify_caseA(cfg):
    ledger = verify_caseA(F(1, 3), 10, cfg, seed=2)
    assert ledger.violations == []
    kinds = {e.kind for e in ledger.entries}
    assert kinds == {"switch_lower", "switch_upper", "gap_ratio",
                     "piece_gap", "half_gap"}
    with pytest.raises(HypothesisUnsatisfiable):
        verify_caseA(F(1, 4), 5, cfg)


def test_caseA_switch_lower_explicit_q5(cfg):
    """One pinned instance: switching the tail after 01101 moves the ratio
    by at least a quarter of its fifth power."""
    x = F(1, 3)
    word = Word((0, 1, 1, 0, 1))
    lam1 = psi_inverse(x, EpSequence(word, Word((1,))), cfg)
    lam2 = psi_inverse(x, EpSequence(word, Word((0,))), cfg)
    lhs = lam2.lo.to_fraction() - lam1.hi.to_fraction()
    assert lhs >= lam2.hi.to_fraction() ** 5 / 4


def test_caseB_switch_upper_explicit_q3(cfg):
    """Pinned instance for 1/4: switching after 01 j1 j2 j3 narrows the gap
    to at most the smaller ratio to the fifth power."""
    x, j = F(1, 4), Word((1, 0, 1))
    lam3 = psi_inverse(x, EpSequence(Word((0, 1)) + j + Word((1,)),
                                     Word((0,))), cfg)
    lam4 = psi_inverse(x, EpSequence(Word((0, 1)) + j + Word((0,)),
                                     Word((1,))), cfg)
    lhs = lam4.hi.to_fraction() - lam3.lo.to_fraction()
    assert lhs <= lam3.lo.to_fraction() ** 5


def test_verify_caseB(cfg):
    ledger = verify_caseB(10, cfg, seed=2)
    assert ledger.violations == []
    kinds = {e.kind for e in ledger.entries}
    assert kinds == {"switch_lower", "switch_upper", "square_identity",
                     "gap_ratio", "piece_gap", "half_gap"}
    squares = [e for e in ledger.entries if e.kind == "square_identity"]
    assert len(squares) == 6
    assert all(e.passed for e in squares)
