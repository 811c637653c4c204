import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdaset import constructions, seqcode
from lambdaset.cantor_metrics import newhouse_lower, thickness_of
from lambdaset.constructions import (CODINGS, _codings, _family_bounds,
                                     _switch_upper_rhs, defining_sequence_Cl,
                                     first_switch_index, gap_record,
                                     piece_endpoints, thickness_Cl,
                                     verify_caseA, verify_caseB)
from lambdaset.errors import HypothesisUnsatisfiable, Inconclusive
from lambdaset.lambda_set import admissible, binary_expansion, psi_inverse
from lambdaset.numerics import MEMO_TABLES, Enclosure, PrecisionConfig
from lambdaset.seqcode import EpSequence

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
    lo, hi = p1.beta.lo, p1.beta.hi
    assert lo - lo ** 3 <= F(1, 4) <= hi - hi ** 3
    assert abs(p1.beta.mid_fraction() - BETA1_QUARTER) < F(1, 10 ** 24)
    # alpha_2 solves l - l^2 + l^3 = 1/4, equivalently (1/2 - l)^2 = l^3
    lo, hi = p1.alpha_next.lo, p1.alpha_next.hi
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
            assert p.alpha_next.hi <= F(1, 2)
            if last_alpha is not None:
                assert p.alpha.lo > last_alpha.hi     # min of pieces increases
            last_alpha = p.alpha
            assert piece_endpoints(x, k + 1, cfg).alpha.overlaps(p.alpha_next)


def test_gap_record_first_gap(cfg):
    g = gap_record(piece_endpoints(F(1, 3), 1, cfg), (), cfg)
    assert g.position == 1
    assert g.ratio_lo > 0
    # the gap is a certified open interval
    assert g.gap[0].hi < g.gap[1].lo


def test_gap_record_ratio_bound_caseA(cfg):
    x, m = F(1, 3), 4
    for k in (2, 3):
        piece = piece_endpoints(x, k, cfg)
        assert piece.n_k > m
        a_hi = piece.alpha.hi
        bound = x ** (m - 1) / (8 * (1 - 2 * a_hi))
        g = gap_record(piece, (0,), cfg)
        assert g.ratio_lo >= bound


def test_defining_sequence_Cl_structure(cfg):
    x, ell = F(1, 3), 2
    ds = defining_sequence_Cl(x, ell, 5, 3, cfg)
    piece = piece_endpoints(x, ell, cfg)
    hull, *removals = ds.intervals()
    # first removal is the inter-piece gap, second is the piece's first gap
    assert repr(removals[0]) == repr((piece.beta, piece.alpha_next))
    first_gap = gap_record(piece, (), cfg)
    assert removals[1][0].overlaps(first_gap.gap[0])
    assert removals[1][1].overlaps(first_gap.gap[1])
    assert hull[1].contains(F(1, 2))
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


def test_thickness_report_equals_defining_sequence_thickness(cfg):
    """The report's minimum over the three ratio families and the replay of
    the defining sequence are two computations of one number."""
    for x, ell, k_max, q_max in ((F(1, 3), 1, 5, 2), (F(1, 3), 3, 6, 3),
                                 (F(2, 7), 2, 4, 2), (F(1, 4), 1, 5, 2),
                                 (F(2, 5), 1, 4, 3), (F(1, 5), 2, 5, 1)):
        report = thickness_Cl(x, ell, k_max, q_max, cfg)
        ds = defining_sequence_Cl(x, ell, k_max, q_max, cfg)
        assert report.tau_truncated == thickness_of(ds)


def test_right_tail_ratio_bound_exceptional_target(cfg):
    """Right-tail ratios for the exceptional target beat 1/alpha^(n_k/2 - 1)."""
    x = F(1, 4)
    rep = thickness_Cl(x, 2, 4, 2, cfg)
    assert rep.bound_violations == ()
    for k in range(2, 6):
        p = piece_endpoints(x, k, cfg)
        num = F(1, 2) - p.alpha_next.hi
        den = p.alpha_next.hi - p.beta.lo
        ratio = num / den
        a_lo = p.alpha_next.lo
        bound_sq = 1 / a_lo ** (p.n_k - 2)      # bound^2 without the sqrt
        assert ratio ** 2 >= bound_sq


def test_family_bounds_match_the_stated_formulas(cfg):
    """Each bound equals its formula, evaluated at the cell ends that make
    it largest, so lowering any one of them fails here even when every
    certified ratio would still clear it."""
    for x in (F(1, 3), F(2, 7), F(1, 5), F(2, 5)):
        m = first_switch_index(x)
        k0 = next(k for k in range(1, 20)
                  if piece_endpoints(x, k, cfg).n_k > m)
        for k in range(k0, k0 + 3):
            p = piece_endpoints(x, k, cfg)
            a, b, c = p.alpha.hi, p.beta.hi, p.alpha_next.lo
            assert _family_bounds(p, m, 128) == (
                a ** (m - 1) / (8 * (1 - 2 * a)),
                x ** (m - 1) / (8 * (1 - 2 * b)),
                b ** (m - 2) / (4 * c ** (p.n_k - 1))), (x, k)
    parities = set()
    for k in range(1, 9):
        p = piece_endpoints(F(1, 4), k, cfg)
        a, b, c, n = p.alpha.hi, p.beta.hi, p.alpha_next.lo, p.n_k
        gap, piece, half = _family_bounds(p, None, 128)
        den = 1 - 2 * a + n * F(8, 2 ** n)
        assert (gap, piece) == (a / den, b / den), k
        if n % 2 == 0:
            assert half == 1 / c ** (n // 2 - 1), k
        else:
            # 1 / sqrt(c^(n-2)), rounded up by less than a relative 2^-100
            assert half ** 2 * c ** (n - 2) >= 1, k
            assert (half * (1 - F(1, 2 ** 100))) ** 2 * c ** (n - 2) < 1, k
        parities.add(n % 2)
    assert parities == {0, 1}


def test_unseparated_endpoints_name_the_width(cfg):
    coarse = PrecisionConfig(64, width_bits=20)
    with pytest.raises(Inconclusive, match="piece 40 .*width 1/1048576$"):
        piece_endpoints(F(1, 3), 40, coarse)
    coarser = PrecisionConfig(64, width_bits=8)
    with pytest.raises(Inconclusive, match="gap 01 of piece 1 .*width 1/256$"):
        gap_record(piece_endpoints(F(1, 3), 1, cfg), (0, 1), coarser)


def test_tail_reports_fail_alike(cfg):
    """The defining sequence and the thickness report list one truncation
    the same way, so an unseparated gap stops both with one message."""
    messages = set()
    for report in (defining_sequence_Cl, thickness_Cl):
        with pytest.raises(Inconclusive, match="gap 0 of piece 20 ") as err:
            report(F(1, 3), 14, 8, 3, cfg)
        messages.add(str(err.value))
    assert len(messages) == 1


def test_thickness_agrees_across_precisions(cfg):
    """Raising the working precision moves the certified truncated value by
    no more than the solver widths."""
    high = PrecisionConfig(192, width_bits=100)
    r_default = thickness_Cl(F(1, 3), 2, 3, 2, cfg)
    r_high = thickness_Cl(F(1, 3), 2, 3, 2, high)
    assert abs(r_default.tau_truncated - r_high.tau_truncated) <= F(1, 1 << 60)
    assert r_high.bound_violations == ()


def _clear_memo_tables():
    for table in MEMO_TABLES.values():
        table.cache_clear()


def _reports(cfg, x, ell, k_max, q_max):
    return (thickness_Cl(x, ell, k_max, q_max, cfg).to_json(),
            defining_sequence_Cl(x, ell, k_max, q_max, cfg).to_json())


@pytest.mark.parametrize("target", [(F(1, 3), 8, 6, 3), (F(2, 7), 2, 3, 2),
                                    (F(1, 4), 1, 5, 2)], ids=str)
def test_warm_reports_equal_cold_ones(cfg, target):
    """Memoised gap records and per-piece bounds change no payload: after
    other truncations that share pieces and gap words, and after every memo
    table is cleared, the reports are the first ones."""
    x, ell, k_max, q_max = target
    first = _reports(cfg, *target)
    for shape in ((ell + 1, k_max - 1, q_max - 1), (ell, 2, q_max + 1),
                  (max(1, ell - 1), k_max + 1, 1)):
        _reports(cfg, x, *shape)
    assert _reports(cfg, *target) == first
    _clear_memo_tables()
    assert _reports(cfg, *target) == first


def test_warm_report_solves_nothing(cfg, monkeypatch):
    """A repeated report reads every gap record and bound from the memo
    tables: no root solve is asked for and no sequence is built."""
    target = (F(1, 3), 8, 6, 3)
    thickness_Cl(*target, cfg)
    counts = {"psi_inverse": 0, "EpSequence": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(constructions, "psi_inverse",
                        counting("psi_inverse", constructions.psi_inverse))
    monkeypatch.setattr(seqcode.EpSequence, "__init__",
                        counting("EpSequence", seqcode.EpSequence.__init__))
    thickness_Cl(*target, cfg)
    assert counts == {"psi_inverse": 0, "EpSequence": 0}
    # the wrappers count: a new width solves one piece and one gap record
    thickness_Cl(F(1, 3), 8, 1, 0, PrecisionConfig(128, width_bits=79))
    assert counts == {"psi_inverse": 7, "EpSequence": 7}


def test_warm_report_is_one_lookup(cfg):
    """A repeated report reads its values from their own table and looks
    up no gap record, per-piece ratio pair or bound triple."""
    target = (F(1, 3), 8, 6, 3)
    tables = ("_thickness_values", "gap_record", "_piece_ratios",
              "_family_bounds")

    def lookups():
        return {name: getattr(constructions, name).cache_info()[:2]
                for name in tables}

    # with its values dropped, the report looks every record up again
    constructions._thickness_values.cache_clear()
    before = lookups()
    thickness_Cl(*target, cfg)
    after = lookups()
    assert all(after[name] != before[name] for name in tables)
    thickness_Cl(*target, cfg)
    warm = lookups()
    assert {name: (warm[name][0] - after[name][0],
                   warm[name][1] - after[name][1]) for name in tables} == {
        "_thickness_values": (1, 0), "gap_record": (0, 0),
        "_piece_ratios": (0, 0), "_family_bounds": (0, 0)}


def test_reports_share_no_mutable_record(cfg, monkeypatch, request):
    """Changing a report's minima dict or one of its violation dicts
    leaves the next report of the same truncation unchanged. Bounds above
    every ratio give the report violations; the memo tables are cleared
    before and after, so the values are computed with these bounds and no
    other test reads them."""
    _clear_memo_tables()
    request.addfinalizer(_clear_memo_tables)
    monkeypatch.setattr(constructions, "_family_bounds",
                        lambda piece, m, bits: (F(1 << 64),) * 3)
    target = (F(1, 3), 2, 2, 1)
    report = thickness_Cl(*target, cfg)
    expected = json.dumps(report.to_json())
    assert report.bound_violations
    report.per_family_minima["bridge_F"] = F(0)
    del report.per_family_minima["bridge_half"]
    report.bound_violations[0]["ratio"] = "0"
    report.bound_violations[-1].clear()
    assert json.dumps(thickness_Cl(*target, cfg).to_json()) == expected


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
    # near 1/2 few random words are admissible; the refusal says the
    # sampler gave up, and names x rather than its expansion
    with pytest.raises(HypothesisUnsatisfiable,
                       match=r"gave up after 400 random words .* x = 16/33$"):
        verify_caseA(F(16, 33), 5, cfg)


def test_caseA_switch_lower_explicit_q5(cfg):
    """One pinned instance: switching the tail after 01101 moves the ratio
    by at least a quarter of its fifth power."""
    x = F(1, 3)
    word = (0, 1, 1, 0, 1)
    lam1 = psi_inverse(x, EpSequence(word, (1,)), cfg)
    lam2 = psi_inverse(x, EpSequence(word, (0,)), cfg)
    lhs = lam2.lo - lam1.hi
    assert lhs >= lam2.hi ** 5 / 4


def test_caseB_switch_upper_explicit_q3(cfg):
    """Pinned instance for 1/4: switching after 01 j1 j2 j3 narrows the gap
    to at most the smaller ratio to the fifth power."""
    x, j = F(1, 4), (1, 0, 1)
    lam3 = psi_inverse(x, EpSequence((0, 1) + j + (1,), (0,)), cfg)
    lam4 = psi_inverse(x, EpSequence((0, 1) + j + (0,), (1,)), cfg)
    lhs = lam4.hi - lam3.lo
    assert lhs <= lam3.lo ** 5


def test_verify_caseB(cfg):
    ledger = verify_caseB(10, cfg, seed=2)
    assert ledger.violations == []
    kinds = {e.kind for e in ledger.entries}
    assert kinds == {"switch_lower", "switch_upper", "square_identity",
                     "gap_ratio", "piece_gap", "half_gap"}
    squares = [e for e in ledger.entries if e.kind == "square_identity"]
    assert len(squares) == 6
    assert all(e.passed for e in squares)


@settings(deadline=None)
@given(st.sampled_from([F(1, 3), F(2, 7), F(3, 10), F(5, 13), F(1, 4)]),
       st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_rejected_draw_words_have_no_admissible_coding(x, w):
    """_draw rejects a word w outside [first |w| digits of xs, 0 1^(|w|-1)]
    before building its codings: then none of them is admissible."""
    xs, w = binary_expansion(x), tuple(w)
    if not xs.prefix(len(w)) <= w <= (0,) + (1,) * (len(w) - 1):
        assert not any(admissible(xs, s) for s in _codings(w, CODINGS))


def _cell(e, lo, extra):
    return Enclosure(F(lo, 1 << e), F(min(lo + extra, 1 << (e - 1)), 1 << e),
                     128)


# cells [lo, hi] with dyadic ends in (0, 1/2], at most 8 grid steps wide
DYADIC_CELLS = st.integers(2, 140).flatmap(lambda e: st.builds(
    _cell, st.just(e), st.integers(1, 1 << (e - 1)), st.integers(0, 8)))


def _switch_upper_by_fractions(lam3, lam4, q, m):
    """The switch_upper right side by Fraction arithmetic, as verify_caseA
    computed it before its integer form, and whether bound1 is the
    minimum."""
    bound1 = 2 * (1 - 2 * lam3.hi) * lam3.lo ** (q + 2)
    bound2 = (2 * (1 - 2 * lam4.hi) * lam4.lo ** (m + q)
              / lam3.hi ** (m - 2))
    return min(bound1, bound2), bound1 <= bound2


def _point(q):
    return Enclosure.point(q, 128)


@pytest.mark.parametrize("lam3,lam4,first", [
    # cells in ascending order, as verify_caseA draws them: bound1 is the
    # minimum for lam4 well above lam3, bound2 for both close below 1/2
    (Enclosure(F(1, 4), F(17, 64), 128), Enclosure(F(5, 16), F(21, 64), 128),
     True),
    (Enclosure(F(7, 16), F(29, 64), 128), Enclosure(F(15, 32), F(31, 64), 128),
     False),
    # equal bounds, and a cell at 1/2 whose bound1 is 0
    (_point(F(1, 4)), _point(F(1, 4)), True),
    (_point(F(1, 2)), _point(F(1, 4)), True),
], ids=["bound1", "bound2", "tie", "zero"])
def test_switch_upper_rhs_takes_either_bound(lam3, lam4, first):
    for q, m in ((1, 3), (8, 12)):
        rhs, first_is_min = _switch_upper_by_fractions(lam3, lam4, q, m)
        assert first_is_min == first
        assert _switch_upper_rhs(lam3, lam4, q, m) == rhs


@settings(deadline=None, max_examples=300)
@given(DYADIC_CELLS, DYADIC_CELLS, st.integers(1, 8),
       st.integers(3, 12))
def test_switch_upper_rhs_matches_fraction_formula(lam3, lam4, q, m):
    assert (_switch_upper_rhs(lam3, lam4, q, m)
            == _switch_upper_by_fractions(lam3, lam4, q, m)[0])
