import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdaset import constructions, seqcode
from lambdaset.cantor_metrics import thickness_of
from lambdaset.constructions import (CODINGS, _codings, _piece_families,
                                     _square_identity, _switch_lower_caseA,
                                     _switch_lower_caseB, _switch_upper_caseA,
                                     _switch_upper_caseB, defining_sequence_Cl,
                                     first_switch_index, gap_record,
                                     piece_endpoints, thickness_Cl,
                                     verify_caseA, verify_caseB)
from lambdaset.errors import HypothesisUnsatisfiable, Inconclusive
from lambdaset.lambda_set import admissible
from lambdaset.numerics import Enclosure, PrecisionConfig, exact_str
from lambdaset.seqcode import binary_expansion
import exact

F = Fraction

BETA1_QUARTER = F("0.269594436405444558262937951349")
ALPHA2_QUARTER = F("0.319448459735676311182676718920")


def overlap(a: Enclosure, b: Enclosure) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def test_first_switch_index():
    assert first_switch_index(F(1, 3)) == 4
    assert first_switch_index(F(1, 5)) == 3
    assert first_switch_index(F(2, 5)) == 3
    with pytest.raises(HypothesisUnsatisfiable):
        first_switch_index(F(1, 4))


class _Least:
    """An rng whose every draw is the least value it may take."""

    def randint(self, low, high):
        return low


def test_caseA_draws_its_pieces_from_the_first_bounded_one(monkeypatch):
    """The least piece a case-A ledger may draw is the first piece with
    n_k > m, m the first switch index, as found by stepping k through the
    zero indices: for every target p/q < 1/2 with q < 200 but 1/4."""
    monkeypatch.setattr(constructions, "_ledger", lambda *args: args[-1])
    targets = {F(p, q) for q in range(3, 200) for p in range(1, (q + 1) // 2)}
    for x in sorted(targets - {F(1, 4)}):
        xs, m = binary_expansion(x), first_switch_index(x)
        k0 = 1
        while seqcode.zero_indices(xs, k0)[k0 - 1] <= m:
            k0 += 1
        assert next(verify_caseA(x, 1)(_Least())) == (k0, ()), x


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
    assert overlap(p1.alpha_next, p2.alpha)


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
            assert overlap(piece_endpoints(x, k + 1, cfg).alpha, p.alpha_next)


def test_gap_record_first_gap(cfg):
    g = gap_record(piece_endpoints(F(1, 3), 1, cfg), ())
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
        g = gap_record(piece, (0,))
        assert g.ratio_lo >= bound


def test_defining_sequence_Cl_structure(cfg):
    x, ell = F(1, 3), 2
    ds = defining_sequence_Cl(x, ell, 5, 3, cfg)
    piece = piece_endpoints(x, ell, cfg)
    hull, *removals = ds.intervals()
    # first removal is the inter-piece gap, second is the piece's first gap
    assert repr(removals[0]) == repr((piece.beta, piece.alpha_next))
    first_gap = gap_record(piece, ())
    assert overlap(removals[1][0], first_gap.gap[0])
    assert overlap(removals[1][1], first_gap.gap[1])
    assert hull[1].contains(F(1, 2))
    # count: k_max inter-piece gaps plus k_max * (2^(q_max+1) - 1) piece gaps
    assert len(ds.removals) == 5 + 5 * 15
    # well-formedness: every removal strictly interior to its component
    assert thickness_of(ds) > 0


def test_thickness_report_equals_defining_sequence_thickness(cfg):
    """The report's minimum over the three ratio families and the replay of
    the defining sequence are two computations of one number."""
    for x, ell, k_max, q_max in ((F(1, 3), 1, 5, 2), (F(1, 3), 3, 6, 3),
                                 (F(2, 7), 2, 4, 2), (F(1, 4), 1, 5, 2),
                                 (F(2, 5), 1, 4, 3), (F(1, 5), 2, 5, 1)):
        report = thickness_Cl(x, ell, k_max, q_max, cfg)
        ds = defining_sequence_Cl(x, ell, k_max, q_max, cfg)
        assert report.tau_truncated == thickness_of(ds)
        minima = dict(report.per_family_minima)
        assert list(minima) == ["bridge_F", "piece_ratios", "bridge_half"]
        assert report.tau_truncated == min(minima.values())


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
    certified ratio would still clear it. A piece with n_k <= m, to which
    the bounds do not apply, has none."""
    for x in (F(1, 3), F(2, 7), F(1, 5), F(2, 5)):
        m = first_switch_index(x)
        k0 = next(k for k in range(1, 20)
                  if piece_endpoints(x, k, cfg).n_k > m)
        for k in range(1, k0):
            assert _piece_families(piece_endpoints(x, k, cfg))[1] is None
        for k in range(k0, k0 + 3):
            p = piece_endpoints(x, k, cfg)
            a, b, c = p.alpha.hi, p.beta.hi, p.alpha_next.lo
            assert _piece_families(p)[1] == (
                a ** (m - 1) / (8 * (1 - 2 * a)),
                x ** (m - 1) / (8 * (1 - 2 * b)),
                b ** (m - 2) / (4 * c ** (p.n_k - 1))), (x, k)
    parities = set()
    for k in range(1, 9):
        p = piece_endpoints(F(1, 4), k, cfg)
        a, b, c, n = p.alpha.hi, p.beta.hi, p.alpha_next.lo, p.n_k
        gap, piece, half = _piece_families(p)[1]
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
    with pytest.raises(Inconclusive, match=r"piece 40 .*width 2\^-20$"):
        piece_endpoints(F(1, 3), 40, coarse)
    coarser = PrecisionConfig(64, width_bits=8)
    with pytest.raises(Inconclusive, match=r"gap 01 of piece 1 .*width 2\^-8$"):
        gap_record(piece_endpoints(F(1, 3), 1, coarser), (0, 1))


def test_separation_compares_cells_on_one_grid(cfg, monkeypatch):
    """Cells on different grids are compared by value: 3/8 at 2^-3 lies
    below the point 1/2 at 2^-1, though its integer is larger."""
    low, half = Enclosure((3, 3, 3), 128), Enclosure((1, 1, 1), 128)
    for cells, separated in (((low, half), True), ((half, low), False)):
        solved = iter(cells)
        monkeypatch.setattr(constructions, "psi_inverse",
                            lambda x, s, c: next(solved))
        if separated:
            assert constructions._separated(F(1, 3), [None] * 2, cfg, 1)[0]
        else:
            with pytest.raises(Inconclusive, match="piece 1 "):
                constructions._separated(F(1, 3), [None] * 2, cfg, 1)


def test_verdict_memos_key_on_the_precision():
    """The memoised family entries and square identity of one piece solved
    at two precisions differ: the odd-n_k half-gap bound of 1/4 and the
    residual magnitude are rounded to the piece's precision."""
    pieces = [piece_endpoints(F(1, 4), 1, PrecisionConfig(bits))
              for bits in (64, 200, 64)]
    assert pieces[0].n_k % 2 == 1
    for check in (lambda p: constructions._family_entries(p, (0,))[2].rhs,
                  lambda p: _square_identity(p).lhs):
        assert len({check(p) for p in pieces}) == 2


def test_gap_records_are_solved_at_the_piece_precision():
    """A gap record's cells carry the precision of its piece."""
    for x in (F(1, 3), F(1, 4)):
        for bits in (64, 200):
            piece = piece_endpoints(x, 2, PrecisionConfig(bits))
            assert piece.precision.precision_bits == bits
            for omega in ((), (1, 0)):
                gap = gap_record(piece, omega).gap
                assert {end.bits for end in gap} == {bits}, (x, bits, omega)


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


def _reports(cfg, x, ell, k_max, q_max):
    return (thickness_Cl(x, ell, k_max, q_max, cfg).to_json(),
            defining_sequence_Cl(x, ell, k_max, q_max, cfg).to_json())


@pytest.mark.parametrize("target", [(F(1, 3), 8, 6, 3), (F(2, 7), 2, 3, 2),
                                    (F(1, 4), 1, 5, 2)], ids=str)
def test_warm_reports_equal_cold_ones(cfg, clear_memo_tables, target):
    """Memoised gap records and per-piece bounds change no payload: after
    other truncations that share pieces and gap words, and after every memo
    table is cleared, the reports are the first ones."""
    x, ell, k_max, q_max = target
    first = _reports(cfg, *target)
    for shape in ((ell + 1, k_max - 1, q_max - 1), (ell, 2, q_max + 1),
                  (max(1, ell - 1), k_max + 1, 1)):
        _reports(cfg, x, *shape)
    assert _reports(cfg, *target) == first
    clear_memo_tables()
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
    """A repeated report is one lookup in its own table, returns the same
    record and looks up no gap record or per-piece ratios and bounds."""
    target = (F(1, 3), 8, 6, 3)
    tables = ("thickness_Cl", "gap_record", "_piece_families")

    def lookups():
        return {name: getattr(constructions, name).cache_info()[:2]
                for name in tables}

    # with its reports dropped, the report looks every record up again
    thickness_Cl.cache_clear()
    before = lookups()
    report = thickness_Cl(*target, cfg)
    after = lookups()
    assert all(after[name] != before[name] for name in tables)
    assert thickness_Cl(*target, cfg) is report
    warm = lookups()
    assert {name: (warm[name][0] - after[name][0],
                   warm[name][1] - after[name][1]) for name in tables} == {
        "thickness_Cl": (1, 0), "gap_record": (0, 0),
        "_piece_families": (0, 0)}


def test_warm_ledgers_look_up_no_gap_record(cfg):
    """A repeated ledger reads each piece's family entries with one lookup,
    which looks up no gap record."""
    for verify in (lambda: verify_caseA(F(1, 3), 5, cfg, seed=11),
                   lambda: verify_caseB(5, cfg, seed=11)):
        first = verify()
        before = gap_record.cache_info()[:2]
        assert verify() == first
        assert gap_record.cache_info()[:2] == before


def test_reports_share_no_mutable_record(cfg, monkeypatch, request,
                                         clear_memo_tables):
    """A report is an immutable value, so a caller cannot change a later
    report: it hashes and pickles like any tuple, a repeated call returns
    the same record, and changing a violation in a report's payload leaves
    the report's next payload unchanged. Bounds above every ratio give the
    report violations; the memo tables are cleared before and after, so
    the report is computed with these bounds and no other test reads it."""
    clear_memo_tables()
    request.addfinalizer(clear_memo_tables)
    families = constructions._piece_families
    monkeypatch.setattr(constructions, "_piece_families",
                        lambda piece: (families(piece)[0], (F(1 << 64),) * 3))
    target = (F(1, 3), 2, 2, 1)
    report = thickness_Cl(*target, cfg)
    expected = json.dumps(report.to_json())
    assert report.bound_violations
    assert hash(report) == hash(pickle.loads(pickle.dumps(report)))
    assert pickle.loads(pickle.dumps(report)) == report
    report.to_json()["bound_violations"][0]["ratio"] = "0"
    report.to_json()["per_family_minima"]["bridge_F"] = "0"
    assert json.dumps(report.to_json()) == expected
    assert thickness_Cl(*target, cfg) is report


def test_ledger_payload_shares_no_dict_with_the_ledger(cfg):
    """Changing an entry's params in a ledger's payload leaves the ledger
    and its next payload unchanged."""
    ledger = verify_caseA(F(1, 3), 1, cfg)
    expected = json.dumps(ledger.to_json())
    params = dict(ledger.entries[0].params)
    ledger.to_json()["entries"][0]["params"]["word"] = "edited"
    assert dict(ledger.entries[0].params) == params
    assert json.dumps(ledger.to_json()) == expected


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


def test_switch_entries_measure_positive_lengths(cfg):
    """Every switch entry's lhs is a length between two cells solved in
    ascending order, so it is positive: a row whose two coding ends were
    swapped would measure a negative one, and its upper-bound check would
    then pass vacuously."""
    ledgers = [verify_caseA(x, 20, cfg, seed) for x in (F(1, 3), F(2, 7),
                                                        F(3, 10))
               for seed in (1, 5)]
    ledgers += [verify_caseB(20, cfg, seed) for seed in (1, 5)]
    seen = set()
    for ledger in ledgers:
        for e in ledger.entries:
            if e.kind.startswith("switch_"):
                assert F(e.lhs) > 0, (ledger.case, ledger.seed, e)
                seen.add((ledger.case, e.kind))
    assert seen == {(case, kind) for case in "AB"
                    for kind in ("switch_lower", "switch_upper")}


@settings(deadline=None)
@given(st.sampled_from([F(1, 3), F(2, 7), F(3, 10), F(5, 13), F(1, 4)]),
       st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_rejected_draw_words_have_no_admissible_coding(x, w):
    """_draw rejects a word w outside [first |w| digits of xs, 0 1^(|w|-1)]
    before building its codings: then none of them is admissible. The
    words with no admissible extension are exact.admissible's."""
    xs, w = binary_expansion(x), tuple(w)
    if not exact.admissible(xs.key, w):
        assert not any(admissible(xs, s) for s in _codings(w, CODINGS))


def test_kept_draw_words_need_only_the_lower_test():
    """Once a word w starts an admissible coding, each of its codings is at
    most 0 1^inf, so _draw compares them with xs only: checked for every
    target p/q < 1/2 with q < 24 and every word of length at most 9."""
    targets = {F(p, q) for q in range(3, 24) for p in range(1, (q + 1) // 2)}
    for x in sorted(targets):
        xs = binary_expansion(x)
        for n in range(1, 10):
            for w in exact.admissible_prefixes(x, n):
                for s in _codings(w, CODINGS):
                    assert admissible(xs, s) == (xs <= s), (x, w, s)


def _cell(e, lo, extra):
    return Enclosure((lo, min(lo + extra, 1 << (e - 1)), e), 128)


def _interval(lo, hi):
    """The cell [lo, hi] of two dyadic Fractions."""
    e = max(lo.denominator, hi.denominator).bit_length() - 1
    return Enclosure((int(lo * (1 << e)), int(hi * (1 << e)), e), 128)


def _point(q):
    return _interval(q, q)


# cells [lo, hi] with dyadic ends in (0, 1/2], at most 8 grid steps wide
DYADIC_CELLS = st.integers(2, 140).flatmap(lambda e: st.builds(
    _cell, st.just(e), st.integers(1, 1 << (e - 1)), st.integers(0, 8)))


# The switch checks by Fraction arithmetic, as verify computed them before
# their integer forms: the entry's params, then (lhs, rhs, passed) printed
# by exact_str. Each takes the two cells, the word's head and its rest j.

def _switch_lower_caseA_by_fractions(lam1, lam2, head, j):
    w = head + j
    lhs, rhs = lam2.lo - lam1.hi, lam2.hi ** len(w) / 4
    passed = lhs >= rhs
    if not passed and lam2.hi - lam1.lo >= lam2.lo ** len(w) / 4:
        passed = None
    return ((("word", seqcode.word_str(w)),), exact_str(lhs), exact_str(rhs),
            passed)


def _switch_upper_caseA_by_fractions(lam3, lam4, head, j):
    """The entry, and whether bound1 is the minimum."""
    q, m = len(j), len(head)
    lhs = lam4.hi - lam3.lo
    bound1 = 2 * (1 - 2 * lam3.hi) * lam3.lo ** (q + 2)
    bound2 = (2 * (1 - 2 * lam4.hi) * lam4.lo ** (m + q)
              / lam3.hi ** (m - 2))
    rhs = min(bound1, bound2)
    return ((("q", q), ("m", m)), exact_str(lhs), exact_str(rhs),
            lhs <= rhs), bound1 <= bound2


def _switch_lower_caseB_by_fractions(lam1, lam2, head, j):
    mm, q = len(head) - 2, len(j)
    lhs = lam2.lo - lam1.hi
    rhs = lam2.hi ** (mm + 2 + q) / (1 - 2 * lam1.hi + F(mm + 3, 1 << mm))
    return ((("m", mm), ("q", q), ("word", seqcode.word_str(j))),
            exact_str(lhs), exact_str(rhs), lhs >= rhs)


def _switch_upper_caseB_by_fractions(lam3, lam4, head, j):
    lhs, rhs = lam4.hi - lam3.lo, lam3.lo ** (2 + len(j))
    return ((("q", len(j)), ("word", seqcode.word_str(j))), exact_str(lhs),
            exact_str(rhs), lhs <= rhs)


def _square_identity_by_fractions(piece, bits):
    """The entry: passed is False when the residual range excludes 0, and
    None when it holds 0 but the magnitude exceeds the cap."""
    a_lo, a_hi, n = piece.alpha_next.lo, piece.alpha_next.hi, piece.n_k
    res_lo = (F(1, 2) - a_hi) ** 2 - a_hi ** n
    res_hi = (F(1, 2) - a_lo) ** 2 - a_lo ** n
    magnitude = Enclosure.from_fraction(max(-res_lo, res_hi), bits).hi
    cap = F(1, 1 << 70)
    passed = (res_lo <= 0 <= res_hi) and (magnitude <= cap or None)
    return ("square_identity", (("k", piece.k), ("n_k", n)),
            exact_str(magnitude), exact_str(cap), passed)


# words of 0s and 1s with lengths in [low, high]
def _words(low, high):
    return st.lists(st.integers(0, 1), min_size=low,
                    max_size=high).map(tuple)


@pytest.mark.parametrize("lam3,lam4,first", [
    # cells in ascending order, as verify_caseA draws them: bound1 is the
    # minimum for lam4 well above lam3, bound2 for both close below 1/2
    (_interval(F(1, 4), F(17, 64)), _interval(F(5, 16), F(21, 64)), True),
    (_interval(F(7, 16), F(29, 64)), _interval(F(15, 32), F(31, 64)), False),
    # equal bounds, and a cell at 1/2 whose bound1 is 0
    (_point(F(1, 4)), _point(F(1, 4)), True),
    (_point(F(1, 2)), _point(F(1, 4)), True),
], ids=["bound1", "bound2", "tie", "zero"])
def test_switch_upper_rhs_takes_either_bound(lam3, lam4, first):
    for j, head in (((1,), (0, 1, 1)), ((0, 1) * 4, (0, 0, 1) * 4)):
        entry, first_is_min = _switch_upper_caseA_by_fractions(lam3, lam4,
                                                               head, j)
        assert first_is_min == first
        assert _switch_upper_caseA(lam3, lam4, head, j) == entry


@settings(deadline=None, max_examples=300)
@given(DYADIC_CELLS, DYADIC_CELLS, _words(1, 8), _words(3, 12))
def test_switch_upper_rhs_matches_fraction_formula(lam3, lam4, j, head):
    """Both branches of the minimum: the random cells take each often."""
    assert (_switch_upper_caseA(lam3, lam4, head, j)
            == _switch_upper_caseA_by_fractions(lam3, lam4, head, j)[0])


@settings(deadline=None, max_examples=300)
@given(DYADIC_CELLS, DYADIC_CELLS, _words(1, 12), st.integers(1, 6),
       _words(1, 8))
def test_switch_entries_match_fraction_formulas(lam1, lam2, w, mm, j):
    """The integer lhs, rhs and verdict of every other switch check, in
    both cases, are what the Fraction formulas print and decide, with the
    params each entry prints."""
    head = (0, 1) + (0,) * mm
    assert (_switch_lower_caseA(lam1, lam2, (), w)
            == _switch_lower_caseA_by_fractions(lam1, lam2, (), w))
    assert (_switch_lower_caseB(lam1, lam2, head, j)
            == _switch_lower_caseB_by_fractions(lam1, lam2, head, j))
    assert (_switch_upper_caseB(lam1, lam2, (0, 1), j)
            == _switch_upper_caseB_by_fractions(lam1, lam2, (0, 1), j))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(-1, 1), st.integers(0, 150),
       st.integers(0, 150), st.integers(0, 2), st.sampled_from((64, 128, 200)))
def test_square_identity_matches_fraction_formula(cfg, k, sign, shift, wider,
                                                  n_offset, bits):
    """The residual check on integers prints and decides as the Fraction
    formula, for cells around a solved alpha_{k+1} that hold the root,
    miss it or are too wide for the cap, and at other exponents n."""
    piece = piece_endpoints(F(1, 4), k, cfg)
    lo, hi, e = piece.alpha_next.cell
    cell = Enclosure((lo + (sign << shift), hi + (sign << shift)
                      + (1 << wider) - 1, e), bits)
    piece = piece._replace(n_k=piece.n_k + n_offset, alpha_next=cell,
                           precision=PrecisionConfig(bits))
    verdict = _square_identity_by_fractions(piece, bits)
    assert _square_identity(piece) == verdict
