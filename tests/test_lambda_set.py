import importlib
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lambdaset import constructions, ifs_core, lambda_set
from lambdaset.errors import (DepthBudgetExceeded, InsufficientMembers,
                              InvalidInput, NotAdmissible, OutOfRange)
from lambdaset.ifs_core import membership, pi_eval, pi_root_poly
from lambdaset.lambda_set import (admissible, admissible_prefixes,
                                  admissible_word, binary_expansion,
                                  block_codes, box_dim_estimate, cover, gaps,
                                  lipschitz_check, psi_inverse)
from lambdaset.numerics import (MEMO_TABLES, Enclosure, PrecisionConfig,
                                round_outward)
from lambdaset.seqcode import SEQ_01INF, EpSequence, word_str, zero_indices

F = Fraction
S = EpSequence.from_string
ROOT = Path(__file__).resolve().parents[1]

BETA1_QUARTER = F("0.269594436405444558262937951349")   # root of l - l^3 = 1/4
ALPHA2_QUARTER = F("0.319448459735676311182676718920")  # root of l - l^2 + l^3 = 1/4


def test_binary_expansion_examples():
    assert binary_expansion(F(1, 4)) == S("01(0)")
    assert binary_expansion(F(1, 3)) == S("(01)")
    assert binary_expansion(F(7, 16)) == S("0111(0)")
    for bad in (F(0), F(1, 2), F(3, 4), F(-1, 4)):
        with pytest.raises(OutOfRange):
            binary_expansion(bad)


def test_expansion_refuses_long_denominators_before_the_run(monkeypatch):
    """A stream that closes its period within MAX_PREFIXES digits is an
    integer over less than 2^MAX_PREFIXES, so a longer denominator is
    refused with the message the run would end in; a shorter one is
    refused when 2 has too large an order modulo its odd part."""
    monkeypatch.setattr(lambda_set, "MAX_PREFIXES", 40)
    # the memo table is bypassed, so it keeps no entry made at this budget
    expand = binary_expansion.__wrapped__
    # 2^-40 has 40 digits before its period 0, and 2^-60 more
    for x in (F(1, 1 << 40), F(1, 1 << 60), F(1, 3 << 40)):
        with pytest.raises(DepthBudgetExceeded) as err:
            expand(x)
        assert str(err.value) == (
            f"more than 40 digits in the binary expansion of {x}")
    # 2^-39: 39 digits and then the period 0, within the budget
    assert expand(F(1, 1 << 39)) == EpSequence((0,) * 38 + (1,), (0,))
    # 2^39 + 1 has 40 bits, but 2 has order 78 modulo it: refused
    with pytest.raises(DepthBudgetExceeded, match="more than 40 digits"):
        expand(F(1, (1 << 39) + 1))


@pytest.mark.parametrize("a", [0, 1, 2, 7000, 16381])
def test_expansion_budget_is_preperiod_plus_period(a):
    """1/(2^a (2^p - 1)) has a preperiod of a digits and a period of p: it
    is expanded when a + p = MAX_PREFIXES and refused at one more digit."""
    expand = binary_expansion.__wrapped__
    p = lambda_set.MAX_PREFIXES - a
    s = expand(F(1, ((1 << p) - 1) << a))
    assert (len(s.preperiod), len(s.period)) == (a, p)
    assert s.period[-1] == 1 and 1 not in s.preperiod + s.period[:-1]
    with pytest.raises(DepthBudgetExceeded, match="more than 16384 digits"):
        expand(F(1, ((1 << (p + 1)) - 1) << a))


@settings(deadline=None)
@given(st.integers(3, 3000).flatmap(
    lambda q: st.tuples(st.integers(1, (q - 1) // 2), st.just(q))))
def test_expansion_is_the_greedy_orbit(pq):
    """The expansion read by long division is the coding greedy_digits
    finds at 1/2, with the same preperiod and period as printed."""
    x = F(*pq)
    greedy = ifs_core.greedy_digits(x, F(1, 2), lambda_set.MAX_PREFIXES)
    assert str(binary_expansion(x)) == str(greedy.coding)
    assert binary_expansion(x).preperiod == greedy.coding.preperiod


def test_expansion_properties():
    rng = random.Random(5)
    for _ in range(50):
        x = F(rng.randint(1, 499), 1000)
        s = binary_expansion(x)
        assert s.prefix(1) == (0,)
        assert s.key[1] != (1,)
        assert pi_eval(s, F(1, 2)) == x


def test_psi_inverse_examples(cfg):
    e = psi_inverse(F(1, 3), S("0(1)"), cfg)
    assert e.contains(F(1, 3)) and e.width() <= F(1, 1 << 80)
    e = psi_inverse(F(1, 3), S("(01)"), cfg)
    assert e.contains(F(1, 2))
    e = psi_inverse(F(1, 4), S("011(0)"), cfg)
    lo, hi = e.lo, e.hi
    assert lo - lo ** 3 <= F(1, 4) <= hi - hi ** 3     # exact bracket check
    assert abs(e.mid_fraction() - BETA1_QUARTER) < F(1, 10 ** 24)


def grid_oracle(s, x, cfg):
    """Plain bisection in exact Fractions on the solver's grid: the halving
    of [x rounded down, 1/2] until cells are at most 2^-width_bits wide, and
    a point wherever the coding map meets x exactly."""
    lo = Enclosure.from_fraction(x, cfg.precision_bits).lo
    hi = F(1, 2)
    for end in (lo, hi):
        if pi_eval(s, end) == x:
            return end, end
    while hi - lo > F(1, 1 << cfg.width_bits):
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


# At x = 1/4 and 3/8 the width of the grid [x, 1/2] is a power of two, where
# an off-by-one in the level count shows.
@settings(max_examples=80, deadline=None)
@given(targets_and_codings(), st.sampled_from([32, 64, 128]),
       st.sampled_from([0, 1, 3, 16, 40, 80, 200, 400]))
@example(case=(F(1, 4), S("011(0)")), bits=32, width_bits=16)
@example(case=(F(3, 8), S("0111(0)")), bits=64, width_bits=3)
# pi(0 1^inf, lam) = lam: the root x is the grid's low end when x is exact
# at `bits`, and inside its first cell otherwise
@example(case=(F(1, 4), S("0(1)")), bits=32, width_bits=40)
@example(case=(F(1, 3), S("0(1)")), bits=32, width_bits=40)
def test_psi_inverse_matches_fraction_oracle(case, bits, width_bits):
    x, s = case
    cfg = PrecisionConfig(bits, width_bits)
    e = psi_inverse(x, s, cfg)
    lo, hi = e.lo, e.hi
    assert (lo, hi) == grid_oracle(s, x, cfg)
    assert pi_eval(s, lo) <= x <= pi_eval(s, hi)


def test_psi_inverse_survives_bad_newton_steps(monkeypatch):
    """A Newton guess that lands in the wrong cell costs a round, never a
    different cell: guesses of cell 0, far past the grid, below it, three
    cells off, anywhere at random, or always two cells from the root's.
    The same holds for the double-precision guess the first round starts
    from: at the grid's low end, past its high end, NaN, infinite or at
    random, claiming no bits, a double's bits or more bits than the grid
    has levels."""
    x = F(2, 7)
    cfg = PrecisionConfig(248, width_bits=200)
    xs = binary_expansion(x)
    codes = [c for w in admissible_prefixes(x, 5) for c in block_codes(xs, w)]
    expected = [lambda_set.psi_inverse.__wrapped__(x, s, cfg) for s in codes]
    roots = {pi_root_poly(s, x): e.lo for s, e in zip(codes, expected)}

    def wrong(j, coeffs, m, k, base, width, bits):
        # two cells from the root's, toward the middle of the grid
        cell = (roots[coeffs] * (1 << k) - base) // width
        middle = ((1 << (k - 1)) - base) // width // 2
        return cell + 2 if cell < middle else cell - 2

    def solves_unchanged():
        for s, e in zip(codes, expected):
            got = lambda_set.psi_inverse.__wrapped__(x, s, cfg)
            assert (got.lo, got.hi) == (e.lo, e.hi)

    newton_cell = ifs_core.newton_cell
    rng = random.Random(7)
    for step in (lambda j, *args: 0, lambda j, *args: 1 << 200,
                 lambda j, *args: -5, lambda j, *args: j + 3,
                 lambda j, *args: rng.randrange(-4, 1 << 24), wrong):
        monkeypatch.setattr(ifs_core, "newton_cell",
                            lambda *args: step(newton_cell(*args), *args))
        solves_unchanged()
    monkeypatch.setattr(ifs_core, "newton_cell", newton_cell)
    for guess in (lambda lo: lo, lambda lo: 1.0, lambda lo: 2.0 ** 600,
                  lambda lo: math.nan, lambda lo: math.inf,
                  lambda lo: -math.inf, lambda lo: rng.uniform(-1, 2)):
        for bits in (0, 52, 1000):
            monkeypatch.setattr(ifs_core, "float_guess",
                                lambda coeffs, lo: (guess(lo), bits))
            solves_unchanged()


def test_float_guess_earns_its_bits():
    """The double-precision guess lies within 2^-bits of the certified root
    for both block codes of every admissible word of length 6 of several
    targets, and claims at least 20 and at most 52 -
    len(coeffs).bit_length() bits."""
    cfg = PrecisionConfig()
    for x in (F(1, 3), F(2, 7), F(3, 10), F(1, 100), F(49, 100)):
        xs = binary_expansion(x)
        a = Enclosure.from_fraction(x, cfg.precision_bits).lo
        for w in admissible_prefixes(x, 6):
            for s in block_codes(xs, w):
                if s == xs:
                    continue
                coeffs = pi_root_poly(s, x)
                guess, bits = ifs_core.float_guess(coeffs, float(a))
                root = lambda_set.psi_inverse(x, s, cfg).lo
                assert 20 <= bits <= 52 - len(coeffs).bit_length()
                assert abs(F(guess) - root) <= F(1, 1 << bits)


@pytest.mark.parametrize("x", [F(3, 8) + F(1, 1 << 1100),
                               F(1, 3) + F(1, 3 << 1100)])
def test_solve_past_a_doubles_range(x):
    """Targets whose denominators have more than 1024 bits give root
    polynomials whose coefficients no double holds; the guess scales them
    by one power of two, and every cell is the exact bisection's."""
    cfg = PrecisionConfig()
    xs = binary_expansion(x)
    a = Enclosure.from_fraction(x, cfg.precision_bits).lo
    for w in admissible_prefixes(x, 4):
        for s in block_codes(xs, w):
            coeffs = pi_root_poly(s, x)
            assert max(abs(c) for c in coeffs).bit_length() > 1100
            guess, bits = ifs_core.float_guess(coeffs, float(a))
            assert math.isfinite(guess) and bits > 0
            e = lambda_set.psi_inverse.__wrapped__(x, s, cfg)
            assert (e.lo, e.hi) == grid_oracle(s, x, cfg)


def test_grid_roots_come_back_as_points(cfg, monkeypatch):
    # On the grid of [1/4, 1/2]: its first midpoint 3/8, and two level-28
    # points, the last one below 1/2, each the root of a linear R.
    deep = F((1 << 28) + 12345, 1 << 30)
    for root in (F(3, 8), deep, F((1 << 29) - 1, 1 << 30)):
        monkeypatch.setattr(lambda_set, "pi_root_poly",
                            lambda s, x: (-root.numerator, root.denominator))
        e = lambda_set.psi_inverse.__wrapped__(F(1, 4), S("011(0)"), cfg)
        assert e.lo == e.hi == root
    # The ends are roots only for s = xs (1/2) and for s = 0 1^inf at an
    # exact x (x itself), and both are answered without a solve.
    monkeypatch.setattr(lambda_set, "root_cell", None)
    for s, root in ((S("01(0)"), F(1, 2)), (S("0(1)"), F(1, 4))):
        e = lambda_set.psi_inverse.__wrapped__(F(1, 4), s, cfg)
        assert e.lo == e.hi == root


def test_psi_inverse_miss_builds_no_fraction(cfg):
    """A solve's cell is root_cell's integers: once its target has been
    seen, a psi_inverse miss builds no Fraction, and the Fraction view of
    a cell's ends is built when it is first read."""
    x = F(2, 7)
    xs = binary_expansion(x)
    codes = [c for w in admissible_prefixes(x, 5) for c in block_codes(xs, w)]
    lambda_set.psi_inverse.__wrapped__(x, codes[0], cfg)
    # every Fraction is made by __new__, or on 3.12 and later by arithmetic
    # through _from_coprime_ints
    makers = {F.__new__.__code__}
    if hasattr(F, "_from_coprime_ints"):
        makers.add(F._from_coprime_ints.__func__.__code__)
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in makers:
            built.append(frame.f_code)

    sys.setprofile(profile)
    try:
        cells = [lambda_set.psi_inverse.__wrapped__(x, s, cfg) for s in codes]
        solved = len(built)
        assert cells[0].lo < cells[0].hi
    finally:
        sys.setprofile(None)
    assert (len(codes), solved, len(built)) == (14, 0, 2)


def test_deep_solve_work_is_bounded(monkeypatch):
    """A 2^-400 solve of a gap-record coding of 1/3 at piece 32 takes at
    most 6 polynomial evaluations in integers, exact fallbacks included:
    four Newton steps, doubling the 45 bits of the double-precision guess
    up to the final level, and two signs, none at an end of the bracket.
    The guess takes at most 6 iterations in doubles. From the bracket's
    midpoint the chain takes ten Newton steps, and bisection alone about
    360 signs."""
    x = F(1, 3)
    cfg = PrecisionConfig(448, width_bits=400)
    xs = binary_expansion(x)
    n_32 = zero_indices(xs, 32)[31]
    # the left-bridge coding of the gap record of word 01 at piece 32
    s = EpSequence(xs.prefix(n_32 - 1) + (1, 0, 1), (1,))
    calls = []
    for module, name in ((lambda_set, "pi_eval"), (ifs_core, "poly_sign"),
                         (ifs_core, "newton_cell"),
                         (ifs_core, "exact_sign")):
        def counted(*args, f=getattr(module, name)):
            calls.append(f)
            return f(*args)
        monkeypatch.setattr(module, name, counted)
    float_steps = ifs_core.WORK["float_steps"]
    e = lambda_set.psi_inverse.__wrapped__(x, s, cfg)
    assert e.width() <= F(1, 1 << 400)
    assert len(calls) <= 6
    assert ifs_core.WORK["float_steps"] - float_steps <= 6


def test_session_solves_take_one_newton_step(monkeypatch):
    """The first 200 calls of the seed-1 session-ledger benchmark, from
    cold memo tables: its 835 psi_inverse misses (833 of them solves) take
    at most 1.5 integer Newton steps and 2 signs each, with no exact
    fallback."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    # the session's requests take no gap files, so none is written
    stream = workloads.session_ledger(1, None)
    requests = []
    while len(requests) < 200:
        requests += next(stream)
    cfg = PrecisionConfig()
    calls = {
        "thickness_Cl": lambda r: constructions.thickness_Cl(
            F(r["x"]), r["ell"], r["k_max"], r["q_max"], cfg),
        "verify_caseA": lambda r: constructions.verify_caseA(
            F(r["x"]), r["trials"], cfg, r["seed"]),
        "verify_caseB": lambda r: constructions.verify_caseB(
            r["trials"], cfg, r["seed"]),
    }
    for table in MEMO_TABLES.values():
        table.cache_clear()
    before = dict(ifs_core.WORK)
    solves = lambda_set.psi_inverse.cache_info().misses
    for r in requests[:200]:
        calls[r["call"]](r)
    solves = lambda_set.psi_inverse.cache_info().misses - solves
    work = {k: v - before[k] for k, v in ifs_core.WORK.items()}
    assert solves > 800
    assert work["newton_steps"] <= 1.5 * solves
    assert work["signs"] <= 2 * solves
    assert work["exact_fallbacks"] == 0


@settings(deadline=None)
@given(st.integers(3, 300).flatmap(
           lambda q: st.tuples(st.integers(1, (q - 1) // 2), st.just(q))),
       st.integers(0, 40), st.lists(st.integers(0, 1), max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=8))
@example((1, 4), 0, [], [0])
@example((1, 3), 0, [], [1])
def test_admissible_codings_lie_above_x_at_one_half(pq, pick, pre, per):
    """pi(s, 1/2) > x for every admissible s other than xs, so psi_inverse
    takes the sign of its bracket's end 1/2 from admissibility. Such an s
    is xs with a digit 0 at some index n >= 2 switched to 1, followed by
    any tail."""
    x = F(*pq)
    xs = binary_expansion(x)
    n = zero_indices(xs, pick + 1)[pick]
    s = EpSequence(xs.prefix(n - 1) + (1, *pre), tuple(per))
    assert admissible(xs, s) and s != xs
    assert pi_eval(s, F(1, 2)) > x


@settings(deadline=None)
@given(st.integers(3, 300).flatmap(
           lambda q: st.tuples(st.integers(1, (q - 1) // 2), st.just(q))),
       st.integers(0, 40), st.lists(st.integers(0, 1), max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=8),
       st.sampled_from([32, 64, 128]))
# s = 0 1^inf at a target exact at 32 bits, and one that is not
@example((1, 4), 0, [], [1], 32)
@example((12345, 65536), 0, [], [1], 32)
@example(((1 << 40) + 1, 1 << 42), 0, [], [1], 32)
@example((1, 4), 0, [], [0], 32)
@example((12345, 65536), 1, [0], [0, 1], 32)
def test_admissible_codings_lie_below_x_at_the_grid_origin(pq, pick, pre,
                                                           per, bits):
    """R(a) < 0 at the grid's low end a, x rounded down to `bits`, for
    every admissible s other than xs: s starts with 0, so pi(s, a) <= a <=
    x. The one exception is R(a) == 0 for s = 0 1^inf, whose coding map is
    lam -> lam, when a == x; psi_inverse answers that case itself and takes
    the sign at a from admissibility otherwise."""
    x = F(*pq)
    xs = binary_expansion(x)
    n = zero_indices(xs, pick + 1)[pick]
    s = EpSequence(xs.prefix(n - 1) + (1, *pre), tuple(per))
    assert admissible(xs, s) and s != xs
    a_m, a_hi, e = round_outward(x.numerator, x.denominator, bits)
    sign = ifs_core.exact_sign(pi_root_poly(s, x), a_m, e)
    assert sign == (0 if s == SEQ_01INF and a_m == a_hi else -1)


def test_psi_inverse_rejects_inadmissible(cfg):
    with pytest.raises(NotAdmissible):
        psi_inverse(F(1, 3), S("00(1)"), cfg)          # below the expansion
    with pytest.raises(NotAdmissible):
        psi_inverse(F(1, 3), S("1(0)"), cfg)           # above 0 1^inf


def test_block_codes_bound_each_prefix_block():
    """On every admissible word of p/q (q <= 40) at depths 1-8, the codes
    equal w 1^inf and w 0^inf clamped in stream order to [xs, 0 1^inf],
    as streams and as printed: payloads print the representation."""
    xs = binary_expansion(F(1, 4))                     # 01(0)
    assert block_codes(xs, (0, 1, 1)) == (S("011(1)"), S("011(0)"))
    assert block_codes(xs, (0, 1, 0)) == (S("010(1)"), S("01(0)"))
    assert not admissible(xs, S("00(1)")) and not admissible(xs, S("1(0)"))
    # a word outside [first |w| digits of xs, 0 1^(|w|-1)] has no codes
    for word in ((0, 0, 1), (1,), (1, 0, 0)):
        with pytest.raises(NotAdmissible, match="no admissible word"):
            block_codes(xs, word)
    targets = {F(p, q) for q in range(3, 41) for p in range(1, (q + 1) // 2)}
    for x in targets:
        xs = binary_expansion(x)
        for depth in range(1, 9):
            for w in admissible_prefixes(x, depth):
                low, high = EpSequence(w, (1,)), EpSequence(w, (0,))
                oracle = (low if low <= SEQ_01INF else SEQ_01INF,
                          xs if high <= xs else high)
                codes = block_codes(xs, w)
                assert codes == oracle
                assert list(map(str, codes)) == list(map(str, oracle))
                assert admissible(xs, codes[0]) and admissible(xs, codes[1])
                assert codes[1] <= codes[0]


def test_admissible_prefixes_examples():
    assert [word_str(w) for w in admissible_prefixes(F(1, 3), 1)] == ["0"]
    assert [word_str(w) for w in admissible_prefixes(F(1, 3), 2)] == ["01"]
    assert [word_str(w) for w in admissible_prefixes(F(1, 4), 3)] == ["011",
                                                                      "010"]


def test_admissible_prefixes_match_brute_force():
    """Every word of length d <= 8 with an admissible extension, found by
    testing the extensions w 0^inf, w 1^inf and w followed by the tail of
    the target's expansion; the per-word predicate agrees on every word."""
    for q in range(3, 13):
        for p in range(1, (q + 1) // 2):
            x = F(p, q)
            xs = binary_expansion(x)
            for d in range(1, 9):
                words = list(product((1, 0), repeat=d))
                # the digits of xs after the first d, then its period
                tail = (xs.preperiod + xs.period * d)[d:]
                expected = [w for w in words if any(
                    admissible(xs, EpSequence(w + s.preperiod, s.period))
                    for s in (S("(0)"), S("(1)"), EpSequence(tail, xs.period)))]
                assert admissible_prefixes(x, d) == expected
                assert [w for w in words
                        if admissible_word(xs, w)] == expected


def test_cover_examples(cfg):
    c = cover(F(1, 3), 2, cfg)
    assert len(c.intervals) == 1
    assert c.intervals[0].lo.contains(F(1, 3))
    assert c.intervals[0].hi.contains(F(1, 2))

    c = cover(F(1, 4), 3, cfg)
    assert len(c.intervals) == 2
    # on a stream tie the low code is w 1^inf and the high code is x's own
    assert [(str(iv.low_code), str(iv.high_code)) for iv in c.intervals] == [
        ("011(1)", "011(0)"), ("010(1)", "01(0)")]
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
    right = cover(F(1, 4), 3, cfg).intervals[0].hi
    assert g[0].left_end.lo <= right.hi and right.lo <= g[0].left_end.hi
    assert gaps(F(1, 3), 2, cfg) == []
    assert gaps(F(2, 7), 1, cfg) == []


def test_cover_merges_overlapping_blocks():
    """At a coarse width the cells of neighbouring blocks overlap, so the
    cover merges its 11 blocks into 2 increasing intervals holding them."""
    x, cfg = F(1, 3), PrecisionConfig(64, width_bits=6)
    xs = binary_expansion(x)
    blocks = [lambda_set._prefix_interval(x, w, xs, cfg)
              for w in admissible_prefixes(x, 6)]
    merged = cover(x, 6, cfg).intervals
    assert (len(blocks), len(merged)) == (11, 2)
    outline = [(iv.lo.lo, iv.hi.hi) for iv in merged]
    assert all(lo < hi for lo, hi in outline)
    assert all(a[1] < b[0] for a, b in zip(outline, outline[1:]))
    for block in blocks:
        assert any(lo <= block.lo.lo and block.hi.hi <= hi
                   for lo, hi in outline)


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
        s = EpSequence(bits1, (rng.randint(0, 1),))
        t = EpSequence(bits2, (rng.randint(0, 1),))
        if not all(xs <= u <= SEQ_01INF for u in (s, t)):
            continue
        if s == t:
            continue
        if not s <= t:
            s, t = t, s
        es, et = psi_inverse(x, s, fast_cfg), psi_inverse(x, t, fast_cfg)
        if es.lo <= et.hi and et.lo <= es.hi:
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
                    clo = child.lo.lo
                    chi = child.hi.hi
                    assert any(
                        p.lo.lo - slack <= clo
                        and chi <= p.hi.hi + slack
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
    # two members below 1667/5000 make one certified pair, which is not
    # counted ten times
    with pytest.raises(InsufficientMembers, match="^1 distinct member pairs"):
        lipschitz_check(F(1, 3), F(1667, 5000), 10, seed=0)


def test_box_dim_smoke():
    fast = PrecisionConfig(64, width_bits=22)
    r = box_dim_estimate(F(1, 3), (F(1, 2) - F(1, 16), F(1, 2)),
                         [7, 8, 9, 10], fast)
    assert 0.6 < r.slope < 1.1
    assert r.segments > 0
    assert len(r.points) == 4


def test_box_dim_errors(cfg, monkeypatch):
    with pytest.raises(InvalidInput):
        box_dim_estimate(F(1, 3), (F(1, 8), F(1, 4)), [6, 7], cfg)   # below x
    with pytest.raises(InvalidInput):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [6], cfg)      # one eps
    with pytest.raises(InvalidInput, match="distinct"):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [8, 8], cfg)
    with pytest.raises(InvalidInput, match="exponent -3 "):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [-3, 8], cfg)
    monkeypatch.setattr(lambda_set, "MAX_DEPTH", 3)
    with pytest.raises(DepthBudgetExceeded, match="prefix depth 3 reached"):
        box_dim_estimate(F(1, 3), (F(2, 5), F(1, 2)), [10, 12],
                         PrecisionConfig(64, width_bits=30))


def test_box_dim_node_budget(monkeypatch):
    # refinement nodes roughly double per grid exponent, so a fine ladder
    # meets the prefix budget instead of running for minutes
    fast = PrecisionConfig(64, width_bits=22)
    window = (F(1, 2) - F(1, 16), F(1, 2))
    segments = box_dim_estimate(F(1, 3), window, [7, 10], fast).segments
    monkeypatch.setattr(lambda_set, "MAX_PREFIXES", segments)
    with pytest.raises(DepthBudgetExceeded,
                       match=f"more than {segments} refinement blocks"):
        box_dim_estimate(F(1, 3), window, [7, 10], fast)
