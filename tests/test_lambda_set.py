import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain, islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from lambdaset import ifs_core, lambda_set, seqcode
from lambdaset.constructions import lipschitz_check
from lambdaset.errors import (DepthBudgetExceeded, HypothesisUnsatisfiable,
                              InvalidInput)
from lambdaset.ifs_core import pi_root_poly
from lambdaset.lambda_set import (admissible, admissible_prefixes,
                                  admissible_word, block_codes,
                                  box_dim_estimate, cover, gaps, psi_inverse)
from lambdaset.numerics import (MEMO_TABLES, Enclosure, PrecisionConfig,
                                round_outward)
from lambdaset.seqcode import (SEQ_01INF, EpSequence, binary_expansion,
                               word_str, zero_indices)
import exact
import session_worker
import workloads
from pinned import sha256

F = Fraction
S = EpSequence.from_string


def test_binary_expansion_examples():
    assert binary_expansion(F(1, 4)) == S("01(0)")
    assert binary_expansion(F(1, 3)) == S("(01)")
    assert binary_expansion(F(7, 16)) == S("0111(0)")
    for bad in (F(0), F(1, 2), F(3, 4), F(-1, 4)):
        with pytest.raises(InvalidInput,
                           match=rf"^x must lie in \(0, 1/2\): {bad}$"):
            binary_expansion(bad)


def test_expansion_refuses_long_denominators_before_the_run(monkeypatch):
    """A stream that closes its period within MAX_DIGITS digits is an
    integer over less than 2^MAX_DIGITS, so a longer denominator is
    refused with the message the run would end in; a shorter one is
    refused when 2 has too large an order modulo its odd part."""
    monkeypatch.setattr(seqcode, "MAX_DIGITS", 40)
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
    is expanded when a + p = MAX_DIGITS and refused at one more digit."""
    expand = binary_expansion.__wrapped__
    p = seqcode.MAX_DIGITS - a
    s = expand(F(1, ((1 << p) - 1) << a))
    assert (len(s.preperiod), len(s.period)) == (a, p)
    assert s.period[-1] == 1 and 1 not in s.preperiod + s.period[:-1]
    with pytest.raises(DepthBudgetExceeded, match="more than 16384 digits"):
        expand(F(1, ((1 << (p + 1)) - 1) << a))


@settings(deadline=None)
@given(st.integers(3, 3000).flatmap(
    lambda q: st.tuples(st.integers(1, (q - 1) // 2), st.just(q))))
def test_expansion_is_the_greedy_orbit(pq):
    """The expansion read by long division is the greedy orbit at 1/2,
    with the same preperiod and period."""
    s = binary_expansion(F(*pq))
    assert (s.preperiod, s.period) == exact.binary_expansion(F(*pq))


def test_expansion_properties():
    rng = random.Random(5)
    for _ in range(50):
        x = F(rng.randint(1, 499), 1000)
        s = binary_expansion(x)
        assert s.prefix(1) == (0,)
        assert s.key[1] != (1,)
        assert exact.pi(s.key, F(1, 2)) == x


def grid_oracle(s, x, cfg):
    """Plain bisection in exact Fractions on the solver's grid: the halving
    of [x rounded down, 1/2] until cells are at most 2^-width_bits wide, and
    a point wherever the coding map meets x exactly."""
    lo = Enclosure.from_fraction(x, cfg.precision_bits).lo
    hi = F(1, 2)
    for end in (lo, hi):
        if exact.pi(s.key, end) == x:
            return end, end
    while hi - lo > F(1, 1 << cfg.width_bits):
        mid = (lo + hi) / 2
        value = exact.pi(s.key, mid)
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
    assert exact.pi(s.key, lo) <= x <= exact.pi(s.key, hi)


def test_psi_inverse_survives_bad_newton_steps(monkeypatch):
    """A Newton guess that lands in the wrong cell costs a round, never a
    different cell: guesses of cell 0, far past the grid, below it, three
    cells off, anywhere at random, or always two cells from the root's.
    The same holds for the double-precision guess the first round starts
    from: at the grid's low end, past its high end, far past it or at
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
                  lambda lo: rng.uniform(-1, 2)):
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
            assert float(a) <= guess <= 0.5 and bits > 0
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
    most 6 polynomial passes in integers, signs' repeated passes included:
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
    for name in ("pi_eval", "poly_sign", "newton_cell"):
        def counted(*args, f=getattr(ifs_core, name)):
            calls.append(f)
            return f(*args)
        monkeypatch.setattr(ifs_core, name, counted)
    before = dict(ifs_core.WORK)
    e = lambda_set.psi_inverse.__wrapped__(x, s, cfg)
    work = {k: v - before[k] for k, v in ifs_core.WORK.items()}
    assert e.width() <= F(1, 1 << 400)
    assert len(calls) + work["guard_doublings"] <= 6
    assert work["float_steps"] <= 6


# the first 200 session-ledger calls of each seed, from cold memo tables:
# the sha256 of the replies, each table's hits and misses, solver counters
SESSION_REPLIES = {
    1: "43a0bce7091fe64a8d4695fcc9d5bcb517ba886d2229e4189f1f4c6707c67fb1",
    2: "96796ccb0e1b243c0b7e3489f584e4260638febebfe85e3e89b6dfefd301d1a6",
    3: "15e3acdffa88c9b8f8edfb7c32d75da617e3a0b09f46dc95dc3fa3a11c5c82b1",
    54: "fbace6761571c996c5c2799306cad6653973c3a90bc51086d566e38cf847b5f7"}
SESSION_MEMO = {   # by table name, without its module
    "binary_expansion": ((326, 3), (321, 3), (330, 3), (326, 3)),
    "_target": ((832, 3), (867, 3), (857, 3), (877, 3)),
    "psi_inverse": ((1102, 835), (1047, 870), (1093, 860), (1057, 880)),
    "piece_endpoints": ((403, 19),) * 4,
    "gap_record": ((338, 140), (343, 135), (338, 144), (344, 140)),
    "_piece_families": ((159, 19), (159, 19), (163, 19), (165, 19)),
    "thickness_Cl": ((108, 26),) * 4,
    "_family_entries": ((244, 108), (244, 108), (240, 112), (238, 114)),
    "_square_identity": ((126, 6),) * 4,
}
SESSION_WORK = {"float_steps": (4161, 4365, 4304, 4407),
                "signs": (1664, 1734, 1714, 1754),
                "newton_steps": (833, 868, 858, 878),
                "guard_doublings": (0, 0, 0, 0)}


def test_session_solves_take_one_newton_step(capsys, monkeypatch,
                                             clear_memo_tables):
    """The first 200 calls of the session-ledger benchmark of each seed,
    answered by bench/session_worker.py in process from cold memo tables:
    its reply lines, memo hits and misses and root-solver counters are the
    pinned ones. Each seed's psi_inverse misses (833 solves of 835 for
    seed 1) take at most 1.5 integer Newton steps and 2 signs each, and no
    sign repeats its pass."""
    monkeypatch.setattr(sys, "argv", ["session_worker.py"])    # untraced
    for i, (seed, digest) in enumerate(SESSION_REPLIES.items()):
        # the session's requests take no gap files, so none is written
        calls = chain.from_iterable(workloads.session_ledger(seed, None))
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(
            json.dumps(r) + "\n" for r in islice(calls, 200)) + "\n"))
        clear_memo_tables()
        before = dict(ifs_core.WORK)
        capsys.readouterr()
        session_worker.main()
        # the lines between the ready line and the peak-RSS line
        replies = capsys.readouterr().out.splitlines(keepends=True)[1:-1]
        assert sha256("".join(replies)) == digest, seed
        assert {name.partition(".")[2]: tuple(table.cache_info()[:2])
                for name, table in MEMO_TABLES.items()} == {
            name: counts[i] for name, counts in SESSION_MEMO.items()}, seed
        work = {k: v - before[k] for k, v in ifs_core.WORK.items()}
        assert work == {k: v[i] for k, v in SESSION_WORK.items()}, seed
        solves = lambda_set.psi_inverse.cache_info().misses
        assert solves > 800
        assert work["newton_steps"] <= 1.5 * solves
        assert work["signs"] <= 2 * solves
        assert work["guard_doublings"] == 0


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
    assert exact.pi(s.key, F(1, 2)) > x


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
    the sign at a from admissibility otherwise. R(a) has the sign of
    exact.pi(s, a) - x."""
    x = F(*pq)
    xs = binary_expansion(x)
    n = zero_indices(xs, pick + 1)[pick]
    s = EpSequence(xs.prefix(n - 1) + (1, *pre), tuple(per))
    assert admissible(xs, s) and s != xs
    a_m, a_hi, e = round_outward(x.numerator, x.denominator, bits)
    diff = exact.pi(s.key, F(a_m, 1 << e)) - x
    assert (diff > 0) - (diff < 0) == (
        0 if s == SEQ_01INF and a_m == a_hi else -1)


def test_psi_inverse_rejects_inadmissible(cfg):
    outside = "is outside the admissible window for 1/3$"
    with pytest.raises(InvalidInput, match=rf"^00\(1\) {outside}"):
        psi_inverse(F(1, 3), S("00(1)"), cfg)          # below the expansion
    with pytest.raises(InvalidInput, match=rf"^1\(0\) {outside}"):
        psi_inverse(F(1, 3), S("1(0)"), cfg)           # above 0 1^inf


def test_block_codes_bound_each_prefix_block():
    """On every admissible word of p/q (q <= 40) at depths 1-8, the codes
    are exact.block_codes' streams, w 1^inf and w 0^inf clamped to [xs, 0
    1^inf], and print as w(1) and as w(0) or, clamped, as xs prints:
    payloads print the representation."""
    xs = binary_expansion(F(1, 4))                     # 01(0)
    assert block_codes(xs, (0, 1, 1)) == (S("011(1)"), S("011(0)"))
    assert block_codes(xs, (0, 1, 0)) == (S("010(1)"), S("01(0)"))
    assert not admissible(xs, S("00(1)")) and not admissible(xs, S("1(0)"))
    # a word outside [first |w| digits of xs, 0 1^(|w|-1)] has no codes
    for word in ((0, 0, 1), (1,), (1, 0, 0)):
        with pytest.raises(InvalidInput, match="no admissible word"):
            block_codes(xs, word)
    targets = {F(p, q) for q in range(3, 41) for p in range(1, (q + 1) // 2)}
    for x in targets:
        xs = binary_expansion(x)
        for depth in range(1, 9):
            for w in admissible_prefixes(x, depth):
                low, high = exact.block_codes(xs.key, w)
                codes = block_codes(xs, w)
                assert [exact.lex_cmp(c.key, o) for c, o in zip(
                    codes, (low, high))] == [0, 0]
                printed = (EpSequence(*low), xs if exact.lex_cmp(
                    high, xs.key) == 0 else EpSequence(*high))
                assert list(map(str, codes)) == list(map(str, printed))
                assert admissible(xs, codes[0]) and admissible(xs, codes[1])
                assert codes[1] <= codes[0]


def test_admissible_prefixes_examples():
    assert [word_str(w) for w in admissible_prefixes(F(1, 3), 1)] == ["0"]
    assert [word_str(w) for w in admissible_prefixes(F(1, 3), 2)] == ["01"]
    assert [word_str(w) for w in admissible_prefixes(F(1, 4), 3)] == ["011",
                                                                      "010"]


def test_admissible_prefixes_match_brute_force():
    """Every word of length d <= 8 with an admissible extension, in
    descending order: the words that exact.admissible_prefixes grows digit
    by digit, reversed. The per-word predicate agrees on every word."""
    for q in range(3, 13):
        for p in range(1, (q + 1) // 2):
            x = F(p, q)
            xs = binary_expansion(x)
            for d in range(1, 9):
                expected = exact.admissible_prefixes(x, d)[::-1]
                assert admissible_prefixes(x, d) == expected
                assert [w for w in product((1, 0), repeat=d)
                        if admissible_word(xs, w)] == expected


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


def test_cover_merge_compares_cells_on_one_grid():
    """Cells on different grids are merged by value: 3/8 at 2^-3 lies
    below the point 1/2 at 2^-1, though its integer is larger."""
    eighth, three_eighths = Enclosure((1, 1, 3), 128), Enclosure((3, 3, 3), 128)
    half, five_eighths = Enclosure((1, 1, 1), 128), Enclosure((5, 5, 3), 128)
    apart = (lambda_set.CoverInterval(eighth, three_eighths, None, None),
             lambda_set.CoverInterval(half, five_eighths, None, None))
    assert lambda_set._merge_touching(apart) == apart
    overlapping = (lambda_set.CoverInterval(eighth, half, None, None),
                   lambda_set.CoverInterval(three_eighths, five_eighths,
                                            None, None))
    assert lambda_set._merge_touching(overlapping) == (
        lambda_set.CoverInterval(eighth, five_eighths, None, None),)


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


def test_lipschitz_check(cfg):
    rep = lipschitz_check(F(1, 3), F(45, 100), 60, seed=3, cfg=cfg)
    assert rep.bound == F(1, 3) * F(1, 100) / F(45, 100)
    assert rep.violations == 0
    assert rep.min_ratio >= rep.bound
    assert rep.pairs == 60
    with pytest.raises(InvalidInput, match="^need x < lam < 1/2$"):
        lipschitz_check(F(1, 3), F(1, 4), 10)
    # two members below 6667/20000, 1/3 itself and 0111111111000 1^inf
    # near 0.3333496, make one certified pair, which is not counted ten
    # times
    with pytest.raises(HypothesisUnsatisfiable,
                       match="^1 distinct member pairs"):
        lipschitz_check(F(1, 3), F(6667, 20000), 10, seed=2)


def fraction_box_counts(x, window, exponents, cfg):
    """Box counts of the blocks box_dim_estimate keeps, each clipped to the
    window in Fractions and counted with floor: the walk's own order and
    size test, read through the Fraction views of the cells."""
    lo_w, hi_w = max(window[0], x), min(window[1], F(1, 2))
    threshold = F(1, 1 << max(exponents) + 2)
    xs, stack, segments = binary_expansion(x), [(0,)], []
    while stack:
        bits = stack.pop()
        iv = lambda_set._prefix_interval(x, bits, xs, cfg)
        s_lo, s_hi = iv.lo.lo, iv.hi.hi
        if s_hi < lo_w or s_lo > hi_w:
            continue
        if s_hi - s_lo <= threshold:
            segments.append((max(s_lo, lo_w), min(s_hi, hi_w)))
            continue
        stack += [bits + (d,) for d in (0, 1)
                  if admissible_word(xs, bits + (d,))]
    return [(F(1, 1 << e), len({n for a, b in segments for n in range(
                math.floor(a * (1 << e)), math.floor(b * (1 << e)) + 1)}))
            for e in sorted(exponents)], len(segments)


@pytest.mark.parametrize("x,window,exponents,bits", [
    # both window ends inside the set's hull, neither dyadic
    (F(1, 5), (F(2, 5), F(1, 2)), (6, 7, 8, 9), (96, 48)),
    (F(1, 3), (F(445551, 945473) - F(10064, 813097),
               F(445551, 945473) + F(10064, 813097)), (5, 6, 7), (128, 80)),
    (F(3, 7), (F(13, 28) - F(729, 28000), F(13, 28) + F(729, 28000)),
     (4, 5, 6), (128, 80)),
    # the window runs past 1/2 and below x: clipped to [x, 1/2]
    (F(2, 7), (F(1, 4), F(3, 5)), (3, 5, 6), (64, 30)),
    # each end 10^-6 inside a box edge at 2^-7 that a block crosses, so
    # leaving either end unclipped adds a box
    (F(1, 3), (F(25, 64) + F(1, 10 ** 6), F(29, 64) - F(1, 10 ** 6)),
     (4, 5, 7), (64, 30))])
def test_box_counts_match_fraction_clipping(x, window, exponents, bits):
    """Every count of the integer walk equals the count of its blocks
    clipped to the window in Fractions."""
    cfg = PrecisionConfig(*bits)
    report = box_dim_estimate(x, window, exponents, cfg)
    assert (list(report.points), report.segments) == fraction_box_counts(
        x, window, exponents, cfg)


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
