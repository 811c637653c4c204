import pytest
from hypothesis import given, strategies as st

from lambdaset.errors import PeriodAllOnes
from lambdaset.seqcode import (EpSequence, Ordering, Word, WORD_EPSILON,
                               lex_compare, n_index, word_at_position,
                               zero_indices)

S = EpSequence.from_string


def bits(max_len):
    return st.lists(st.integers(0, 1), max_size=max_len).map(tuple)


sequences = st.builds(
    EpSequence,
    st.builds(Word, bits(6)),
    st.builds(Word, st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)),
)


def test_parse_and_str_roundtrip():
    for text in ("01(0)", "(01)", "0(1)", "0111(0)"):
        assert str(S(text)) == text
    with pytest.raises(ValueError):
        S("01")
    with pytest.raises(ValueError):
        EpSequence(Word((0,)), Word(()))


def test_lex_examples():
    assert lex_compare(S("0(1)"), S("1(0)")) is Ordering.LESS
    assert lex_compare(S("(01)"), S("010(0)")) is Ordering.GREATER
    assert lex_compare(S("(0)"), S("(0)")) is Ordering.EQUAL


@given(sequences, sequences)
def test_lex_antisymmetric(a, b):
    ab, ba = lex_compare(a, b), lex_compare(b, a)
    assert ab is Ordering(-ba)


@given(sequences, sequences, sequences)
def test_lex_transitive(a, b, c):
    le = lambda u, v: lex_compare(u, v) is not Ordering.GREATER
    if le(a, b) and le(b, c):
        assert le(a, c)


@given(bits(6), sequences, sequences)
def test_prefix_invariance(prefix, s, t):
    w = Word(prefix)
    assert (lex_compare(EpSequence(w + s.preperiod, s.period),
                        EpSequence(w + t.preperiod, t.period))
            is lex_compare(s, t))


@given(sequences, st.integers(1, 3))
def test_period_unrolling_invariance(s, reps):
    unrolled = EpSequence(s.preperiod, Word(s.period.bits * reps))
    assert lex_compare(s, unrolled) is Ordering.EQUAL
    assert s == unrolled and hash(s) == hash(unrolled)
    # the same stream with its first period digit moved into the preperiod
    v = s.period.bits
    absorbed = EpSequence(s.preperiod + Word(v[:1]), Word(v[1:] + v[:1]))
    assert s == absorbed and hash(s) == hash(absorbed)
    for short, long in (("0(1)", "011(1)"), ("(01)", "0(10)")):
        assert S(short) == S(long) and hash(S(short)) == hash(S(long))


def test_n_index_examples():
    assert n_index(WORD_EPSILON) == 1
    assert n_index(Word.from_string("0")) == 2
    assert n_index(Word.from_string("1")) == 3
    assert n_index(Word.from_string("011")) == 11


def test_n_index_bijective_up_to_length_12():
    seen = {}
    for q in range(0, 13):
        lo, hi = 1 << q, (1 << (q + 1)) - 1
        values = set()
        for i in range(1 << q):
            w = Word(tuple((i >> (q - 1 - j)) & 1 for j in range(q)))
            n = n_index(w)
            assert lo <= n <= hi
            assert n not in seen
            seen[n] = w
            values.add(n)
            assert word_at_position(n) == w
        assert values == set(range(lo, hi + 1))


def test_zero_indices_examples():
    assert zero_indices(S("010(0)"), 4) == [3, 4, 5, 6]
    assert zero_indices(S("(01)"), 3) == [3, 5, 7]
    assert zero_indices(S("00(1)"), 1) == [2]
    with pytest.raises(PeriodAllOnes):
        zero_indices(S("00(1)"), 2)
    with pytest.raises(PeriodAllOnes):
        zero_indices(S("0(1)"), 1)


@given(sequences.filter(lambda s: 0 in s.canonical().period.bits),
       st.integers(1, 8))
def test_zero_indices_invariants(s, count):
    idx = zero_indices(s, count)
    assert len(idx) == count
    assert all(n >= 2 and s.digit(n) == 0 for n in idx)
    assert all(a < b for a, b in zip(idx, idx[1:]))
