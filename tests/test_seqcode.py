import pytest
from hypothesis import given, strategies as st

from lambdaset import seqcode
from lambdaset.errors import InvalidInput
from lambdaset.seqcode import (EpSequence, n_index, word_at_position,
                               zero_indices)
import exact

S = EpSequence.from_string


def bits(max_len):
    return st.lists(st.integers(0, 1), max_size=max_len).map(tuple)


sequences = st.builds(
    EpSequence,
    bits(6),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)


def stream(s, n):
    """The first n digits of s, read one at a time by exact.digit: the
    reference for order, equality and prefixes."""
    return tuple(exact.digit((s.preperiod, s.period), i)
                 for i in range(1, n + 1))


def variants(s, reps):
    """Other representations of the stream of s: the period unrolled, and
    the first period digit moved into the preperiod."""
    v = s.period
    return (EpSequence(s.preperiod, v * reps),
            EpSequence(s.preperiod + v[:1], v[1:] + v[:1]))


def test_parse_and_str_roundtrip():
    for text in ("01(0)", "(01)", "0(1)", "0111(0)"):
        assert str(S(text)) == text
    # a sequence prints the representation it was built with
    assert str(EpSequence((0, 1, 1), (1, 1))) == "011(11)"
    with pytest.raises(InvalidInput, match="^not a sequence literal: '01'$"):
        S("01")
    with pytest.raises(InvalidInput, match="^period must be nonempty$"):
        EpSequence((0,), ())


def test_lex_examples():
    assert S("0(1)") <= S("1(0)") and not S("1(0)") <= S("0(1)")
    assert S("010(0)") <= S("(01)") and not S("(01)") <= S("010(0)")
    assert S("(0)") <= S("(0)") and S("(0)") == S("(0)")


@given(bits(6), sequences, sequences)
def test_prefix_invariance(w, s, t):
    ws = EpSequence(w + s.preperiod, s.period)
    wt = EpSequence(w + t.preperiod, t.period)
    assert (ws <= wt) == (s <= t)
    assert (wt <= ws) == (t <= s)
    assert (ws == wt) == (s == t)


@given(sequences, sequences, st.integers(1, 3))
def test_period_unrolling_invariance(a, b, reps):
    """==, <= and hash agree with a digit-by-digit reference on every
    representation of both streams."""
    # past both preperiods (at most 7 digits) and a joint period (lcm 12 reps)
    n = 2 * 7 + 12 * reps
    for s in (a, *variants(a, reps)):
        assert s.prefix(n) == stream(s, n) == stream(a, n)
        assert s == a and hash(s) == hash(a) and s <= a <= s
        for t in (b, *variants(b, reps)):
            assert (s == t) == (stream(s, n) == stream(t, n))
            assert (s <= t) == (stream(s, n) <= stream(t, n))
            if s == t:
                assert hash(s) == hash(t)
    for short, long in (("0(1)", "011(1)"), ("(01)", "0(10)")):
        assert S(short) == S(long) and hash(S(short)) == hash(S(long))


long_sequences = st.builds(
    EpSequence,
    bits(20),
    st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple),
)


@given(long_sequences, long_sequences, st.integers(0, 40), st.booleans())
def test_order_matches_full_prefix_order(a, b, shared, swap):
    """The order of exact.lex_cmp, which reads both streams to their joint
    period; also when b repeats the first `shared` digits of a, so the
    first difference lies past several doublings of the compared prefix."""
    b = EpSequence(a.prefix(shared) + b.preperiod, b.period)
    if swap:
        a, b = b, a
    order = exact.lex_cmp((a.preperiod, a.period), (b.preperiod, b.period))
    assert (a <= b, b <= a) == (order <= 0, order >= 0)


def test_order_stops_at_the_first_difference(monkeypatch):
    """Periods of 1009 and 1013 digits have a joint period of over 10^6
    digits, but streams that differ at their third digit are ordered from
    prefixes of at most 4 digits."""
    a = EpSequence((), (0, 1, 0) + (1,) * 1006)
    b = EpSequence((), (0, 1, 1) + (0,) * 1010)
    lengths = []
    prefix = EpSequence.prefix
    monkeypatch.setattr(EpSequence, "prefix",
                        lambda s, n: lengths.append(n) or prefix(s, n))
    assert a <= b and not b <= a
    assert max(lengths) <= 4


def test_identity_is_computed_once(monkeypatch):
    """Building a sequence canonicalises it at most once; hashing, equality
    and dict lookups on sequences that exist already never do."""
    calls = []
    canonical_bits = seqcode._canonical_bits
    monkeypatch.setattr(seqcode, "_canonical_bits",
                        lambda u, v: calls.append(1) or canonical_bits(u, v))
    a, b = S("0(10)"), EpSequence((0, 1), (0, 1))
    assert len(calls) <= 2
    table = {a: 0}
    calls.clear()
    for _ in range(100):
        assert a == b and hash(a) == hash(b) and table[b] == 0
    assert not calls


def test_n_index_examples():
    assert n_index(()) == 1
    assert n_index((0,)) == 2
    assert n_index((1,)) == 3
    assert n_index((0, 1, 1)) == 11


def test_n_index_bijective_up_to_length_12():
    seen = {}
    for q in range(0, 13):
        lo, hi = 1 << q, (1 << (q + 1)) - 1
        values = set()
        for i in range(1 << q):
            w = tuple((i >> (q - 1 - j)) & 1 for j in range(q))
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
    with pytest.raises(InvalidInput,
                       match=r"^00\(1\) has fewer than 2 zeros at n >= 2$"):
        zero_indices(S("00(1)"), 2)
    with pytest.raises(InvalidInput,
                       match=r"^0\(1\) has fewer than 1 zeros at n >= 2$"):
        zero_indices(S("0(1)"), 1)


@given(sequences.filter(lambda s: 0 in s.key[1]),
       st.integers(1, 8))
def test_zero_indices_invariants(s, count):
    idx = zero_indices(s, count)
    assert len(idx) == count
    digits = stream(s, idx[-1])
    assert all(n >= 2 and digits[n - 1] == 0 for n in idx)
    assert [n for n in range(2, idx[-1] + 1) if digits[n - 1] == 0] == idx
