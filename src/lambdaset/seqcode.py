"""Finite binary words and eventually periodic binary sequences.

Sequences are syntactic objects: two sequences are equal exactly when they
agree digit by digit, and no value-level identifications are applied.
Everything here is immutable and pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from math import lcm

from .errors import PeriodAllOnes

__all__ = [
    "Word",
    "WORD_EPSILON",
    "EpSequence",
    "Ordering",
    "lex_compare",
    "lex_min",
    "lex_max",
    "n_index",
    "word_at_position",
    "zero_indices",
    "SEQ_01INF",
]


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True, slots=True)
class Word:
    """A finite string over {0,1}; the empty word is allowed."""

    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"word digits must be 0 or 1: {self.bits!r}")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        text = text.strip()
        if text in ("", "e", "eps"):
            return cls(())
        if not re.fullmatch(r"[01]+", text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(tuple(int(c) for c in text))

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.bits + other.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


WORD_EPSILON = Word(())
_SEQ_RE = re.compile(r"([01]*)\(([01]+)\)")


def _canonical_bits(u: tuple[int, ...], v: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest preperiod and primitive period of the stream u v^inf."""
    # primitive period: smallest divisor block that tiles the period
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v == v[:d] * (n // d):
            v = v[:d]
            break
    # absorb preperiod digits that already match the periodic tail
    while u and u[-1] == v[-1]:
        v = (v[-1],) + v[:-1]
        u = u[:-1]
    return u, v


@dataclass(frozen=True, slots=True)
class EpSequence:
    """An eventually periodic sequence preperiod . period^infinity.

    The stored period is not forced to be minimal; all operations are
    invariant under unrolling (two representations of the same digit stream
    compare Equal and hash alike via the canonical form).
    """

    preperiod: Word
    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")

    @classmethod
    def from_string(cls, text: str) -> "EpSequence":
        """Parse the `PRE(PER)` syntax, e.g. `01(0)`, `(01)`, `0(1)`."""
        m = _SEQ_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a sequence literal: {text!r}")
        return cls(Word.from_string(m.group(1)) if m.group(1) else WORD_EPSILON,
                   Word.from_string(m.group(2)))

    @classmethod
    def from_digits(cls, preperiod, period) -> "EpSequence":
        return cls(Word(tuple(preperiod)), Word(tuple(period)))

    def digit(self, n: int) -> int:
        """Digit at 1-based index n."""
        if n < 1:
            raise IndexError("indices start at 1")
        u = self.preperiod.bits
        if n <= len(u):
            return u[n - 1]
        v = self.period.bits
        return v[(n - len(u) - 1) % len(v)]

    def prefix(self, n: int) -> Word:
        return Word(tuple(self.digit(i) for i in range(1, n + 1)))

    def shift(self, n: int = 1) -> "EpSequence":
        """Drop the first n digits."""
        u, v = self.preperiod.bits, self.period.bits
        if n <= len(u):
            return EpSequence(Word(u[n:]), self.period)
        k = (n - len(u)) % len(v)
        return EpSequence(WORD_EPSILON, Word(v[k:] + v[:k]))

    def canonical(self) -> "EpSequence":
        """Shortest preperiod and primitive period representing this stream."""
        u, v = _canonical_bits(self.preperiod.bits, self.period.bits)
        return EpSequence(Word(u), Word(v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpSequence):
            return NotImplemented
        # equal representations first: memo lookups compare a fresh
        # sequence with the stored one, which is nearly always built alike
        return ((self.preperiod.bits, self.period.bits)
                == (other.preperiod.bits, other.period.bits)
                or lex_compare(self, other) is Ordering.EQUAL)

    def __hash__(self) -> int:
        return hash(_canonical_bits(self.preperiod.bits, self.period.bits))

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"


SEQ_01INF = EpSequence(Word((0,)), Word((1,)))


def _decision_bound(a: EpSequence, b: EpSequence) -> int:
    return len(a.preperiod) + len(b.preperiod) + lcm(len(a.period), len(b.period))


def lex_compare(a: EpSequence, b: EpSequence) -> Ordering:
    """Lexicographic order of the represented infinite digit streams.

    Decided after at most |pre(a)| + |pre(b)| + lcm(|per(a)|, |per(b)|)
    digits: beyond that bound both streams are jointly periodic.
    """
    for n in range(1, _decision_bound(a, b) + 1):
        da, db = a.digit(n), b.digit(n)
        if da != db:
            return Ordering.LESS if da < db else Ordering.GREATER
    return Ordering.EQUAL


def lex_le(a: EpSequence, b: EpSequence) -> bool:
    return lex_compare(a, b) is not Ordering.GREATER


def lex_min(a: EpSequence, b: EpSequence) -> EpSequence:
    return a if lex_le(a, b) else b


def lex_max(a: EpSequence, b: EpSequence) -> EpSequence:
    return b if lex_le(a, b) else a


def n_index(word: Word) -> int:
    """Position of a word in the length-then-lex enumeration of {0,1}*.

    Equals the integer whose binary digits are `1` followed by the word,
    so the empty word sits at position 1 and length-q words fill
    [2^q, 2^(q+1) - 1].
    """
    n = 1
    for b in word.bits:
        n = (n << 1) | b
    return n


def word_at_position(position: int) -> Word:
    """Inverse of n_index."""
    if position < 1:
        raise ValueError("positions start at 1")
    return Word(tuple(int(c) for c in bin(position)[3:]))


def zero_indices(s: EpSequence, count: int) -> list[int]:
    """First `count` indices n >= 2 with digit 0, in ascending order.

    Index 1 is excluded by convention: the constructions that consume these
    indices prepend a digit-1 switch at position n and need the switched
    sequence to stay below 0 1^inf, which fails at n = 1.
    """
    if count < 1:
        raise ValueError("count must be positive")
    canonical = s.canonical()
    # with an all-ones tail only the preperiod can supply zeros
    bound = None if 0 in canonical.period.bits else len(canonical.preperiod) + 1
    out: list[int] = []
    n = 2
    while len(out) < count:
        if bound is not None and n > bound:
            raise PeriodAllOnes(f"{s} has fewer than {count} zeros at n >= 2")
        if s.digit(n) == 0:
            out.append(n)
        n += 1
    return out
