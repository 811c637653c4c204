"""Finite binary words and eventually periodic binary sequences.

A finite word is a tuple of digits 0 and 1. A sequence keeps the
representation it was built with, which is what it prints. Its identity is
fixed at construction as `key`, the stream's shortest preperiod and
primitive period: equality and hashing compare keys, and order follows the
digit stream; no value-level identifications are applied. Everything here
is immutable and pure.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DepthBudgetExceeded, InvalidInput
from .numerics import HALF, exact_str, memo

__all__ = [
    "EpSequence",
    "binary_expansion",
    "word_str",
    "n_index",
    "word_at_position",
    "zero_indices",
    "SEQ_01INF",
]

_SEQ_RE = re.compile(r"([01]*)\(([01]+)\)")


def word_str(w: tuple[int, ...]) -> str:
    """The digits of a word as text; the empty word prints empty."""
    return "".join(map(str, w))


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


class EpSequence:
    """An eventually periodic sequence preperiod . period^infinity.

    The stored period is not forced to be minimal: two representations of
    the same digit stream share one `key`, so they are equal, hash alike
    and compare in stream order. Immutable: memo tables key on sequences
    and share them between calls.
    """

    __slots__ = ("preperiod", "period", "key")
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    key: tuple[tuple[int, ...], tuple[int, ...]]

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise InvalidInput("period must be nonempty")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "key", _canonical_bits(preperiod, period))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return EpSequence, (self.preperiod, self.period)

    def __eq__(self, other):
        if other.__class__ is not EpSequence:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (f"EpSequence(preperiod={self.preperiod!r}, "
                f"period={self.period!r})")

    @classmethod
    def from_string(cls, text: str) -> "EpSequence":
        """Parse the `PRE(PER)` syntax, e.g. `01(0)`, `(01)`, `0(1)`."""
        m = _SEQ_RE.fullmatch(text.strip())
        if m is None:
            raise InvalidInput(f"not a sequence literal: {text!r}")
        return cls(*(tuple(map(int, g)) for g in m.groups()))

    def prefix(self, n: int) -> tuple[int, ...]:
        """The first n digits, in O(n) whatever the period's length."""
        u, v = self.preperiod, self.period
        if n <= len(u):
            return u[:n]
        reps, rest = divmod(n - len(u), len(v))
        return u + v * reps + v[:rest]

    def __le__(self, other: "EpSequence") -> bool:
        """Lexicographic order of the digit streams, decided at their first
        difference: prefixes of doubling length, from one digit past the
        longer preperiod, are compared until they differ. Streams with
        different keys differ within |pre a| + |pre b| + lcm(|per a|,
        |per b|) digits, so the work follows the first difference and
        never the lcm."""
        if not isinstance(other, EpSequence):
            return NotImplemented
        m = max(len(self.preperiod), len(other.preperiod)) + 1
        while True:
            a, b = self.prefix(m), other.prefix(m)
            if a != b:
                return a < b
            if self.key == other.key:
                return True
            m *= 2

    def __str__(self) -> str:
        return f"{word_str(self.preperiod)}({word_str(self.period)})"


SEQ_01INF = EpSequence((0,), (1,))

# Most digits of an expansion, preperiod plus period: a root's degree.
MAX_DIGITS = 1 << 14


@memo
def binary_expansion(x: Fraction) -> EpSequence:
    """Greedy base-1/2 coding of x; starts with 0, never ends in 1^inf.

    Raises DepthBudgetExceeded when the coding has more than MAX_DIGITS
    digits before its period closes.
    """
    x = Fraction(x)
    if not 0 < x < HALF:
        raise InvalidInput(f"x must lie in (0, 1/2): {exact_str(x)}")
    # For x = p/q in lowest terms, q = 2^a q', step n leaves the state
    # (p 2^n mod q) / q, whose numerator has n factors 2 while n < a; from
    # step a on it cycles with the order of 2 modulo q' (1 if q' = 1). So a
    # coding in budget has a + order <= MAX_DIGITS, and q < 2^(a + order).
    p, q = x.numerator, x.denominator
    a = (q & -q).bit_length() - 1
    if q.bit_length() <= MAX_DIGITS:
        start = r = (p << a) % q
        for n in range(a + 1, MAX_DIGITS + 1):
            r = (r << 1) % q
            if r == start:
                digits = tuple(map(int, format((p << n) // q, f"0{n}b")))
                return EpSequence(digits[:a], digits[a:])
    raise DepthBudgetExceeded(
        f"more than {MAX_DIGITS} digits in the binary expansion of "
        f"{exact_str(x)}")


def n_index(word: tuple[int, ...]) -> int:
    """Position of a word in the length-then-lex enumeration of {0,1}*.

    Equals the integer whose binary digits are `1` followed by the word,
    so the empty word sits at position 1 and length-q words fill
    [2^q, 2^(q+1) - 1].
    """
    n = 1
    for b in word:
        n = (n << 1) | b
    return n


def word_at_position(position: int) -> tuple[int, ...]:
    """Inverse of n_index."""
    if position < 1:
        raise InvalidInput("positions start at 1")
    return tuple(map(int, bin(position)[3:]))


def zero_indices(s: EpSequence, count: int) -> list[int]:
    """First `count` indices n >= 2 with digit 0, in ascending order.

    Index 1 is excluded by convention: the constructions that consume these
    indices prepend a digit-1 switch at position n and need the switched
    sequence to stay below 0 1^inf, which fails at n = 1.
    """
    if count < 1:
        raise InvalidInput("count must be positive")
    # each period supplies `zeros` zeros, one period more covers index 1;
    # with no zero in the period only the preperiod can supply them
    zeros = s.period.count(0)
    periods = count // zeros + 2 if zeros else 0
    digits = s.prefix(len(s.preperiod) + len(s.period) * periods)
    out = [n for n, d in enumerate(digits[1:], 2) if d == 0][:count]
    if len(out) < count:
        raise InvalidInput(f"{s} has fewer than {count} zeros at n >= 2")
    return out
