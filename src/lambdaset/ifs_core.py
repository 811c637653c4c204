"""The two-branch IFS {t -> lam*t, t -> lam*t + 1 - lam}, its coding map,
the coding map's derivative in the contraction ratio, and the greedy digit
algorithm used as an exact membership test for rational inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NeedsLargerTruncation, OutOfRange
from .numerics import Enclosure
from .seqcode import SEQ_ZERO, EpSequence, Ordering, Word, lex_compare

__all__ = [
    "Member",
    "NotMember",
    "Unresolved",
    "GreedyOutcome",
    "apply_branch",
    "pi_eval",
    "pi_derivative",
    "greedy_digits",
    "membership",
]

Numeric = Union[Fraction, Enclosure]

HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class Member:
    """Digit cycle detected; the full eventually periodic coding is known."""

    coding: EpSequence


@dataclass(frozen=True, slots=True)
class NotMember:
    """The orbit landed in the central gap at this 1-based step."""

    reject_step: int


@dataclass(frozen=True, slots=True)
class Unresolved:
    """No cycle and no rejection within the step budget."""

    digits: Word


GreedyOutcome = Union[Member, NotMember, Unresolved]


def apply_branch(d: int, lam: Numeric, t: Numeric) -> Numeric:
    """One IFS branch: lam*t + d*(1 - lam)."""
    if d not in (0, 1):
        raise ValueError("digit must be 0 or 1")
    if isinstance(lam, Enclosure) or isinstance(t, Enclosure):
        if not isinstance(lam, Enclosure):
            lam = Enclosure.from_fraction(Fraction(lam), t.bits)
        if not isinstance(t, Enclosure):
            t = Enclosure.from_fraction(Fraction(t), lam.bits)
        out = lam * t
        if d:
            out = out + (Enclosure.exact_int(1, lam.bits) - lam)
        return out
    return lam * t + d * (1 - lam)


def _poly_fraction(bits: tuple[int, ...], lam: Fraction) -> Fraction:
    """sum of bits[n-1] * lam^(n-1), via Horner."""
    acc = Fraction(0)
    for b in reversed(bits):
        acc = acc * lam + b
    return acc


def _poly_enclosure(bits: tuple[int, ...], lam: Enclosure) -> Enclosure:
    acc = Enclosure.exact_int(0, lam.bits)
    one = Enclosure.exact_int(1, lam.bits)
    for b in reversed(bits):
        acc = acc * lam
        if b:
            acc = acc + one
    return acc


def pi_eval(s: EpSequence, lam: Numeric) -> Numeric:
    """Value of the coding map at an eventually periodic sequence.

    Uses the closed form (1-lam) * [P_u(lam) + lam^|u| * P_v(lam) / (1 - lam^|v|)]
    with u the preperiod and v the period; exact on Fractions and
    containment-sound on Enclosures.
    """
    u, v = s.preperiod.bits, s.period.bits
    if isinstance(lam, Enclosure):
        if lam.lo.m < 0 or lam.hi.cmp_fraction(Fraction(1)) >= 0:
            raise OutOfRange("contraction ratio enclosure must lie in [0, 1)")
        one = Enclosure.exact_int(1, lam.bits)
        per = _poly_enclosure(v, lam).div(one - lam ** len(v))
        total = _poly_enclosure(u, lam) + lam ** len(u) * per
        return (one - lam) * total
    if not 0 <= lam < 1:
        raise OutOfRange("contraction ratio must lie in [0, 1)")
    per = _poly_fraction(v, lam) / (1 - lam ** len(v))
    return (1 - lam) * (_poly_fraction(u, lam) + lam ** len(u) * per)


def pi_derivative(s: EpSequence, lam: Numeric, truncation: int) -> Enclosure:
    """Enclosure of d/dlam of the coding map value at a fixed sequence.

    Sums ((n-1) - n*lam) * lam^(n-2) over digit-1 positions n in [2, truncation]
    and closes with the certified tail bound
    sum_{n > T} (n-1) lam^(n-2) = lam^(T-1) (T (1-lam) + lam) / (1-lam)^2,
    evaluated at the upper end of lam. Requires a sequence starting with 0
    (all sequences in an admissible window do) and strictly above 0^inf.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    if s.digit(1) != 0 or lex_compare(s, SEQ_ZERO) is not Ordering.GREATER:
        raise OutOfRange("sequence must start with 0 and exceed 0^inf")
    if not isinstance(lam, Enclosure):
        lam = Enclosure.from_fraction(Fraction(lam), 128)
    if lam.lo.m < 0 or lam.hi.cmp_fraction(HALF) > 0:
        raise OutOfRange("contraction ratio must lie in [0, 1/2]")
    bits = lam.bits
    one = Enclosure.exact_int(1, bits)
    acc = Enclosure.exact_int(0, bits)
    power = one  # lam^(n-2)
    for n in range(2, truncation + 1):
        if s.digit(n):
            coeff = (Enclosure.exact_int(n - 1, bits)
                     - lam * Enclosure.exact_int(n, bits))
            acc = acc + coeff * power
        power = power * lam
    z = Enclosure.point(lam.hi, bits)
    t = Enclosure.exact_int(truncation, bits)
    tail_hi = (z ** (truncation - 1) * (t * (one - z) + z)).div((one - z) ** 2).hi
    result = Enclosure(acc.lo, (acc.hi + tail_hi).round(bits, True), bits)
    if result.lo.m <= 0:
        raise NeedsLargerTruncation(
            f"positivity not certified at truncation {truncation}")
    return result


def greedy_digits(x: Fraction, lam: Fraction, max_steps: int = 256) -> GreedyOutcome:
    """Greedy coding of x in base lam by exact rational iteration.

    Digit 1 whenever the state reaches [1-lam, 1] (so the tie at the overlap
    point for lam = 1/2 resolves to 1, giving the lexicographically largest
    coding), digit 0 on [0, lam], rejection in the open central gap. A
    repeated exact state yields the eventually periodic coding.
    """
    x, lam = Fraction(x), Fraction(lam)
    if not 0 <= x <= 1:
        raise OutOfRange("x must lie in [0, 1]")
    if not 0 < lam <= HALF:
        raise OutOfRange("lam must lie in (0, 1/2]")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    threshold = 1 - lam
    y = x
    seen: dict[Fraction, int] = {y: 0}
    digits: list[int] = []
    for step in range(1, max_steps + 1):
        if y >= threshold:
            digits.append(1)
            y = (y - threshold) / lam
        elif y <= lam:
            digits.append(0)
            y = y / lam
        else:
            return NotMember(step)
        start = seen.get(y)
        if start is not None:
            return Member(EpSequence.from_digits(digits[:start], digits[start:]))
        seen[y] = step
    return Unresolved(Word(tuple(digits)))


def membership(x: Fraction, lam: Fraction, max_steps: int = 256) -> bool | None:
    """True / False when decided, None when unresolved within max_steps."""
    outcome = greedy_digits(x, lam, max_steps)
    if isinstance(outcome, Member):
        return True
    if isinstance(outcome, NotMember):
        return False
    return None
