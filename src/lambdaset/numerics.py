"""Exact rationals, dyadic enclosures with outward rounding, and certified
monotone bisection.

A Dyadic is an integer pair (m, e) standing for m * 2**e. An Enclosure is a
pair of dyadics [lo, hi] together with a working precision in bits; every
arithmetic operation rounds lo toward -inf and hi toward +inf, so containment
of the exact value is preserved through arbitrary compositions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, auto
from fractions import Fraction
from math import isqrt
from typing import Callable, Union

from .errors import Inconclusive, NoSignChange, StepLimit

__all__ = [
    "parse_rational",
    "Dyadic",
    "Enclosure",
    "PrecisionConfig",
    "DEFAULT_CONFIG",
    "bisect_monotone",
]


def parse_rational(text: str) -> Fraction:
    """Parse `p/q`, a decimal string (exactly), or an integer literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _round_dir(m: int, e: int, bits: int, up: bool) -> tuple[int, int]:
    """Round m*2**e to at most `bits` mantissa bits, toward +-inf."""
    if m == 0:
        return 0, 0
    shift = abs(m).bit_length() - bits
    if shift <= 0:
        return m, e
    if up:
        return -((-m) >> shift), e + shift
    return m >> shift, e + shift


class Dyadic:
    """Immutable dyadic rational m * 2**e, stored in canonical form."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            e = 0
        else:
            tz = (m & -m).bit_length() - 1
            if tz:
                m >>= tz
                e += tz
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)

    def __setattr__(self, *args):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int, up: bool) -> "Dyadic":
        """Directed conversion: nearest dyadic at `bits` on the safe side."""
        num, den = q.numerator, q.denominator
        if den & (den - 1) == 0:
            d = cls(num, -(den.bit_length() - 1))
            if abs(d.m).bit_length() <= bits:
                return d
        shift = bits + den.bit_length() - abs(num).bit_length() + 2
        shift = max(shift, 0)
        scaled = num << shift
        mant = -((-scaled) // den) if up else scaled // den
        return cls(*_round_dir(mant, -shift, bits, up))

    def to_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def round(self, bits: int, up: bool) -> "Dyadic":
        return Dyadic(*_round_dir(self.m, self.e, bits, up))

    # exact arithmetic -----------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) - (other.m << (other.e - e)), e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.m * other.m, self.e + other.e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def half(self) -> "Dyadic":
        return Dyadic(self.m, self.e - 1)

    # comparisons ----------------------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        e = min(self.e, other.e)
        a = self.m << (self.e - e)
        b = other.m << (other.e - e)
        return (a > b) - (a < b)

    def cmp_fraction(self, q: Fraction) -> int:
        num, den = q.numerator, q.denominator
        if self.e >= 0:
            a, b = (self.m * den) << self.e, num
        else:
            a, b = self.m * den, num << -self.e
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self):
        return hash((self.m, self.e))

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"

    def decimal(self) -> str:
        """Exact decimal string of the stored value."""
        m, e = self.m, self.e
        if m == 0:
            return "0"
        sign = "-" if m < 0 else ""
        m = abs(m)
        if e >= 0:
            return sign + str(m << e)
        digits = str(m * 5 ** (-e)).rjust(-e + 1, "0")
        whole, frac = digits[:e], digits[e:]
        frac = frac.rstrip("0")
        return sign + whole + ("." + frac if frac else "")


DYADIC_ZERO = Dyadic(0)
DYADIC_ONE = Dyadic(1)
DYADIC_HALF = Dyadic(1, -1)


def _div_dir(a: Dyadic, b: Dyadic, bits: int, up: bool) -> Dyadic:
    """Directed a / b at `bits`; b must be nonzero."""
    if a.m == 0:
        return DYADIC_ZERO
    sign = 1 if (a.m > 0) == (b.m > 0) else -1
    num, den = abs(a.m), abs(b.m)
    shift = max(bits + den.bit_length() - num.bit_length() + 2, 0)
    scaled = num << shift
    # ceil on the magnitude when the directed result moves away from zero
    if (up and sign > 0) or (not up and sign < 0):
        q = -((-scaled) // den)
    else:
        q = scaled // den
    return Dyadic(*_round_dir(sign * q, a.e - b.e - shift, bits, up))


def _sqrt_dir(a: Dyadic, bits: int, up: bool) -> Dyadic:
    """Directed square root of a nonnegative dyadic."""
    if a.m < 0:
        raise ValueError("sqrt of negative dyadic")
    if a.m == 0:
        return DYADIC_ZERO
    shift = max(2 * bits + 2 - a.m.bit_length(), 0)
    if (a.e - shift) & 1:
        shift += 1
    n = a.m << shift
    r = isqrt(n)
    if up and r * r != n:
        r += 1
    return Dyadic(*_round_dir(r, (a.e - shift) // 2, bits, up))


class Enclosure:
    """Certified interval [lo, hi] of dyadics at a fixed working precision."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: Dyadic, hi: Dyadic, bits: int):
        if lo > hi:
            raise ValueError(f"enclosure endpoints out of order: {lo!r} > {hi!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *args):
        raise AttributeError("Enclosure is immutable")

    @classmethod
    def point(cls, d: Dyadic, bits: int) -> "Enclosure":
        return cls(d, d, bits)

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int) -> "Enclosure":
        return cls(Dyadic.from_fraction(q, bits, False),
                   Dyadic.from_fraction(q, bits, True), bits)

    @classmethod
    def exact_int(cls, n: int, bits: int) -> "Enclosure":
        return cls.point(Dyadic(n), bits)

    def width(self) -> Fraction:
        return (self.hi - self.lo).to_fraction()

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).half()

    def mid_fraction(self) -> Fraction:
        return self.midpoint().to_fraction()

    def contains(self, q: Fraction) -> bool:
        return self.lo.cmp_fraction(q) <= 0 <= self.hi.cmp_fraction(q)

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def certainly_below(self, q: Fraction) -> bool:
        return self.hi.cmp_fraction(q) < 0

    def certainly_above(self, q: Fraction) -> bool:
        return self.lo.cmp_fraction(q) > 0

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "Enclosure") -> "Enclosure":
        bits = min(self.bits, other.bits)
        return Enclosure((self.lo + other.lo).round(bits, False),
                         (self.hi + other.hi).round(bits, True), bits)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        bits = min(self.bits, other.bits)
        return Enclosure((self.lo - other.hi).round(bits, False),
                         (self.hi - other.lo).round(bits, True), bits)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo, self.bits)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        bits = min(self.bits, other.bits)
        products = [self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi]
        return Enclosure(min(products).round(bits, False),
                         max(products).round(bits, True), bits)

    def div(self, other: "Enclosure") -> "Enclosure":
        bits = min(self.bits, other.bits)
        if other.lo.m <= 0 <= other.hi.m:
            raise ZeroDivisionError("denominator enclosure contains zero")
        corners = [(self.lo, other.lo), (self.lo, other.hi),
                   (self.hi, other.lo), (self.hi, other.hi)]
        lo = min(_div_dir(a, b, bits, False) for a, b in corners)
        hi = max(_div_dir(a, b, bits, True) for a, b in corners)
        return Enclosure(lo, hi, bits)

    def __pow__(self, n: int) -> "Enclosure":
        if n < 0:
            raise ValueError("negative exponents are not supported")
        if n == 0:
            return Enclosure(DYADIC_ONE, DYADIC_ONE, self.bits)
        bits = self.bits
        if self.lo.m >= 0:
            return Enclosure(_pow_dir(self.lo, n, bits, False),
                             _pow_dir(self.hi, n, bits, True), bits)
        if self.hi.m <= 0:
            lo = _pow_dir(-self.lo, n, bits, True)
            hi = _pow_dir(-self.hi, n, bits, False)
            if n % 2:
                return Enclosure(-lo, -hi, bits)
            return Enclosure(hi, lo, bits)
        # straddles zero
        big = max(-self.lo, self.hi)
        if n % 2 == 0:
            return Enclosure(DYADIC_ZERO, _pow_dir(big, n, bits, True), bits)
        return Enclosure(-_pow_dir(-self.lo, n, bits, True),
                         _pow_dir(self.hi, n, bits, True), bits)

    def sqrt(self) -> "Enclosure":
        return Enclosure(_sqrt_dir(self.lo, self.bits, False),
                         _sqrt_dir(self.hi, self.bits, True), self.bits)

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi),
                         min(self.bits, other.bits))

    def __repr__(self):
        return f"Enclosure[{self.lo.decimal()}, {self.hi.decimal()}]@{self.bits}"

    def to_json(self) -> dict:
        return {"lo": self.lo.decimal(), "hi": self.hi.decimal(), "bits": self.bits}


def _pow_dir(base: Dyadic, n: int, bits: int, up: bool) -> Dyadic:
    """Directed power of a nonnegative dyadic via square-and-multiply."""
    if base.m < 0:
        raise ValueError("negative base in directed power")
    guard = bits + 8
    result = DYADIC_ONE
    b = base
    while n:
        if n & 1:
            result = (result * b).round(guard, up)
        n >>= 1
        if n:
            b = (b * b).round(guard, up)
    return result.round(bits, up)


@dataclass(frozen=True, slots=True)
class PrecisionConfig:
    precision_bits: int = 128
    max_bisection_steps: int = 4096
    target_width: Fraction = Fraction(1, 1 << 80)

    def __post_init__(self):
        if self.precision_bits < 32:
            raise ValueError("precision_bits must be at least 32")
        if self.target_width <= 0:
            raise ValueError("target_width must be positive")
        if self.max_bisection_steps < 1:
            raise ValueError("max_bisection_steps must be positive")

    def with_(self, **kwargs) -> "PrecisionConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = PrecisionConfig()


class _Side(Enum):
    BELOW = auto()
    ABOVE = auto()
    EXACT = auto()
    CONTAINS = auto()


def _classify(value: Enclosure, target: Fraction) -> _Side:
    if value.certainly_below(target):
        return _Side.BELOW
    if value.certainly_above(target):
        return _Side.ABOVE
    if value.lo == value.hi and value.lo.cmp_fraction(target) == 0:
        return _Side.EXACT
    return _Side.CONTAINS


# interior split points tried per step: 1/2, then 3/8 and 5/8 as fallbacks
_SPLITS = ((1, 1), (3, 3), (5, 3))


def bisect_monotone(
    f: Callable[[Enclosure], Enclosure],
    bracket: Enclosure,
    target: Union[Fraction, int],
    cfg: PrecisionConfig = DEFAULT_CONFIG,
    *,
    increasing: bool | None = None,
) -> Enclosure:
    """Certified enclosure of the unique root of f = target inside bracket.

    `f` must be an enclosure-sound evaluator of a function strictly monotone
    on the bracket. The bracket must straddle the target; a root sitting
    exactly at a bracket endpoint is returned as a point enclosure. When the
    endpoint evaluations cannot certify the direction of monotonicity the
    caller may supply it via `increasing`.
    """
    target = Fraction(target)
    a, b = bracket.lo, bracket.hi
    if not a < b:
        raise ValueError("bracket must have positive width")
    bits = cfg.precision_bits
    ca = _classify(f(Enclosure.point(a, bits)), target)
    cb = _classify(f(Enclosure.point(b, bits)), target)
    if ca is _Side.EXACT:
        return Enclosure.point(a, bits)
    if cb is _Side.EXACT:
        return Enclosure.point(b, bits)
    if increasing is None:
        if ca is _Side.CONTAINS and cb is _Side.CONTAINS:
            raise NoSignChange("cannot infer direction: both endpoint values "
                               "contain the target")
        if ca is cb:
            raise NoSignChange(f"no straddle: both endpoints are {ca.name}")
        increasing = (ca is _Side.BELOW) or (cb is _Side.ABOVE)
    low_end, high_end = (ca, cb) if increasing else (cb, ca)
    if low_end is _Side.ABOVE or high_end is _Side.BELOW:
        raise NoSignChange("bracket does not straddle the target")

    steps = 0
    while (b - a).to_fraction() > cfg.target_width:
        steps += 1
        if steps > cfg.max_bisection_steps:
            raise StepLimit(f"no convergence in {cfg.max_bisection_steps} steps")
        gap = b - a
        progressed = False
        for num, shift in _SPLITS:
            c = a + Dyadic(gap.m * num, gap.e - shift)
            side = _classify(f(Enclosure.point(c, bits)), target)
            if side is _Side.EXACT:
                return Enclosure.point(c, bits)
            if side is _Side.CONTAINS:
                continue
            if (side is _Side.BELOW) == increasing:
                a = c
            else:
                b = c
            progressed = True
            break
        if not progressed:
            raise Inconclusive("all split points undecidable at "
                               f"{bits} bits; raise precision_bits")
    return Enclosure(a, b, bits)
