"""Exact rationals, certified dyadic cells, and the precision settings of
root solving.

A Dyadic is an integer pair (m, e) standing for m * 2**e. An Enclosure is a
pair of dyadics [lo, hi] together with a working precision in bits: the cell
a root solve certifies, or a rational rounded outward once. Enclosures carry
no arithmetic; callers compute with the exact Fractions of the endpoints and
round outward only the value they store or print.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = [
    "parse_rational",
    "Dyadic",
    "Enclosure",
    "PrecisionConfig",
    "DEFAULT_CONFIG",
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

    # exact arithmetic -----------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) - (other.m << (other.e - e)), e)

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

    def __repr__(self):
        return f"Enclosure[{self.lo.decimal()}, {self.hi.decimal()}]@{self.bits}"

    def to_json(self) -> dict:
        return {"lo": self.lo.decimal(), "hi": self.hi.decimal(), "bits": self.bits}


@dataclass(frozen=True, slots=True)
class PrecisionConfig:
    precision_bits: int = 128
    target_width: Fraction = Fraction(1, 1 << 80)

    def __post_init__(self):
        if self.precision_bits < 32:
            raise ValueError("precision_bits must be at least 32")
        if self.target_width <= 0:
            raise ValueError("target_width must be positive")

    def with_(self, **kwargs) -> "PrecisionConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = PrecisionConfig()
