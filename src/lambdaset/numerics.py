"""Exact rationals, certified dyadic cells, and the precision settings of
root solving.

An Enclosure is a pair [lo, hi] of exact Fractions whose denominators are
powers of two, together with a working precision in bits: the cell a root
solve certifies, or a rational rounded outward once by round_dyadic.
Enclosures carry no arithmetic; callers compute with the endpoints exactly
and round outward only the value they store. Endpoints print as exact
decimals, and every rational a payload or an error message holds prints
through exact_str, which also prints integers past the interpreter's
integer-to-string digit limit.

It also holds the registry the CLI manifest reads: `memo`, the one way to
memoise, lists each table in MEMO_TABLES, and a module adds counters to
COUNTERS.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

__all__ = [
    "CACHE_SIZE",
    "MEMO_TABLES",
    "COUNTERS",
    "memo",
    "parse_rational",
    "exact_str",
    "round_dyadic",
    "Enclosure",
    "PrecisionConfig",
    "DEFAULT_CONFIG",
]


# Bound of every memo table in the package: expansions, root solves,
# pieces, gap records, per-piece ratios and bounds, and the values of
# thickness reports. The 200 calls of the seed-1 session-ledger benchmark
# leave 835 root solves, 140 gap records, 19 pieces (and 19 per-piece ratio
# pairs), 16 bound triples and 26 report values (its 134 reports have 26
# distinct truncations), so nothing is evicted there; a long-lived process
# stays bounded.
CACHE_SIZE = 4096

# Every memo table of a loaded module, as "module.function", and every
# group of counters, as name -> {counter: count so far in this process}.
MEMO_TABLES: dict[str, Callable] = {}
COUNTERS: dict[str, dict[str, int]] = {}


def memo(fn: Callable) -> Callable:
    """`lru_cache(maxsize=CACHE_SIZE)` of fn, listed in MEMO_TABLES."""
    table = lru_cache(maxsize=CACHE_SIZE)(fn)
    module = fn.__module__.removeprefix(f"{__package__}.")
    MEMO_TABLES[f"{module}.{fn.__name__}"] = table
    return table


# Largest exponent magnitude a decimal may have: the interpreter's default
# integer-to-string digit limit, so that a decimal names no more digits
# than a `p/q` may. Fraction computes 10^|e| before anything else, which
# for |e| = 10^7 takes seconds.
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse `p/q`, a decimal string (exactly), or an integer literal. A
    decimal exponent above MAX_EXPONENT in magnitude is refused."""
    try:
        _, e, exponent = text.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "")
        if e and (len(digits) > MAX_EXPONENT
                  or digits.isdecimal() and int(digits) > MAX_EXPONENT):
            raise ValueError("exponent out of range")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


# Integers of at most this many bits print with plain str(): about 600
# digits, under the smallest integer-to-string limit the interpreter accepts
# (640 digits; the default is 4300).
_STR_BITS = 2000


def exact_str(q: int | Fraction) -> str:
    """What str() prints for an integer or a Fraction ("p" or "p/q"), also
    past the interpreter's integer-to-string digit limit: a longer integer
    is split at a power of ten and its halves are printed the same way."""
    if isinstance(q, Fraction):
        num, den = q.numerator, q.denominator
        return (exact_str(num) if den == 1
                else f"{exact_str(num)}/{exact_str(den)}")
    if q.bit_length() <= _STR_BITS:
        return str(q)
    if q < 0:
        return "-" + exact_str(-q)
    # 10^k has about half of q's bits; low < 10^k is padded to k digits
    k = q.bit_length() * 3 // 20
    high, low = divmod(q, 10 ** k)
    return exact_str(high) + exact_str(low).rjust(k, "0")


def round_dyadic(q: Fraction, bits: int, up: bool) -> Fraction:
    """Nearest dyadic rational with at most `bits` mantissa bits on the
    safe side of q: at or above it when `up`, at or below it otherwise.
    A dyadic q that fits is returned unchanged."""
    num, den = q.numerator, q.denominator
    shift = max(bits + den.bit_length() - abs(num).bit_length() + 2, 0)
    scaled = num << shift
    mant = -((-scaled) // den) if up else scaled // den
    # round the mantissa itself to `bits` bits, toward the same side
    extra = abs(mant).bit_length() - bits
    if extra > 0:
        mant = -((-mant) >> extra) if up else mant >> extra
        shift -= extra
    return Fraction(mant << -shift) if shift < 0 else Fraction(mant, 1 << shift)


def _decimal(q: Fraction) -> str:
    """Exact decimal string of a dyadic rational."""
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"not a dyadic rational: {exact_str(q)}")
    k = den.bit_length() - 1
    if k == 0:
        return exact_str(q.numerator)
    sign = "-" if q < 0 else ""
    # the numerator is odd, so the digits of num * 5^k end in 5
    digits = exact_str(abs(q.numerator) * 5 ** k).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


class Enclosure:
    """Certified interval [lo, hi] with dyadic Fraction endpoints at a fixed
    working precision. Immutable, and equal only to itself."""

    __slots__ = ("lo", "hi", "bits")
    lo: Fraction
    hi: Fraction
    bits: int

    def __init__(self, lo: Fraction, hi: Fraction, bits: int):
        if lo > hi:
            raise ValueError("enclosure endpoints out of order: "
                             f"{exact_str(lo)} > {exact_str(hi)}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Enclosure, (self.lo, self.hi, self.bits)

    @classmethod
    def point(cls, d: Fraction, bits: int) -> "Enclosure":
        return cls(d, d, bits)

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int) -> "Enclosure":
        return cls(round_dyadic(q, bits, False), round_dyadic(q, bits, True),
                   bits)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid_fraction(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self):
        return f"Enclosure[{_decimal(self.lo)}, {_decimal(self.hi)}]@{self.bits}"

    def to_json(self) -> dict:
        return {"lo": _decimal(self.lo), "hi": _decimal(self.hi),
                "bits": self.bits}


# a NamedTuple class may not define __new__, so the checks go in a subclass
class _Precision(NamedTuple):
    precision_bits: int
    width_bits: int


class PrecisionConfig(_Precision):
    """Precision of a run: `precision_bits` mantissa bits for enclosures and
    for the origin of the root grid, and `width_bits`, the W of the width
    2^-W that root solves refine their cells to. A tuple, so immutable,
    equal and hashed by value: memo tables key on it. Every build checks
    its fields, `_replace` and unpickling included."""

    __slots__ = ()

    def __new__(cls, precision_bits: int = 128, width_bits: int = 80):
        if precision_bits < 32:
            raise ValueError("precision_bits must be at least 32")
        if width_bits < 0:
            raise ValueError("width_bits must be nonnegative")
        return super().__new__(cls, precision_bits, width_bits)

    @classmethod
    def _make(cls, iterable) -> "PrecisionConfig":
        return cls(*iterable)


DEFAULT_CONFIG = PrecisionConfig()
