"""Exact rationals, certified dyadic cells, and the precision settings of
root solving.

An Enclosure is a dyadic cell [lo, hi] 2^-e, held as the integers (lo, hi,
e) that a root solve or an outward rounding returns, with a working
precision in bits. Callers compare cells on their common grid (on_grid),
or compute exactly with the Fraction view of the ends, and round outward
(round_outward) only the value they store. Cells print as exact decimals,
and every rational a payload or an error message holds prints exactly
(exact_str, dyadic_str), also past the interpreter's integer-to-string
digit limit. Only this module knows how a cell is encoded.

It also holds the registry the CLI manifest reads: `memo`, the one way to
memoise, lists each table in MEMO_TABLES, and a module adds counters to
COUNTERS.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "CACHE_SIZE",
    "MEMO_TABLES",
    "COUNTERS",
    "memo",
    "parse_rational",
    "exact_str",
    "dyadic_str",
    "round_outward",
    "on_grid",
    "Enclosure",
    "PrecisionConfig",
    "DEFAULT_CONFIG",
]


# Bound of every memo table in the package: expansions and targets, root
# solves, pieces, gap records, per-piece ratios, bounds and ledger verdicts,
# and the values of thickness reports. The 200 calls of the seed-1
# session-ledger benchmark leave 3 targets, 835 root solves, 140 gap records,
# 19 pieces (and 19 ratio pairs), 16 bound triples, 108 family verdicts, 6
# square identities and 26 report values (its 134 reports have 26 distinct
# truncations), so nothing is evicted there; a long process stays bounded.
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


def round_outward(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """num/den (den > 0) rounded outward to `bits` significant bits: (lo,
    hi, e) with e >= 0, lo 2^-e the largest such value <= num/den and hi
    2^-e the smallest >= it. One division gives both ends. For num != 0,
    |num| 2^shift / den lies in (2^(bits - 1), 2^(bits + 1)) unless shift
    is held at 0, so the end nearer zero has `extra` = 0 or 1 bits past
    `bits`. Both ends drop them: the farther end, at most one bit longer
    and then a power of two, drops them exactly."""
    shift = max(bits + den.bit_length() - abs(num).bit_length(), 0)
    lo, rem = divmod(num << shift, den)
    hi = lo + 1 if rem else lo
    extra = (lo if lo > 0 else -hi).bit_length() - bits
    if extra > 0:
        lo, hi, shift = lo >> extra, -(-hi >> extra), shift - extra
        if shift < 0:            # ends of 2^bits or more are integers
            lo, hi, shift = lo << -shift, hi << -shift, 0
    return lo, hi, shift


Cell = tuple[int, int, int]


def on_grid(cells: Sequence[Cell]) -> tuple[list[int], int]:
    """The ends of the cells (lo, hi, e) as multiples of 2^-top, top the
    finest of the exponents: ([lo, hi, lo, hi, ...], top)."""
    top = max(e for _, _, e in cells)
    return [v << (top - e) for lo, hi, e in cells for v in (lo, hi)], top


def _lowest(m: int, e: int) -> tuple[int, int]:
    """m 2^-e as m' 2^-e' with e' >= 0 least."""
    z = min((m & -m).bit_length() - 1, e) if m else e
    return m >> z, e - z


def dyadic_str(num: int, e: int, den: int = 1) -> str:
    """exact_str of the Fraction num / (den 2^e), den > 0: a gcd against
    den only, and the powers of two cancelled by a shift."""
    g = gcd(num, den)
    num, e = _lowest(num // g, e)
    den = den // g << e
    return f"{exact_str(num)}/{exact_str(den)}" if den > 1 else exact_str(num)


def _decimal(m: int, e: int) -> str:
    """Exact decimal string of m 2^-e."""
    m, k = _lowest(m, e)
    if k == 0:
        return exact_str(m)
    sign = "-" if m < 0 else ""
    # m is odd, so the digits of m * 5^k end in 5
    digits = exact_str(abs(m) * 5 ** k).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


class Enclosure:
    """Certified interval, the integer `cell` (lo, hi, e) for [lo, hi] 2^-e
    with e >= 0, at a working precision `bits`; `lo` and `hi` are its ends
    as Fractions, built on first read. Immutable, equal only to itself."""

    __slots__ = ("cell", "bits", "lo", "hi")
    cell: Cell
    bits: int
    lo: Fraction
    hi: Fraction

    def __init__(self, cell: Cell, bits: int):
        lo, hi, e = cell
        if lo > hi:
            raise ValueError("enclosure endpoints out of order: "
                             f"{_decimal(lo, e)} > {_decimal(hi, e)}")
        object.__setattr__(self, "cell", (lo, hi, e))
        object.__setattr__(self, "bits", bits)

    def __getattr__(self, name):     # reached only while a slot is unset
        if name not in ("lo", "hi"):
            raise AttributeError(name)
        lo, hi, e = self.cell
        object.__setattr__(self, "lo", Fraction(lo, 1 << e))
        object.__setattr__(self, "hi", Fraction(hi, 1 << e))
        return getattr(self, name)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Enclosure, (self.cell, self.bits)

    @classmethod
    def point(cls, d: Fraction, bits: int) -> "Enclosure":
        """The cell [d, d] of a dyadic rational d, or ValueError."""
        m, den = d.numerator, d.denominator
        if den & (den - 1):
            raise ValueError(f"not a dyadic rational: {exact_str(d)}")
        return cls((m, m, den.bit_length() - 1), bits)

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int) -> "Enclosure":
        return cls(round_outward(q.numerator, q.denominator, bits), bits)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid_fraction(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def __repr__(self):
        lo, hi, e = self.cell
        return f"Enclosure[{_decimal(lo, e)}, {_decimal(hi, e)}]@{self.bits}"

    def to_json(self) -> dict:
        lo, hi, e = self.cell
        return {"lo": _decimal(lo, e), "hi": _decimal(hi, e),
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
