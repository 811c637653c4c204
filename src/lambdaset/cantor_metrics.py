"""Defining sequences of Cantor sets on the line, their bridge/gap
thickness, and the Newhouse dimension lower bound.

A defining sequence lists the open intervals removed from the convex hull in
some order; each removal must sit strictly inside one connected component of
what remains, leaving two bridges of positive length. Thickness over the
listed removals is the minimum bridge-to-gap length ratio, computed here
exactly from the cell endpoints that make bridges shortest and gaps
longest, so the reported value is a certified lower bound.

The record is the grid: a DefiningSequence holds every endpoint as a cell
[lo, hi] of integers in units of one dyadic grid 2^-exponent, built with
the integer primitives of `numerics`. The replay runs on those integers:
one bisection and one slice insertion per removal, the running minimum
kept as an integer pair, and a single Fraction at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import InvalidInput, MalformedSequence, NonpositiveThickness
from .numerics import (DEFAULT_CONFIG, Cell, Enclosure, exact_str, on_grid,
                       parse_rational, round_outward)

__all__ = [
    "Interval",
    "DefiningSequence",
    "thickness_of",
    "newhouse_lower",
]

Interval = tuple[Enclosure, Enclosure]   # closed or open interval [lo, hi]


def _ratio(value) -> tuple[int, int]:
    """A gap-file endpoint as (numerator, denominator > 0). A JSON integer,
    or a string `p/q` or `p` of ASCII digits with an optional minus sign, is
    read with int(); anything else goes through parse_rational, so the
    accepted forms and the `not a rational` messages are its own."""
    if type(value) is int:               # not bool: JSON true is no number
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if ((num[1:] if num[:1] == "-" else num).isdigit()
                and (den.isdigit() or not slash)):
            try:
                q = int(den) if slash else 1
                if q:
                    return int(num), q
            except ValueError:           # past the int-to-string digit limit
                pass
    q = parse_rational(str(value))
    return q.numerator, q.denominator


class DefiningSequence(NamedTuple):
    """Convex hull plus an ordered list of removed open intervals, on the
    dyadic grid 2^-exponent. `hull` and each entry of `removals` hold the
    cells of their two ends, (left lo, left hi, right lo, right hi), as
    integer multiples of 2^-exponent; `bits` is the precision the cells
    were rounded or solved at."""

    hull: tuple[int, int, int, int]
    removals: tuple[tuple[int, int, int, int], ...]
    exponent: int
    bits: int

    @classmethod
    def parse(cls, hull: list, gaps: list[list],
              bits: int = DEFAULT_CONFIG.precision_bits) -> "DefiningSequence":
        """The sequence of a gap file's `hull` and `gaps` lists, whose
        endpoints are strings or JSON numbers. The first endpoint that is
        not a rational, hull first, raises ValueError."""
        return cls._on_grid([round_outward(*_ratio(q), bits)
                             for q in chain(hull, *gaps)], bits)

    @classmethod
    def from_fractions(cls, hull: tuple[Fraction, Fraction],
                       removals: Iterable[tuple[Fraction, Fraction]],
                       bits: int = DEFAULT_CONFIG.precision_bits
                       ) -> "DefiningSequence":
        """The sequence of these rationals, each endpoint rounded outward
        to `bits` significant bits as Enclosure.from_fraction rounds it."""
        return cls._on_grid([round_outward(*Fraction(q).as_integer_ratio(),
                                           bits)
                             for q in chain(hull, *removals)], bits)

    @classmethod
    def from_cells(cls, hull: Interval, removals: Iterable[Interval]
                   ) -> "DefiningSequence":
        """The sequence of solved cells, taken as they are. A cell at
        another precision than the hull's left end raises InvalidInput."""
        bits = hull[0].bits
        cells = [*hull, *chain(*removals)]
        if any(cell.bits != bits for cell in cells):
            raise InvalidInput("defining sequence mixes precisions")
        return cls._on_grid([c.cell for c in cells], bits)

    @classmethod
    def _on_grid(cls, cells: list[Cell], bits: int) -> "DefiningSequence":
        """The sequence of the endpoint cells, hull first."""
        grid, top = on_grid(cells)
        ends = iter(grid)
        cells = zip(ends, ends, ends, ends)
        return cls(next(cells), tuple(cells), top, bits)

    def intervals(self) -> list[Interval]:
        """The hull, then each removal, as a pair of Enclosures."""
        e, bits = self.exponent, self.bits
        return [(Enclosure((a, b, e), bits), Enclosure((c, d, e), bits))
                for a, b, c, d in (self.hull, *self.removals)]

    def to_json(self) -> dict:
        (left, right), *gaps = self.intervals()
        return {
            "hull": [left.to_json(), right.to_json()],
            "gaps": [[a.to_json(), b.to_json()] for a, b in gaps],
        }


def thickness_of(ds: DefiningSequence) -> Fraction:
    """Certified lower bound of the thickness restricted to the listed
    removals: min over gaps of min(|L|/|V|, |R|/|V|), with the shortest
    bridges and the longest gap the cells allow.

    When the removals are ordered by decreasing length this equals (up to
    the truncation) the thickness of the set itself.

    The replay reads the grid as it is. The components stay disjoint and
    sorted, so their ends form one sorted list of cuts, and a removal can
    only sit in the component whose span holds its left end.
    """
    if not ds.removals:
        raise InvalidInput("defining sequence lists no removals")
    # component j spans (cuts[2j], cuts[2j + 1]): its left end's upper bound
    # and its right end's lower bound
    cuts = [ds.hull[1], ds.hull[2]]
    best_num, best_den = None, 1
    for idx, (vl_lo, vl_hi, vr_lo, vr_hi) in enumerate(ds.removals, 1):
        if not vl_hi < vr_lo:
            raise MalformedSequence(f"removal {idx} has no certified length")
        # an odd index means vl_lo lies inside component end // 2
        end = bisect_left(cuts, vl_lo)
        if end % 2 == 0 or not vr_hi < cuts[end]:
            raise MalformedSequence(
                f"removal {idx} is not strictly interior to any component")
        bridge = min(vl_lo - cuts[end - 1], cuts[end] - vr_hi)
        gap = vr_hi - vl_lo
        if best_num is None or bridge * best_den < best_num * gap:
            best_num, best_den = bridge, gap
        cuts[end:end] = (vl_lo, vr_hi)
    return Fraction(best_num, best_den)


def newhouse_lower(tau) -> float:
    """Dimension lower bound log 2 / log(2 + 1/tau) for a Cantor set of
    thickness tau. The sign is tested on the exact value, and a tau too
    small for 1/tau to be a finite float is read from its integers."""
    if tau <= 0:
        raise NonpositiveThickness(
            f"thickness must be positive: {exact_str(Fraction(tau))}")
    t = float(tau)
    if t > 0 and math.isfinite(1 / t):
        return math.log(2) / math.log(2 + 1 / t)
    # log(2 + 1/tau) = log(2p + q) - log(p) for tau = p/q; math.log reads
    # integers of any size
    p, q = Fraction(tau).as_integer_ratio()
    return math.log(2) / (math.log(2 * p + q) - math.log(p))
