"""Defining sequences of Cantor sets on the line, their bridge/gap
thickness, and the Newhouse dimension lower bound.

A defining sequence lists the open intervals removed from the convex hull in
some order; each removal must sit strictly inside one connected component of
what remains, leaving two bridges of positive length. Thickness over the
listed removals is the minimum bridge-to-gap length ratio, computed here
exactly from the enclosure endpoints that make bridges shortest and gaps
longest, so the reported value is a certified lower bound.

The enclosure endpoints are dyadic, so the replay puts them all on one grid
2^-E and runs on integers: one bisection and one slice insertion per
removal, the running minimum kept as an integer pair, and a single Fraction
at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InvalidInput, MalformedSequence, NonpositiveThickness
from .numerics import DEFAULT_CONFIG, Enclosure

__all__ = [
    "Interval",
    "DefiningSequence",
    "thickness_of",
    "newhouse_lower",
]

Interval = tuple[Enclosure, Enclosure]   # closed or open interval [lo, hi]


class DefiningSequence(NamedTuple):
    """Convex hull plus an ordered list of removed open intervals."""

    hull: Interval
    removals: tuple[Interval, ...]

    @classmethod
    def from_fractions(cls, hull: tuple[Fraction, Fraction],
                       removals: Iterable[tuple[Fraction, Fraction]],
                       bits: int = DEFAULT_CONFIG.precision_bits
                       ) -> "DefiningSequence":
        def enc(q) -> Enclosure:
            return Enclosure.from_fraction(Fraction(q), bits)

        return cls((enc(hull[0]), enc(hull[1])),
                   tuple((enc(a), enc(b)) for a, b in removals))

    def to_json(self) -> dict:
        return {
            "hull": [self.hull[0].to_json(), self.hull[1].to_json()],
            "gaps": [[a.to_json(), b.to_json()] for a, b in self.removals],
        }


def thickness_of(ds: DefiningSequence) -> Fraction:
    """Certified lower bound of the thickness restricted to the listed
    removals: min over gaps of min(|L|/|V|, |R|/|V|), with the shortest
    bridges and the longest gap the enclosures allow.

    When the removals are ordered by decreasing length this equals (up to
    the truncation) the thickness of the set itself.

    The replay runs on the finest dyadic grid among the endpoints. The
    components stay disjoint and sorted, so their ends form one sorted list
    of cuts, and a removal can only sit in the component whose span holds
    its left end. An endpoint that is not dyadic raises InvalidInput.
    """
    if not ds.removals:
        raise InvalidInput("defining sequence lists no removals")
    values = [ds.hull[0].hi, ds.hull[1].lo]
    for vl, vr in ds.removals:
        values += (vl.lo, vl.hi, vr.lo, vr.hi)
    dens = [v.denominator for v in values]
    if any(den & (den - 1) for den in dens):
        raise InvalidInput("defining sequence has an endpoint that is not "
                           "dyadic")
    top = max(dens).bit_length()
    grid = [v.numerator << (top - den.bit_length())
            for v, den in zip(values, dens)]
    # component j spans (cuts[2j], cuts[2j + 1]): its left end's upper bound
    # and its right end's lower bound
    cuts = grid[:2]
    best_num, best_den = None, 1
    for idx in range(1, len(ds.removals) + 1):
        vl_lo, vl_hi, vr_lo, vr_hi = grid[4 * idx - 2:4 * idx + 2]
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
    thickness tau."""
    tau = float(tau)
    if tau <= 0:
        raise NonpositiveThickness(f"thickness must be positive: {tau}")
    return math.log(2) / math.log(2 + 1 / tau)
