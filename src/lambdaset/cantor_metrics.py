"""Defining sequences of Cantor sets on the line, their bridge/gap
thickness, and the Newhouse dimension lower bound.

A defining sequence lists the open intervals removed from the convex hull in
some order; each removal must sit strictly inside one connected component of
what remains, leaving two bridges of positive length. Thickness over the
listed removals is the minimum bridge-to-gap length ratio, computed here
exactly from the enclosure endpoints that make bridges shortest and gaps
longest, so the reported value is a certified lower bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInput, MalformedSequence, NonpositiveThickness
from .numerics import Enclosure

__all__ = [
    "Interval",
    "DefiningSequence",
    "thickness_of",
    "newhouse_lower",
]

Interval = tuple[Enclosure, Enclosure]   # closed or open interval [lo, hi]


@dataclass(frozen=True, slots=True)
class DefiningSequence:
    """Convex hull plus an ordered list of removed open intervals."""

    hull: Interval
    removals: tuple[Interval, ...]

    @classmethod
    def from_fractions(cls, hull: tuple[Fraction, Fraction],
                       removals: Iterable[tuple[Fraction, Fraction]],
                       bits: int = 128) -> "DefiningSequence":
        def enc(q) -> Enclosure:
            return Enclosure.from_fraction(Fraction(q), bits)

        return cls((enc(hull[0]), enc(hull[1])),
                   tuple((enc(a), enc(b)) for a, b in removals))

    def to_json(self) -> dict:
        return {
            "hull": [self.hull[0].to_json(), self.hull[1].to_json()],
            "gaps": [[a.to_json(), b.to_json()] for a, b in self.removals],
        }


def _split_components(hull: Interval, removals: Sequence[Interval]
                      ) -> list[tuple[Interval, Interval, Interval]]:
    """Replay removals; returns per-removal (component, left bridge, right
    bridge) records.

    The components stay disjoint and sorted, so the only one that can hold
    a removal is the last whose left end lies certainly below it.
    """
    components: list[Interval] = [hull]
    records = []
    for idx, (vl, vr) in enumerate(removals, start=1):
        if not vl.hi < vr.lo:
            raise MalformedSequence(f"removal {idx} has no certified length")
        home = bisect_left(components, vl.lo, key=lambda c: c[0].hi) - 1
        if home < 0 or not vr.hi < components[home][1].lo:
            raise MalformedSequence(
                f"removal {idx} is not strictly interior to any component")
        clo, chi = components[home]
        left, right = (clo, vl), (vr, chi)
        components[home:home + 1] = [left, right]
        records.append(((clo, chi), left, right))
    return records


def thickness_of(ds: DefiningSequence) -> Fraction:
    """Certified lower bound of the thickness restricted to the listed
    removals: min over gaps of min(|L|/|V|, |R|/|V|), with the shortest
    bridges and the longest gap the enclosures allow.

    When the removals are ordered by decreasing length this equals (up to
    the truncation) the thickness of the set itself.
    """
    if not ds.removals:
        raise InvalidInput("defining sequence lists no removals")
    records = _split_components(ds.hull, ds.removals)
    best: Fraction | None = None
    for _component, (left_lo, vl), (vr, right_hi) in records:
        gap_hi = vr.hi - vl.lo
        left_lo_len = vl.lo - left_lo.hi
        right_lo_len = right_hi.lo - vr.hi
        ratio = min(left_lo_len, right_lo_len) / gap_hi
        if best is None or ratio < best:
            best = ratio
    return best


def newhouse_lower(tau) -> float:
    """Dimension lower bound log 2 / log(2 + 1/tau) for a Cantor set of
    thickness tau."""
    tau = float(tau)
    if tau <= 0:
        raise NonpositiveThickness(f"thickness must be positive: {tau}")
    return math.log(2) / math.log(2 + 1 / tau)
