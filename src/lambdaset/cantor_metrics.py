"""Defining sequences of Cantor sets on the line, bridge/gap thickness, the
Newhouse dimension lower bound, and the interleaving predicate.

A defining sequence lists the open intervals removed from the convex hull in
some order; each removal must sit strictly inside one connected component of
what remains, leaving two bridges of positive length. Thickness over the
listed removals is the minimum bridge-to-gap length ratio, computed here with
directed rounding so the reported value is a certified lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInput, MalformedSequence, NonpositiveThickness
from .numerics import Enclosure

__all__ = [
    "Interval",
    "BridgePair",
    "DefiningSequence",
    "bridges",
    "thickness_of",
    "newhouse_lower",
    "interleaved",
]

Interval = tuple[Enclosure, Enclosure]   # closed or open interval [lo, hi]


@dataclass(frozen=True, slots=True)
class BridgePair:
    """The two closed intervals flanking a removal inside its component."""

    left: Interval
    right: Interval


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


def _split_components(hull: Interval,
                      removals: Sequence[Interval]) -> tuple[list[Interval], list[tuple[Interval, Interval, Interval]]]:
    """Replay removals; returns final components and per-removal
    (component, left bridge, right bridge) records."""
    components: list[Interval] = [hull]
    records = []
    for idx, (vl, vr) in enumerate(removals, start=1):
        if not vl.hi < vr.lo:
            raise MalformedSequence(f"removal {idx} has no certified length")
        home = None
        for j, (clo, chi) in enumerate(components):
            if clo.hi < vl.lo and vr.hi < chi.lo:
                home = j
                break
        if home is None:
            raise MalformedSequence(
                f"removal {idx} is not strictly interior to any component")
        clo, chi = components[home]
        left, right = (clo, vl), (vr, chi)
        components[home:home + 1] = [left, right]
        records.append(((clo, chi), left, right))
    return components, records


def bridges(ds: DefiningSequence, n: int) -> BridgePair:
    """Bridges of the n-th removal (1-based) at its removal time."""
    if not 1 <= n <= len(ds.removals):
        raise IndexError(f"removal index {n} out of range")
    _, records = _split_components(ds.hull, ds.removals[:n])
    _, left, right = records[n - 1]
    return BridgePair(left, right)


def thickness_of(ds: DefiningSequence) -> Fraction:
    """Certified lower bound of the thickness restricted to the listed
    removals: min over gaps of min(|L|/|V|, |R|/|V|) with directed rounding.

    When the removals are ordered by decreasing length this equals (up to
    the truncation) the thickness of the set itself.
    """
    if not ds.removals:
        raise InvalidInput("defining sequence lists no removals")
    _, records = _split_components(ds.hull, ds.removals)
    best: Fraction | None = None
    for _component, (left_lo, vl), (vr, right_hi) in records:
        gap_hi = vr.hi.to_fraction() - vl.lo.to_fraction()
        left_lo_len = vl.lo.to_fraction() - left_lo.hi.to_fraction()
        right_lo_len = right_hi.lo.to_fraction() - vr.hi.to_fraction()
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


def _hulls_overlap(e_hull: Interval, f_hull: Interval) -> bool:
    return (f_hull[0].hi <= e_hull[1].lo) and (e_hull[0].hi <= f_hull[1].lo)


def _certainly_not_inside(hull: Interval, gap: Interval) -> bool:
    """Certified: hull is NOT strictly contained in the open gap."""
    return hull[0].hi <= gap[0].lo or hull[1].lo >= gap[1].hi


def interleaved(e_hull: Interval, e_gaps: Sequence[Interval],
                f_hull: Interval, f_gaps: Sequence[Interval]) -> bool:
    """True only when certified at this truncation: the hulls overlap and
    neither hull sits inside a listed gap of the other."""
    if not _hulls_overlap(e_hull, f_hull):
        return False
    if any(not _certainly_not_inside(f_hull, g) for g in e_gaps):
        return False
    if any(not _certainly_not_inside(e_hull, g) for g in f_gaps):
        return False
    return True
