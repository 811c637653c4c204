"""Common-ratio certification for several target points at once.

A ratio lambda is common to targets y_1..y_p when every y_i lies in the
attractor at that ratio. Covers intersect to an outer cover of the common
set; common ratios are certified only as exact rationals p/q whose greedy
orbits of every target cycle, so each certificate replays exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd
from typing import NamedTuple

from .errors import DepthBudgetExceeded, InvalidInput
from .ifs_core import greedy_cycle
from .lambda_set import MAX_PREFIXES, CoverInterval, IntervalCover
from .numerics import (DEFAULT_CONFIG, HALF, HALF_CELL, Enclosure,
                       PrecisionConfig, exact_str, on_grid)
from .seqcode import EpSequence, binary_expansion

__all__ = [
    "CommonPointCertificate",
    "intersect_covers",
    "find_common",
]

# a search stops once it holds this many certificates
MAX_CERTIFICATES = 24


class CommonPointCertificate(NamedTuple):
    """A rational ratio at which every target is a certified member: each
    target's greedy orbit at `lam_exact` cycles, with the eventually
    periodic coding in `per_target_codings`, so the certificate replays
    exactly.
    """

    targets: tuple[Fraction, ...]
    lam: Enclosure
    lam_exact: Fraction
    per_target_codings: tuple[EpSequence, ...]
    status = "Exact"

    def to_json(self) -> dict:
        return {
            "targets": [exact_str(t) for t in self.targets],
            "lam": self.lam.to_json(),
            "lam_exact": exact_str(self.lam_exact),
            "codings": [str(s) for s in self.per_target_codings],
            "status": self.status,
        }


def _intersect_pair(a: IntervalCover, b: IntervalCover,
                    bits: int) -> list[CoverInterval]:
    out: list[CoverInterval] = []
    i = j = 0
    while i < len(a.intervals) and j < len(b.intervals):
        ia, ib = a.intervals[i], b.intervals[j]
        (alo, _, _, ahi, blo, _, _, bhi), e = on_grid(
            (ia.lo.cell, ia.hi.cell, ib.lo.cell, ib.hi.cell))
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo <= hi:
            # exact dyadic endpoints from the inputs; no re-rounding
            out.append(CoverInterval(Enclosure((lo, lo, e), bits),
                                     Enclosure((hi, hi, e), bits), None, None))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return out


def intersect_covers(covers: list[IntervalCover]) -> IntervalCover:
    """Outer cover of the intersection of the covered ratio sets."""
    if not covers:
        raise InvalidInput("no covers given")
    result = covers[0]
    bits = result.precision.precision_bits
    for other in covers[1:]:
        merged = _intersect_pair(result, other, bits)
        result = IntervalCover(max(result.x, other.x),
                               min(result.depth, other.depth),
                               tuple(merged), result.precision)
    return result


def find_common(targets: list[Fraction], search_depth: int,
                cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[CommonPointCertificate]:
    """Exact certificates of common ratios for all targets, sorted by ratio.

    Always contains the ratio-1/2 certificate (the attractor is the full
    interval there). The other certificates are the rationals p/q in lowest
    terms, between the largest target and 1/2 with q up to
    40 + 12 * search_depth, at which every target's greedy orbit cycles;
    the search stops at MAX_CERTIFICATES.

    Raises DepthBudgetExceeded, before any search, when there are more
    than MAX_PREFIXES denominators q or candidate ratios p/q.
    """
    targets = [Fraction(t) for t in targets]
    if not targets:
        raise InvalidInput("no targets given")
    if any(not 0 < t < HALF for t in targets):
        raise InvalidInput("targets must lie in (0, 1/2)")
    if search_depth < 1:
        raise InvalidInput("search_depth must be positive")
    floor_lam = max(targets)
    q_cap = 40 + 12 * search_depth
    # the denominators are tested first, so a huge depth is refused before
    # its candidates are counted
    if q_cap > MAX_PREFIXES or sum(
            max(0, (q + 1) // 2 - ceil(floor_lam * q))
            for q in range(2, q_cap + 1)) > MAX_PREFIXES:
        raise DepthBudgetExceeded(
            f"more than {MAX_PREFIXES} denominators or candidate ratios for "
            f"depth {search_depth}")
    bits = cfg.precision_bits
    certs: list[CommonPointCertificate] = [CommonPointCertificate(
        tuple(targets), Enclosure(HALF_CELL, bits), HALF,
        tuple(binary_expansion(y) for y in targets))]

    # each p/q in lowest terms, once, in [floor_lam, 1/2)
    for q in range(2, q_cap + 1):
        if len(certs) >= MAX_CERTIFICATES:
            break
        for p in range(ceil(floor_lam * q), (q + 1) // 2):
            if gcd(p, q) != 1:
                continue
            codings = []
            # one orbit that does not cycle rules p/q out: probe no further
            # target
            for y in targets:
                coding = greedy_cycle(y, p, q, 600)
                if coding is None:
                    break
                codings.append(coding)
            else:
                lam = Fraction(p, q)
                certs.append(CommonPointCertificate(
                    tuple(targets), Enclosure.from_fraction(lam, bits), lam,
                    tuple(codings)))
                if len(certs) >= MAX_CERTIFICATES:
                    break

    certs.sort(key=lambda c: c.lam_exact)
    return certs
