"""Common-ratio certification for several target points at once.

A ratio lambda is common to targets y_1..y_p when every y_i lies in the
attractor at that ratio. Covers intersect to an outer cover of the common
set; exact rational witnesses are found by replayable greedy-cycle probes;
non-rational candidates are pinned by coding enclosures that must agree to
a stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, gcd

from .errors import DepthBudgetExceeded, InvalidInput, NoneFound, OutOfRange
from .ifs_core import Member, greedy_digits
from .lambda_set import (MAX_PREFIXES, CoverInterval, IntervalCover,
                         admissible_prefixes, binary_expansion, block_codes,
                         cover, psi_inverse)
from .numerics import DEFAULT_CONFIG, Enclosure, PrecisionConfig
from .seqcode import EpSequence

__all__ = [
    "CommonPointCertificate",
    "intersect_covers",
    "find_common",
]

HALF = Fraction(1, 2)
# a search stops once it holds this many certificates
MAX_CERTIFICATES = 24
# width within which the coding enclosures of every target must agree
TOLERANCE = Fraction(1, 1 << 60)


@dataclass(frozen=True, slots=True)
class CommonPointCertificate:
    """A ratio at which all targets are certified or conjectured members.

    Exact: rational ratio, every target's greedy orbit cycles (replayable).
    Certified: per-target coding enclosures mutually overlap at tolerance.
    Candidate: all targets survive a forced-digit run, no periodic pinning.
    """

    targets: tuple[Fraction, ...]
    lam: Enclosure
    lam_exact: Fraction | None
    per_target_codings: tuple[EpSequence, ...]
    status: str

    def sort_key(self) -> Fraction:
        return self.lam.mid_fraction()

    def to_json(self) -> dict:
        return {
            "targets": [str(t) for t in self.targets],
            "lam": self.lam.to_json(),
            "lam_exact": None if self.lam_exact is None else str(self.lam_exact),
            "codings": [str(s) for s in self.per_target_codings],
            "status": self.status,
        }


def _outer(iv: CoverInterval) -> tuple[Fraction, Fraction]:
    return iv.lo.lo, iv.hi.hi


def _intersect_pair(a: IntervalCover, b: IntervalCover,
                    bits: int) -> list[CoverInterval]:
    out: list[CoverInterval] = []
    i = j = 0
    while i < len(a.intervals) and j < len(b.intervals):
        alo, ahi = a.intervals[i].lo.lo, a.intervals[i].hi.hi
        blo, bhi = b.intervals[j].lo.lo, b.intervals[j].hi.hi
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo <= hi:
            # exact dyadic endpoints from the inputs; no re-rounding
            out.append(CoverInterval(Enclosure.point(lo, bits),
                                     Enclosure.point(hi, bits), None, None))
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


def _forced_digits(y: Fraction, lam: Enclosure,
                   max_digits: int) -> tuple[list[int], str]:
    """Greedy digits of y valid for every ratio in `lam`, while decidable.

    The state is an exact interval [s_lo, s_hi] holding the greedy orbit of
    y for every ratio in lam = [a, b].
    """
    a, b = lam.lo, lam.hi
    s_lo = s_hi = Fraction(y)
    digits: list[int] = []
    for _ in range(max_digits):
        if s_lo >= 1 - a:
            digits.append(1)
            s_lo, s_hi = (s_lo - 1 + a) / b, (s_hi - 1 + b) / a
        elif s_hi <= a:
            digits.append(0)
            s_lo, s_hi = s_lo / b, s_hi / a
        elif s_lo > b and s_hi < 1 - b:
            return digits, "rejected"
        else:
            return digits, "ambiguous"
    return digits, "ok"


def _pin_candidate(targets: list[Fraction], s0: EpSequence,
                   cfg: PrecisionConfig) -> CommonPointCertificate | None:
    """Try to agree all targets on the ratio pinned by target 0's coding."""
    tight = replace(cfg, target_width=min(cfg.target_width, TOLERANCE / 4))
    lam = psi_inverse(targets[0], s0, tight)
    codings = [s0]
    status = "Certified"
    current = lam
    for y in targets[1:]:
        digits, outcome = _forced_digits(y, lam, 48)
        if outcome == "rejected":
            return None
        best = None
        candidates = block_codes(binary_expansion(y), tuple(digits))
        for s in candidates:
            enc = psi_inverse(y, s, tight)
            if enc.overlaps(current):
                joint = Enclosure(max(enc.lo, current.lo),
                                  min(enc.hi, current.hi), enc.bits)
                if joint.width() <= TOLERANCE:
                    best = (s, joint)
                    break
        if best is None:
            status = "Candidate"
            codings.append(candidates[0])
        else:
            codings.append(best[0])
            current = best[1]
    return CommonPointCertificate(tuple(targets), current, None,
                                  tuple(codings), status)


def find_common(targets: list[Fraction], search_depth: int,
                cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[CommonPointCertificate]:
    """Certificates of common ratios for all targets, sorted by ratio.

    Always contains the ratio-1/2 certificate (the attractor is the full
    interval there). Rational common ratios are searched by greedy-cycle
    replay up to a denominator budget that grows with `search_depth`;
    remaining candidate regions from the intersected covers get coding
    pinning attempts.

    Raises DepthBudgetExceeded, before any search, when there are more
    than MAX_PREFIXES denominators q or candidate ratios p/q, or, for
    several targets, more than MAX_PREFIXES prefixes in a cover.
    """
    targets = [Fraction(t) for t in targets]
    if not targets:
        raise InvalidInput("no targets given")
    if any(not 0 < t < HALF for t in targets):
        raise OutOfRange("targets must lie in (0, 1/2)")
    if search_depth < 1:
        raise ValueError("search_depth must be positive")
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
    if len(targets) > 1:
        # the covers built after the rational search must fit the prefix
        # budget; fail before that search rather than after it
        for y in targets:
            admissible_prefixes(y, search_depth)
    bits = cfg.precision_bits
    certs: list[CommonPointCertificate] = [CommonPointCertificate(
        tuple(targets), Enclosure.point(HALF, bits), HALF,
        tuple(binary_expansion(y) for y in targets), "Exact")]

    # each p/q in lowest terms, once, in [floor_lam, 1/2)
    for q in range(2, q_cap + 1):
        if len(certs) >= MAX_CERTIFICATES:
            break
        for p in range(ceil(floor_lam * q), (q + 1) // 2):
            if gcd(p, q) != 1:
                continue
            lam = Fraction(p, q)
            outcomes = [greedy_digits(y, lam, 600) for y in targets]
            if all(isinstance(o, Member) for o in outcomes):
                certs.append(CommonPointCertificate(
                    tuple(targets), Enclosure.from_fraction(lam, bits), lam,
                    tuple(o.coding for o in outcomes), "Exact"))
                if len(certs) >= MAX_CERTIFICATES:
                    break

    if len(certs) < MAX_CERTIFICATES and len(targets) > 1:
        covers = [cover(y, search_depth, cfg) for y in targets]
        inter = intersect_covers(covers)
        for iv in inter.intervals[:-1]:     # skip the block at 1/2: covered above
            lo, hi = _outer(iv)
            if any(c.lam_exact is not None and lo <= c.lam_exact <= hi
                   for c in certs):
                continue
            seed = next((civ.low_code for civ in covers[0].intervals
                         if civ.low_code is not None
                         and lo <= civ.lo.hi <= hi), None)
            if seed is None:
                continue
            pinned = _pin_candidate(targets, seed, cfg)
            if pinned is not None:
                certs.append(pinned)
            if len(certs) >= MAX_CERTIFICATES:
                break

    certs.sort(key=CommonPointCertificate.sort_key)
    if not certs:
        raise NoneFound("no certificates within the search budget")
    return certs
