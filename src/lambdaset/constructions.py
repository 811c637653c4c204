"""Explicit Cantor subsets of the ratio set and their certified thickness.

For the k-th zero index n_k of the target's base-1/2 expansion, switching
that digit to 1 opens a block of admissible codings; its ratio image is a
Cantor piece [alpha_k, beta_k]. Pieces accumulate at 1/2, and together with
the point 1/2 they form nested Cantor subsets whose truncated thickness is
evaluated here gap by gap. The module also verifies, instance by instance,
the analytic gap inequalities that control every gap beyond the truncation
(one family for targets whose expansion has a 1 at some index >= 3, one for
the exceptional target 1/4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

from .errors import (DepthBudgetExceeded, HypothesisUnsatisfiable,
                     Inconclusive, InvalidInput)
from .cantor_metrics import DefiningSequence, Interval
from .lambda_set import (CACHE_SIZE, MAX_PREFIXES, admissible,
                         binary_expansion, psi_inverse)
from .numerics import DEFAULT_CONFIG, Enclosure, PrecisionConfig, round_dyadic
from .seqcode import (EpSequence, Word, n_index, word_at_position,
                      zero_indices)

__all__ = [
    "PieceEndpoints",
    "GapRecord",
    "ThicknessReport",
    "LedgerEntry",
    "VerificationLedger",
    "first_switch_index",
    "piece_endpoints",
    "gap_record",
    "defining_sequence_Cl",
    "thickness_Cl",
    "verify_caseA",
    "verify_caseB",
]

HALF = Fraction(1, 2)
ONE_TAIL = Word((1,))
ZERO_TAIL = Word((0,))


def _nk(x: Fraction, k: int) -> int:
    """The k-th zero index of the expansion of x; k is at most MAX_PREFIXES."""
    if k > MAX_PREFIXES:
        raise DepthBudgetExceeded(f"more than {MAX_PREFIXES} pieces: k={k}")
    return zero_indices(binary_expansion(x), k)[k - 1]


def first_switch_index(x: Fraction) -> int:
    """Smallest index m >= 3 with digit 1 in the expansion of x.

    Such an index exists for every x in (0, 1/2) except 1/4, whose expansion
    is 010^inf; that case is handled by the dedicated verifier.
    """
    xs = binary_expansion(Fraction(x))
    c = xs.canonical()
    horizon = len(c.preperiod) + len(c.period) + 2
    for m in range(3, horizon + 1):
        if xs.digit(m) == 1:
            return m
    raise HypothesisUnsatisfiable(
        f"expansion of {x} has no digit 1 at any index >= 3")


@dataclass(frozen=True, slots=True)
class PieceEndpoints:
    """Convex hull [alpha, beta] of the k-th piece, plus the next piece's
    left endpoint (solved from the same prefix with the switch digit 0)."""

    x: Fraction
    k: int
    n_k: int
    alpha: Enclosure
    beta: Enclosure
    alpha_next: Enclosure

    def to_json(self) -> dict:
        return {"x": str(self.x), "k": self.k, "n_k": self.n_k,
                "alpha": self.alpha.to_json(), "beta": self.beta.to_json(),
                "alpha_next": self.alpha_next.to_json()}


@lru_cache(maxsize=CACHE_SIZE)
def piece_endpoints(x: Fraction, k: int,
                    cfg: PrecisionConfig = DEFAULT_CONFIG) -> PieceEndpoints:
    """Solve alpha_k, beta_k and alpha_{k+1} for the k-th piece. Memoised,
    with the checks inside the cached body."""
    if k < 1:
        raise ValueError("k must be positive")
    x = Fraction(x)
    xs = binary_expansion(x)
    n_k = _nk(x, k)
    prefix = xs.prefix(n_k - 1)
    alpha = psi_inverse(x, EpSequence(prefix, ONE_TAIL), cfg)
    beta = psi_inverse(x, EpSequence(prefix + ONE_TAIL, ZERO_TAIL), cfg)
    alpha_next = psi_inverse(x, EpSequence(prefix + ZERO_TAIL, ONE_TAIL), cfg)
    if not (alpha.hi < beta.lo and beta.hi < alpha_next.lo):
        raise Inconclusive(
            f"piece {k} endpoints not separated at this target width")
    return PieceEndpoints(x, k, n_k, alpha, beta, alpha_next)


@dataclass(frozen=True, slots=True)
class GapRecord:
    """One removed gap of a piece with its bridges and certified ratios."""

    k: int
    omega: Word
    position: int
    gap: Interval
    left_bridge: Interval
    right_bridge: Interval
    left_ratio_lo: Fraction
    right_ratio_lo: Fraction

    def to_json(self) -> dict:
        return {"k": self.k, "omega": str(self.omega), "position": self.position,
                "gap": [self.gap[0].to_json(), self.gap[1].to_json()],
                "left_bridge": [e.to_json() for e in self.left_bridge],
                "right_bridge": [e.to_json() for e in self.right_bridge],
                "left_ratio_lo": str(self.left_ratio_lo),
                "right_ratio_lo": str(self.right_ratio_lo)}


def gap_record(x: Fraction, k: int, omega: Word,
               cfg: PrecisionConfig = DEFAULT_CONFIG) -> GapRecord:
    """Solve the four endpoints around the gap labelled by `omega`.

    With p the expansion prefix before the switch, the four codings are
    p 1 w 1^inf, p 1 w 1 0^inf, p 1 w 0 1^inf and p 1 w 0^inf; they bound
    the left bridge, the gap, and the right bridge in that order.
    """
    x = Fraction(x)
    xs = binary_expansion(x)
    n_k = _nk(x, k)
    base = xs.prefix(n_k - 1) + ONE_TAIL + omega
    g1 = psi_inverse(x, EpSequence(base, ONE_TAIL), cfg)
    g2 = psi_inverse(x, EpSequence(base + ONE_TAIL, ZERO_TAIL), cfg)
    g3 = psi_inverse(x, EpSequence(base + ZERO_TAIL, ONE_TAIL), cfg)
    g4 = psi_inverse(x, EpSequence(base, ZERO_TAIL), cfg)
    if not (g1.hi < g2.lo and g2.hi < g3.lo and g3.hi < g4.lo):
        raise Inconclusive(
            f"gap endpoints for k={k}, omega={omega} not separated; "
            "tighten the target width")
    gap_hi = g3.hi - g2.lo
    left_lo = g2.lo - g1.hi
    right_lo = g4.lo - g3.hi
    return GapRecord(k, omega, n_index(omega), (g2, g3), (g1, g2), (g3, g4),
                     left_lo / gap_hi, right_lo / gap_hi)


def _check_tail_args(ell: int, k_max: int, q_max: int) -> None:
    """Reject a truncation of the tail construction with no pieces or a
    negative gap-word length."""
    if ell < 1 or k_max < 1 or q_max < 0:
        raise ValueError("ell, k_max must be positive and q_max nonnegative")


def _check_tail_budget(ell: int, k_max: int, q_max: int) -> None:
    """Check the arguments, then raise DepthBudgetExceeded, before any
    root is solved, when the truncation needs more than MAX_PREFIXES gap
    records (four root solves each): k_max pieces of 2^(q_max+1) - 1 gap
    words."""
    _check_tail_args(ell, k_max, q_max)
    # the first test keeps a huge q_max from building a huge integer
    if (q_max >= MAX_PREFIXES.bit_length()
            or k_max * ((1 << (q_max + 1)) - 1) > MAX_PREFIXES):
        raise DepthBudgetExceeded(
            f"more than {MAX_PREFIXES} gap records for k_max={k_max}, "
            f"q_max={q_max}")


def _gap_records(x: Fraction, k: int, q_max: int,
                 cfg: PrecisionConfig) -> list[GapRecord]:
    count = (1 << (q_max + 1)) - 1
    return [gap_record(x, k, word_at_position(j), cfg)
            for j in range(1, count + 1)]


def defining_sequence_Cl(x: Fraction, ell: int, k_max: int, q_max: int,
                         cfg: PrecisionConfig = DEFAULT_CONFIG) -> DefiningSequence:
    """Defining sequence for the tail union of pieces ell, ell+1, ... plus
    the accumulation point 1/2, truncated to k_max pieces and gap words of
    length q_max.

    Removals follow the diagonal interleaving: first the inter-piece gap
    (beta_ell, alpha_{ell+1}), then the first gap of piece ell, then the
    next inter-piece gap, and so on, so that earlier removals are never
    shorter than required for well-formedness.
    """
    x = Fraction(x)
    _check_tail_budget(ell, k_max, q_max)
    pieces = {k: piece_endpoints(x, k, cfg) for k in range(ell, ell + k_max)}
    per_piece = {k: _gap_records(x, k, q_max, cfg) for k in pieces}
    n_gaps = (1 << (q_max + 1)) - 1
    bits = cfg.precision_bits
    half_point = Enclosure.point(HALF, bits)
    removals: list[Interval] = []
    for t in range(1, k_max + n_gaps):
        if t <= k_max:
            piece = pieces[ell + t - 1]
            removals.append((piece.beta, piece.alpha_next))
        for i in range(max(0, t - k_max), min(t, n_gaps)):
            k = ell + t - 1 - i
            removals.append(per_piece[k][i].gap)
    return DefiningSequence((pieces[ell].alpha, half_point), tuple(removals))


@dataclass(frozen=True, slots=True)
class ThicknessReport:
    """Truncated thickness of the tail construction with its three ratio
    families and the per-gap analytic bound checks."""

    x: Fraction
    ell: int
    k_max: int
    q_max: int
    tau_truncated: Fraction
    per_family_minima: dict
    bound_violations: tuple

    def to_json(self) -> dict:
        return {"x": str(self.x), "ell": self.ell, "k_max": self.k_max,
                "q_max": self.q_max, "tau_truncated": str(self.tau_truncated),
                "tau_truncated_float": float(self.tau_truncated),
                "per_family_minima": {k: str(v) for k, v in
                                      self.per_family_minima.items()},
                "bound_violations": list(self.bound_violations),
                "zero_index_convention": "n >= 2"}


def _piece_ratio_lo(piece: PieceEndpoints) -> Fraction:
    num = piece.beta.lo - piece.alpha.hi
    den = piece.alpha_next.hi - piece.beta.lo
    return num / den


def _half_ratio_lo(piece: PieceEndpoints) -> Fraction:
    num = HALF - piece.alpha_next.hi
    den = piece.alpha_next.hi - piece.beta.lo
    return num / den


def _gap_bound_caseA(piece: PieceEndpoints, m: int) -> Fraction:
    """Upper evaluation of alpha_k^(m-1) / (8 (1 - 2 alpha_k))."""
    a_hi = piece.alpha.hi
    return a_hi ** (m - 1) / (8 * (1 - 2 * a_hi))

def _piece_bound_caseA(piece: PieceEndpoints, m: int) -> Fraction:
    """Upper evaluation of x^(m-1) / (8 (1 - 2 beta_k))."""
    b_hi = piece.beta.hi
    return piece.x ** (m - 1) / (8 * (1 - 2 * b_hi))


def _half_bound_caseA(piece: PieceEndpoints, m: int) -> Fraction:
    """Upper evaluation of beta_k^(m-2) / (4 alpha_{k+1}^(n_k - 1))."""
    return (piece.beta.hi ** (m - 2)
            / (4 * piece.alpha_next.lo ** (piece.n_k - 1)))


def _gap_bound_caseB(piece: PieceEndpoints) -> Fraction:
    """Upper evaluation of alpha_k / (1 - 2 alpha_k + n_k 2^(3 - n_k))."""
    a_hi = piece.alpha.hi
    return a_hi / (1 - 2 * a_hi + Fraction(piece.n_k, 1 << (piece.n_k - 3)))


def _piece_bound_caseB(piece: PieceEndpoints) -> Fraction:
    """Upper evaluation of beta_k / (1 - 2 alpha_k + n_k 2^(3 - n_k))."""
    a_hi = piece.alpha.hi
    return (piece.beta.hi
            / (1 - 2 * a_hi + Fraction(piece.n_k, 1 << (piece.n_k - 3))))


def _half_bound_caseB(piece: PieceEndpoints, bits: int) -> Fraction:
    """Upper evaluation of 1 / alpha_{k+1}^(n_k/2 - 1)."""
    if piece.n_k % 2 == 0:
        # integer exponent, exact
        return 1 / piece.alpha_next.lo ** (piece.n_k // 2 - 1)
    # 1 / sqrt(P) <= 2^bits / isqrt(floor(P 4^bits)) for P = alpha^(n_k - 2)
    power = piece.alpha_next.lo ** (piece.n_k - 2)
    return Fraction(1 << bits,
                    isqrt((power.numerator << 2 * bits) // power.denominator))


def thickness_Cl(x: Fraction, ell: int, k_max: int, q_max: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThicknessReport:
    """Truncated thickness of the tail construction starting at piece ell.

    The reported value is the minimum, over the truncation, of the three
    ratio families (within-piece gap ratios, piece-over-gap ratios, and
    right-tail-over-gap ratios); each certified ratio is also checked
    against the analytic lower bound that holds for every gap of its
    family, and any failure is recorded as a violation.
    """
    x = Fraction(x)
    _check_tail_budget(ell, k_max, q_max)
    case_b = binary_expansion(x) == EpSequence.from_digits((0, 1), (0,))
    m: Optional[int] = None if case_b else first_switch_index(x)
    violations: list[dict] = []
    family_gap: Fraction | None = None
    family_piece: Fraction | None = None
    family_half: Fraction | None = None
    for k in range(ell, ell + k_max):
        piece = piece_endpoints(x, k, cfg)
        check_bounds = case_b or piece.n_k > m
        if case_b:
            gap_bound = _gap_bound_caseB(piece)
            piece_bound = _piece_bound_caseB(piece)
            half_bound = _half_bound_caseB(piece, cfg.precision_bits)
        elif check_bounds:
            gap_bound = _gap_bound_caseA(piece, m)
            piece_bound = _piece_bound_caseA(piece, m)
            half_bound = _half_bound_caseA(piece, m)
        for record in _gap_records(x, k, q_max, cfg):
            lo = min(record.left_ratio_lo, record.right_ratio_lo)
            if family_gap is None or lo < family_gap:
                family_gap = lo
            if check_bounds and lo < gap_bound:
                violations.append({"family": "gap_ratio", "k": k,
                                   "position": record.position,
                                   "ratio": str(lo), "bound": str(gap_bound)})
        pr = _piece_ratio_lo(piece)
        hr = _half_ratio_lo(piece)
        if family_piece is None or pr < family_piece:
            family_piece = pr
        if family_half is None or hr < family_half:
            family_half = hr
        if check_bounds and pr < piece_bound:
            violations.append({"family": "piece_gap", "k": k,
                               "ratio": str(pr), "bound": str(piece_bound)})
        if check_bounds and hr < half_bound:
            violations.append({"family": "half_gap", "k": k,
                               "ratio": str(hr), "bound": str(half_bound)})
    tau = min(family_gap, family_piece, family_half)
    return ThicknessReport(
        x, ell, k_max, q_max, tau,
        {"bridge_F": family_gap, "piece_ratios": family_piece,
         "bridge_half": family_half},
        tuple(violations))


# ---------------------------------------------------------------------------
# instance-by-instance verification of the switch inequalities


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    kind: str
    params: dict
    lhs: str
    rhs: str
    passed: bool

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


@dataclass(frozen=True, slots=True)
class VerificationLedger:
    case: str
    x: Fraction
    trials: int
    seed: int
    entries: tuple[LedgerEntry, ...]

    @property
    def violations(self) -> list[LedgerEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> dict:
        return {"case": self.case, "x": str(self.x), "trials": self.trials,
                "seed": self.seed, "zero_index_convention": "n >= 2",
                "checked": len(self.entries),
                "violations": [e.to_json() for e in self.violations],
                "entries": [e.to_json() for e in self.entries]}


def _draw_switch_pair(rng: random.Random, x: Fraction,
                      q_range: tuple[int, int]) -> tuple[Word, EpSequence, EpSequence]:
    """Random word whose 1-tail and 0-tail extensions are both admissible."""
    xs = binary_expansion(x)
    for _ in range(400):
        q = rng.randint(*q_range)
        w = Word(tuple(rng.randint(0, 1) for _ in range(q)))
        hi = EpSequence(w, ONE_TAIL)
        lo = EpSequence(w, ZERO_TAIL)
        if admissible(xs, hi) and admissible(xs, lo):
            return w, hi, lo
    raise HypothesisUnsatisfiable(
        f"no admissible switch pair found for {x} with q in {q_range}")


def verify_caseA(x: Fraction, trials: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks of the switch inequalities for targets other
    than 1/4, plus the derived per-gap ratio bounds; `trials` instances of
    each shape."""
    if trials < 1:
        raise InvalidInput(f"trials must be positive, got {trials}")
    x = Fraction(x)
    m = first_switch_index(x)     # raises for x = 1/4
    rng = random.Random(seed)
    xs = binary_expansion(x)
    entries: list[LedgerEntry] = []

    for _ in range(trials):
        w, hi, lo = _draw_switch_pair(rng, x, (3, 12))
        lam1 = psi_inverse(x, hi, cfg)
        lam2 = psi_inverse(x, lo, cfg)
        lhs = lam2.lo - lam1.hi
        rhs = lam2.hi ** len(w) / 4
        entries.append(LedgerEntry(
            "switch_lower", {"word": str(w)}, str(lhs), str(rhs), lhs >= rhs))

    prefix = xs.prefix(m)
    for _ in range(trials):
        found = None
        for _attempt in range(400):
            q = rng.randint(1, 8)
            j = Word(tuple(rng.randint(0, 1) for _ in range(q)))
            s3 = EpSequence(prefix + j + ONE_TAIL, ZERO_TAIL)
            s4 = EpSequence(prefix + j + ZERO_TAIL, ONE_TAIL)
            if admissible(xs, s3) and admissible(xs, s4):
                found = (q, s3, s4)
                break
        if found is None:
            raise HypothesisUnsatisfiable(f"no admissible upper shape for {x}")
        q, s3, s4 = found
        lam3 = psi_inverse(x, s3, cfg)
        lam4 = psi_inverse(x, s4, cfg)
        lhs = lam4.hi - lam3.lo
        l3_lo, l3_hi = lam3.lo, lam3.hi
        l4_lo, l4_hi = lam4.lo, lam4.hi
        bound1 = 2 * (1 - 2 * l3_hi) * l3_lo ** (q + 2)
        bound2 = 2 * (1 - 2 * l4_hi) * l4_lo ** (m + q) / l3_hi ** (m - 2)
        rhs = min(bound1, bound2)
        entries.append(LedgerEntry(
            "switch_upper", {"q": q, "m": m}, str(lhs), str(rhs), lhs <= rhs))

    k0 = 1
    while _nk(x, k0) <= m:
        k0 += 1
    for _ in range(trials):
        k = rng.randint(k0, k0 + 4)
        piece = piece_endpoints(x, k, cfg)
        omega = Word(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))))
        record = gap_record(x, k, omega, cfg)
        bound = _gap_bound_caseA(piece, m)
        lo = min(record.left_ratio_lo, record.right_ratio_lo)
        entries.append(LedgerEntry(
            "gap_ratio", {"k": k, "omega": str(omega)},
            str(lo), str(bound), lo >= bound))
        pr, hr = _piece_ratio_lo(piece), _half_ratio_lo(piece)
        pb, hb = _piece_bound_caseA(piece, m), _half_bound_caseA(piece, m)
        entries.append(LedgerEntry("piece_gap", {"k": k}, str(pr), str(pb),
                                   pr >= pb))
        entries.append(LedgerEntry("half_gap", {"k": k}, str(hr), str(hb),
                                   hr >= hb))

    return VerificationLedger("A", x, trials, seed, tuple(entries))


def verify_caseB(trials: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks for the exceptional target 1/4, including the
    exact square identity (1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k)."""
    if trials < 1:
        raise InvalidInput(f"trials must be positive, got {trials}")
    x = Fraction(1, 4)
    rng = random.Random(seed)
    entries: list[LedgerEntry] = []
    bits = cfg.precision_bits

    for _ in range(trials):
        mm = rng.randint(1, 6)
        q = rng.randint(1, 6)
        j = Word(tuple(rng.randint(0, 1) for _ in range(q)))
        head = Word((0, 1) + (0,) * mm) + j
        s1 = EpSequence(head, ONE_TAIL)
        s2 = EpSequence(head, ZERO_TAIL)
        lam1 = psi_inverse(x, s1, cfg)
        lam2 = psi_inverse(x, s2, cfg)
        lhs = lam2.lo - lam1.hi
        den = 1 - 2 * lam1.hi + Fraction(mm + 3, 1 << mm)
        rhs = lam2.hi ** (mm + 2 + q) / den
        entries.append(LedgerEntry(
            "switch_lower", {"m": mm, "q": q, "word": str(j)},
            str(lhs), str(rhs), lhs >= rhs))

    for _ in range(trials):
        q = rng.randint(1, 8)
        j = Word(tuple(rng.randint(0, 1) for _ in range(q)))
        head = Word((0, 1)) + j
        s3 = EpSequence(head + ONE_TAIL, ZERO_TAIL)
        s4 = EpSequence(head + ZERO_TAIL, ONE_TAIL)
        lam3 = psi_inverse(x, s3, cfg)
        lam4 = psi_inverse(x, s4, cfg)
        lhs = lam4.hi - lam3.lo
        rhs = lam3.lo ** (2 + q)
        entries.append(LedgerEntry(
            "switch_upper", {"q": q, "word": str(j)},
            str(lhs), str(rhs), lhs <= rhs))

    residual_cap = Fraction(1, 1 << 70)
    for k in range(1, 7):
        piece = piece_endpoints(x, k, cfg)
        # the residual falls as alpha rises in [0, 1/2], so its exact range
        # over the cell [a_lo, a_hi] is [res(a_hi), res(a_lo)]
        a_lo = piece.alpha_next.lo
        a_hi = piece.alpha_next.hi
        res_lo = (HALF - a_hi) ** 2 - a_hi ** piece.n_k
        res_hi = (HALF - a_lo) ** 2 - a_lo ** piece.n_k
        magnitude = round_dyadic(max(-res_lo, res_hi), bits, True)
        entries.append(LedgerEntry(
            "square_identity", {"k": k, "n_k": piece.n_k},
            str(magnitude), str(residual_cap),
            res_lo <= 0 <= res_hi and magnitude <= residual_cap))
        record = gap_record(x, k, word_at_position(1 + (k % 7)), cfg)
        lo = min(record.left_ratio_lo, record.right_ratio_lo)
        gb = _gap_bound_caseB(piece)
        entries.append(LedgerEntry("gap_ratio", {"k": k},
                                   str(lo), str(gb), lo >= gb))
        pr, hr = _piece_ratio_lo(piece), _half_ratio_lo(piece)
        pb = _piece_bound_caseB(piece)
        hb = _half_bound_caseB(piece, bits)
        entries.append(LedgerEntry("piece_gap", {"k": k}, str(pr), str(pb),
                                   pr >= pb))
        entries.append(LedgerEntry("half_gap", {"k": k}, str(hr), str(hb),
                                   hr >= hb))

    return VerificationLedger("B", x, trials, seed, tuple(entries))
