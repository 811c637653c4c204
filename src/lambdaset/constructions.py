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
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .errors import (DepthBudgetExceeded, HypothesisUnsatisfiable,
                     Inconclusive, InvalidInput)
from .cantor_metrics import DefiningSequence, Interval
from .lambda_set import (MAX_PREFIXES, admissible, binary_expansion,
                         psi_inverse)
from .numerics import (DEFAULT_CONFIG, Enclosure, PrecisionConfig, exact_str,
                       memo, round_dyadic)
from .seqcode import (EpSequence, n_index, word_at_position, word_str,
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
ONE_TAIL = (1,)
ZERO_TAIL = (0,)
# the codings of a word w as (digits after w, repeated tail), in ascending
# order of their ratios: w 1^inf, w 1 0^inf, w 0 1^inf and w 0^inf are the
# ends of w's block, and between them the ends of the gap that splits it
CODINGS = (((), ONE_TAIL), (ONE_TAIL, ZERO_TAIL), (ZERO_TAIL, ONE_TAIL),
           ((), ZERO_TAIL))
BLOCK, GAP = CODINGS[::3], CODINGS[1:3]


def _codings(w: tuple[int, ...], ends=CODINGS) -> list[EpSequence]:
    """The codings of w named by `ends`, rows of CODINGS, in their order."""
    return [EpSequence(w + after, tail) for after, tail in ends]


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
    digits = xs.prefix(len(xs.preperiod) + len(xs.period) + 2)
    if 1 in digits[2:]:
        return digits.index(1, 2) + 1
    raise HypothesisUnsatisfiable(
        f"expansion of {exact_str(x)} has no digit 1 at any index >= 3")


class PieceEndpoints(NamedTuple):
    """Convex hull [alpha, beta] of the k-th piece, plus the next piece's
    left endpoint (solved from the same prefix with the switch digit 0)."""

    x: Fraction
    k: int
    n_k: int
    alpha: Enclosure
    beta: Enclosure
    alpha_next: Enclosure

    def to_json(self) -> dict:
        return {"x": exact_str(self.x), "k": self.k, "n_k": self.n_k,
                "alpha": self.alpha.to_json(), "beta": self.beta.to_json(),
                "alpha_next": self.alpha_next.to_json()}


def _separated(x: Fraction, codings: list[EpSequence],
               cfg: PrecisionConfig, k: int,
               omega: Optional[tuple[int, ...]] = None) -> list[Enclosure]:
    """Solve the codings in order; raise Inconclusive unless each cell lies
    strictly below the next. `k` and `omega` name the piece, or the gap of
    the piece, in the message."""
    cells = [psi_inverse(x, s, cfg) for s in codings]
    for left, right in zip(cells, cells[1:]):
        if not left.hi < right.lo:
            where = (f"piece {k}" if omega is None
                     else f"gap {word_str(omega)} of piece {k}")
            width = exact_str(Fraction(1, 1 << cfg.width_bits))
            raise Inconclusive(f"endpoints of {where} not separated at target "
                               f"width {width}")
    return cells


@memo
def piece_endpoints(x: Fraction, k: int,
                    cfg: PrecisionConfig = DEFAULT_CONFIG) -> PieceEndpoints:
    """Solve alpha_k, beta_k and alpha_{k+1} for the k-th piece. Memoised,
    with the checks inside the cached body."""
    if k < 1:
        raise ValueError("k must be positive")
    x = Fraction(x)
    xs = binary_expansion(x)
    n_k = _nk(x, k)
    alpha, beta, alpha_next = _separated(
        x, _codings(xs.prefix(n_k - 1), CODINGS[:3]), cfg, k)
    return PieceEndpoints(x, k, n_k, alpha, beta, alpha_next)


class GapRecord(NamedTuple):
    """One removed gap of a piece with the certified lower bound of the
    smaller of its two bridge-over-gap ratios."""

    position: int
    gap: Interval
    ratio_lo: Fraction


@memo
def gap_record(piece: PieceEndpoints, omega: tuple[int, ...],
               cfg: PrecisionConfig = DEFAULT_CONFIG) -> GapRecord:
    """Solve the four endpoints around the gap of `piece` labelled by `omega`.

    With p the expansion prefix before the piece's switch, these are the
    four codings of p 1 w; they bound the left bridge, the gap, and the
    right bridge in that order. Memoised: `piece_endpoints` returns one
    object per piece, so a repeated record is one lookup.
    """
    base = (binary_expansion(piece.x).prefix(piece.n_k - 1) + ONE_TAIL
            + omega)
    g1, g2, g3, g4 = _separated(piece.x, _codings(base), cfg, piece.k, omega)
    return GapRecord(n_index(omega), (g2, g3),
                     min(g2.lo - g1.hi, g4.lo - g3.hi) / (g3.hi - g2.lo))


def _tail(x: Fraction, ell: int, k_max: int, q_max: int, cfg: PrecisionConfig
          ) -> list[tuple[PieceEndpoints, list[GapRecord]]]:
    """The truncation of the tail construction: pieces ell, ...,
    ell+k_max-1, in order, each with the records of its first
    2^(q_max+1) - 1 gap words.

    Before any root is solved, raise ValueError for a truncation with no
    pieces or a negative gap-word length, and DepthBudgetExceeded when it
    needs more than MAX_PREFIXES gap records (four root solves each).
    """
    if ell < 1 or k_max < 1 or q_max < 0:
        raise ValueError("ell, k_max must be positive and q_max nonnegative")
    # the first test keeps a huge q_max from building a huge integer
    if (q_max >= MAX_PREFIXES.bit_length()
            or k_max * ((1 << (q_max + 1)) - 1) > MAX_PREFIXES):
        raise DepthBudgetExceeded(
            f"more than {MAX_PREFIXES} gap records for k_max={k_max}, "
            f"q_max={q_max}")
    words = [word_at_position(j) for j in range(1, 1 << (q_max + 1))]
    tail = []
    for k in range(ell, ell + k_max):
        piece = piece_endpoints(x, k, cfg)
        tail.append((piece, [gap_record(piece, w, cfg) for w in words]))
    return tail


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
    tail = _tail(Fraction(x), ell, k_max, q_max, cfg)
    n_gaps = len(tail[0][1])
    removals: list[Interval] = []
    for t in range(1, k_max + n_gaps):
        if t <= k_max:
            piece = tail[t - 1][0]
            removals.append((piece.beta, piece.alpha_next))
        for i in range(max(0, t - k_max), min(t, n_gaps)):
            removals.append(tail[t - 1 - i][1][i].gap)
    half_point = Enclosure.point(HALF, cfg.precision_bits)
    return DefiningSequence.from_cells((tail[0][0].alpha, half_point),
                                       removals)


class ThicknessReport(NamedTuple):
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
        return {"x": exact_str(self.x), "ell": self.ell, "k_max": self.k_max,
                "q_max": self.q_max,
                "tau_truncated": exact_str(self.tau_truncated),
                "tau_truncated_float": float(self.tau_truncated),
                "per_family_minima": {k: exact_str(v) for k, v in
                                      self.per_family_minima.items()},
                "bound_violations": list(self.bound_violations),
                "zero_index_convention": "n >= 2"}


FAMILIES = ("gap_ratio", "piece_gap", "half_gap")


# The per-piece ratios and bounds are memoised like the gap records: a
# repeated report reads them with one lookup each.
@memo
def _piece_ratios(piece: PieceEndpoints) -> tuple[Fraction, Fraction]:
    """Certified lower bounds of the piece-over-gap and right-tail-over-gap
    ratios at the inter-piece gap (beta_k, alpha_{k+1})."""
    den = piece.alpha_next.hi - piece.beta.lo
    return ((piece.beta.lo - piece.alpha.hi) / den,
            (HALF - piece.alpha_next.hi) / den)


@memo
def _family_bounds(piece: PieceEndpoints, m: Optional[int],
                   bits: int) -> tuple[Fraction, Fraction, Fraction]:
    """Upper evaluations, in FAMILIES order, of the analytic lower bounds
    that hold for every gap of each family of the k-th piece; `m` is the
    first switch index, or None for the exceptional target 1/4.

    With a = alpha_k, b = beta_k, c = alpha_{k+1} and n = n_k they are,
    for a switch index m,
        a^(m-1) / (8 (1 - 2a)),  x^(m-1) / (8 (1 - 2b)),  b^(m-2) / (4 c^(n-1)),
    and for 1/4, with d = 1 - 2a + n 2^(3-n),
        a / d,  b / d,  1 / c^(n/2 - 1).
    """
    a_hi, b_hi, c_lo, n_k = (piece.alpha.hi, piece.beta.hi,
                             piece.alpha_next.lo, piece.n_k)
    if m is not None:
        return (a_hi ** (m - 1) / (8 * (1 - 2 * a_hi)),
                piece.x ** (m - 1) / (8 * (1 - 2 * b_hi)),
                b_hi ** (m - 2) / (4 * c_lo ** (n_k - 1)))
    den = 1 - 2 * a_hi + Fraction(n_k, 1 << (n_k - 3))
    if n_k % 2 == 0:
        # integer exponent, exact
        half = 1 / c_lo ** (n_k // 2 - 1)
    else:
        # 1 / sqrt(P) <= 2^bits / isqrt(floor(P 4^bits)) for P = c^(n_k - 2)
        power = c_lo ** (n_k - 2)
        half = Fraction(1 << bits,
                        isqrt((power.numerator << 2 * bits) // power.denominator))
    return a_hi / den, b_hi / den, half


@memo
def _thickness_values(x: Fraction, ell: int, k_max: int, q_max: int,
                      cfg: PrecisionConfig
                      ) -> tuple[Fraction, tuple, tuple[tuple, ...]]:
    """The values of a thickness report: tau, the three minima in FAMILIES
    order, and each violation as the (key, value) pairs of its dict.
    Memoised, and only immutable data, so a cached value is never shared
    with a caller: thickness_Cl builds every record around it afresh."""
    tail = _tail(x, ell, k_max, q_max, cfg)
    m = None if x == Fraction(1, 4) else first_switch_index(x)
    minima: list[Optional[Fraction]] = [None, None, None]
    violations: list[tuple] = []
    for piece, records in tail:
        bounds = (_family_bounds(piece, m, cfg.precision_bits)
                  if m is None or piece.n_k > m else None)
        gap_ratio = [({"position": r.position}, r.ratio_lo) for r in records]
        piece_gap, half_gap = _piece_ratios(piece)
        for i, ratios in enumerate((gap_ratio, [({}, piece_gap)],
                                    [({}, half_gap)])):
            for where, ratio in ratios:
                if minima[i] is None or ratio < minima[i]:
                    minima[i] = ratio
                if bounds is not None and ratio < bounds[i]:
                    violations.append(tuple({
                        "family": FAMILIES[i], "k": piece.k, **where,
                        "ratio": exact_str(ratio),
                        "bound": exact_str(bounds[i])}.items()))
    return min(minima), tuple(minima), tuple(violations)


def thickness_Cl(x: Fraction, ell: int, k_max: int, q_max: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThicknessReport:
    """Truncated thickness of the tail construction starting at piece ell.

    The reported value is the minimum, over the truncation, of the three
    ratio families (within-piece gap ratios, piece-over-gap ratios, and
    right-tail-over-gap ratios); each certified ratio is also checked
    against the analytic lower bound that holds for every gap of its
    family, and any failure is recorded as a violation. A repeated report
    is one lookup of its values; the record, its minima dict and its
    violation dicts are new on every call.
    """
    x = Fraction(x)
    tau, minima, violations = _thickness_values(x, ell, k_max, q_max, cfg)
    return ThicknessReport(
        x, ell, k_max, q_max, tau,
        dict(zip(("bridge_F", "piece_ratios", "bridge_half"), minima)),
        tuple(dict(v) for v in violations))


# ---------------------------------------------------------------------------
# instance-by-instance verification of the switch inequalities


class LedgerEntry(NamedTuple):
    kind: str
    params: dict
    lhs: str
    rhs: str
    passed: bool

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


class VerificationLedger(NamedTuple):
    case: str
    x: Fraction
    trials: int
    seed: int
    entries: tuple[LedgerEntry, ...]

    @property
    def violations(self) -> list[LedgerEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> dict:
        return {"case": self.case, "x": exact_str(self.x),
                "trials": self.trials,
                "seed": self.seed, "zero_index_convention": "n >= 2",
                "checked": len(self.entries),
                "violations": [e.to_json() for e in self.violations],
                "entries": [e.to_json() for e in self.entries]}


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise InvalidInput(f"trials must be positive, got {trials}")
    if trials > MAX_PREFIXES:
        raise DepthBudgetExceeded(
            f"more than {MAX_PREFIXES} trials: {trials}")


def _draw(rng: random.Random, x: Fraction, xs: EpSequence,
          cfg: PrecisionConfig, head: tuple[int, ...],
          q_range: tuple[int, int], ends: tuple
          ) -> tuple[tuple[int, ...], Enclosure, Enclosure]:
    """Random word j of length in q_range whose two codings
    _codings(head + j, ends) are both admissible for the target x with
    expansion xs; j with the two solved cells, in ascending order.

    A coding that starts with w lies in [xs, 0 1^inf] only if w lies
    between the first |w| digits of xs and 0 1^(|w|-1), so a word outside
    them is rejected before any sequence is built."""
    for _ in range(400):
        q = rng.randint(*q_range)
        j = tuple(rng.randint(0, 1) for _ in range(q))
        w = head + j
        if not xs.prefix(len(w)) <= w <= (0,) + (1,) * (len(w) - 1):
            continue
        first, second = _codings(w, ends)
        if admissible(xs, first) and admissible(xs, second):
            return j, psi_inverse(x, first, cfg), psi_inverse(x, second, cfg)
    raise HypothesisUnsatisfiable(
        f"the sampler gave up after 400 random words with q in {q_range}: "
        f"none had both codings admissible for x = {exact_str(x)}")


def _family_entries(piece: PieceEndpoints, m: Optional[int], bits: int,
                    record: GapRecord, gap_params: dict) -> list[LedgerEntry]:
    """Ledger entries checking one gap record of the piece, and the piece's
    inter-piece gap, against the family bounds."""
    ratios = (record.ratio_lo, *_piece_ratios(piece))
    params = (gap_params, {"k": piece.k}, {"k": piece.k})
    return [LedgerEntry(family, p, exact_str(ratio), exact_str(bound),
                        ratio >= bound)
            for family, p, ratio, bound in
            zip(FAMILIES, params, ratios, _family_bounds(piece, m, bits))]


def _switch_upper_rhs(lam3: Enclosure, lam4: Enclosure, q: int,
                      m: int) -> Fraction:
    """min(bound1, bound2) for the switch_upper check, where

        bound1 = 2 (1 - 2 lam3.hi) lam3.lo^(q+2),
        bound2 = 2 (1 - 2 lam4.hi) lam4.lo^(m+q) / lam3.hi^(m-2).

    On the cells' common dyadic grid 2^-k, with a, b, c, d the integers of
    lam3.lo, lam3.hi, lam4.lo and lam4.hi and E = 2^(k(q+3)),

        bound1 = n1 / E,  n1 = 2 (2^k - 2b) a^(q+2),
        bound2 = n2 / (E b^(m-2)),  n2 = 2 (2^k - 2d) c^(m+q),

    so bound1 is the smaller (or equal) exactly when n1 b^(m-2) <= n2: one
    integer comparison picks it, and one Fraction is built."""
    ends = (lam3.lo, lam3.hi, lam4.lo, lam4.hi)
    k = max(e.denominator.bit_length() for e in ends) - 1
    a, b, c, d = (e.numerator << (k + 1 - e.denominator.bit_length())
                  for e in ends)
    n1 = 2 * ((1 << k) - 2 * b) * a ** (q + 2)
    n2 = 2 * ((1 << k) - 2 * d) * c ** (m + q)
    power = b ** (m - 2)
    if n1 * power <= n2:
        return Fraction(n1, 1 << k * (q + 3))
    return Fraction(n2, power << k * (q + 3))


def verify_caseA(x: Fraction, trials: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks of the switch inequalities for targets other
    than 1/4, plus the derived per-gap ratio bounds; `trials` instances of
    each shape."""
    _check_trials(trials)
    x = Fraction(x)
    m = first_switch_index(x)     # raises for x = 1/4
    rng = random.Random(seed)
    xs = binary_expansion(x)
    entries: list[LedgerEntry] = []

    for _ in range(trials):
        w, lam1, lam2 = _draw(rng, x, xs, cfg, (), (3, 12), BLOCK)
        lhs = lam2.lo - lam1.hi
        # lam2.hi^|w| / 4 as one Fraction
        rhs = Fraction(lam2.hi.numerator ** len(w),
                       lam2.hi.denominator ** len(w) << 2)
        entries.append(LedgerEntry("switch_lower", {"word": word_str(w)},
                                   exact_str(lhs), exact_str(rhs), lhs >= rhs))

    prefix = xs.prefix(m)
    for _ in range(trials):
        j, lam3, lam4 = _draw(rng, x, xs, cfg, prefix, (1, 8), GAP)
        q = len(j)
        lhs = lam4.hi - lam3.lo
        rhs = _switch_upper_rhs(lam3, lam4, q, m)
        entries.append(LedgerEntry(
            "switch_upper", {"q": q, "m": m}, exact_str(lhs), exact_str(rhs),
            lhs <= rhs))

    k0 = 1
    while _nk(x, k0) <= m:
        k0 += 1
    for _ in range(trials):
        k = rng.randint(k0, k0 + 4)
        piece = piece_endpoints(x, k, cfg)
        omega = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
        record = gap_record(piece, omega, cfg)
        entries += _family_entries(piece, m, cfg.precision_bits, record,
                                   {"k": k, "omega": word_str(omega)})

    return VerificationLedger("A", x, trials, seed, tuple(entries))


def verify_caseB(trials: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks for the exceptional target 1/4, including the
    exact square identity (1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k)."""
    _check_trials(trials)
    x = Fraction(1, 4)
    rng = random.Random(seed)
    xs = binary_expansion(x)
    entries: list[LedgerEntry] = []
    bits = cfg.precision_bits

    # every coding that starts 01 is admissible for 1/4: no draw is rejected
    for _ in range(trials):
        mm = rng.randint(1, 6)
        head = (0, 1) + (0,) * mm
        j, lam1, lam2 = _draw(rng, x, xs, cfg, head, (1, 6), BLOCK)
        q = len(j)
        lhs = lam2.lo - lam1.hi
        den = 1 - 2 * lam1.hi + Fraction(mm + 3, 1 << mm)
        rhs = lam2.hi ** (mm + 2 + q) / den
        entries.append(LedgerEntry(
            "switch_lower", {"m": mm, "q": q, "word": word_str(j)},
            exact_str(lhs), exact_str(rhs), lhs >= rhs))

    for _ in range(trials):
        j, lam3, lam4 = _draw(rng, x, xs, cfg, (0, 1), (1, 8), GAP)
        q = len(j)
        lhs = lam4.hi - lam3.lo
        rhs = lam3.lo ** (2 + q)
        entries.append(LedgerEntry(
            "switch_upper", {"q": q, "word": word_str(j)},
            exact_str(lhs), exact_str(rhs), lhs <= rhs))

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
            exact_str(magnitude), exact_str(residual_cap),
            res_lo <= 0 <= res_hi and magnitude <= residual_cap))
        record = gap_record(piece, word_at_position(1 + (k % 7)), cfg)
        entries += _family_entries(piece, None, bits, record, {"k": k})

    return VerificationLedger("B", x, trials, seed, tuple(entries))
