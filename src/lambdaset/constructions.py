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
from .lambda_set import (MAX_PREFIXES, admissible, admissible_word,
                         binary_expansion, psi_inverse)
from .numerics import (DEFAULT_CONFIG, Enclosure, PrecisionConfig,
                       dyadic_str, exact_str, memo, on_grid, round_outward)
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
               omega: Optional[tuple[int, ...]] = None
               ) -> tuple[list[Enclosure], list[int]]:
    """Solve the codings in order; raise Inconclusive unless each cell lies
    strictly below the next. `k` and `omega` name the piece, or the gap of
    the piece, in the message. The cells, with their ends on one grid."""
    cells = [psi_inverse(x, s, cfg) for s in codings]
    ends, _ = on_grid([c.cell for c in cells])
    if any(hi >= lo for hi, lo in zip(ends[1:-1:2], ends[2::2])):
        where = (f"piece {k}" if omega is None
                 else f"gap {word_str(omega)} of piece {k}")
        raise Inconclusive(f"endpoints of {where} not separated at target "
                           f"width 2^-{cfg.width_bits}")
    return cells, ends


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
    (alpha, beta, alpha_next), _ = _separated(
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
    (_, g2, g3, _), (_, h1, l2, _, _, h3, l4, _) = _separated(
        piece.x, _codings(base), cfg, piece.k, omega)
    return GapRecord(n_index(omega), (g2, g3),
                     Fraction(min(l2 - h1, l4 - h3), h3 - l2))


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
    return DefiningSequence.from_cells(
        (tail[0][0].alpha, Enclosure((1, 1, 1), cfg.precision_bits)), removals)


class ThicknessReport(NamedTuple):
    """Truncated thickness of the tail construction with its three ratio
    families and the per-gap analytic bound checks. Immutable, so one
    memoised report is shared by every caller: the minima are (name,
    value) pairs and each violation is its (key, value) pairs, both in
    payload order."""

    x: Fraction
    ell: int
    k_max: int
    q_max: int
    tau_truncated: Fraction
    per_family_minima: tuple[tuple[str, Fraction], ...]
    bound_violations: tuple[tuple[tuple[str, object], ...], ...]

    def to_json(self) -> dict:
        return {"x": exact_str(self.x), "ell": self.ell, "k_max": self.k_max,
                "q_max": self.q_max,
                "tau_truncated": exact_str(self.tau_truncated),
                "tau_truncated_float": float(self.tau_truncated),
                "per_family_minima": {k: exact_str(v) for k, v in
                                      self.per_family_minima},
                "bound_violations": [dict(v) for v in self.bound_violations],
                "zero_index_convention": "n >= 2"}


FAMILIES = ("gap_ratio", "piece_gap", "half_gap")


# The per-piece ratios and bounds are memoised like the gap records: a
# report or ledger that shares a piece with an earlier one reads them with
# one lookup each.
@memo
def _piece_ratios(piece: PieceEndpoints) -> tuple[Fraction, Fraction]:
    """Certified lower bounds of the piece-over-gap and right-tail-over-gap
    ratios at the inter-piece gap (beta_k, alpha_{k+1})."""
    (_, a, b, _, _, c), k = on_grid(
        [piece.alpha.cell, piece.beta.cell, piece.alpha_next.cell])
    return Fraction(b - a, c - b), Fraction((1 << k - 1) - c, c - b)


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
def thickness_Cl(x: Fraction, ell: int, k_max: int, q_max: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThicknessReport:
    """Truncated thickness of the tail construction starting at piece ell.

    The reported value is the minimum, over the truncation, of the three
    ratio families (within-piece gap ratios, piece-over-gap ratios, and
    right-tail-over-gap ratios); each certified ratio is also checked
    against the analytic lower bound that holds for every gap of its
    family, and any failure is recorded as a violation. Memoised: a
    repeated report is one lookup and returns the same record.
    """
    x = Fraction(x)
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
    return ThicknessReport(
        x, ell, k_max, q_max, min(minima),
        tuple(zip(("bridge_F", "piece_ratios", "bridge_half"), minima)),
        tuple(violations))


# ---------------------------------------------------------------------------
# instance-by-instance verification of the switch inequalities


class LedgerEntry(NamedTuple):
    kind: str
    params: dict
    lhs: str
    rhs: str
    passed: bool

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
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
    expansion xs; j with the two solved cells, in ascending order. A word
    that starts no admissible coding is rejected before any sequence is
    built."""
    for _ in range(400):
        q = rng.randint(*q_range)
        j = tuple(rng.randint(0, 1) for _ in range(q))
        w = head + j
        if not admissible_word(xs, w):
            continue
        first, second = _codings(w, ends)
        if admissible(xs, first) and admissible(xs, second):
            return j, psi_inverse(x, first, cfg), psi_inverse(x, second, cfg)
    raise HypothesisUnsatisfiable(
        f"the sampler gave up after 400 random words with q in {q_range}: "
        f"none had both codings admissible for x = {exact_str(x)}")


@memo
def _family_verdicts(piece: PieceEndpoints, m: Optional[int], bits: int,
                     record: GapRecord) -> tuple[Verdict, ...]:
    """(lhs, rhs, passed) of each family, in FAMILIES order, for one gap
    record and the piece's inter-piece gap; a repeated one is one lookup."""
    ratios = (record.ratio_lo, *_piece_ratios(piece))
    return tuple((exact_str(ratio), exact_str(bound), ratio >= bound) for
                 ratio, bound in zip(ratios, _family_bounds(piece, m, bits)))


def _family_entries(piece: PieceEndpoints, m: Optional[int], bits: int,
                    record: GapRecord, gap_params: dict) -> list[LedgerEntry]:
    """Ledger entries checking one gap record of the piece, and the piece's
    inter-piece gap, against the family bounds."""
    params = (gap_params, {"k": piece.k}, {"k": piece.k})
    return [LedgerEntry(family, p, *verdict) for family, p, verdict in
            zip(FAMILIES, params, _family_verdicts(piece, m, bits, record))]


# A check's (lhs, rhs, passed), computed from the integers of its cells'
# common grid: passed is True when its inequality is certified, False when
# the opposite one is, and None when neither is.
Verdict = tuple[str, str, Optional[bool]]


def _sides(lhs: int, k: int, num: int, s: int, den: int = 1,
           at_least: bool = True) -> Verdict:
    """lhs 2^-k and num / (den 2^s), den > 0, printed by dyadic_str, and
    whether lhs >= rhs (at_least) or lhs <= rhs."""
    left, right = lhs * den << s, num << k
    return (dyadic_str(lhs, k), dyadic_str(num, s, den),
            left >= right if at_least else left <= right)


def _switch_lower_caseA(lam1: Enclosure, lam2: Enclosure, p: int) -> Verdict:
    """lam2.lo - lam1.hi >= lam2.hi^p / 4; it fails only when even lam2.hi
    - lam1.lo lies below lam2.lo^p / 4."""
    (a_lo, a, b, c), k = on_grid((lam1.cell, lam2.cell))
    lhs, rhs, passed = _sides(b - a, k, c ** p, k * p + 2)
    if not passed and _sides(c - a_lo, k, b ** p, k * p + 2)[2]:
        passed = None
    return lhs, rhs, passed


def _switch_upper_caseA(lam3: Enclosure, lam4: Enclosure, q: int,
                        m: int) -> Verdict:
    """lam4.hi - lam3.lo <= min(bound1, bound2), where, with a, b, c, d the
    ends of lam3 and lam4 on the grid and E = 2^(k(q+3)),
        bound1 = 2 (1 - 2 lam3.hi) lam3.lo^(q+2) = 2 (2^k - 2b) a^(q+2) / E,
        bound2 = 2 (1 - 2 lam4.hi) lam4.lo^(m+q) / lam3.hi^(m-2)
               = 2 (2^k - 2d) c^(m+q) / (E b^(m-2)):
    one integer comparison picks the minimum, and only bound2 needs a gcd,
    against b^(m-2), to print."""
    (a, b, c, d), k = on_grid((lam3.cell, lam4.cell))
    n1 = 2 * ((1 << k) - 2 * b) * a ** (q + 2)
    n2 = 2 * ((1 << k) - 2 * d) * c ** (m + q)
    power = b ** (m - 2)
    num, den = (n1, 1) if n1 * power <= n2 else (n2, power)
    return _sides(d - a, k, num, k * (q + 3), den, at_least=False)


def _switch_lower_caseB(lam1: Enclosure, lam2: Enclosure, mm: int,
                        q: int) -> Verdict:
    """lam2.lo - lam1.hi >= lam2.hi^p / (1 - 2 lam1.hi + (mm + 3) / 2^mm)
    for p = mm + 2 + q: with a, b, c the ends on the grid, the right side
    is c^p / (D 2^(k(p-1) - mm)), D = (2^k - 2a) 2^mm + (mm + 3) 2^k > 0,
    and k(p-1) - mm > 0 as k >= 1 and p >= mm + 3."""
    (_, a, b, c), k = on_grid((lam1.cell, lam2.cell))
    p = mm + 2 + q
    den = ((1 << k) - 2 * a << mm) + (mm + 3 << k)
    return _sides(b - a, k, c ** p, k * (p - 1) - mm, den)


def _switch_upper_caseB(lam3: Enclosure, lam4: Enclosure, q: int) -> Verdict:
    """lam4.hi - lam3.lo <= lam3.lo^(q+2)."""
    (a, _, _, d), k = on_grid((lam3.cell, lam4.cell))
    return _sides(d - a, k, a ** (q + 2), k * (q + 2), at_least=False)


@memo
def _square_identity(piece: PieceEndpoints, bits: int) -> Verdict:
    """(1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k): the residual's largest
    magnitude over alpha_{k+1}'s cell, rounded up to `bits`, against 2^-70.
    It fails when the residual's range excludes 0, and is undecided when
    the range holds 0 but the magnitude tops the cap."""
    lo, hi, e = piece.alpha_next.cell
    n = piece.n_k
    # the residual at a 2^-e is res(a) 2^-(en), falling as a rises in
    # [0, 2^(e-1)], so over the cell it ranges over [res(hi), res(lo)]
    res_lo, res_hi = ((((1 << e - 1) - a) ** 2 << e * (n - 2)) - a ** n
                      for a in (hi, lo))
    _, mag, f = round_outward(max(-res_lo, res_hi), 1 << e * n, bits)
    lhs, rhs, capped = _sides(mag, f, 1, 70, at_least=False)
    return lhs, rhs, res_lo <= 0 <= res_hi and (capped or None)


def verify_caseA(x: Fraction, trials: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks of the switch inequalities for targets other
    than 1/4, plus the derived per-gap ratio bounds; `trials` instances of
    each shape. A switch_lower entry fails only when its violation is
    certified; one whose cells are too wide to decide it raises
    Inconclusive."""
    _check_trials(trials)
    x = Fraction(x)
    m = first_switch_index(x)     # raises for x = 1/4
    rng = random.Random(seed)
    xs = binary_expansion(x)
    entries: list[LedgerEntry] = []

    for _ in range(trials):
        w, lam1, lam2 = _draw(rng, x, xs, cfg, (), (3, 12), BLOCK)
        lhs, rhs, passed = _switch_lower_caseA(lam1, lam2, len(w))
        if passed is None:
            raise Inconclusive(f"switch_lower of word {word_str(w)} not "
                               f"decided at target width 2^-{cfg.width_bits}")
        entries.append(LedgerEntry("switch_lower", {"word": word_str(w)},
                                   lhs, rhs, passed))

    prefix = xs.prefix(m)
    for _ in range(trials):
        j, lam3, lam4 = _draw(rng, x, xs, cfg, prefix, (1, 8), GAP)
        entries.append(LedgerEntry(
            "switch_upper", {"q": len(j), "m": m},
            *_switch_upper_caseA(lam3, lam4, len(j), m)))

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
    exact square identity (1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k); a
    cell too wide to decide that identity raises Inconclusive."""
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
        entries.append(LedgerEntry(
            "switch_lower", {"m": mm, "q": len(j), "word": word_str(j)},
            *_switch_lower_caseB(lam1, lam2, mm, len(j))))

    for _ in range(trials):
        j, lam3, lam4 = _draw(rng, x, xs, cfg, (0, 1), (1, 8), GAP)
        entries.append(LedgerEntry(
            "switch_upper", {"q": len(j), "word": word_str(j)},
            *_switch_upper_caseB(lam3, lam4, len(j))))

    for k in range(1, 7):
        piece = piece_endpoints(x, k, cfg)
        lhs, rhs, passed = _square_identity(piece, bits)
        if passed is None:
            raise Inconclusive(f"square_identity of piece {k} not decided "
                               f"at target width 2^-{cfg.width_bits}")
        entries.append(LedgerEntry(
            "square_identity", {"k": k, "n_k": piece.n_k}, lhs, rhs, passed))
        record = gap_record(piece, word_at_position(1 + (k % 7)), cfg)
        entries += _family_entries(piece, None, bits, record, {"k": k})

    return VerificationLedger("B", x, trials, seed, tuple(entries))
