"""Explicit Cantor subsets of the ratio set and their certified thickness.

For the k-th zero index n_k of the target's base-1/2 expansion, switching
that digit to 1 opens a block of admissible codings; its ratio image is a
Cantor piece [alpha_k, beta_k]. Pieces accumulate at 1/2, and together with
the point 1/2 they form nested Cantor subsets whose truncated thickness is
evaluated here gap by gap. The module also verifies, instance by instance,
the analytic gap inequalities that control every gap beyond the truncation
(one family for targets whose expansion has a 1 at some index >= 3, one for
the exceptional target 1/4). One walker draws, decides and records each
case's table of checks; an undecided entry of any kind (today only case
A's switch_lower or case B's square_identity) ends the ledger
Inconclusive. A piece carries the precision it was solved at, so each
per-piece value is memoised on the piece (and a gap word). The sampler also
draws the members of a check of the coding map's Lipschitz constant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import NamedTuple, Optional

from .errors import (DepthBudgetExceeded, HypothesisUnsatisfiable,
                     Inconclusive, InvalidInput)
from .cantor_metrics import DefiningSequence, Interval
from .ifs_core import pi_eval
from .lambda_set import MAX_PREFIXES, admissible_word, psi_inverse
from .numerics import (DEFAULT_CONFIG, HALF, HALF_CELL, Enclosure,
                       PrecisionConfig, dyadic_str, exact_str, memo, on_grid,
                       round_outward)
from .seqcode import (EpSequence, binary_expansion, n_index, word_at_position,
                      word_str, zero_indices)

__all__ = [
    "PieceEndpoints",
    "GapRecord",
    "ThicknessReport",
    "LedgerEntry",
    "VerificationLedger",
    "LipschitzReport",
    "first_switch_index",
    "piece_endpoints",
    "gap_record",
    "defining_sequence_Cl",
    "thickness_Cl",
    "verify_caseA",
    "verify_caseB",
    "lipschitz_check",
]

QUARTER = Fraction(1, 4)
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
    left endpoint (solved from the same prefix with the switch digit 0),
    and the precision they were solved at: the key of each per-piece memo."""

    x: Fraction
    k: int
    n_k: int
    alpha: Enclosure
    beta: Enclosure
    alpha_next: Enclosure
    precision: PrecisionConfig

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
        raise InvalidInput("k must be positive")
    x = Fraction(x)
    xs = binary_expansion(x)
    if k > MAX_PREFIXES:
        raise DepthBudgetExceeded(f"more than {MAX_PREFIXES} pieces: k={k}")
    n_k = zero_indices(xs, k)[k - 1]
    (alpha, beta, alpha_next), _ = _separated(
        x, _codings(xs.prefix(n_k - 1), CODINGS[:3]), cfg, k)
    return PieceEndpoints(x, k, n_k, alpha, beta, alpha_next, cfg)


class GapRecord(NamedTuple):
    """One removed gap of a piece with the certified lower bound of the
    smaller of its two bridge-over-gap ratios."""

    position: int
    gap: Interval
    ratio_lo: Fraction


@memo
def gap_record(piece: PieceEndpoints, omega: tuple[int, ...]) -> GapRecord:
    """Solve the four endpoints around the gap of `piece` labelled by
    `omega`, at the piece's precision.

    With p the expansion prefix before the piece's switch, these are the
    four codings of p 1 w; they bound the left bridge, the gap, and the
    right bridge in that order. Memoised: `piece_endpoints` returns one
    object per piece, so a repeated record is one lookup.
    """
    base = (binary_expansion(piece.x).prefix(piece.n_k - 1) + ONE_TAIL
            + omega)
    (_, g2, g3, _), (_, h1, l2, _, _, h3, l4, _) = _separated(
        piece.x, _codings(base), piece.precision, piece.k, omega)
    return GapRecord(n_index(omega), (g2, g3),
                     Fraction(min(l2 - h1, l4 - h3), h3 - l2))


def _tail(x: Fraction, ell: int, k_max: int, q_max: int, cfg: PrecisionConfig
          ) -> list[tuple[PieceEndpoints, list[GapRecord]]]:
    """The truncation of the tail construction: pieces ell, ...,
    ell+k_max-1, in order, each with the records of its first
    2^(q_max+1) - 1 gap words.

    Before any root is solved, raise InvalidInput for a truncation with no
    pieces or a negative gap-word length, and DepthBudgetExceeded when it
    needs more than MAX_PREFIXES gap records (four root solves each).
    """
    if ell < 1 or k_max < 1 or q_max < 0:
        raise InvalidInput("ell, k_max must be positive and q_max nonnegative")
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
        tail.append((piece, [gap_record(piece, w) for w in words]))
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
        (tail[0][0].alpha, Enclosure(HALF_CELL, cfg.precision_bits)), removals)


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


@memo
def _piece_families(piece: PieceEndpoints) -> tuple[
        tuple[Fraction, Fraction], Optional[tuple[Fraction, ...]]]:
    """The piece's ratios, certified lower bounds of the piece-over-gap and
    right-tail-over-gap ratios at the inter-piece gap (beta_k, alpha_{k+1}),
    and its bounds: upper evaluations at its precision, in FAMILIES order,
    of the analytic lower bounds on every gap of each family. The bounds
    are None when n_k <= m, m the first switch index (1/4 has none).

    With a and b the high ends of alpha_k and beta_k, c the low end of
    alpha_{k+1} and n = n_k, they are, for a switch index m,
        a^(m-1) / (8 (1 - 2a)),  x^(m-1) / (8 (1 - 2b)),  b^(m-2) / (4 c^(n-1)),
    and for 1/4, with d = 1 - 2a + n 2^(3-n),
        a / d,  b / d,  1 / c^(n/2 - 1).
    """
    (_, a_hi, b_lo, b_hi, c_lo, c_hi), e = on_grid(
        [piece.alpha.cell, piece.beta.cell, piece.alpha_next.cell])
    ratios = (Fraction(b_lo - a_hi, c_hi - b_lo),
              Fraction((1 << e - 1) - c_hi, c_hi - b_lo))
    n = piece.n_k
    if piece.x != QUARTER:
        m = first_switch_index(piece.x)
        p, q = piece.x.numerator, piece.x.denominator
        return ratios, None if n <= m else (
            Fraction(a_hi ** (m - 1), 8 * ((1 << e) - 2 * a_hi) << e * (m - 2)),
            Fraction(p ** (m - 1) << e, 8 * q ** (m - 1) * ((1 << e) - 2 * b_hi)),
            Fraction(b_hi ** (m - 2) << e * (n - m + 1), 4 * c_lo ** (n - 1)))
    den = ((1 << e) - 2 * a_hi << n - 3) + (n << e)   # d 2^(e + n - 3)
    if n % 2 == 0:
        # integer exponent, exact
        half = Fraction(1 << e * (n // 2 - 1), c_lo ** (n // 2 - 1))
    else:
        # 1 / sqrt(P) <= 2^bits / isqrt(floor(P 4^bits)) for P = c^(n_k - 2)
        bits = piece.precision.precision_bits
        half = Fraction(1 << bits,
                        isqrt(c_lo ** (n - 2) << 2 * bits >> e * (n - 2)))
    return ratios, (Fraction(a_hi << n - 3, den),
                    Fraction(b_hi << n - 3, den), half)


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
    minima: list[Optional[Fraction]] = [None, None, None]
    violations: list[tuple] = []
    for piece, records in tail:
        (piece_gap, half_gap), bounds = _piece_families(piece)
        gap_ratio = [({"position": r.position}, r.ratio_lo) for r in records]
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
    """One check; `params` are its (key, value) pairs in payload order."""

    kind: str
    params: tuple[tuple[str, object], ...]
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
    built. One that starts one has both codings at most 0 1^inf, so only
    their lower bound xs is left to compare."""
    for _ in range(400):
        q = rng.randint(*q_range)
        j = tuple(rng.choice((0, 1)) for _ in range(q))
        w = head + j
        if not admissible_word(xs, w):
            continue
        first, second = _codings(w, ends)
        if xs <= first and xs <= second:
            return j, psi_inverse(x, first, cfg), psi_inverse(x, second, cfg)
    raise HypothesisUnsatisfiable(
        f"the sampler gave up after 400 random words with q in {q_range}: "
        f"none had both codings admissible for x = {exact_str(x)}")


@memo
def _family_entries(piece: PieceEndpoints, omega: tuple[int, ...]
                    ) -> tuple[LedgerEntry, ...]:
    """Ledger entries, in FAMILIES order, checking the piece's gap labelled
    by `omega`, and its inter-piece gap, against the family bounds, which
    must apply to the piece. The gap entry names k and, but for 1/4, omega.
    A repeated one is one lookup, with no gap record looked up."""
    (piece_gap, half_gap), bounds = _piece_families(piece)
    k = (("k", piece.k),)
    params = (k if piece.x == QUARTER else k + (("omega", word_str(omega)),),
              k, k)
    ratios = (gap_record(piece, omega).ratio_lo, piece_gap, half_gap)
    return tuple(LedgerEntry(family, p, exact_str(r), exact_str(b), r >= b)
                 for family, p, r, b in zip(FAMILIES, params, ratios, bounds))


# A switch check's (params, lhs, rhs, passed), lhs and rhs on its cells'
# common grid: passed is True when its inequality is certified, False when
# the opposite one is, and None when neither is.
Check = tuple[tuple[tuple[str, object], ...], str, str, Optional[bool]]


def _sides(lhs: int, k: int, num: int, s: int, den: int = 1,
           at_least: bool = True) -> tuple[str, str, bool]:
    """lhs 2^-k and num / (den 2^s), den > 0, printed by dyadic_str, and
    whether lhs >= rhs (at_least) or lhs <= rhs."""
    left, right = lhs * den << s, num << k
    return (dyadic_str(lhs, k), dyadic_str(num, s, den),
            left >= right if at_least else left <= right)


def _switch_lower_caseA(lam1: Enclosure, lam2: Enclosure,
                        head: tuple[int, ...], j: tuple[int, ...]) -> Check:
    """lam2.lo - lam1.hi >= lam2.hi^p / 4 for the word w = head j of length
    p; it fails only when even lam2.hi - lam1.lo lies below lam2.lo^p / 4."""
    w = head + j
    p = len(w)
    (a_lo, a, b, c), k = on_grid((lam1.cell, lam2.cell))
    lhs, rhs, passed = _sides(b - a, k, c ** p, k * p + 2)
    if not passed and _sides(c - a_lo, k, b ** p, k * p + 2)[2]:
        passed = None
    return (("word", word_str(w)),), lhs, rhs, passed


def _switch_upper_caseA(lam3: Enclosure, lam4: Enclosure,
                        head: tuple[int, ...], j: tuple[int, ...]) -> Check:
    """lam4.hi - lam3.lo <= min(bound1, bound2) for the first m = |head|
    digits of the expansion and q = |j|, where, with a, b, c, d the ends of
    lam3 and lam4 on the grid and E = 2^(k(q+3)),
        bound1 = 2 (1 - 2 lam3.hi) lam3.lo^(q+2) = 2 (2^k - 2b) a^(q+2) / E,
        bound2 = 2 (1 - 2 lam4.hi) lam4.lo^(m+q) / lam3.hi^(m-2)
               = 2 (2^k - 2d) c^(m+q) / (E b^(m-2)):
    one integer comparison picks the minimum, and only bound2 needs a gcd,
    against b^(m-2), to print."""
    q, m = len(j), len(head)
    (a, b, c, d), k = on_grid((lam3.cell, lam4.cell))
    n1 = 2 * ((1 << k) - 2 * b) * a ** (q + 2)
    n2 = 2 * ((1 << k) - 2 * d) * c ** (m + q)
    power = b ** (m - 2)
    num, den = (n1, 1) if n1 * power <= n2 else (n2, power)
    return ((("q", q), ("m", m)),
            *_sides(d - a, k, num, k * (q + 3), den, at_least=False))


def _switch_lower_caseB(lam1: Enclosure, lam2: Enclosure,
                        head: tuple[int, ...], j: tuple[int, ...]) -> Check:
    """lam2.lo - lam1.hi >= lam2.hi^p / (1 - 2 lam1.hi + (mm + 3) / 2^mm)
    for the head 0 1 0^mm and p = mm + 2 + |j|: with a, b, c the ends on
    the grid, the right side is c^p / (D 2^(k(p-1) - mm)), D = (2^k - 2a)
    2^mm + (mm + 3) 2^k > 0, and k(p-1) - mm > 0 as k >= 1 and p >= mm + 3."""
    mm, q = len(head) - 2, len(j)
    (_, a, b, c), k = on_grid((lam1.cell, lam2.cell))
    p = mm + 2 + q
    den = ((1 << k) - 2 * a << mm) + (mm + 3 << k)
    return ((("m", mm), ("q", q), ("word", word_str(j))),
            *_sides(b - a, k, c ** p, k * (p - 1) - mm, den))


def _switch_upper_caseB(lam3: Enclosure, lam4: Enclosure,
                        head: tuple[int, ...], j: tuple[int, ...]) -> Check:
    """lam4.hi - lam3.lo <= lam3.lo^(q+2), q = |j|."""
    q = len(j)
    (a, _, _, d), k = on_grid((lam3.cell, lam4.cell))
    return ((("q", q), ("word", word_str(j))),
            *_sides(d - a, k, a ** (q + 2), k * (q + 2), at_least=False))


@memo
def _square_identity(piece: PieceEndpoints) -> LedgerEntry:
    """(1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k): the residual's largest
    magnitude over alpha_{k+1}'s cell, rounded up to the piece's precision,
    against 2^-70. It fails when the residual's range excludes 0, and is
    undecided when the range holds 0 but the magnitude tops the cap."""
    lo, hi, e = piece.alpha_next.cell
    n, bits = piece.n_k, piece.precision.precision_bits
    # the residual at a 2^-e is res(a) 2^-(en), falling as a rises in
    # [0, 2^(e-1)], so over the cell it ranges over [res(hi), res(lo)]
    res_lo, res_hi = ((((1 << e - 1) - a) ** 2 << e * (n - 2)) - a ** n
                      for a in (hi, lo))
    _, mag, f = round_outward(max(-res_lo, res_hi), 1 << e * n, bits)
    lhs, rhs, capped = _sides(mag, f, 1, 70, at_least=False)
    return LedgerEntry("square_identity", (("k", piece.k), ("n_k", n)), lhs,
                       rhs, res_lo <= 0 <= res_hi and (capped or None))


def _ledger(case: str, x: Fraction, trials: int, cfg: PrecisionConfig,
            seed: int, switches: tuple, pieces) -> VerificationLedger:
    """One case's ledger from its table: `trials` entries of each switch
    row (kind, head, q_range, ends, check), the word head(rng) + j that
    _draw completes judged by check(cell, cell, head, j); then, for each
    (k, omega) of pieces(rng), case B's square identity of piece k and the
    family entries of its gap omega. An undecided entry raises Inconclusive
    naming its kind, its word or piece, and the width."""
    rng = random.Random(seed)
    xs = binary_expansion(x)
    entries: list[LedgerEntry] = []

    def undecided(entry: LedgerEntry, where: str) -> Inconclusive:
        return Inconclusive(f"{entry.kind} of {where} not decided at target "
                            f"width 2^-{cfg.width_bits}")

    for kind, head, q_range, ends, check in switches:
        for _ in range(trials):
            h = head(rng)
            j, lo, hi = _draw(rng, x, xs, cfg, h, q_range, ends)
            entry = LedgerEntry(kind, *check(lo, hi, h, j))
            if entry.passed is None:
                raise undecided(entry, f"word {word_str(h + j)}")
            entries.append(entry)
    for k, omega in pieces(rng):
        piece = piece_endpoints(x, k, cfg)
        square = (_square_identity(piece),) if case == "B" else ()
        for entry in square + _family_entries(piece, omega):
            if entry.passed is None:
                raise undecided(entry, f"piece {k}")
            entries.append(entry)
    return VerificationLedger(case, x, trials, seed, tuple(entries))


def verify_caseA(x: Fraction, trials: int,
                 cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks of the switch inequalities for targets other
    than 1/4, plus the derived per-gap ratio bounds; `trials` instances of
    each shape, the pieces drawn from the first five the bounds apply to."""
    _check_trials(trials)
    x = Fraction(x)
    m = first_switch_index(x)     # raises for x = 1/4
    prefix = binary_expansion(x).prefix(m)
    k0 = 1 + prefix[1:].count(0)     # the first piece with n_k > m

    def pieces(rng):
        for _ in range(trials):
            k = rng.randint(k0, k0 + 4)
            yield k, tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))

    return _ledger("A", x, trials, cfg, seed, (
        ("switch_lower", lambda rng: (), (3, 12), BLOCK, _switch_lower_caseA),
        ("switch_upper", lambda rng: prefix, (1, 8), GAP, _switch_upper_caseA),
    ), pieces)


def verify_caseB(trials: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                 seed: int = 0) -> VerificationLedger:
    """Certified spot checks for the exceptional target 1/4, including the
    exact square identity (1/2 - alpha_{k+1})^2 = alpha_{k+1}^(n_k) of
    pieces 1 to 6."""
    _check_trials(trials)
    # every coding that starts 01 is admissible for 1/4: no draw is rejected
    return _ledger("B", QUARTER, trials, cfg, seed, (
        ("switch_lower", lambda rng: (0, 1) + (0,) * rng.randint(1, 6),
         (1, 6), BLOCK, _switch_lower_caseB),
        ("switch_upper", lambda rng: (0, 1), (1, 8), GAP, _switch_upper_caseB),
    ), lambda rng: ((k, word_at_position(1 + k % 7)) for k in range(1, 7)))


class LipschitzReport(NamedTuple):
    x: Fraction
    lam: Fraction
    bound: Fraction            # x (1-2 lam)^2 / lam
    min_ratio: Fraction        # certified lower bound over sampled pairs
    pairs: int                 # distinct pairs checked
    violations: int


def lipschitz_check(x: Fraction, lam: Fraction, samples: int, seed: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CONFIG) -> LipschitzReport:
    """Sampled verification that the coding-map separation constant holds.

    Collects members of the ratio set below `lam`, the codings of _draw's
    words of 3 to 20 digits that solve below it, then draws `samples`
    distinct pairs lam1 < lam2 among them whose cells are disjoint, so
    each pair is certified distinct. It evaluates the coding map at the
    fixed base `lam` exactly and lower-bounds each difference quotient;
    all quotients must clear x (1-2 lam)^2 / lam.
    """
    if samples < 1:
        raise InvalidInput("samples must be positive")
    x, lam = Fraction(x), Fraction(lam)
    if not x < lam < HALF:
        raise InvalidInput("need x < lam < 1/2")
    rng = random.Random(seed)
    xs = binary_expansion(x)
    members: dict[EpSequence, tuple[Enclosure, Fraction]] = {}
    want = max(8, isqrt(8 * samples) + 2)
    attempts = 0
    while len(members) < want and attempts < 40 * want:
        attempts += 1
        j, *cells = _draw(rng, x, xs, cfg, (), (3, 20), BLOCK)
        for s, enc in zip(_codings(j, BLOCK), cells):
            if enc.hi <= lam and s not in members:
                members[s] = (enc, pi_eval(s, lam))
    # each end read once: every read of an end builds its Fraction
    pool = sorted(((enc.lo, enc.hi, v) for enc, v in members.values()),
                  key=lambda t: t[0])
    certified = [(a, b) for a, b in combinations(pool, 2) if a[1] < b[0]]
    if len(certified) < samples:
        raise HypothesisUnsatisfiable(
            f"{len(certified)} distinct member pairs below "
            f"{exact_str(lam)} are certified, fewer than {samples}")
    bound = x * (1 - 2 * lam) ** 2 / lam
    ratios = [abs(v2 - v1) / (hi2 - lo1)
              for (lo1, _, v1), (_, hi2, v2) in rng.sample(certified, samples)]
    return LipschitzReport(x, lam, bound, min(ratios), samples,
                           sum(ratio < bound for ratio in ratios))
