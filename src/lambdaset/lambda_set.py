"""Admissible codings for a target point, finite-depth interval covers and
gaps of its contraction-ratio set, a sampled Lipschitz-constant check, and
box-counting dimension estimation.

For x in (0, 1/2) the valid ratios form a Cantor set between x and 1/2. Its
codings are exactly the sequences between the base-1/2 expansion of x and
0 1^inf, and the map from codings to ratios is a decreasing homeomorphism,
realized here by ifs_core.root_cell: Newton guesses on a dyadic grid whose
cells are certified by signs of the coding map minus x.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import DepthBudgetExceeded, HypothesisUnsatisfiable, InvalidInput
from .ifs_core import pi_eval, pi_root_poly, root_cell
from .numerics import (DEFAULT_CONFIG, HALF, HALF_CELL, Cell, Enclosure,
                       PrecisionConfig, dyadic_str, exact_str, memo, on_grid,
                       round_outward)
from .seqcode import (SEQ_01INF, EpSequence, binary_expansion,
                      word_at_position, word_str)

__all__ = [
    "CoverInterval",
    "IntervalCover",
    "LambdaGap",
    "LipschitzReport",
    "BoxDimReport",
    "admissible",
    "admissible_word",
    "block_codes",
    "psi_inverse",
    "admissible_prefixes",
    "cover",
    "gaps",
    "lipschitz_check",
    "box_dim_estimate",
]

# Most words admissible_prefixes returns (a cover solves two roots per word),
# most gap records a tail construction lists (four solves each), and the
# highest piece index. Depth 10, the deepest cover the tests and benchmark
# ask for, has at most 308 words; 1/3 at depth 60 has far more and fails at
# once instead of running on.
MAX_PREFIXES = 1 << 14

# Longest prefix box_dim_estimate refines a block to.
MAX_DEPTH = 48


def admissible(xs: EpSequence, s: EpSequence) -> bool:
    """Whether s lies in the admissible window [xs, 0 1^inf] of the target
    whose base-1/2 expansion is xs."""
    return xs <= s <= SEQ_01INF


def admissible_word(xs: EpSequence, w: tuple[int, ...]) -> bool:
    """Whether w starts an admissible coding: xs[:|w|] <= w <= 0 1^(|w|-1)."""
    return xs.prefix(len(w)) <= w <= (0,) + (1,) * (len(w) - 1)


@memo
def _target(x: Fraction, bits: int) -> tuple[Fraction, EpSequence, Cell]:
    """x as a Fraction, its expansion, and its cell at `bits` precision."""
    x = Fraction(x)
    return x, binary_expansion(x), round_outward(x.numerator, x.denominator,
                                                 bits)


@memo
def psi_inverse(x: Fraction, s: EpSequence,
                cfg: PrecisionConfig = DEFAULT_CONFIG) -> Enclosure:
    """Certified enclosure of the unique ratio whose coding of x equals s.

    Requires s to be admissible for x, i.e. between the base-1/2 expansion
    xs of x and 0 1^inf; the root then lies in [a, 1/2], a being x rounded
    down to `precision_bits`, where lam -> pi_eval(s, lam) is strictly
    increasing. The result is root_cell's cell of its grid on [a, 1/2],
    no wider than 2^-width_bits, or a point.

    Admissibility gives the signs of pi(s, lam) - x at both ends, so none
    is computed. At 1/2: xs is the lexicographically largest expansion of
    x, so pi(s, 1/2) > x for every admissible s other than xs, and pi(xs,
    1/2) = x makes the point 1/2 the answer for s = xs. At a: every
    admissible s starts with 0, so pi(s, a) <= a <= x, with equality only
    for s = 0 1^inf, whose coding map is lam -> lam, when x is a itself;
    the answer is then the point x.

    Memoised, with the admissibility check inside the cached body, so a hit
    skips it; a miss builds no Fraction.
    """
    bits = cfg.precision_bits
    x, xs, (a_m, a_hi, n) = _target(x, bits)
    if s == xs:
        return Enclosure(HALF_CELL, bits)
    if not admissible(xs, s):
        raise InvalidInput(
            f"{s} is outside the admissible window for {exact_str(x)}")
    if s == SEQ_01INF and a_m == a_hi:
        return Enclosure((a_m, a_m, n), bits)
    # Solves s as given: representations of one sequence share an entry
    # (they share one `key`), and the first one solved is kept.
    return Enclosure(root_cell(pi_root_poly(s, x), a_m, n, cfg.width_bits),
                     bits)


def block_codes(xs: EpSequence, w: tuple[int, ...]
                ) -> tuple[EpSequence, EpSequence]:
    """Extremal admissible codings that start with w, for the target whose
    expansion is xs: the lex-largest (smallest ratio), then the
    lex-smallest (largest ratio).

    w must be an admissible word (admissible_word), or InvalidInput is
    raised. Then w 1^inf never passes 0 1^inf, and w 0^inf is at most xs
    only when w is xs's own prefix, where the high code is xs itself."""
    if not admissible_word(xs, w):
        raise InvalidInput(f"{word_str(w)} is no admissible word for {xs}")
    return (EpSequence(w, (1,)),
            xs if w == xs.prefix(len(w)) else EpSequence(w, (0,)))


def admissible_prefixes(x: Fraction, depth: int) -> list[tuple[int, ...]]:
    """All length-`depth` words extendable to an admissible coding for x,
    in descending lexicographic order (so ratio images come out ascending).

    Raises DepthBudgetExceeded, before any root is solved, when there are
    more than MAX_PREFIXES of them.
    """
    if depth < 1:
        raise InvalidInput("depth must be positive")
    x = Fraction(x)
    binary_expansion(x)  # range check
    # 1/2 - x >= 1/(2q) for x = p/q, so beyond this depth there are more
    # than 2^16 words: refuse without building 2^depth
    if depth <= x.denominator.bit_length() + 16:
        # as integers, the words run from x's first digits to 0 1^(depth-1)
        low, high = math.floor(x * (1 << depth)), (1 << (depth - 1)) - 1
        if high - low + 1 <= MAX_PREFIXES:
            return [word_at_position((1 << depth) | m)
                    for m in range(high, low - 1, -1)]
    raise DepthBudgetExceeded(
        f"more than {MAX_PREFIXES} admissible prefixes of "
        f"length {depth} for {exact_str(x)}")


class CoverInterval(NamedTuple):
    """One ratio interval of a cover, with the codings of its endpoints.

    Codes are None for derived covers (e.g. intersections) whose endpoints
    no longer correspond to a single admissible coding.
    """

    lo: Enclosure
    hi: Enclosure
    low_code: EpSequence | None   # lex-largest coding in the block (smallest ratio)
    high_code: EpSequence | None  # lex-smallest coding in the block (largest ratio)

    def covers(self, lam: Fraction) -> bool:
        return self.lo.lo <= lam <= self.hi.hi

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json(),
                "low_code": None if self.low_code is None else str(self.low_code),
                "high_code": None if self.high_code is None else str(self.high_code)}


class IntervalCover(NamedTuple):
    """Finite union of closed ratio intervals containing the whole ratio set."""

    x: Fraction
    depth: int
    intervals: tuple[CoverInterval, ...]
    precision: PrecisionConfig

    def covers(self, lam: Fraction) -> bool:
        return any(iv.covers(lam) for iv in self.intervals)

    def to_json(self) -> dict:
        return {
            "x": exact_str(self.x),
            "depth": self.depth,
            "intervals": [iv.to_json() for iv in self.intervals],
            "precision": {"bits": self.precision.precision_bits,
                          "target_width": dyadic_str(
                              1, self.precision.width_bits)},
        }


class LambdaGap(NamedTuple):
    """A certified open gap of the ratio set with its bounding codings."""

    left_end: Enclosure
    right_end: Enclosure
    left_code: EpSequence
    right_code: EpSequence

    def interior_contains(self, lam: Fraction) -> bool:
        return self.left_end.hi < lam < self.right_end.lo

    def to_json(self) -> dict:
        return {"left": self.left_end.to_json(), "right": self.right_end.to_json(),
                "left_code": str(self.left_code), "right_code": str(self.right_code)}


def _prefix_interval(x: Fraction, w: tuple[int, ...], xs: EpSequence,
                     cfg: PrecisionConfig) -> CoverInterval:
    low_code, high_code = block_codes(xs, w)
    return CoverInterval(psi_inverse(x, low_code, cfg),
                         psi_inverse(x, high_code, cfg),
                         low_code, high_code)


def _merge_touching(raw: Sequence[CoverInterval]) -> tuple[CoverInterval, ...]:
    merged = [raw[0]]
    for iv in raw[1:]:
        (lo, _, _, hi), _ = on_grid((iv.lo.cell, merged[-1].hi.cell))
        if lo <= hi:
            merged[-1] = merged[-1]._replace(hi=iv.hi, high_code=iv.high_code)
        else:
            merged.append(iv)
    return tuple(merged)


def cover(x: Fraction, depth: int,
          cfg: PrecisionConfig = DEFAULT_CONFIG) -> IntervalCover:
    """Outer cover of the ratio set at a prefix depth.

    Each admissible prefix contributes the interval between the ratios of its
    extremal admissible extensions; blocks whose enclosures touch are merged,
    so the listed gaps between intervals are certified.
    """
    x = Fraction(x)
    xs = binary_expansion(x)
    raw = [_prefix_interval(x, w, xs, cfg) for w in admissible_prefixes(x, depth)]
    return IntervalCover(x, depth, _merge_touching(raw), cfg)


def gaps(x: Fraction, depth: int,
         cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[LambdaGap]:
    """Certified open intervals between consecutive cover blocks."""
    cov = cover(x, depth, cfg)
    out = []
    for left, right in zip(cov.intervals, cov.intervals[1:]):
        out.append(LambdaGap(left.hi, right.lo, left.high_code, right.low_code))
    return out


class LipschitzReport(NamedTuple):
    x: Fraction
    lam: Fraction
    bound: Fraction            # x (1-2 lam)^2 / lam
    min_ratio: Fraction        # certified lower bound over sampled pairs
    pairs: int                 # distinct pairs checked
    violations: int


def _random_admissible_coding(rng: random.Random, xs: EpSequence,
                              length: int) -> EpSequence:
    bits: tuple[int, ...] = ()
    for _ in range(length):
        choices = [d for d in (0, 1) if admissible_word(xs, bits + (d,))]
        bits = bits + (rng.choice(choices),)
    low, high = block_codes(xs, bits)
    return low if rng.random() < 0.5 else high


def lipschitz_check(x: Fraction, lam: Fraction, samples: int, seed: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CONFIG) -> LipschitzReport:
    """Sampled verification that the coding-map separation constant holds.

    Collects members of the ratio set below `lam`, then draws `samples`
    distinct pairs lam1 < lam2 among them whose cells are disjoint, so each
    pair is certified distinct. It evaluates the coding map at the fixed
    base `lam` exactly and lower-bounds each difference quotient; all
    quotients must clear x (1-2 lam)^2 / lam.
    """
    if samples < 1:
        raise InvalidInput("samples must be positive")
    x, lam = Fraction(x), Fraction(lam)
    if not x < lam < HALF:
        raise InvalidInput("need x < lam < 1/2")
    rng = random.Random(seed)
    xs = binary_expansion(x)
    members: dict[EpSequence, tuple[Enclosure, Fraction]] = {}
    want = max(8, math.isqrt(8 * samples) + 2)
    attempts = 0
    while len(members) < want and attempts < 40 * want:
        attempts += 1
        s = _random_admissible_coding(rng, xs, rng.randint(3, 20))
        if s in members:
            continue
        enc = psi_inverse(x, s, cfg)
        if enc.hi <= lam:
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


class BoxDimReport(NamedTuple):
    x: Fraction
    window: tuple[Fraction, Fraction]
    slope: float
    stderr: float | None          # None for a two-point fit
    points: tuple[tuple[Fraction, int], ...]   # (eps, box count)
    segments: int

    def to_json(self) -> dict:
        return {"x": exact_str(self.x),
                "window": [exact_str(self.window[0]),
                           exact_str(self.window[1])],
                "slope": self.slope, "stderr": self.stderr,
                "points": [{"eps": exact_str(e), "count": c}
                           for e, c in self.points],
                "segments": self.segments}


def box_dim_estimate(x: Fraction, window: tuple[Fraction, Fraction],
                     eps_exponents: Sequence[int],
                     cfg: PrecisionConfig = DEFAULT_CONFIG) -> BoxDimReport:
    """Least-squares box-counting slope of the ratio set inside a window.

    The cover is refined adaptively until every surviving block is shorter
    than a quarter of the smallest grid size, which keeps each count within
    a constant factor of the count against the true cover. Raises
    DepthBudgetExceeded when the refinement visits more than MAX_PREFIXES
    blocks, and at once for a size below 2^-MAX_PREFIXES or more sizes.
    """
    if len(eps_exponents) > MAX_PREFIXES + 1:
        raise DepthBudgetExceeded(
            f"more than {MAX_PREFIXES + 1} grid sizes: {len(eps_exponents)}")
    x = Fraction(x)
    a, b = Fraction(window[0]), Fraction(window[1])
    if a >= b:
        raise InvalidInput(f"window ({exact_str(a)}, {exact_str(b)}) has no "
                           "positive length")
    lo_w, hi_w = max(a, x), min(b, HALF)
    if lo_w >= hi_w:
        raise InvalidInput(f"window ({exact_str(a)}, {exact_str(b)}) misses "
                           f"[{exact_str(x)}, 1/2]")
    exponents = set(eps_exponents)
    if len(exponents) < 2:
        raise InvalidInput("need at least two distinct grid sizes")
    if min(exponents) < 0:
        raise InvalidInput(f"grid exponent {min(exponents)} is negative")
    finest = max(exponents)
    if finest > MAX_PREFIXES:
        raise DepthBudgetExceeded(f"grid exponent {finest} is above {MAX_PREFIXES}")
    (p_lo, q_lo), (p_hi, q_hi) = lo_w.as_integer_ratio(), hi_w.as_integer_ratio()
    xs = binary_expansion(x)
    # blocks [lo, hi] 2^-k meeting the window, no wider than 2^-(finest + 2)
    segments: list[tuple[int, int, int]] = []
    stack: list[tuple[int, ...]] = [(0,)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > MAX_PREFIXES:
            raise DepthBudgetExceeded(
                f"more than {MAX_PREFIXES} refinement blocks in the window "
                f"({exact_str(a)}, {exact_str(b)}) at grid size "
                f"2^-{finest}")
        bits = stack.pop()
        iv = _prefix_interval(x, bits, xs, cfg)
        (s_lo, _, _, s_hi), k = on_grid((iv.lo.cell, iv.hi.cell))
        if s_hi * q_lo < p_lo << k or s_lo * q_hi > p_hi << k:
            continue
        if (s_hi - s_lo) << finest + 2 <= 1 << k:
            segments.append((s_lo, s_hi, k))
            continue
        if len(bits) >= MAX_DEPTH:
            raise DepthBudgetExceeded(f"prefix depth {MAX_DEPTH} reached")
        for d in (0, 1):
            if admissible_word(xs, bits + (d,)):
                stack.append(bits + (d,))
    points = []
    for e in sorted(exponents):
        # boxes of size 2^-e: floor is monotone, so clipping a block's box
        # indices to the window's is clipping the block to the window
        w_lo, w_hi = (p_lo << e) // q_lo, (p_hi << e) // q_hi
        boxes: set[int] = set()
        for s_lo, s_hi, k in segments:
            boxes.update(range(max(s_lo << e >> k, w_lo),
                               min(s_hi << e >> k, w_hi) + 1))
        points.append((Fraction(1, 1 << e), len(boxes)))
    xs_log = [math.log(1 / float(e)) for e, _ in points]
    ys_log = [math.log(c) for _, c in points]
    n = len(points)
    # the least-squares fit with correctly rounded sums, so neither the
    # slope nor its error depends on the interpreter's float `sum`
    x_bar, y_bar = math.fsum(xs_log) / n, math.fsum(ys_log) / n
    sxx = math.fsum((v - x_bar) * (v - x_bar) for v in xs_log)
    slope = math.fsum((v - x_bar) * (y - y_bar)
                      for v, y in zip(xs_log, ys_log)) / sxx
    intercept = y_bar - slope * x_bar
    rss = math.fsum((y - (slope * v + intercept)) ** 2
                    for v, y in zip(xs_log, ys_log))
    stderr = math.sqrt(rss / (n - 2) / sxx) if n > 2 else None
    return BoxDimReport(x, (a, b), slope, stderr, tuple(points),
                        len(segments))
