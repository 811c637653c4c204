"""Admissible codings for a target point, finite-depth interval covers and
gaps of its contraction-ratio set, a sampled Lipschitz-constant check, and
box-counting dimension estimation.

For x in (0, 1/2) the valid ratios form a Cantor set between x and 1/2. Its
codings are exactly the sequences between the base-1/2 expansion of x and
0 1^inf, and the map from codings to ratios is a decreasing homeomorphism,
realized here by bisection on exact integer signs of the coding map minus
x, started from a float root.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import (DepthBudgetExceeded, InsufficientMembers, InvalidInput,
                     NotAdmissible, OutOfRange)
from .ifs_core import Member, greedy_digits, pi_eval, pi_root_poly, poly_sign
from .numerics import DEFAULT_CONFIG, Dyadic, Enclosure, PrecisionConfig
from .seqcode import (SEQ_01INF, EpSequence, Word, lex_le, lex_max, lex_min)

__all__ = [
    "CoverInterval",
    "IntervalCover",
    "LambdaGap",
    "LipschitzReport",
    "BoxDimReport",
    "binary_expansion",
    "admissible",
    "block_codes",
    "psi_inverse",
    "admissible_prefixes",
    "cover",
    "gaps",
    "lipschitz_check",
    "subshift_dim",
    "box_dim_estimate",
]

HALF = Fraction(1, 2)

# Bound of every memo table in the package (expansions, root solves,
# pieces). A full benchmark session fills under a quarter of it, so nothing
# is evicted there; a long-lived process stays bounded.
CACHE_SIZE = 4096

# Most words admissible_prefixes returns (a cover solves two roots per word).
# Depth 10, the deepest cover the tests and benchmark ask for, has at most
# 308; 1/3 at depth 60 has far more and fails at once instead of running on.
MAX_PREFIXES = 1 << 14


@lru_cache(maxsize=CACHE_SIZE)
def binary_expansion(x: Fraction) -> EpSequence:
    """Greedy base-1/2 coding of x; starts with 0, never ends in 1^inf."""
    x = Fraction(x)
    if not 0 < x < HALF:
        raise OutOfRange(f"x must lie in (0, 1/2): {x}")
    outcome = greedy_digits(x, HALF, max_steps=2 * x.denominator + 16)
    if not isinstance(outcome, Member):
        raise AssertionError(f"binary expansion did not cycle for {x}")
    return outcome.coding


def admissible(xs: EpSequence, s: EpSequence) -> bool:
    """Whether s lies in the admissible window [xs, 0 1^inf] of the target
    whose base-1/2 expansion is xs."""
    return lex_le(xs, s) and lex_le(s, SEQ_01INF)


def psi_inverse(x: Fraction, s: EpSequence,
                cfg: PrecisionConfig = DEFAULT_CONFIG) -> Enclosure:
    """Certified enclosure of the unique ratio whose coding of x equals s.

    Requires s to be admissible for x, i.e. between the base-1/2 expansion
    of x and 0 1^inf; the root then lies in [a, 1/2], a being x rounded down
    to `precision_bits`, where lam -> pi_eval(s, lam) is strictly
    increasing. The result is the cell of the midpoint-bisection grid of
    [a, 1/2] that holds the root, at the first level no wider than
    `target_width`, or the exact point when the root is a grid point up to
    that level. Every cell is decided by exact integer signs, so the answer
    does not depend on how it was found.
    """
    x = Fraction(x)
    if not admissible(binary_expansion(x), s):
        raise NotAdmissible(f"{s} is outside the admissible window for {x}")
    return _solve_psi(x, s, cfg)


# Grid level that a float root jumps to before exact bisection: cells there
# are at most 2^-41 wide, far wider than the error of a float root.
SEED_LEVEL = 40


@lru_cache(maxsize=CACHE_SIZE)
def _solve_psi(x: Fraction, s: EpSequence, cfg: PrecisionConfig) -> Enclosure:
    # Solves s as given: representations of one sequence share an entry
    # (EpSequence compares canonically), and the first one solved is kept.
    # Level k of the grid splits [a, 1/2] into cells [m, m + width] / 2^(n+k).
    bits = cfg.precision_bits
    poly = pi_root_poly(s, x)
    a = Dyadic.from_fraction(x, bits, False)
    n = -a.e
    width = (1 << (n - 1)) - a.m
    target = cfg.target_width
    # first level whose cells are at most target_width wide; the bit-length
    # estimate falls short by at most one
    scaled = width * target.denominator
    levels = max(0, scaled.bit_length() - target.numerator.bit_length() - n)
    while scaled > target.numerator << (n + levels):
        levels += 1
    m, k = a.m, min(SEED_LEVEL, levels)
    if k:
        seed = Fraction(_float_root(s, x)) * (1 << (n + k))
        cell = math.floor((seed - (a.m << k)) / width)
        m = (a.m << k) + min(max(cell, 0), (1 << k) - 1) * width
    while True:
        sign_lo = poly_sign(poly, m, n + k)
        sign_hi = poly_sign(poly, m + width, n + k)
        if sign_lo <= 0 <= sign_hi:
            break
        if not k:
            raise AssertionError(f"[x, 1/2] does not bracket the root of {s}")
        m, k = a.m, 0                      # the float seed missed: start over
    if sign_lo == 0 or sign_hi == 0:
        return Enclosure.point(Dyadic(m if sign_lo == 0 else m + width,
                                      -n - k), bits)
    while k < levels:
        mid, k = 2 * m + width, k + 1
        sign = poly_sign(poly, mid, n + k)
        if sign == 0:
            return Enclosure.point(Dyadic(mid, -n - k), bits)
        m = 2 * m if sign > 0 else mid
    return Enclosure(Dyadic(m, -n - k), Dyadic(m + width, -n - k), bits)


def _float_root(s: EpSequence, x: Fraction) -> float:
    """Float root of pi_eval(s, .) = x in [x, 1/2] by the Illinois variant
    of regula falsi; only a seed, so rounding may leave it a little off."""
    target = float(x)
    lo, hi = target, 0.5
    f_lo, f_hi = pi_eval(s, lo) - target, pi_eval(s, hi) - target
    if f_lo >= 0 or f_hi <= 0:
        return lo if f_lo >= 0 else hi
    side = 0
    for _ in range(100):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            break
        f_mid = pi_eval(s, mid) - target
        if f_mid == 0:
            return mid
        if f_mid < 0:
            lo, f_lo = mid, f_mid
            if side < 0:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = mid, f_mid
            if side > 0:
                f_lo /= 2
            side = 1
    return (lo + hi) / 2


def block_codes(xs: EpSequence, w: Word) -> tuple[EpSequence, EpSequence]:
    """Extremal admissible codings that start with w, for the target whose
    expansion is xs: the lex-largest (smallest ratio), then the
    lex-smallest (largest ratio)."""
    return (lex_min(EpSequence(w, Word((1,))), SEQ_01INF),
            lex_max(EpSequence(w, Word((0,))), xs))


def _prefix_admissible(bits: tuple[int, ...], xs: EpSequence) -> bool:
    w = Word(bits)
    return (lex_le(xs, EpSequence(w, Word((1,))))
            and lex_le(EpSequence(w, Word((0,))), SEQ_01INF))


def admissible_prefixes(x: Fraction, depth: int) -> list[Word]:
    """All length-`depth` words extendable to an admissible coding for x,
    in descending lexicographic order (so ratio images come out ascending).

    Raises DepthBudgetExceeded, before any root is solved, when there are
    more than MAX_PREFIXES of them.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    xs = binary_expansion(Fraction(x))
    out: list[Word] = []

    def descend(bits: tuple[int, ...]) -> None:
        if len(bits) == depth:
            if len(out) == MAX_PREFIXES:
                raise DepthBudgetExceeded(
                    f"more than {MAX_PREFIXES} admissible prefixes of "
                    f"length {depth} for {x}")
            out.append(Word(bits))
            return
        for d in (1, 0):
            nxt = bits + (d,)
            if _prefix_admissible(nxt, xs):
                descend(nxt)

    descend(())
    return out


@dataclass(frozen=True, slots=True)
class CoverInterval:
    """One ratio interval of a cover, with the codings of its endpoints.

    Codes are None for derived covers (e.g. intersections) whose endpoints
    no longer correspond to a single admissible coding.
    """

    lo: Enclosure
    hi: Enclosure
    low_code: EpSequence | None   # lex-largest coding in the block (smallest ratio)
    high_code: EpSequence | None  # lex-smallest coding in the block (largest ratio)

    def covers(self, lam: Fraction) -> bool:
        return self.lo.lo.cmp_fraction(lam) <= 0 <= self.hi.hi.cmp_fraction(lam)

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json(),
                "low_code": None if self.low_code is None else str(self.low_code),
                "high_code": None if self.high_code is None else str(self.high_code)}


@dataclass(frozen=True, slots=True)
class IntervalCover:
    """Finite union of closed ratio intervals containing the whole ratio set."""

    x: Fraction
    depth: int
    intervals: tuple[CoverInterval, ...]
    precision: PrecisionConfig

    def covers(self, lam: Fraction) -> bool:
        return any(iv.covers(lam) for iv in self.intervals)

    def total_length(self) -> Fraction:
        return sum((iv.hi.hi - iv.lo.lo).to_fraction() for iv in self.intervals)

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "depth": self.depth,
            "intervals": [iv.to_json() for iv in self.intervals],
            "precision": {"bits": self.precision.precision_bits,
                          "target_width": str(self.precision.target_width)},
        }


@dataclass(frozen=True, slots=True)
class LambdaGap:
    """A certified open gap of the ratio set with its bounding codings."""

    left_end: Enclosure
    right_end: Enclosure
    left_code: EpSequence
    right_code: EpSequence

    def interior_contains(self, lam: Fraction) -> bool:
        return (self.left_end.hi.cmp_fraction(lam) < 0
                and self.right_end.lo.cmp_fraction(lam) > 0)

    def to_json(self) -> dict:
        return {"left": self.left_end.to_json(), "right": self.right_end.to_json(),
                "left_code": str(self.left_code), "right_code": str(self.right_code)}


def _prefix_interval(x: Fraction, w: Word, xs: EpSequence,
                     cfg: PrecisionConfig) -> CoverInterval:
    low_code, high_code = block_codes(xs, w)
    return CoverInterval(psi_inverse(x, low_code, cfg),
                         psi_inverse(x, high_code, cfg),
                         low_code, high_code)


def _merge_touching(raw: Iterable[CoverInterval]) -> tuple[CoverInterval, ...]:
    merged: list[CoverInterval] = []
    for iv in raw:
        if merged and iv.lo.lo <= merged[-1].hi.hi:
            prev = merged[-1]
            merged[-1] = CoverInterval(prev.lo, iv.hi, prev.low_code, iv.high_code)
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


@dataclass(frozen=True, slots=True)
class LipschitzReport:
    x: Fraction
    lam: Fraction
    bound: Fraction            # x (1-2 lam)^2 / lam
    min_ratio: Fraction        # certified lower bound over sampled pairs
    pairs: int
    violations: int

    def to_json(self) -> dict:
        return {"x": str(self.x), "lam": str(self.lam), "bound": str(self.bound),
                "min_ratio": str(self.min_ratio), "pairs": self.pairs,
                "violations": self.violations}


def _random_admissible_coding(rng: random.Random, xs: EpSequence,
                              length: int) -> EpSequence:
    bits: tuple[int, ...] = ()
    for _ in range(length):
        choices = [d for d in (0, 1) if _prefix_admissible(bits + (d,), xs)]
        bits = bits + (rng.choice(choices),)
    low, high = block_codes(xs, Word(bits))
    return low if rng.random() < 0.5 else high


def lipschitz_check(x: Fraction, lam: Fraction, samples: int, seed: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CONFIG) -> LipschitzReport:
    """Sampled verification that the coding-map separation constant holds.

    Draws member pairs lam1 < lam2 of the ratio set below `lam`, evaluates
    the coding map at the fixed base `lam` exactly, and lower-bounds each
    difference quotient; all quotients must clear x (1-2 lam)^2 / lam.
    """
    x, lam = Fraction(x), Fraction(lam)
    if not x < lam < HALF:
        raise OutOfRange("need x < lam < 1/2")
    rng = random.Random(seed)
    xs = binary_expansion(x)
    members: dict[EpSequence, tuple[Enclosure, Fraction]] = {}
    want = max(8, math.isqrt(8 * samples) + 2)
    attempts = 0
    while len(members) < want and attempts < 40 * want:
        attempts += 1
        s = _random_admissible_coding(rng, xs, rng.randint(3, 20)).canonical()
        if s in members:
            continue
        enc = psi_inverse(x, s, cfg)
        if enc.hi.cmp_fraction(lam) <= 0:
            members[s] = (enc, pi_eval(s, lam))
    if len(members) < 2:
        raise InsufficientMembers(f"only {len(members)} members found below {lam}")
    pool = sorted(members.values(), key=lambda t: t[0].lo)
    bound = x * (1 - 2 * lam) ** 2 / lam
    min_ratio = None
    pairs = violations = 0
    budget = 60 * samples
    while pairs < samples:
        budget -= 1
        if budget < 0:
            raise InsufficientMembers(
                "could not certify enough distinct member pairs")
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        if i == j:
            continue
        if i > j:
            i, j = j, i
        (e1, v1), (e2, v2) = pool[i], pool[j]
        if not e1.hi < e2.lo:        # cannot certify distinctness; skip pair
            continue
        pairs += 1
        ratio = abs(v2 - v1) / (e2.hi - e1.lo).to_fraction()
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if ratio < bound:
            violations += 1
    return LipschitzReport(x, lam, bound, min_ratio, pairs, violations)


def subshift_dim(lam: Fraction, k: int) -> float:
    """Dimension of the image of the no-k-zero-run subshift lower bound:
    (k-1) log 2 / (k (-log lam))."""
    lam = Fraction(lam)
    if not 0 < lam <= HALF:
        raise OutOfRange("lam must lie in (0, 1/2]")
    if k < 1:
        raise ValueError("k must be positive")
    return (k - 1) * math.log(2) / (k * (-math.log(lam)))


@dataclass(frozen=True, slots=True)
class BoxDimReport:
    x: Fraction
    window: tuple[Fraction, Fraction]
    slope: float
    stderr: float
    points: tuple[tuple[Fraction, int], ...]   # (eps, box count)
    segments: int

    def to_json(self) -> dict:
        return {"x": str(self.x),
                "window": [str(self.window[0]), str(self.window[1])],
                "slope": self.slope, "stderr": self.stderr,
                "points": [{"eps": str(e), "count": c} for e, c in self.points],
                "segments": self.segments}


def box_dim_estimate(x: Fraction, window: tuple[Fraction, Fraction],
                     eps_exponents: list[int],
                     cfg: PrecisionConfig = DEFAULT_CONFIG,
                     max_depth: int = 48) -> BoxDimReport:
    """Least-squares box-counting slope of the ratio set inside a window.

    The cover is refined adaptively until every surviving block is shorter
    than a quarter of the smallest grid size, which keeps each count within
    a constant factor of the count against the true cover.
    """
    x = Fraction(x)
    a, b = Fraction(window[0]), Fraction(window[1])
    lo_w, hi_w = max(a, x), min(b, HALF)
    if lo_w >= hi_w:
        raise InvalidInput(f"window ({a}, {b}) misses [{x}, 1/2]")
    if len(eps_exponents) < 2:
        raise InvalidInput("need at least two grid sizes")
    eps_list = sorted((Fraction(1, 1 << e) for e in set(eps_exponents)),
                      reverse=True)
    threshold = eps_list[-1] / 4
    xs = binary_expansion(x)
    segments: list[tuple[Fraction, Fraction]] = []
    stack: list[tuple[int, ...]] = [(0,)]
    while stack:
        bits = stack.pop()
        iv = _prefix_interval(x, Word(bits), xs, cfg)
        s_lo, s_hi = iv.lo.lo.to_fraction(), iv.hi.hi.to_fraction()
        if s_hi < lo_w or s_lo > hi_w:
            continue
        if s_hi - s_lo <= threshold:
            segments.append((max(s_lo, lo_w), min(s_hi, hi_w)))
            continue
        if len(bits) >= max_depth:
            raise DepthBudgetExceeded(f"prefix depth {max_depth} reached")
        for d in (0, 1):
            if _prefix_admissible(bits + (d,), xs):
                stack.append(bits + (d,))
    points = []
    for eps in eps_list:
        boxes: set[int] = set()
        for s_lo, s_hi in segments:
            boxes.update(range(math.floor(s_lo / eps), math.floor(s_hi / eps) + 1))
        points.append((eps, len(boxes)))
    xs_log = [math.log(1 / float(e)) for e, _ in points]
    ys_log = [math.log(c) for _, c in points]
    fit = statistics.linear_regression(xs_log, ys_log)
    n = len(points)
    mean_x = sum(xs_log) / n
    sxx = sum((v - mean_x) ** 2 for v in xs_log)
    rss = sum((y - (fit.slope * v + fit.intercept)) ** 2
              for v, y in zip(xs_log, ys_log))
    stderr = math.sqrt(rss / (n - 2) / sxx) if n > 2 else float("inf")
    return BoxDimReport(x, (a, b), fit.slope, stderr, tuple(points),
                        len(segments))
