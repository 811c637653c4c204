"""The coding map of the two-branch IFS {t -> lam*t, t -> lam*t + 1 - lam},
the integer polynomial whose signs and Newton steps locate its roots in the
ratio, and the greedy digit algorithm used as an exact membership test for
rational inputs, with greedy_cycle, its probe that only asks whether an
orbit cycles.

root_cell is the one root solver: it finds the cell of a dyadic grid that
holds the root. It starts from float_guess, Newton's iteration in double
precision, which supplies up to about 50 bits of the root for the cost
of a few passes in floats. Its signs and Newton steps in integers run
Horner's rule in fixed point, with a stated number of fraction bits, so
their cost follows the precision asked for and not the polynomial's exact
value at a deep dyadic point, an integer of about k * deg bits. A sign the
fixed-point pass cannot decide falls back to exact_sign, the one exact
evaluation. A Newton step or a double-precision guess is only a guess, so
it has no fallback.
"""

from __future__ import annotations

from fractions import Fraction
from math import frexp, gcd, inf, isfinite
from typing import NamedTuple, Union

from .errors import InvalidInput
from .numerics import COUNTERS, HALF
from .seqcode import EpSequence

__all__ = [
    "Member",
    "NotMember",
    "Unresolved",
    "GreedyOutcome",
    "pi_eval",
    "pi_root_poly",
    "WORK",
    "exact_sign",
    "root_cell",
    "greedy_digits",
    "greedy_cycle",
    "membership",
]


class Member(NamedTuple):
    """Digit cycle detected; the full eventually periodic coding is known."""

    coding: EpSequence


class NotMember(NamedTuple):
    """The orbit landed in the central gap at this 1-based step."""

    reject_step: int


class Unresolved(NamedTuple):
    """No cycle and no rejection within the step budget."""

    digits: tuple[int, ...]


GreedyOutcome = Union[Member, NotMember, Unresolved]


def pi_eval(s: EpSequence, lam: Fraction) -> Fraction:
    """Exact value of the coding map at an eventually periodic sequence:
    (1 - lam) Q(lam) / (1 - lam^|v|), v the period and Q = pi_root_poly(s,
    0), by Horner's rule."""
    if not 0 <= lam < 1:
        raise InvalidInput("contraction ratio must lie in [0, 1)")
    acc = 0
    for c in reversed(pi_root_poly(s, 0)):
        acc = acc * lam + c
    return (1 - lam) * acc / (1 - lam ** len(s.period))


def pi_root_poly(s: EpSequence, x: Fraction) -> tuple[int, ...]:
    """Integer coefficients, constant term first, of a polynomial Q with
    sign Q(lam) = sign(pi_eval(s, lam) - x) for every lam in (0, 1).

    For x = p/q this is the closed form of pi_eval - x times the positive
    q (1 - lam^|v|) / (1 - lam):
    Q = q [P_u (1 - lam^|v|) + lam^|u| P_v] - p (1 + lam + ... + lam^(|v|-1)),
    with |u| + |v| coefficients.
    """
    u, v = s.preperiod, s.period
    p, q = x.numerator, x.denominator
    zu, zv = (0,) * len(u), (0,) * len(v)
    # P_u - lam^|v| P_u + lam^|u| P_v, and 1 + lam + ... + lam^(|v|-1)
    return tuple(q * (a - b + c) - d for a, b, c, d in
                 zip(u + zv, zv + u, zu + v, (p,) * len(v) + zu))


# Root-solver work so far in this process: float_guess's iterations in
# doubles, calls of poly_sign and newton_cell, and the signs among them that
# fell back to exact_sign. The CLI manifest reports each run's share as
# "stats.root_solver".
WORK = COUNTERS["root_solver"] = {"float_steps": 0, "signs": 0,
                                  "newton_steps": 0, "exact_fallbacks": 0}

# Common-ratio search work so far in this process: greedy_cycle's probes,
# the orbit steps they took, and the probes that a prime of the ratio's
# numerator in a state's denominator ended. The CLI manifest reports each
# run's share as "stats.common_search".
SEARCH = COUNTERS["common_search"] = {"probes": 0, "orbit_steps": 0,
                                      "denominator_exits": 0}

# Fraction bits that poly_sign and newton_cell keep beyond the level of the
# grid they probe: root_cell asks for signs and steps at level k with k +
# GUARD_BITS bits. The pass errs by less than len(coeffs) units of its last
# bit whatever the guard (see poly_sign), so the guard never makes a sign
# wrong; it sets how often the exact fallback runs. Near a simple root r,
# |R(lam)| is about |R'(r)| |lam - r|, so a sign is left undecided only at a
# probe within about len(coeffs) 2^-(k + 64) / |R'(r)| of r, a root on the
# grid included, while the grid's cells are 2^-k wide. In the first 200
# calls of the seed-1 session-ledger benchmark, 833 solves take 1664 signs
# and 833 Newton steps, and no sign falls back.
GUARD_BITS = 64


def exact_sign(coeffs: tuple[int, ...], m: int, k: int) -> int:
    """Exact sign (-1, 0 or 1) of a polynomial at the dyadic m * 2^-k, from a
    homogenised Horner evaluation of 2^(k deg) * R(m * 2^-k) in integers."""
    deg = len(coeffs) - 1
    acc = 0
    for i in range(deg, -1, -1):
        acc *= m
        if coeffs[i]:
            acc += coeffs[i] << (k * (deg - i))
    return (acc > 0) - (acc < 0)


def poly_sign(coeffs: tuple[int, ...], m: int, k: int, bits: int) -> int:
    """Sign (-1, 0 or 1) of a polynomial at lam = m * 2^-k in [0, 1).

    First a Horner pass in fixed point with `bits` fraction bits: acc <-
    floor(acc * lam) + c_i 2^bits. Each floor loses under one unit and the
    loss carried so far is scaled by lam < 1, so R(lam) 2^bits lies in
    [acc, acc + len(coeffs)). That decides the sign when acc > 0 or acc <=
    -len(coeffs); otherwise, and at every root, exact_sign decides it.
    """
    WORK["signs"] += 1
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * m >> k) + (c << bits)
    if acc > 0:
        return 1
    if acc <= -len(coeffs):
        return -1
    WORK["exact_fallbacks"] += 1
    return exact_sign(coeffs, m, k)


def newton_cell(coeffs: tuple[int, ...], m: int, k: int, base: int,
                width: int, bits: int) -> int:
    """Index j of the cell [base + j width, base + (j+1) width] * 2^-k in
    which one Newton step for the polynomial's root, taken from the dyadic
    m * 2^-k, lands.

    The same fixed-point Horner pass as poly_sign's, with `bits` fraction
    bits, gives V ~ R(m 2^-k) 2^bits and D ~ R'(m 2^-k) 2^bits, each within
    len(coeffs) units, so the step lands at (m - 2^k V/D) * 2^-k. At a zero
    slope no step is taken. Only a guess, with no fallback: with bits = k +
    GUARD_BITS it is within a cell of the exact step unless the slope is
    tiny, and callers certify the cell.
    """
    WORK["newton_steps"] += 1
    acc = slope = 0
    for c in reversed(coeffs):
        slope = (slope * m >> k) + acc
        acc = (acc * m >> k) + (c << bits)
    if not slope:
        return (m - base) // width
    return ((m - base) * slope - (acc << k)) // (slope * width)


def float_guess(coeffs: tuple[int, ...], lo: float) -> tuple[float, int]:
    """A guess at the polynomial's root in [lo, 1/2] by Newton's iteration
    in double precision, with the bits it has earned: (lam, bits), lam
    believed within 2^-bits of the root.

    The coefficients are scaled by one power of two so that the largest has
    at most 53 bits, so neither a long denominator nor a high degree
    overflows, and Horner's rule errs by about len(coeffs) units of the
    largest one's last bit. So a guess claims at most cap = 52 -
    len(coeffs).bit_length() bits: all of them once a step moves it by at
    most 2^-cap, and otherwise as many as its last step's size. A step
    that leaves the bracket of the signs seen so far bisects it instead, so
    the iteration stays in [lo, 1/2]; it takes at most cap steps. Only a
    guess: its signs are not certified, and root_cell certifies the cell.
    """
    cap = 52 - len(coeffs).bit_length()
    shift = max(max(map(abs, coeffs)).bit_length() - 53, 0)
    scaled = [float(c >> shift) for c in reversed(coeffs)]
    hi, lam = 0.5, (lo + 0.5) / 2
    tol = 2.0 ** -cap
    for steps in range(1, cap + 1):
        value = slope = 0.0
        for c in scaled:
            slope = slope * lam + value
            value = value * lam + c
        if value < 0:
            lo = lam
        elif value > 0:
            hi = lam
        new = lam - value / slope if slope else inf
        if not lo <= new <= hi:      # off the bracket, no slope, or NaN
            new = (lo + hi) / 2
        step, lam = abs(new - lam), new
        if step <= tol:
            break
    WORK["float_steps"] += steps
    return lam, (cap if step <= tol else -frexp(step)[1])


def root_cell(coeffs: tuple[int, ...], a_m: int, n: int, width_bits: int
              ) -> tuple[int, int, int]:
    """The cell [lo, hi] * 2^-k of the midpoint-bisection grid of [a, 1/2],
    a = a_m 2^-n < 1/2, that holds the polynomial's root, at the first
    level whose cells are no wider than 2^-width_bits: (lo, hi, k), with
    lo == hi when the root is a grid point up to that level.

    The caller guarantees R(a) < 0 < R(1/2), so no sign is computed at
    either end. The solve keeps a bracket of final-level cells whose end
    signs are certified. Each round runs a Newton chain, doubling its
    precision up to the final level and clamping every guess into the
    bracket; the chain is not certified. The first round's chain starts
    from float_guess's root, landed on the final grid, at the level its
    bits have earned, so at the default width it takes one step; every
    later round's starts from the bracket's midpoint. Two signs then test
    the cell the chain lands in, and one bisection sign halves what is
    left. A wrong guess costs a round, never a different cell, and a solve
    ends within `levels + 1` rounds. Signs are poly_sign's: fixed point
    with an exact fallback, so every cell is decided exactly and the answer
    does not depend on how it was found.
    """
    # Level l of the grid splits [a, 1/2] into 2^l cells [m, m + width] /
    # 2^(n + l); the first level no wider than 2^-width_bits has
    # width <= 2^(n + levels - width_bits).
    width = (1 << (n - 1)) - a_m
    levels = max(0, (width - 1).bit_length() + width_bits - n)
    # The bracket is final-level cells lo..hi-1, whose points are
    # (base + j width) / 2^k: R < 0 at j = lo and R > 0 at j = hi.
    k, base = n + levels, a_m << levels
    lo, hi = 0, 1 << levels
    # the first round starts from the double-precision guess, unless it is
    # not finite, and every other round from the bracket's midpoint
    j, aim = hi // 2, levels - hi.bit_length()
    guess, bits = float_guess(coeffs, a_m / (1 << n))
    if isfinite(guess):
        # cells of level l are width / 2^(n + l) >= 2^-bits wide for l <= aim
        num, den = guess.as_integer_ratio()
        j = min(max(((num << k) // den - base) // width, lo), hi - 1)
        aim = bits + width.bit_length() - 1 - n
    while hi - lo > 1:
        while aim < levels:
            aim = min(levels, max(1, 2 * aim))
            j = newton_cell(coeffs, base + j * width, k, base, width,
                            aim + GUARD_BITS)
            j = min(max(j, lo), hi - 1)
        # two signs test the landing cell, and one halves what is left
        for p in (j, j + 1, None):
            if p is None:
                p = (lo + hi) // 2
            if lo < p < hi:
                m = base + p * width
                sign = poly_sign(coeffs, m, k, levels + GUARD_BITS)
                if sign == 0:
                    return m, m, k
                lo, hi = (lo, p) if sign > 0 else (p, hi)
        j, aim = (lo + hi) // 2, levels - (hi - lo).bit_length()
    return base + lo * width, base + hi * width, k


def greedy_digits(x: Fraction, lam: Fraction, max_steps: int = 256) -> GreedyOutcome:
    """Greedy coding of x in base lam by exact rational iteration on the
    state's numerator and denominator.

    Digit 1 whenever the state reaches [1-lam, 1] (so the tie at the overlap
    point for lam = 1/2 resolves to 1, giving the lexicographically largest
    coding), digit 0 on [0, lam], rejection in the open central gap. A
    repeated exact state yields the eventually periodic coding.
    """
    x, lam = Fraction(x), Fraction(lam)
    if not 0 <= x <= 1:
        raise InvalidInput("x must lie in [0, 1]")
    if not 0 < lam <= HALF:
        raise InvalidInput("lam must lie in (0, 1/2]")
    if max_steps < 1:
        raise InvalidInput("max_steps must be positive")
    # the state y = num/den in lowest terms, with lam = p/q and 1 - lam =
    # rest/q; the states are keyed by that pair
    p, q = lam.numerator, lam.denominator
    rest = q - p
    num, den = x.numerator, x.denominator
    seen: dict[tuple[int, int], int] = {(num, den): 0}
    digits: list[int] = []
    for step in range(1, max_steps + 1):
        scaled, cut = num * q, rest * den
        if scaled >= cut:                # y >= 1 - lam
            digits.append(1)
            num, den = scaled - cut, den * p
        elif scaled <= p * den:          # y <= lam
            digits.append(0)
            num, den = scaled, den * p
        else:
            return NotMember(step)
        g = gcd(num, den)
        num, den = num // g, den // g
        start = seen.setdefault((num, den), step)
        if start != step:
            return Member(EpSequence(tuple(digits[:start]),
                                     tuple(digits[start:])))
    return Unresolved(tuple(digits))


def greedy_cycle(y: Fraction, p: int, q: int, max_steps: int
                 ) -> EpSequence | None:
    """The coding of y in base lam = p/q if greedy_digits(y, lam, max_steps)
    finds that its orbit cycles, else None. Unchecked: y lies in [0, 1],
    p/q in (0, 1/2] is in lowest terms and max_steps is positive.

    The probe ends as soon as the orbit is proven not eventually periodic.
    Take the state a/b in lowest terms. One step gives
    (q a - d (q - p) b) / (p b), d the digit. If a prime r divides both p
    and b, then r divides neither a nor q, so not the new numerator, which
    is q a mod r: the power of r in the reduced denominator grows at this
    step, and at every later one, so no state repeats. While gcd(b, p) = 1,
    the new state's reduced denominator divides b when p divides the new
    numerator, and holds a prime of p otherwise. So the probe tests
    gcd(b, p) once for y's own denominator b, keeps every state as n/b, and
    ends at the first step whose numerator p does not divide. Its integers
    stay about q b in size, and a cycling orbit visits at most the b + 1
    states n/b. Steps, digits and cycle are greedy_digits', so the coding
    is the one greedy_digits returns.
    """
    SEARCH["probes"] += 1
    b = y.denominator
    if gcd(b, p) != 1:
        SEARCH["denominator_exits"] += 1
        return None
    # the state n/b is at most lam when q n <= low, at least 1 - lam when
    # q n >= cut
    low, cut = p * b, (q - p) * b
    n = y.numerator
    seen = {n: 0}
    digits: list[int] = []
    coding = None
    for step in range(1, max_steps + 1):
        scaled = n * q
        if scaled >= cut:
            digits.append(1)
            scaled -= cut
        elif scaled <= low:
            digits.append(0)
        else:
            break                     # in the central gap
        n, left = divmod(scaled, p)
        if left:                      # a prime of p in the denominator
            SEARCH["denominator_exits"] += 1
            break
        start = seen.setdefault(n, step)
        if start != step:
            coding = EpSequence(tuple(digits[:start]), tuple(digits[start:]))
            break
    SEARCH["orbit_steps"] += step
    return coding


def membership(x: Fraction, lam: Fraction, max_steps: int = 256) -> bool | None:
    """True / False when decided, None when unresolved within max_steps."""
    outcome = greedy_digits(x, lam, max_steps)
    if isinstance(outcome, Member):
        return True
    if isinstance(outcome, NotMember):
        return False
    return None
