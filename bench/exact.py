"""Exact arithmetic that the benchmark trusts instead of the program under
test: greedy digit replay, the coding map, and eventually periodic digit
streams. Everything works on `Fraction`s and is independent of `lambdaset`.

A sequence is a pair of digit tuples `(pre, per)` standing for
pre per per per ...; its text form is `PRE(PER)`, as the CLI prints it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

HALF = Fraction(1, 2)
SEQ_01INF = ((0,), (1,))


def greedy(x: Fraction, lam: Fraction, max_steps: int = 600):
    """Greedy coding of x in base lam by exact iteration.

    Returns ("member", pre, per) once a state repeats, ("not_member", step)
    when the orbit lands in the open central gap (lam, 1 - lam) at a 1-based
    step, or ("unresolved", digits) when the step budget runs out. Ties at
    1 - lam take digit 1.
    """
    y, seen, digits = x, {x: 0}, []
    for step in range(1, max_steps + 1):
        if y >= 1 - lam:
            digits.append(1)
            y = (y - (1 - lam)) / lam
        elif y <= lam:
            digits.append(0)
            y = y / lam
        else:
            return ("not_member", step)
        if y in seen:
            start = seen[y]
            return ("member", tuple(digits[:start]), tuple(digits[start:]))
        seen[y] = step
    return ("unresolved", tuple(digits))


def parse_seq(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pre, _, rest = text.partition("(")
    if not rest.endswith(")") or not rest[:-1]:
        raise ValueError(f"not a sequence literal: {text!r}")
    return tuple(int(c) for c in pre), tuple(int(c) for c in rest[:-1])


def digit(seq, n: int) -> int:
    """Digit at 1-based index n."""
    pre, per = seq
    return pre[n - 1] if n <= len(pre) else per[(n - len(pre) - 1) % len(per)]


def lex_cmp(a, b) -> int:
    """-1, 0 or 1 as stream a is below, equal to or above stream b."""
    bound = max(len(a[0]), len(b[0])) + lcm(len(a[1]), len(b[1]))
    for n in range(1, bound + 1):
        da, db = digit(a, n), digit(b, n)
        if da != db:
            return -1 if da < db else 1
    return 0


def _poly(bits, lam):
    acc = Fraction(0)
    for b in reversed(bits):
        acc = acc * lam + b
    return acc


def pi(seq, lam: Fraction) -> Fraction:
    """Coding-map value (1 - lam) * sum_n s_n lam^(n-1), in closed form."""
    pre, per = seq
    tail = _poly(per, lam) / (1 - lam ** len(per))
    return (1 - lam) * (_poly(pre, lam) + lam ** len(pre) * tail)


def binary_expansion(x: Fraction):
    """Greedy base-1/2 coding of x in (0, 1/2)."""
    outcome = greedy(x, HALF, 4 * x.denominator + 16)
    if outcome[0] != "member":
        raise ValueError(f"base-1/2 expansion of {x} did not cycle")
    return outcome[1], outcome[2]


def admissible(xs, word: tuple[int, ...]) -> bool:
    """Some extension of `word` lies between xs and 0 1^inf."""
    return (lex_cmp(xs, (word, (1,))) <= 0
            and lex_cmp((word, (0,)), SEQ_01INF) <= 0)


def block_codes(xs, word: tuple[int, ...]):
    """The lowest and highest admissible codings that extend `word`: their
    roots are the ends of the word's block of the ratio set."""
    low = (word, (1,))
    if lex_cmp(low, SEQ_01INF) > 0:
        low = SEQ_01INF
    high = (word, (0,))
    if lex_cmp(high, xs) < 0:
        high = xs
    return low, high


def admissible_prefixes(x: Fraction, depth: int) -> list[tuple[int, ...]]:
    xs = binary_expansion(x)
    words = [()]
    for _ in range(depth):
        words = [w + (d,) for w in words for d in (0, 1)
                 if admissible(xs, w + (d,))]
    return words


def float_root(seq, x: Fraction, lo: float, hi: float = 0.5) -> float:
    """Approximate ratio where pi(seq, .) = x, by float bisection.

    Only used to place benchmark inputs, never to check outputs.
    """
    pre, per = seq
    target = float(x)

    def f(lam):
        tail = sum(b * lam ** i for i, b in enumerate(per)) / (1 - lam ** len(per))
        head = sum(b * lam ** i for i, b in enumerate(pre))
        return (1 - lam) * (head + lam ** len(pre) * tail)

    for _ in range(60):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
