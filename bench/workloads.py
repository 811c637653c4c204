"""Seeded request generators for the three benchmark workloads.

Each workload is an endless stream of blocks. A block has the same mix of
request shapes for every seed; the seed picks targets, parameters and the
order inside the block. `run.py` runs whole blocks, so every run sees the
same mix whatever its length, which keeps runs with different seeds
comparable.

To print the requests of a run, for example to replay one slow request:

    python3 bench/workloads.py --workload cli-cover --seed 3 --blocks 2

CLI requests print as the `lambdaset` argument list; the gap files that
`thickness` requests read are written to `--gap-dir`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import exact

HALF = Fraction(1, 2)

# targets p/q with q <= 16 strictly between 1/5 and 1/2
TARGETS = sorted({Fraction(p, q) for q in range(2, 17) for p in range(1, q)
                  if Fraction(1, 5) < Fraction(p, q) < HALF})

# cover/gaps targets: those with at most 12 admissible prefixes at depth 6,
# so every such request can be sized near SINGLE_PREFIXES
SINGLE_TARGETS = [x for x in TARGETS
                  if len(exact.admissible_prefixes(x, 6)) <= 12]

# (bits, width-bits) of the seeded minority; both keep bits >= width + 48
COARSE = (96, 48)
FINE = (176, 112)

# Work per request is kept near these sizes, so requests of one shape cost
# about the same whatever target the seed picks.
SINGLE_PREFIXES = 7        # admissible prefixes per cover/gaps request
PAIR_PREFIXES = 20         # summed over both targets of an intersect
DIM_NODES = 40             # predicted refinement nodes per dim request


class _Cycle:
    """Seeded endless walk through a list, reshuffled on every pass, so each
    item appears equally often in any long enough stretch."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.queue = list(items), rng, []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _depth_for(xs_list: list[Fraction], prefixes: int) -> int:
    """Depth in 6..9 whose total admissible prefix count is nearest to
    `prefixes`."""
    return min(range(6, 10), key=lambda depth: abs(prefixes - sum(
        len(exact.admissible_prefixes(x, depth)) for x in xs_list)))


def _block_interval(x: Fraction, xs, word) -> tuple[float, float]:
    """Float image of the admissible codings that extend `word`."""
    low, high = exact.block_codes(xs, word)
    return (exact.float_root(low, x, float(x)),
            exact.float_root(high, x, float(x)))


def _dim_nodes(x: Fraction, lo: float, hi: float, threshold: float) -> int:
    """Prefix nodes the adaptive refinement of `dim` on [lo, hi] visits,
    predicted in float; each costs two root solves, one usually cached."""
    xs = exact.binary_expansion(x)
    nodes, stack = 0, [(0,)]
    while stack and nodes < 4 * DIM_NODES:
        word = stack.pop()
        nodes += 1
        a, b = _block_interval(x, xs, word)
        if b < lo or a > hi or b - a <= threshold:
            continue
        stack.extend(word + (d,) for d in (0, 1)
                     if exact.admissible(xs, word + (d,)))
    return nodes


def _dim_request(x: Fraction, rng: random.Random) -> list[str]:
    """A window inside the image of a seeded depth-3 prefix: the coarsest
    grid whose predicted node count reaches DIM_NODES, and the window shrunk
    until the count is no more than that."""
    xs = exact.binary_expansion(x)
    word = rng.choice(exact.admissible_prefixes(x, 3))
    a, b = _block_interval(x, xs, word)
    mid, half = (a + b) / 2, (b - a) / 2
    top = math.ceil(-math.log2(b - a))
    for fine in range(top + 1, top + 8):
        if _dim_nodes(x, a, b, 2.0 ** -fine / 4) >= DIM_NODES:
            break
    scale = 1.0
    while scale > 0.05 and _dim_nodes(
            x, mid - half * scale, mid + half * scale, 2.0 ** -fine / 4) > DIM_NODES:
        scale *= 0.9
    center = Fraction(mid).limit_denominator(1 << 20)
    radius = Fraction(half * scale).limit_denominator(1 << 20)
    return ["dim", "--x", str(x), "--center", str(center),
            "--radius", str(radius), "--eps-min-exp", str(fine - 2),
            "--eps-max-exp", str(fine)]


def _precision(kind: str) -> list[str]:
    if kind == "default":
        return []
    bits, width = COARSE if kind == "coarse" else FINE
    return ["--bits", str(bits), "--width-bits", str(width)]


def cli_cover(seed: int, gap_dir: Path):
    """cover/gaps/intersect/dim requests; cold caches in every process."""
    rng = random.Random(f"cli-cover:{seed}")
    singles, pairs = _Cycle(SINGLE_TARGETS, rng), _Cycle(TARGETS, rng)
    # the i-th dim of a block takes its target from the i-th quarter of the
    # targets ordered by x, so every block spans the whole range
    quarter = -(-len(TARGETS) // 4)
    dims = [_Cycle(TARGETS[i:i + quarter], rng)
            for i in range(0, len(TARGETS), quarter)]
    while True:
        shapes = ["cover"] * 5 + ["gaps"] * 3 + ["intersect"] + ["dim"] * 4
        rng.shuffle(shapes)
        widths = ["coarse", "fine"] + ["default"] * 6
        rng.shuffle(widths)
        block, dim_strata = [], iter(dims)
        for shape in shapes:
            if shape in ("cover", "gaps"):
                x = singles.next()
                depth = _depth_for([x], SINGLE_PREFIXES)
                argv = [shape, "--x", str(x), "--depth", str(depth)]
                argv += _precision(widths.pop())
            elif shape == "intersect":
                x, y = pairs.next(), pairs.next()
                while y == x:
                    y = pairs.next()
                depth = _depth_for([x, y], PAIR_PREFIXES)
                argv = ["intersect", "--targets", f"{x},{y}",
                        "--depth", str(depth)]
            else:
                argv = _dim_request(next(dim_strata).next(), rng)
            block.append({"argv": argv})
        yield block


def _middle_cantor(alpha: Fraction, levels: int) -> dict:
    """Middle-alpha Cantor set on [0, 1]: 2^levels - 1 removals, level by
    level, each strictly inside one remaining component."""
    side = (1 - alpha) / 2
    components, gaps = [(Fraction(0), Fraction(1))], []
    for _ in range(levels):
        nxt = []
        for lo, hi in components:
            a, b = lo + side * (hi - lo), hi - side * (hi - lo)
            gaps.append([str(a), str(b)])
            nxt += [(lo, a), (b, hi)]
        components = nxt
    return {"hull": ["0", "1"], "gaps": gaps}


def _short_request(kind: str, rng: random.Random) -> list[str]:
    x = rng.choice(TARGETS)
    lam = Fraction(rng.randint(1, 99), 200)
    if kind == "code":
        return ["code", "--x", str(x), "--lambda", str(lam)]
    if kind == "pi":
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        return ["pi", "--seq", f"{pre}({per})", "--lambda", str(lam)]
    mirrored = 1 - x if rng.random() < 0.5 else x
    return ["expansion", "--x", str(mirrored)]


def cli_exact(seed: int, gap_dir: Path):
    """thickness replays, single-target common, and short exact requests."""
    rng = random.Random(f"cli-exact:{seed}")
    commons = _Cycle(TARGETS, rng)
    serial = 0
    while True:
        # Most replays are 1023 removals, so the tail latency falls among
        # requests of one size; 2047 shows the quadratic growth. 4095 (about
        # 7 s) is left out: one of them would be half of a block.
        levels_list = [8, 9, 10, 10, 10, 10, 10, 10, 11]
        shapes = ([("thickness", levels) for levels in levels_list]
                  + [("common", None)] * 2
                  + [(kind, None) for kind in ("code", "pi", "expansion") * 5]
                  + [("code", None)])
        rng.shuffle(shapes)
        block = []
        for shape, levels in shapes:
            if shape == "thickness":
                alpha = Fraction(rng.randint(20, 60), 100)
                path = gap_dir / f"cantor-{seed}-{serial}.json"
                serial += 1
                path.write_text(json.dumps(_middle_cantor(alpha, levels)))
                block.append({"argv": ["thickness", "--gaps", str(path)],
                              "alpha": str(alpha),
                              "removals": (1 << levels) - 1})
            elif shape == "common":
                block.append({"argv": ["common", "--targets",
                                       str(commons.next()), "--depth", "9"]})
            else:
                block.append({"argv": _short_request(shape, rng)})
        yield block


# Targets whose expansion has a digit 1 at an index >= 3, so case A applies.
# Every seed uses the same two: what a call costs depends strongly on the
# target, and the seed only varies the parameters and the order.
SESSION_TARGETS = [Fraction(1, 3), Fraction(2, 7)]


def session_ledger(seed: int, gap_dir: Path):
    """Library calls in one long-lived process; later calls reuse the
    codings solved by earlier ones."""
    rng = random.Random(f"session-ledger:{seed}")
    shapes = [(ell, k_max, q_max) for ell in (1, 2, 3) for k_max in (2, 3)
              for q_max in (1, 2)]
    reports = {x: _Cycle(shapes, rng) for x in SESSION_TARGETS}
    # Every session opens with the same reports, which solve every piece and
    # gap the later reports need, so the cold start costs the same for every
    # seed; the seed drives everything after it.
    yield [{"call": "thickness_Cl", "x": str(x), "ell": 1, "k_max": 5,
            "q_max": 2} for x in SESSION_TARGETS]
    while True:
        block = []
        for x in SESSION_TARGETS:
            for _ in range(3):
                ell, k_max, q_max = reports[x].next()
                block.append({"call": "thickness_Cl", "x": str(x), "ell": ell,
                              "k_max": k_max, "q_max": q_max})
            block.append({"call": "verify_caseA", "x": str(x), "trials": 5,
                          "seed": rng.randrange(1 << 30)})
        block.append({"call": "verify_caseB", "trials": 5,
                      "seed": rng.randrange(1 << 30)})
        rng.shuffle(block)
        yield block


WORKLOADS = {"cli-cover": cli_cover, "session-ledger": session_ledger,
             "cli-exact": cli_exact}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--gap-dir", default=".bench_work/requests",
                        help="where thickness gap files are written")
    args = parser.parse_args()
    gap_dir = Path(args.gap_dir)
    gap_dir.mkdir(parents=True, exist_ok=True)
    stream = WORKLOADS[args.workload](args.seed, gap_dir)
    for b in range(args.blocks):
        for i, request in enumerate(next(stream)):
            print(json.dumps({"block": b, "index": i, **request}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
