"""Traced runs: wrap the program's public functions at their import sites,
record one span per call, and turn the spans into per-layer metrics.

A span is `(request, parent, name, start, end, info)`: `parent` is the index
of the enclosing span in the same process (-1 at the top) and `info` holds
one number a metric needs (the removals a `thickness_of` call replayed, or
whether a `greedy_digits` orbit cycled; base-1/2 expansions are left out).
A process's top-level spans are its requests: `cli.main` for a CLI
request, the library call itself in a session. Spans stay in memory and are
written out when the process ends.

Run as a script, this file executes one traced CLI request:

    python3 bench/tracing.py OUT.json REQUEST_ID cover --x 1/3 --depth 6
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

HALF = Fraction(1, 2)

# span name -> (defining module, function, import sites that get the wrapper)
LAYERS = {
    "lambda_set.psi_inverse": ("lambda_set", "psi_inverse",
                               ("lambda_set", "constructions", "intersect")),
    "numerics.bisect_monotone": ("numerics", "bisect_monotone",
                                 ("lambda_set",)),
    "ifs_core.pi_eval": ("ifs_core", "pi_eval", ("lambda_set", "cli")),
    "lambda_set.admissible_prefixes": ("lambda_set", "admissible_prefixes",
                                       ("lambda_set",)),
    "lambda_set.cover": ("lambda_set", "cover",
                         ("lambda_set", "cli", "intersect")),
    "lambda_set.box_dim_estimate": ("lambda_set", "box_dim_estimate", ("cli",)),
    "ifs_core.greedy_digits": ("ifs_core", "greedy_digits",
                               ("lambda_set", "cli", "intersect")),
    "cantor_metrics.thickness_of": ("cantor_metrics", "thickness_of", ("cli",)),
    "constructions.piece_endpoints": ("constructions", "piece_endpoints",
                                      ("constructions", "cli")),
    "constructions.gap_record": ("constructions", "gap_record",
                                 ("constructions",)),
    "constructions.thickness_Cl": ("constructions", "thickness_Cl",
                                   ("constructions", "cli", "intersect")),
    "constructions.verify_caseA": ("constructions", "verify_caseA",
                                   ("constructions", "cli")),
    "constructions.verify_caseB": ("constructions", "verify_caseB",
                                   ("constructions", "cli")),
    "intersect.intersect_covers": ("intersect", "intersect_covers",
                                   ("intersect", "cli")),
    "intersect.find_common": ("intersect", "find_common", ("cli",)),
}


def _info(name, args, result):
    if name == "cantor_metrics.thickness_of":
        return len(args[0].removals)
    if name == "ifs_core.greedy_digits" and args[1] != HALF:
        return int(type(result).__name__ == "Member")
    return None


class Tracer:
    """Span recorder. `install` patches the library; `wrap` traces any other
    callable; `request` tags the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.request, parent, name, start, end,
                                _info(name, args, result))
        return traced

    def install(self) -> None:
        """Wrap every layer function at each module that imported it. A
        module that no longer has the name is skipped."""
        import importlib
        for name, (home, attr, sites) in LAYERS.items():
            original = getattr(importlib.import_module(f"lambdaset.{home}"),
                               attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for site in sites:
                module = importlib.import_module(f"lambdaset.{site}")
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s for s in self.spans if s is not None], fh)


CLI_MAIN = "cli.main"


class LayerTotals:
    """Running sums over the spans of every process in a traced run; `add`
    takes one process's spans, so no more than one list is held at once."""

    def __init__(self):
        self.request_time = 0.0
        self.total = defaultdict(float)     # name -> summed duration (s)
        self.selftime = defaultdict(float)  # name -> summed self time (s)
        self.calls = defaultdict(int)
        self.solves = self.solving_time = self.evals_in_solves = 0
        self.removals = self.greedy_in_common = self.members_in_common = 0

    def add(self, spans: list) -> None:
        child_time = defaultdict(float)
        has_children = set()
        for _rid, parent, _name, start, end, _info in spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_children.add(parent)
            else:
                self.request_time += end - start
        for index, (_rid, parent, name, start, end, info) in enumerate(spans):
            duration = end - start
            self.total[name] += duration
            self.selftime[name] += duration - child_time[index]
            self.calls[name] += 1
            parent_name = spans[parent][2] if parent >= 0 else None
            if name == "lambda_set.psi_inverse" and index in has_children:
                self.solves += 1
                self.solving_time += duration
            elif name == "ifs_core.pi_eval" and parent_name == "numerics.bisect_monotone":
                self.evals_in_solves += 1
            elif name == "cantor_metrics.thickness_of":
                self.removals += info
            elif (name == "ifs_core.greedy_digits" and info is not None
                    and parent_name == "intersect.find_common"):
                self.greedy_in_common += 1
                self.members_in_common += info

    def in_process_share(self) -> float:
        """psi_inverse's share of the time inside the top-level spans, which
        leaves out interpreter start-up, import and the pipe to a session."""
        psi = self.total["lambda_set.psi_inverse"]
        return psi / self.request_time if self.request_time else 0.0

    def metrics(self, requests: int, wall_s: float) -> dict[str, float]:
        """Times and counts per request; ratios over the whole run.
        `wall_s` is the summed wall time of the requests as the client
        measured it, start-up included."""
        n = max(requests, 1)
        calls, total = self.calls, self.total
        psi_calls = calls["lambda_set.psi_inverse"]
        evals = calls["ifs_core.pi_eval"]

        def ms(*names):
            return sum(self.selftime[name] for name in names) * 1000 / n

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "lambda_set.psi_inverse.calls": psi_calls / n,
            "lambda_set.psi_inverse.solves": self.solves / n,
            "lambda_set.psi_inverse.hit_ratio":
                1 - self.solves / psi_calls if psi_calls else 0.0,
            "lambda_set.psi_inverse.ms_per_solve":
                ratio(self.solving_time * 1000, self.solves),
            "lambda_set.psi_inverse.time_share":
                ratio(total["lambda_set.psi_inverse"], wall_s),
            "lambda_set.admissible_prefixes.self_ms":
                ms("lambda_set.admissible_prefixes"),
            "lambda_set.cover.self_ms": ms("lambda_set.cover"),
            "lambda_set.box_dim_estimate.self_ms":
                ms("lambda_set.box_dim_estimate"),
            "numerics.bisect_monotone.self_ms": ms("numerics.bisect_monotone"),
            "numerics.bisect_monotone.evals_per_solve":
                ratio(self.evals_in_solves, calls["numerics.bisect_monotone"]),
            "ifs_core.pi_eval.calls": evals / n,
            "ifs_core.pi_eval.us_per_call":
                ratio(total["ifs_core.pi_eval"] * 1e6, evals),
            "ifs_core.greedy_digits.calls": calls["ifs_core.greedy_digits"] / n,
            "ifs_core.greedy_digits.self_ms": ms("ifs_core.greedy_digits"),
            "ifs_core.greedy_digits.member_ratio":
                ratio(self.members_in_common, self.greedy_in_common),
            "cantor_metrics.thickness_of.removals": self.removals / n,
            "cantor_metrics.thickness_of.self_ms":
                ms("cantor_metrics.thickness_of"),
            "constructions.piece_endpoints.calls":
                calls["constructions.piece_endpoints"] / n,
            "constructions.gap_record.calls":
                calls["constructions.gap_record"] / n,
            "constructions.thickness_Cl.self_ms":
                ms("constructions.thickness_Cl"),
            "constructions.verify.self_ms":
                ms("constructions.verify_caseA", "constructions.verify_caseB"),
            "intersect.intersect_covers.self_ms":
                ms("intersect.intersect_covers"),
            "intersect.find_common.self_ms": ms("intersect.find_common"),
            "cli.main.self_ms": ms(CLI_MAIN),
        }


def main() -> int:
    if len(sys.argv) < 4:
        sys.stderr.write("usage: tracing.py OUT.json REQUEST_ID ARGS...\n")
        return 1
    out, request, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    from lambdaset import cli
    try:
        return tracer.wrap(CLI_MAIN, cli.main)(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
