"""Run every workload and report all metrics, their stability, the tracing
overhead and the checks that confirm the workload design.

    python3 bench/report.py

Run from the root of a source checkout. Each workload runs untraced with
two sets of seeds (1-10 and 11-20), run_seconds from BENCHMARK.json each,
then once traced with seed 1. For every end-to-end metric and each set the
report prints the median and the spread (the distance between the first
and third quartile, as a share of the median) next to the metric's bound,
and flags a spread above its bound as unresolved; timings also show the
median and spread of the unscaled wall times (see run.py). It then sets the two
medians side by side and flags a pair that differs by more than the bound.
The traced run gives the per-layer metrics, each with the end-to-end metric
it should move (interactions.json), and the design checks the workloads
were built to pass. Exits 1 when any output was wrong or any flag is raised.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TAIL_RE = re.compile(r"tail is p([0-9.]+) of ([0-9]+) samples")
UNSCALED_RE = re.compile(r"^unscaled: (.*)$", re.M)

SEED_SETS = (range(1, 11), range(11, 21))

# (workload, per-layer metric, test, stated condition) from the workload design
DESIGN_CHECKS = [
    ("cli-cover", "lambda_set.psi_inverse.time_share", lambda v: v >= 0.9,
     ">= 0.9 of request wall time"),
    ("cli-cover", "lambda_set.psi_inverse.hit_ratio", lambda v: v < 0.1,
     "< 0.1"),
    ("session-ledger", "lambda_set.psi_inverse.hit_ratio", lambda v: v >= 0.5,
     ">= 0.5"),
    ("cli-exact", "lambda_set.psi_inverse.solves", lambda v: v == 0, "== 0"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def report_set(workload: str, seeds: range, seconds: int,
               end_to_end: list[dict]) -> tuple[bool, dict, list]:
    """Runs one seed set; prints its runs and spreads. Returns (no output
    wrong and every spread within its bound, medians by metric, results)."""
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    print(f"== {workload}: seeds {seeds.start}-{seeds.stop - 1}, "
          f"{seconds} s runs")
    ok = True
    for result, text in runs:
        tail = TAIL_RE.search(text)
        ok &= result["correct"]
        print(f"   {result['attempted']:4d} requests, {result['failed']} "
              f"failed, tail p{tail.group(1)} of {tail.group(2)} samples")
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    print(f"   fail_ratio over all runs: {failed / attempted:.4f} "
          f"({failed} of {attempted} requests)")
    unscaled = [json.loads(UNSCALED_RE.search(text).group(1)) for _, text in runs]
    print(f"   {'metric':<18}{'unit':>7}{'median':>12}{'spread':>9}"
          f"{'bound':>8}  verdict     unscaled median, spread")
    medians = {}
    for metric in end_to_end:
        name = metric["name"]
        median, share = spread([r["metrics"][name]["value"] for r, _ in runs])
        medians[name] = median
        verdict = "ok" if share <= metric["bound"] else "UNRESOLVED"
        ok &= verdict == "ok"
        line = (f"   {name:<18}{metric['unit']:>7}{median:12.4f}{share:9.3f}"
                f"{metric['bound']:8.2f}  {verdict:<10}")
        if name in unscaled[0]:
            raw_median, raw_share = spread([u[name] for u in unscaled])
            line += f"  {raw_median:12.4f}{raw_share:9.3f}"
        print(line)
    return ok, medians, runs


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    interactions = json.loads((BENCH / "interactions.json").read_text())["metrics"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for seeds in SEED_SETS:
            set_ok, medians, runs = report_set(workload, seeds, seconds,
                                               spec["end_to_end"])
            ok &= set_ok
            sets.append((medians, runs))
        print(f"== {workload}: medians of the two seed sets")
        for metric in spec["end_to_end"]:
            first, second = (m[metric["name"]] for m, _ in sets)
            differs = abs(second - first) / first if first else 0.0
            verdict = "ok" if differs <= metric["bound"] else "UNRESOLVED"
            ok &= verdict == "ok"
            print(f"   {metric['name']:<18}{first:12.4f}{second:12.4f}"
                  f"{differs:9.3f}{metric['bound']:8.2f}  {verdict}")
        traced, _ = run_once(workload, 1, seconds, 1)
        ok &= traced["correct"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = statistics.median(
            r["metrics"]["requests_per_s"]["value"] for r, _ in sets[0][1])
        print(f"   traced run (seed 1): {layers['trace.requests_per_s']:.4f} "
              f"requests/s against {untraced:.4f} untraced "
              f"({layers['trace.requests_per_s'] / untraced:.3f} of it)")
        for metric in spec["per_layer"]:
            row = interactions[metric["name"]]
            moves = "; ".join(f"{m}" for m in row["moves"].get(workload, []))
            note = (f"-> {moves}" if moves else
                    "no move predicted" if workload in row["no_move"] else "")
            print(f"   {metric['name']:<44}{layers[metric['name']]:14.4f} "
                  f"{metric['unit']:<10}{note}")
        for w, name, test, condition in DESIGN_CHECKS:
            if w == workload:
                passed = test(layers[name])
                print(f"   design check {name} {condition}: "
                      f"{'PASS' if passed else 'FAIL'} ({layers[name]:.4f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
