"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload cli-cover --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The run measures the set-up time of a fresh interpreter, then sends
requests one at a time (a closed loop with one client: the next request
goes out when the previous one has finished) in whole blocks of
`workloads.py`. The number of blocks is fixed by `--seconds` and the
workload's BLOCK_SECONDS, so every run of a workload does the same work
whatever the host or the program's speed. Every output is checked by
`checks.py`. Request generation and checking happen between requests and
are not measured.

Timings are reported at a nominal machine speed. On a shared host the speed
of the CPU drifts by tens of percent over seconds to minutes (runs of the
same code on a 2-core host read between 0.74 and 1.07 of nominal speed),
which would swamp the differences the benchmark is for. A fixed `probe`,
which runs no code of the program, is timed between requests, at least
every PROBE_EVERY_S; each request's wall time is scaled by NOMINAL_PROBE_S
over the median of the probe that follows it and the few before that
(PROBE_WINDOW in all), so a timing reads as it would on a host where the
probe takes NOMINAL_PROBE_S. The unscaled wall-time figures are printed on
the line that starts with `unscaled:`, before the result.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the requests run under `tracing.py` and the
line holds the per-layer metrics. Lines before it describe the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import checks
import exact
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_SAMPLES = 9
REQUEST_TIMEOUT_S = 60
WALL_LIMIT_S = 100          # stop early, mid-block, past this wall time
TAIL_BEYOND = 10            # samples that must lie above the tail percentile

# Seconds one block of each workload takes on the unchanged program at
# nominal speed; a run is the whole number of blocks nearest to `--seconds`
# at that pace, and at least one.
BLOCK_SECONDS = {"cli-cover": 8.3, "session-ledger": 1.1, "cli-exact": 8.6}

NOMINAL_PROBE_S = 0.024
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 5
_PROBE_SEQ = ((0, 1, 1, 0, 1, 0, 0, 1), (1, 0, 1))
_PROBE_LAM = Fraction(0x6A09E667F3BCC908B2FB1366EA957D3E, 1 << 128)


def probe() -> float:
    """Seconds a fixed piece of work takes on the host right now: an exact
    coding-map computation (the fastest of three tries, so a momentary
    preemption does not count) plus one bare interpreter start, because
    requests spend their time in both."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(40):
            exact.pi(_PROBE_SEQ, _PROBE_LAM)
        best = min(best, time.perf_counter() - start)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return best * 3 + time.perf_counter() - start


# statement each fresh interpreter times, by workload kind
SETUP_CODE = {
    "cli": "import lambdaset.cli as c; c.build_parser()",
    "session": "import lambdaset.constructions",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LAMBDASET_PRECISION_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(kind: str, env: dict) -> tuple[float, float]:
    """Median time a fresh interpreter spends on the set-up statement, at
    nominal speed and unscaled; one unmeasured start first, so bytecode
    caches are written."""
    code = ("import time; t = time.perf_counter(); " + SETUP_CODE[kind]
            + "; print(time.perf_counter() - t)")
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = probe()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            raw.append(float(out.stdout))
            scaled.append(raw[-1] * NOMINAL_PROBE_S * 2 / (before + probe()))
    return statistics.median(scaled), statistics.median(raw)


class CliClient:
    """One fresh `lambdaset` process per request."""

    kind = "cli"

    def __init__(self, env: dict, work: Path, traced: bool):
        self.env, self.work, self.traced = env, work, traced
        self.layers = tracing.LayerTotals()

    def send(self, request: dict, rid: int):
        if self.traced:
            spans = self.work / f"spans-{rid}.json"
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans),
                   str(rid), *request["argv"]]
        else:
            cmd = [sys.executable, "-c",
                   "import sys; from lambdaset.cli import main; sys.exit(main())",
                   *request["argv"]]
        try:
            done = subprocess.run(cmd, env=self.env, capture_output=True,
                                  timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return done.returncode, done.stdout, done.stderr

    def check(self, request: dict, reply, rid: int) -> list[str]:
        spans = self.work / f"spans-{rid}.json"
        if spans.exists():
            self.layers.add(json.loads(spans.read_text()))
            spans.unlink()
        if reply is None:
            return ["timed out"]
        problems = checks.check_cli(request, reply[0], reply[1])
        if reply[0] != 0:
            problems.append(reply[2].decode(errors="replace").strip()[-200:])
        return problems

    def close(self) -> float:
        """Peak RSS in MB of the largest process started so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class SessionClient:
    """One long-lived library process for the whole run."""

    kind = "session"

    def __init__(self, env: dict, work: Path, traced: bool):
        self.spans = work / "spans-session.json"
        self.layers = tracing.LayerTotals()
        cmd = [sys.executable, str(BENCH / "session_worker.py")]
        if traced:
            cmd.append(str(self.spans))
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.traced = traced
        if json.loads(self.proc.stdout.readline() or "{}").get("ready") is not True:
            raise RuntimeError("session worker did not start")

    def send(self, request: dict, rid: int):
        try:
            self.proc.stdin.write(json.dumps(dict(request, id=rid)) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            return None
        return json.loads(line) if line else None

    def check(self, request: dict, reply, rid: int) -> list[str]:
        return checks.check_call(request, reply)

    def close(self) -> float:
        """Ends the session; returns the worker's peak RSS in MB (0 when
        the worker died before reporting it)."""
        last = ""
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            last = self.proc.stdout.readline()
            self.proc.wait(timeout=60)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.traced and self.spans.exists():
            self.layers.add(json.loads(self.spans.read_text()))
        return json.loads(last)["peak_rss_kb"] / 1024 if last else 0.0


CLIENTS = {"cli-cover": CliClient, "session-ledger": SessionClient,
           "cli-exact": CliClient}


class NominalClock:
    """Request wall times, and the same times scaled to nominal speed by the
    median of the last PROBE_WINDOW probes, the newest of them taken after
    the request."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes = [probe()]
        self.at = time.monotonic()

    def add(self, elapsed: float) -> None:
        self.raw.append(elapsed)
        if time.monotonic() - self.at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        self.probes.append(probe())
        self.at = time.monotonic()
        factor = NOMINAL_PROBE_S / statistics.median(self.probes[-PROBE_WINDOW:])
        self.scaled += [t * factor for t in self.raw[len(self.scaled):]]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    env = child_env()
    client_type = CLIENTS[workload]
    setup_s, setup_raw_s = measure_setup(client_type.kind, env)
    client = client_type(env, work, traced)
    stream = workloads.WORKLOADS[workload](seed, work)
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    clock = NominalClock()
    shapes: list[str] = []
    failures: list[str] = []
    wall_start = time.monotonic()
    try:
        for _ in range(blocks):
            for request in next(stream):
                rid = len(clock.raw)
                start = time.perf_counter()
                reply = client.send(request, rid)
                clock.add(time.perf_counter() - start)
                shapes.append(request["argv"][0] if "argv" in request
                              else request["call"])
                problems = client.check(request, reply, rid)
                if problems:
                    failures.append(f"request {rid} {json.dumps(request)}: "
                                    + "; ".join(problems))
                if time.monotonic() - wall_start > WALL_LIMIT_S:
                    break
            if time.monotonic() - wall_start > WALL_LIMIT_S:
                break
        clock.flush()
    finally:
        peak_rss_mb = client.close()
    by_shape: dict[str, list[float]] = {}
    for shape, t in zip(shapes, clock.scaled):
        by_shape.setdefault(shape, []).append(t)
    n = len(clock.raw)
    timings = {}
    for key, latencies, setup in (("scaled", clock.scaled, setup_s),
                                  ("unscaled", clock.raw, setup_raw_s)):
        timings[key] = {"requests_per_s": n / sum(latencies),
                        "latency_p50_ms": statistics.median(latencies) * 1000,
                        "latency_tail_ms": tail(latencies)[0] * 1000,
                        "setup_s": setup}
    return {"requests": n, "failures": failures, "busy_s": sum(clock.raw),
            "by_shape": by_shape, "tail_percentile": tail(clock.raw)[1],
            **timings["scaled"], "unscaled": timings["unscaled"],
            "speed": sum(clock.scaled) / sum(clock.raw),
            "success_ratio": (n - len(failures)) / n,
            "peak_rss_mb": peak_rss_mb,
            "layers": client.layers.metrics(n, sum(clock.raw)) if traced else None,
            "in_process_share": client.layers.in_process_share()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lambdaset" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write("error: run from the root of a lambdaset checkout "
                         "(src/lambdaset and BENCHMARK.json are needed)\n")
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     Path(tmp))
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['requests']} "
          f"requests in {result['busy_s']:.2f} s, {len(result['failures'])} "
          f"failed (fail_ratio {1 - result['success_ratio']:.4f}); tail is "
          f"p{result['tail_percentile']:.1f} of {result['requests']} samples")
    print(f"  machine ran at {result['speed']:.3f} of nominal speed")
    for shape, times in sorted(result["by_shape"].items()):
        print(f"  {shape:>14}: {len(times):3d} requests, median "
              f"{statistics.median(times) * 1000:9.1f} ms, max "
              f"{max(times) * 1000:9.1f} ms")
    print("unscaled: " + json.dumps(result["unscaled"]))
    if args.trace:
        print(f"  psi_inverse share of request wall time "
              f"{result['layers']['lambda_set.psi_inverse.time_share']:.4f}, "
              f"of in-process request time {result['in_process_share']:.4f}")
        values = dict(result["layers"],
                      **{"trace.requests_per_s": result["requests_per_s"]})
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["requests"],
                      "failed": len(result["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
