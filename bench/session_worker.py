"""Long-lived library session for the `session-ledger` workload.

Reads one JSON call per stdin line, runs it against the `lambdaset` API and
answers with one JSON line: `{"ok": true, "payload": ...}` or
`{"ok": false, "error": ...}`. A `{"ready": true}` line comes first, once
the library is imported. Caches persist between calls, as they would
in a notebook or a service. An empty line ends the session; the answer to
it carries the process's peak RSS. With a file argument the session is
traced and its spans are written to that file at the end.

    python3 bench/session_worker.py [SPANS_OUT.json]
"""

from __future__ import annotations

import json
import resource
import sys
from fractions import Fraction


def main() -> int:
    tracer = None
    if len(sys.argv) > 1:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from lambdaset import constructions
    from lambdaset.cantor_metrics import newhouse_lower
    from lambdaset.errors import LambdasetError
    from lambdaset.numerics import PrecisionConfig

    cfg = PrecisionConfig()

    def thickness_cl(r):
        # the payload `lambdaset thickness-cl` prints, so its schema applies
        report = constructions.thickness_Cl(
            Fraction(r["x"]), r["ell"], r["k_max"], r["q_max"], cfg)
        return dict(report.to_json(),
                    newhouse_lower=newhouse_lower(report.tau_truncated))

    calls = {
        "thickness_Cl": thickness_cl,
        "verify_caseA": lambda r: constructions.verify_caseA(
            Fraction(r["x"]), r["trials"], cfg, r["seed"]).to_json(),
        "verify_caseB": lambda r: constructions.verify_caseB(
            r["trials"], cfg, r["seed"]).to_json(),
    }
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        if not line.strip():
            break
        request = json.loads(line)
        if tracer is not None:
            tracer.request = request["id"]
        try:
            reply = {"ok": True, "payload": calls[request["call"]](request)}
        except LambdasetError as exc:
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump(sys.argv[1])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps({"peak_rss_kb": peak_kb}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
