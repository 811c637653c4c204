"""Output checks that do not trust the program under test.

Every payload is validated against the schema the program ships
(`lambdaset.cli.load_schema`); every claim that can be replayed exactly is
replayed with `exact`, which shares no code with `lambdaset`. Each check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import exact

HALF = Fraction(1, 2)

# Certified middle-alpha thickness may undershoot (1 - alpha) / (2 alpha) only
# by outward rounding at 128 bits; 2^-64 relative is far above that rounding
# and far below any real error.
THICKNESS_SLACK = Fraction(1, 1 << 64)
RANDOM_RATIOS = 48             # seeded rational ratios tried per cover check
ROOT_HALF_WIDTH = Fraction(1, 1 << 40)  # bracket around a float root
DIM_NODE_LIMIT = 400           # prefix nodes a dim lower bound visits

_validators: dict = {}


def _schema_errors(command: str, payload) -> list[str]:
    if command not in _validators:
        from jsonschema import Draft202012Validator
        from lambdaset.cli import load_schema
        _validators[command] = Draft202012Validator(load_schema(command))
    return [f"schema: {e.message}" for e in
            _validators[command].iter_errors(payload)][:3]


def _members(targets: list[Fraction], key: str) -> list[Fraction]:
    """Ratios at which every target is a member, by exact greedy replay:
    x itself for the largest target, 1/2, and seeded rationals."""
    rng = random.Random(key)
    floor = max(targets)
    candidates = {floor, HALF}
    for _ in range(RANDOM_RATIOS):
        q = rng.randint(8, 256)
        low, high = math.floor(floor * q) + 1, math.ceil(HALF * q) - 1
        if low <= high:
            candidates.add(Fraction(rng.randint(low, high), q))
    return sorted(lam for lam in candidates
                  if all(exact.greedy(x, lam)[0] == "member" for x in targets))


def _enclosure(enc: dict) -> tuple[Fraction, Fraction]:
    return Fraction(enc["lo"]), Fraction(enc["hi"])


def _x(argv: list[str]) -> Fraction:
    return Fraction(_option(argv, "--x"))


def _targets(argv: list[str]) -> list[Fraction]:
    if "--x" in argv:
        return [_x(argv)]
    return [Fraction(t) for t in _option(argv, "--targets").split(",")]


def _root_errors(x: Fraction, code: str | None, enc: dict,
                 width: Fraction, where: str) -> list[str]:
    """The enclosure must hold the ratio where pi(code, .) = x: pi(code, .)
    increases on [x, 1/2], so pi(lo) <= x <= pi(hi) certifies it."""
    if code is None:
        return []
    lo, hi = _enclosure(enc)
    seq = exact.parse_seq(code)
    problems = []
    if not exact.pi(seq, lo) <= x <= exact.pi(seq, hi):
        problems.append(f"{where}: [{lo}, {hi}] misses the root of {code}")
    if hi - lo > width:
        problems.append(f"{where}: enclosure wider than the target width")
    return problems


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _width(argv: list[str]) -> Fraction:
    return Fraction(1, 1 << int(_option(argv, "--width-bits", "80")))


def _check_cover(request, payload) -> list[str]:
    argv, targets = request["argv"], _targets(request["argv"])
    problems = []
    intervals = payload["intervals"]
    bounds = [(Fraction(iv["lo"]["lo"]), Fraction(iv["hi"]["hi"])) for iv in intervals]
    if any(lo > hi for lo, hi in bounds):
        problems.append("cover interval with lo > hi")
    if any(a[1] >= b[0] for a, b in zip(bounds, bounds[1:])):
        problems.append("cover intervals overlap or are out of order")
    for lam in _members(targets, " ".join(argv)):
        if not any(lo <= lam <= hi for lo, hi in bounds):
            problems.append(f"member ratio {lam} is not covered")
    if len(targets) == 1:
        x, width = targets[0], _width(argv)
        bits = int(_option(argv, "--bits", "128"))
        if payload["precision"] != {"bits": bits, "target_width": str(width)}:
            problems.append("precision does not echo the request")
        for i, iv in enumerate(intervals):
            problems += _root_errors(x, iv["low_code"], iv["lo"], width, f"interval {i} lo")
            problems += _root_errors(x, iv["high_code"], iv["hi"], width, f"interval {i} hi")
    return problems


def _check_gaps(request, payload) -> list[str]:
    argv, x = request["argv"], _x(request["argv"])
    problems = []
    width = _width(argv)
    spans = []
    for i, gap in enumerate(payload["gaps"]):
        problems += _root_errors(x, gap["left_code"], gap["left"], width, f"gap {i} left")
        problems += _root_errors(x, gap["right_code"], gap["right"], width, f"gap {i} right")
        spans.append((Fraction(gap["left"]["hi"]), Fraction(gap["right"]["lo"])))
    if any(lo >= hi for lo, hi in spans):
        problems.append("gap with no certified interior")
    if any(a[1] > b[0] for a, b in zip(spans, spans[1:])):
        problems.append("gaps overlap or are out of order")
    for lam in _members([x], " ".join(argv)):
        if any(lo < lam < hi for lo, hi in spans):
            problems.append(f"member ratio {lam} lies inside a gap")
    return problems


def _certified_roots(x: Fraction, lo_w: Fraction, hi_w: Fraction,
                     threshold: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Brackets [lo, hi] inside the window, each holding a point of the
    ratio set: a root of pi(c, .) = x for an admissible coding c, certified
    by exact pi values of opposite sign at the bracket ends (pi is
    continuous in the ratio). The codings are the block ends of every
    admissible prefix whose float block meets the window and is wider than
    `threshold`, and of its children."""
    xs = exact.binary_expansion(x)
    roots: dict = {}            # coding -> (float root, certified bracket)
    stack, nodes = [(0,)], 0
    while stack and nodes < DIM_NODE_LIMIT:
        word = stack.pop()
        nodes += 1
        for code in exact.block_codes(xs, word):
            if code not in roots:
                root = exact.float_root(code, x, float(x))
                lo = Fraction(root) - ROOT_HALF_WIDTH
                hi = Fraction(root) + ROOT_HALF_WIDTH
                sign = (exact.pi(code, lo) - x) * (exact.pi(code, hi) - x)
                roots[code] = (root, (lo, hi) if sign <= 0 else None)
        # the float block decides where to look, never what is counted
        a, b = (roots[code][0] for code in exact.block_codes(xs, word))
        if b < lo_w or a > hi_w or b - a <= threshold:
            continue
        stack.extend(word + (d,) for d in (0, 1)
                     if exact.admissible(xs, word + (d,)))
    return [r for _, r in roots.values()
            if r is not None and lo_w <= r[0] and r[1] <= hi_w]


def _check_dim(request, payload) -> list[str]:
    argv = request["argv"]
    problems = []
    center, radius = Fraction(_option(argv, "--center")), Fraction(_option(argv, "--radius"))
    if payload["window"] != [str(center - radius), str(center + radius)]:
        problems.append("window does not echo the request")
    low, high = int(_option(argv, "--eps-min-exp")), int(_option(argv, "--eps-max-exp"))
    points = [(Fraction(p["eps"]), p["count"]) for p in payload["points"]]
    if [e for e, _ in points] != [Fraction(1, 1 << k) for k in range(low, high + 1)]:
        problems.append("grid sizes do not match the request")
    counts = [c for _, c in points]
    if counts[0] < 1 or counts != sorted(counts):
        problems.append("box counts must be positive and grow as eps shrinks")
    # every point of the ratio set in the window lies in a counted box
    x = _x(argv)
    lo_w, hi_w = max(center - radius, x), min(center + radius, HALF)
    roots = _certified_roots(x, lo_w, hi_w, Fraction(1, 1 << high) / 4)
    for eps, count in points:
        boxes = {math.floor(lo / eps) for lo, hi in roots
                 if math.floor(lo / eps) == math.floor(hi / eps)}
        if count < len(boxes):
            problems.append(f"{count} boxes of size {eps}, but ratio-set "
                            f"points occupy {len(boxes)}")
    xs = [math.log(1 / float(e)) for e, _ in points]
    ys = [math.log(c) for c in counts]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
             / sum((a - mean_x) ** 2 for a in xs))
    if not math.isclose(slope, payload["slope"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"slope {payload['slope']} is not the fit {slope}")
    return problems


def _check_thickness(request, payload) -> list[str]:
    alpha = Fraction(request["alpha"])
    exact_tau = (1 - alpha) / (2 * alpha)
    tau = Fraction(payload["thickness"])
    problems = []
    if tau > exact_tau:
        problems.append(f"certified thickness {tau} exceeds {exact_tau}")
    elif exact_tau - tau > THICKNESS_SLACK * exact_tau:
        problems.append(f"certified thickness {float(tau)} is not tight")
    if payload["gaps"] != request["removals"]:
        problems.append("removal count does not match the gap file")
    expected = math.log(2) / math.log(2 + 1 / float(tau))
    if not math.isclose(payload["newhouse_lower"], expected, rel_tol=1e-12):
        problems.append("newhouse_lower is not log 2 / log(2 + 1/tau)")
    return problems


def _check_common(request, payload) -> list[str]:
    problems = []
    targets = _targets(request["argv"])
    certs = payload["certificates"]
    exact_ratios = [Fraction(c["lam_exact"]) for c in certs if c["status"] == "Exact"]
    if HALF not in exact_ratios:
        problems.append("the ratio-1/2 certificate is missing")
    for cert in certs:
        if cert["status"] != "Exact":
            continue
        lam = Fraction(cert["lam_exact"])
        lo, hi = _enclosure(cert["lam"])
        if not lo <= lam <= hi:
            problems.append(f"enclosure of {lam} misses it")
        for x, code in zip(targets, cert["codings"]):
            outcome = exact.greedy(x, lam)
            if outcome[0] != "member":
                problems.append(f"{x} at {lam} does not replay to a cycle")
            elif exact.lex_cmp(outcome[1:], exact.parse_seq(code)) != 0:
                problems.append(f"{x} at {lam}: coding {code} does not replay")
    mids = [sum(_enclosure(c["lam"])) for c in certs]
    if mids != sorted(mids):
        problems.append("certificates are not sorted by ratio")
    return problems


def _check_code(request, payload) -> list[str]:
    argv = request["argv"]
    x, lam = _x(argv), Fraction(_option(argv, "--lambda"))
    outcome = exact.greedy(x, lam, int(_option(argv, "--max-steps", "256")))
    if outcome[0] == "member":
        if payload["outcome"] == "member" and exact.lex_cmp(
                outcome[1:], exact.parse_seq(payload["coding"])) == 0:
            return []
    elif outcome[0] == "not_member":
        if payload["outcome"] == "not_member" and payload["reject_step"] == outcome[1]:
            return []
    elif payload["outcome"] == "unresolved" and payload["digits"] == "".join(map(str, outcome[1])):
        return []
    return [f"greedy replay gives {outcome[0]}, payload says {payload['outcome']}"]


def _check_pi(request, payload) -> list[str]:
    argv = request["argv"]
    value = exact.pi(exact.parse_seq(_option(argv, "--seq")),
                     Fraction(_option(argv, "--lambda")))
    if Fraction(payload["value"]) != value:
        return [f"pi is {value}, not {payload['value']}"]
    return []


def _check_expansion(request, payload) -> list[str]:
    x = _x(request["argv"])
    if x > HALF:
        x = 1 - x
    if Fraction(payload["x"]) != x:
        return ["expansion target was not mirrored into (0, 1/2)"]
    if exact.lex_cmp(exact.binary_expansion(x), exact.parse_seq(payload["sequence"])) != 0:
        return ["expansion differs from the greedy base-1/2 replay"]
    return []


def check_cli(request: dict, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one CLI request's exit code and payload."""
    command = request["argv"][0]
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    return (_schema_errors(command, payload)
            or _CLI_CHECKS[command](request, payload))


_CLI_CHECKS = {"cover": _check_cover, "intersect": _check_cover,
               "gaps": _check_gaps, "dim": _check_dim,
               "thickness": _check_thickness, "common": _check_common,
               "code": _check_code, "pi": _check_pi,
               "expansion": _check_expansion}


# Verdict of each ledger entry kind from its lhs and rhs. A square-identity
# entry also needs its residual enclosure to contain 0, which the ledger
# does not print, so only `passed` implying lhs <= rhs is checked there.
_LEDGER_RULES = {
    "switch_lower": lambda lhs, rhs: lhs >= rhs,
    "switch_upper": lambda lhs, rhs: lhs <= rhs,
    "gap_ratio": lambda lhs, rhs: lhs >= rhs,
    "piece_gap": lambda lhs, rhs: lhs >= rhs,
    "half_gap": lambda lhs, rhs: lhs >= rhs,
}


def _check_ledger(request, payload) -> list[str]:
    problems = []
    trials = request["trials"]
    if payload["trials"] != trials or payload["seed"] != request["seed"]:
        problems.append("ledger does not echo trials and seed")
    entries = payload["entries"]
    # case A: trials entries per switch shape plus three per gap trial;
    # case B: two switch shapes plus four entries for each of pieces 1..6
    expected = 5 * trials if request["call"] == "verify_caseA" else 2 * trials + 24
    if payload["checked"] != len(entries) or len(entries) != expected:
        problems.append(f"ledger checked {payload['checked']} of {expected} entries")
    for entry in entries:
        lhs, rhs = Fraction(entry["lhs"]), Fraction(entry["rhs"])
        rule = _LEDGER_RULES.get(entry["kind"])
        if rule is not None and rule(lhs, rhs) != entry["passed"]:
            problems.append(f"{entry['kind']} verdict does not follow from lhs/rhs")
        elif entry["kind"] == "square_identity" and entry["passed"] and lhs > rhs:
            problems.append("square_identity passed with residual above its cap")
        elif rule is None and entry["kind"] != "square_identity":
            problems.append(f"unknown ledger entry kind {entry['kind']}")
    if payload["violations"] != [e for e in entries if not e["passed"]]:
        problems.append("violations do not list the failed entries")
    if payload["violations"]:
        problems.append(f"{len(payload['violations'])} ledger violations")
    return problems


def _check_thickness_cl(request, payload) -> list[str]:
    problems = []
    minima = [Fraction(v) for v in payload["per_family_minima"].values()]
    tau = Fraction(payload["tau_truncated"])
    if tau != min(minima) or tau <= 0:
        problems.append("tau_truncated is not the least positive family minimum")
    if (payload["x"], payload["ell"], payload["k_max"], payload["q_max"]) != (
            request["x"], request["ell"], request["k_max"], request["q_max"]):
        problems.append("report does not echo its parameters")
    if payload["bound_violations"]:
        problems.append(f"{len(payload['bound_violations'])} bound violations")
    expected = math.log(2) / math.log(2 + 1 / float(tau))
    if not math.isclose(payload["newhouse_lower"], expected, rel_tol=1e-12):
        problems.append("newhouse_lower is not log 2 / log(2 + 1/tau)")
    return problems


def check_call(request: dict, reply: dict | None) -> list[str]:
    """Problems with one session call's reply."""
    if reply is None:
        return ["no reply"]
    if not reply.get("ok"):
        return [reply.get("error", "call failed")]
    payload = reply["payload"]
    if request["call"] == "thickness_Cl":
        return (_schema_errors("thickness-cl", payload)
                or _check_thickness_cl(request, payload))
    return _schema_errors("verify", payload) or _check_ledger(request, payload)
