"""Command-line entry point: every operation behind one executable, with
deterministic JSON payloads on stdout and a run manifest on stderr.

Payloads carry no timestamps and are emitted with sorted keys, so identical
invocations produce byte-identical output; the manifest records the wall
time and a SHA-256 digest of the payload separately.

Every subcommand is one entry of COMMANDS, which the parser, the schema
lookup, target mirroring and dispatch all read. Handlers look library
functions up at call time, so wrappers set on this module's names see them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import __version__
from .constructions import (defining_sequence_Cl, thickness_Cl, verify_caseA,
                            verify_caseB, piece_endpoints)
from .cantor_metrics import DefiningSequence, newhouse_lower, thickness_of
from .errors import InvalidInput, LambdasetError
from .ifs_core import Member, NotMember, greedy_digits, pi_eval
from .intersect import find_common, intersect_covers
from .lambda_set import binary_expansion, box_dim_estimate, cover, gaps
from .numerics import PrecisionConfig, parse_rational
from .seqcode import EpSequence
from .svg import svg_gaps

HALF = Fraction(1, 2)
ENV_BITS = "LAMBDASET_PRECISION_BITS"


def load_schema(command: str) -> dict:
    """Shipped JSON schema for a subcommand's payload (intersect emits the
    cover schema)."""
    from importlib import resources

    name = COMMANDS[command].schema
    ref = resources.files("lambdaset") / "schemas" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this tool reserves 2 for
    verification failures, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part]


X = ("--x", dict(type=_fraction, required=True))
LAMBDA = ("--lambda", dict(dest="lam", type=_fraction, required=True))
DEPTH = ("--depth", dict(type=int, required=True))
TARGETS = ("--targets", dict(type=_fraction_list, required=True))
ELL = ("--ell", dict(type=int, required=True))


def _cover_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("index,lo,hi,low_code,high_code\n")
    for i, iv in enumerate(payload["intervals"]):
        out.write(f"{i},{iv['lo']['lo']},{iv['hi']['hi']},"
                  f"{iv['low_code'] or ''},{iv['high_code'] or ''}\n")
    return out.getvalue()


def _gaps_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("index,left,right,left_code,right_code\n")
    for i, g in enumerate(payload["gaps"]):
        out.write(f"{i},{g['left']['hi']},{g['right']['lo']},"
                  f"{g['left_code']},{g['right_code']}\n")
    return out.getvalue()


def _load_defining_sequence(source: str, bits: int) -> DefiningSequence:
    if source == "-":
        raw = json.load(sys.stdin)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not (isinstance(raw, dict)
            and isinstance(raw.get("hull"), list) and len(raw["hull"]) == 2
            and isinstance(raw.get("gaps"), list)
            and all(isinstance(g, list) and len(g) == 2 for g in raw["gaps"])):
        raise InvalidInput(f"{source}: expected "
                           '{"hull": [lo, hi], "gaps": [[lo, hi], ...]}')
    hull = tuple(parse_rational(str(v)) for v in raw["hull"])
    removals = [(parse_rational(str(a)), parse_rational(str(b)))
                for a, b in raw["gaps"]]
    return DefiningSequence.from_fractions(hull, removals, bits)


@dataclass(frozen=True)
class Command:
    """One subcommand: its help text and arguments, a handler
    `(args, cfg) -> (payload dict or raw text, exit code)`, the schema its
    payload follows, an optional CSV writer behind `--format csv`, and
    whether its `--x`/`--targets` is a ratio-set target, mirrored into
    (0, 1/2) before the handler runs."""

    help: str
    arguments: tuple[tuple[str, dict], ...]
    handler: Callable
    schema: str
    csv: Callable[[dict], str] | None
    mirror: bool


COMMANDS: dict[str, Command] = {}


def command(name: str, help: str, *arguments: tuple[str, dict],
            schema: str | None = None, csv: Callable[[dict], str] | None = None,
            mirror: bool = True):
    """Register the decorated handler as subcommand `name`."""
    def register(handler):
        COMMANDS[name] = Command(help, arguments, handler, schema or name,
                                 csv, mirror)
        return handler
    return register


@command("code", "greedy coding of x in base lambda", X, LAMBDA,
         ("--max-steps", dict(type=int, default=256)), mirror=False)
def _code(args, cfg):
    outcome = greedy_digits(args.x, args.lam, args.max_steps)
    payload = {"coding": None, "reject_step": None, "digits": None,
               "x": str(args.x), "lambda": str(args.lam),
               "max_steps": args.max_steps}
    if isinstance(outcome, Member):
        payload.update(outcome="member", coding=str(outcome.coding))
    elif isinstance(outcome, NotMember):
        payload.update(outcome="not_member", reject_step=outcome.reject_step)
    else:
        payload.update(outcome="unresolved", digits=str(outcome.digits))
    return payload, 0


@command("pi", "exact coding-map value of a sequence",
         ("--seq", dict(required=True, help="sequence literal PRE(PER)")), LAMBDA)
def _pi(args, cfg):
    seq = EpSequence.from_string(args.seq)
    return {"sequence": str(seq), "lambda": str(args.lam),
            "value": str(pi_eval(seq, args.lam))}, 0


@command("expansion", "base-1/2 greedy expansion of x", X)
def _expansion(args, cfg):
    return {"x": str(args.x), "sequence": str(binary_expansion(args.x))}, 0


@command("cover", "cover of the ratio set at a depth", X, DEPTH, csv=_cover_csv)
def _cover(args, cfg):
    return cover(args.x, args.depth, cfg).to_json(), 0


@command("gaps", "gaps of the ratio set at a depth", X, DEPTH, csv=_gaps_csv)
def _gaps(args, cfg):
    return {"x": str(args.x), "depth": args.depth,
            "gaps": [g.to_json() for g in gaps(args.x, args.depth, cfg)]}, 0


@command("dim", "box-counting slope in a ratio window", X,
         ("--center", dict(type=_fraction, required=True)),
         ("--radius", dict(type=_fraction, required=True)),
         ("--eps-min-exp", dict(type=int, default=8)),
         ("--eps-max-exp", dict(type=int, default=13)))
def _dim(args, cfg):
    ladder = list(range(args.eps_min_exp, args.eps_max_exp + 1))
    window = (args.center - args.radius, args.center + args.radius)
    return box_dim_estimate(args.x, window, ladder, cfg).to_json(), 0


@command("pieces", "endpoints of the k-th piece", X,
         ("--k", dict(type=int, required=True)))
def _pieces(args, cfg):
    return piece_endpoints(args.x, args.k, cfg).to_json(), 0


@command("cantor-ds", "defining sequence of a tail construction", X, ELL,
         ("--kmax", dict(type=int, default=4)), ("--qmax", dict(type=int, default=2)))
def _cantor_ds(args, cfg):
    ds = defining_sequence_Cl(args.x, args.ell, args.kmax, args.qmax, cfg)
    payload = ds.to_json()
    payload.update({"x": str(args.x), "ell": args.ell,
                    "k_max": args.kmax, "q_max": args.qmax})
    return payload, 0


@command("thickness", "thickness of a defining sequence",
         ("--gaps", dict(required=True, metavar="FILE",
                         help='JSON {"hull":[lo,hi],"gaps":[[lo,hi],...]}; '
                              "- for stdin")))
def _thickness(args, cfg):
    ds = _load_defining_sequence(args.gaps, cfg.precision_bits)
    tau = thickness_of(ds)
    return {"thickness": str(tau), "thickness_float": float(tau),
            "newhouse_lower": newhouse_lower(tau),
            "gaps": len(ds.removals)}, 0


@command("thickness-cl", "truncated thickness report", X, ELL,
         ("--kmax", dict(type=int, default=5)), ("--qmax", dict(type=int, default=2)))
def _thickness_cl(args, cfg):
    report = thickness_Cl(args.x, args.ell, args.kmax, args.qmax, cfg)
    payload = report.to_json()
    payload["newhouse_lower"] = newhouse_lower(report.tau_truncated)
    return payload, 2 if report.bound_violations else 0


@command("verify", "certified inequality ledgers",
         ("--case", dict(choices=("A", "B"), required=True)),
         ("--x", dict(type=_fraction, default=None,
                      help="target for case A (case B is fixed at 1/4)")),
         ("--trials", dict(type=int, default=100)),
         ("--seed", dict(type=int, default=0)))
def _verify(args, cfg):
    if args.case == "A":
        if args.x is None:
            raise LambdasetError("case A needs --x")
        ledger = verify_caseA(args.x, args.trials, cfg, args.seed)
    else:
        ledger = verify_caseB(args.trials, cfg, args.seed)
    return ledger.to_json(), 2 if ledger.violations else 0


@command("intersect", "outer cover of a common ratio set", TARGETS, DEPTH,
         schema="cover", csv=_cover_csv)
def _intersect(args, cfg):
    covers = [cover(y, args.depth, cfg) for y in args.targets]
    return intersect_covers(covers).to_json(), 0


@command("common", "common-ratio certificates", TARGETS,
         ("--depth", dict(type=int, default=8)))
def _common(args, cfg):
    certs = find_common(args.targets, args.depth, cfg)
    return {"targets": [str(t) for t in args.targets], "depth": args.depth,
            "certificates": [c.to_json() for c in certs]}, 0


@command("svg-gaps", "static gap-structure diagram", X,
         ("--ell", dict(type=int, default=1)), ("--kmax", dict(type=int, default=3)),
         ("--qmax", dict(type=int, default=2)),
         ("--out", dict(default=None, help="output file (default stdout)")))
def _svg_gaps(args, cfg):
    text = svg_gaps(args.x, args.ell, args.kmax, args.qmax, cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"written": args.out, "bytes": len(text)}, 0
    return text, 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lambdaset",
                     description="certified ratio-set computations for "
                                 "two-branch self-similar sets")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--bits", type=int, default=None,
                        help=f"enclosure precision bits (default: ${ENV_BITS} or 128)")
    shared.add_argument("--width-bits", type=int, default=80,
                        help="solver target width 2^-W (default 80)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, entry in COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=entry.help)
        for flag, kwargs in entry.arguments:
            p.add_argument(flag, **kwargs)
        if entry.csv is not None:
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="payload as JSON (default) or CSV")
    return parser


def _mirror_targets(args, notes: dict) -> None:
    """The ratio set of x equals that of 1 - x, so targets above 1/2 are
    replaced by their mirror images and the manifest notes the originals."""
    if getattr(args, "x", None) is not None and HALF < args.x < 1:
        notes["symmetry_reduced_from"] = str(args.x)
        args.x = 1 - args.x
    targets = getattr(args, "targets", [])
    if any(HALF < t < 1 for t in targets):
        notes["symmetry_reduced_from"] = ",".join(str(t) for t in targets)
        args.targets = [1 - t if HALF < t < 1 else t for t in targets]


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    started = time.time()
    entry = COMMANDS[args.command]
    parameters = {k: str(v) for k, v in sorted(vars(args).items())
                  if k != "command"}
    notes: dict = {}
    try:
        if args.width_bits < 0:
            raise InvalidInput("--width-bits must be nonnegative")
        bits = args.bits
        if bits is None:
            try:
                bits = int(os.environ.get(ENV_BITS, "128"))
            except ValueError:
                raise InvalidInput(f"{ENV_BITS} must be an integer") from None
        cfg = PrecisionConfig(precision_bits=bits,
                              target_width=Fraction(1, 1 << args.width_bits))
        if entry.mirror:
            _mirror_targets(args, notes)
        payload, code = entry.handler(args, cfg)
    except (LambdasetError, ValueError, OSError, ZeroDivisionError,
            KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if isinstance(payload, str):
        body = payload if payload.endswith("\n") else payload + "\n"
    elif getattr(args, "format", "json") == "csv":
        body = entry.csv(payload)
    else:
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(body)
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "notes": notes,
        "precision_bits": cfg.precision_bits,
        "library_version": __version__,
        "wall_time_ms": round((time.time() - started) * 1000, 3),
        "output_digest": hashlib.sha256(body.encode()).hexdigest(),
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
