"""Command-line entry point: every operation behind one executable, with
deterministic JSON payloads on stdout and a run manifest on stderr.

Payloads carry no timestamps and are emitted with sorted keys, so identical
invocations produce byte-identical output; the manifest records the wall
time, a SHA-256 digest of the payload, and under "stats" the run's share of
what the modules it loaded register in numerics: the hits and misses of
each memo table, and each counter group, such as the root solver's signs,
Newton steps and guard doublings.

Every subcommand is one entry of COMMANDS, which the parser, the schema
lookup, target mirroring and dispatch all read. A run imports only the
library modules its command uses: handlers read library names as attributes
of this module (`lib.cover`), and the module `__getattr__` imports a name's
module on its first read and keeps the name here. Wrappers set on this
module's names therefore see every call.

From the standard library a run loads what this module imports and what
its command's modules import (`fractions`, `math`, `random`, `re`,
`functools`, `bisect`). Records are `typing.NamedTuple` classes
(`PrecisionConfig` and `Enclosure` checked subclasses of one) and
`EpSequence` a `__slots__` class, so no record needs `dataclasses`, whose
import and generated methods cost start-up time. The SHA-256 of
`output_digest` is the interpreter's own, not `hashlib`'s OpenSSL, and a
named command builds only its subparser. To see start-up costs, run
`PYTHONDONTWRITEBYTECODE=1 python -X importtime -m lambdaset.cli ARGS`;
modules imported here through `importlib` are missing from that listing,
and the manifest's `import_ms` is their time (README lists each command's).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

try:
    from _sha2 import sha256            # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import InvalidInput, LambdasetError
from .numerics import (COUNTERS, DEFAULT_CONFIG, HALF, MEMO_TABLES,
                       PrecisionConfig, exact_str, parse_rational)

# library module -> the names the handlers read from it
LIBRARY = {
    "lambda_set": ("box_dim_estimate", "cover", "gaps"),
    "cantor_metrics": ("DefiningSequence", "newhouse_lower", "thickness_of"),
    "ifs_core": ("Member", "NotMember", "greedy_digits", "pi_eval"),
    "seqcode": ("EpSequence", "binary_expansion", "word_str"),
    "intersect": ("find_common", "intersect_covers"),
    "constructions": ("defining_sequence_Cl", "piece_endpoints",
                      "thickness_Cl", "verify_caseA", "verify_caseB"),
    "svg": ("svg_gaps",),
}
_HOME = {name: module for module, names in LIBRARY.items() for name in names}

lib = sys.modules[__name__]   # this module, as handlers read library names
_import_seconds = 0.0         # time spent in __getattr__ imports so far


def __getattr__(name: str):
    """Import the module of a library name on its first read (PEP 562) and
    keep the name in this module, so later reads are plain lookups."""
    global _import_seconds
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    started = time.perf_counter()
    module = importlib.import_module(f"{__package__}.{_HOME[name]}")
    _import_seconds += time.perf_counter() - started
    value = globals()[name] = getattr(module, name)
    return value


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
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


X = ("--x", dict(type=_fraction, required=True))
LAMBDA = ("--lambda", dict(dest="lam", type=_fraction, required=True))
DEPTH = ("--depth", dict(type=int, required=True))
TARGETS = ("--targets", dict(type=_fraction_list, required=True))
ELL = ("--ell", dict(type=int, required=True))
# --bits goes on the commands that round rationals to enclosures or solve
# roots, --width-bits on those that solve roots
BITS = ("--bits", dict(type=int, default=DEFAULT_CONFIG.precision_bits,
                       help="enclosure precision bits (default %(default)s)"))
WIDTH_BITS = ("--width-bits", dict(
    type=int, default=DEFAULT_CONFIG.width_bits,
    help="solver target width 2^-W (default %(default)s)"))


class Command(NamedTuple):
    """One subcommand: its help text and arguments, a handler
    `(args, cfg) -> (payload dict or raw text, exit code)`, the schema its
    payload follows, and whether its `--x`/`--targets` is a ratio-set
    target, mirrored into (0, 1/2) before the handler runs."""

    help: str
    arguments: tuple[tuple[str, dict], ...]
    handler: Callable
    schema: str
    mirror: bool


COMMANDS: dict[str, Command] = {}


def command(name: str, help: str, *arguments: tuple[str, dict],
            schema: str | None = None, mirror: bool = True):
    """Register the decorated handler as subcommand `name`."""
    def register(handler):
        COMMANDS[name] = Command(help, arguments, handler, schema or name,
                                 mirror)
        return handler
    return register


@command("code", "greedy coding of x in base lambda", X, LAMBDA,
         ("--max-steps", dict(type=int, default=256)), mirror=False)
def _code(args, cfg):
    outcome = lib.greedy_digits(args.x, args.lam, args.max_steps)
    payload = {"coding": None, "reject_step": None, "digits": None,
               "x": exact_str(args.x), "lambda": exact_str(args.lam),
               "max_steps": args.max_steps}
    if isinstance(outcome, lib.Member):
        payload.update(outcome="member", coding=str(outcome.coding))
    elif isinstance(outcome, lib.NotMember):
        payload.update(outcome="not_member", reject_step=outcome.reject_step)
    else:
        payload.update(outcome="unresolved",
                       digits=lib.word_str(outcome.digits))
    return payload, 0


@command("pi", "exact coding-map value of a sequence",
         ("--seq", dict(required=True, help="sequence literal PRE(PER)")), LAMBDA)
def _pi(args, cfg):
    seq = lib.EpSequence.from_string(args.seq)
    return {"sequence": str(seq), "lambda": exact_str(args.lam),
            "value": exact_str(lib.pi_eval(seq, args.lam))}, 0


@command("expansion", "base-1/2 greedy expansion of x", X)
def _expansion(args, cfg):
    return {"x": exact_str(args.x),
            "sequence": str(lib.binary_expansion(args.x))}, 0


@command("cover", "cover of the ratio set at a depth", X, DEPTH, BITS,
         WIDTH_BITS)
def _cover(args, cfg):
    return lib.cover(args.x, args.depth, cfg).to_json(), 0


@command("gaps", "gaps of the ratio set at a depth", X, DEPTH, BITS,
         WIDTH_BITS)
def _gaps(args, cfg):
    found = lib.gaps(args.x, args.depth, cfg)
    return {"x": exact_str(args.x), "depth": args.depth,
            "gaps": [g.to_json() for g in found]}, 0


@command("dim", "box-counting slope in a ratio window", X,
         ("--center", dict(type=_fraction, required=True)),
         ("--radius", dict(type=_fraction, required=True)),
         ("--eps-min-exp", dict(type=int, default=8)),
         ("--eps-max-exp", dict(type=int, default=13)), BITS, WIDTH_BITS)
def _dim(args, cfg):
    ladder = range(args.eps_min_exp, args.eps_max_exp + 1)
    window = (args.center - args.radius, args.center + args.radius)
    return lib.box_dim_estimate(args.x, window, ladder, cfg).to_json(), 0


@command("pieces", "endpoints of the k-th piece", X,
         ("--k", dict(type=int, required=True)), BITS, WIDTH_BITS)
def _pieces(args, cfg):
    return lib.piece_endpoints(args.x, args.k, cfg).to_json(), 0


@command("cantor-ds", "defining sequence of a tail construction", X, ELL,
         ("--kmax", dict(type=int, default=4)), ("--qmax", dict(type=int, default=2)),
         BITS, WIDTH_BITS)
def _cantor_ds(args, cfg):
    ds = lib.defining_sequence_Cl(args.x, args.ell, args.kmax, args.qmax, cfg)
    payload = ds.to_json()
    payload.update({"x": exact_str(args.x), "ell": args.ell,
                    "k_max": args.kmax, "q_max": args.qmax})
    return payload, 0


@command("thickness", "thickness of a defining sequence",
         ("--gaps", dict(required=True, metavar="FILE",
                         help='JSON {"hull":[lo,hi],"gaps":[[lo,hi],...]}; '
                              "- for stdin")), BITS)
def _thickness(args, cfg):
    source = "<stdin>" if args.gaps == "-" else args.gaps
    try:
        # stdin's bytes decode as a named file's do, whatever the locale
        with (io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
              if args.gaps == "-" else open(args.gaps, encoding="utf-8")) as fh:
            text = fh.read()
        # every number stays the text it is written as, for parse to read
        raw = json.loads(text, parse_int=str, parse_float=str,
                         parse_constant=str)
        doc = raw if isinstance(raw, dict) else {}
        ds = lib.DefiningSequence.parse(doc.get("hull"), doc.get("gaps"),
                                        cfg.precision_bits)
        tau = lib.thickness_of(ds)
    except OSError as exc:
        raise InvalidInput(f"{source}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{source}: not JSON: {exc}") from None
    except RecursionError:   # the decoder's own message varies by build
        raise InvalidInput(f"{source}: JSON nested too deeply") from None
    except InvalidInput as exc:
        raise InvalidInput(f"{source}: {exc}") from None
    try:
        tau_float = float(tau)
    except OverflowError:
        tau_float = None
    return {"thickness": exact_str(tau), "thickness_float": tau_float,
            "newhouse_lower": lib.newhouse_lower(tau),
            "gaps": len(ds.removals)}, 0


@command("thickness-cl", "truncated thickness report", X, ELL,
         ("--kmax", dict(type=int, default=5)), ("--qmax", dict(type=int, default=2)),
         BITS, WIDTH_BITS)
def _thickness_cl(args, cfg):
    report = lib.thickness_Cl(args.x, args.ell, args.kmax, args.qmax, cfg)
    payload = report.to_json()
    payload["newhouse_lower"] = lib.newhouse_lower(report.tau_truncated)
    return payload, 2 if report.bound_violations else 0


@command("verify", "certified inequality ledgers", X,
         ("--trials", dict(type=int, default=100)),
         ("--seed", dict(type=int, default=0)), BITS, WIDTH_BITS)
def _verify(args, cfg):
    # case B is the one target without a digit 1 at an index >= 3
    if args.x == Fraction(1, 4):
        ledger = lib.verify_caseB(args.trials, cfg, args.seed)
    else:
        ledger = lib.verify_caseA(args.x, args.trials, cfg, args.seed)
    return ledger.to_json(), 2 if ledger.violations else 0


@command("intersect", "outer cover of a common ratio set", TARGETS, DEPTH,
         BITS, WIDTH_BITS, schema="cover")
def _intersect(args, cfg):
    covers = [lib.cover(y, args.depth, cfg) for y in args.targets]
    return lib.intersect_covers(covers).to_json(), 0


@command("common", "common-ratio certificates", TARGETS,
         ("--depth", dict(type=int, default=8)), BITS)
def _common(args, cfg):
    certs = lib.find_common(args.targets, args.depth, cfg)
    return {"targets": [exact_str(t) for t in args.targets],
            "depth": args.depth,
            "certificates": [c.to_json() for c in certs]}, 0


@command("svg-gaps", "static gap-structure diagram", X,
         ("--ell", dict(type=int, default=1)), ("--kmax", dict(type=int, default=3)),
         ("--qmax", dict(type=int, default=1)),
         BITS, WIDTH_BITS)
def _svg_gaps(args, cfg):
    return lib.svg_gaps(args.x, args.ell, args.kmax, args.qmax, cfg), 0


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """Only the subparser of argv's first token if it names a command, whose
    metavar then keeps the usage line (a set metavar would stand for
    `command` in errors); else every subparser, as argparse may still reach
    one (Python 3.13 reads `-- cover ...` as `cover ...`)."""
    parser = _Parser(prog="lambdaset",
                     description="certified ratio-set computations for "
                                 "two-branch self-similar sets")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    names = list(COMMANDS)
    if argv and argv[0] in COMMANDS:
        names, sub.metavar = [argv[0]], "{" + ",".join(COMMANDS) + "}"
    for name in names:
        entry = COMMANDS[name]
        subparser = sub.add_parser(name, help=entry.help)
        for flag, kwargs in entry.arguments:
            subparser.add_argument(flag, **kwargs)
    return parser


def _mirror_targets(args, notes: dict) -> None:
    """The ratio set of x equals that of 1 - x, so targets above 1/2 are
    replaced by their mirror images and the manifest notes the originals."""
    if getattr(args, "x", None) is not None and HALF < args.x < 1:
        notes["symmetry_reduced_from"] = exact_str(args.x)
        args.x = 1 - args.x
    targets = getattr(args, "targets", [])
    if any(HALF < t < 1 for t in targets):
        notes["symmetry_reduced_from"] = ",".join(map(exact_str, targets))
        args.targets = [1 - t if HALF < t < 1 else t for t in targets]


def _echo(value) -> str:
    """A parsed argument as the manifest echoes it; rationals exactly."""
    if isinstance(value, list):
        return ",".join(map(_echo, value))
    return exact_str(value) if isinstance(value, Fraction) else str(value)


def _counts() -> dict[str, dict[str, int]]:
    """Everything a run counts, so far in this process: the hits and misses
    of each memo table of numerics.MEMO_TABLES, and each counter group of
    numerics.COUNTERS."""
    counts = {name: dict(zip(("hits", "misses"), table.cache_info()))
              for name, table in MEMO_TABLES.items()}
    counts.update((name, dict(group)) for name, group in COUNTERS.items())
    return counts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    started, imports_before = time.time(), _import_seconds
    counts_before = _counts()
    entry = COMMANDS[args.command]
    parameters = {k: _echo(v) for k, v in sorted(vars(args).items())
                  if k != "command"}
    notes: dict = {}
    try:
        cfg = PrecisionConfig(
            getattr(args, "bits", DEFAULT_CONFIG.precision_bits),
            getattr(args, "width_bits", DEFAULT_CONFIG.width_bits))
        if entry.mirror:
            _mirror_targets(args, notes)
        payload, code = entry.handler(args, cfg)
    except LambdasetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2)
    body = payload + "\n"
    sys.stdout.write(body)
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "notes": notes,
        "library_version": __version__,
        "wall_time_ms": round((time.time() - started) * 1000, 3),
        "import_ms": round((_import_seconds - imports_before) * 1000, 3),
        # a table or counter of a module imported during the run starts at 0
        "stats": {name: {key: count - counts_before.get(name, {}).get(key, 0)
                         for key, count in group.items()}
                  for name, group in _counts().items()},
        "output_digest": sha256(body.encode()).hexdigest(),
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
