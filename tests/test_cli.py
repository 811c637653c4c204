import contextlib
import io
import json
import re
import signal
import sys
import time
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import checks
from lambdaset.cli import COMMANDS, build_parser, load_schema, main
from lambdaset.numerics import Enclosure
from pinned import (PINNED, REFUSED, manifest_digest, middle_alpha_gaps,
                    refused_as_pinned, sha256)
from workloads import WORKLOADS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_json(capsys, *argv):
    """Exit code, payload and manifest; both must be strict JSON."""
    code, out, err = run(capsys, *argv)
    return code, *(json.loads(text, parse_constant=_no_constant)
                   for text in (out, err.strip().splitlines()[-1]))


def _whole_parser(description: str):
    """Every subparser with all its arguments, built from COMMANDS."""
    from lambdaset import cli

    parser = cli._Parser(prog="lambdaset", description=description)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=cli._Parser)
    for name, entry in COMMANDS.items():
        subparser = sub.add_parser(name, help=entry.help)
        for flag, kwargs in entry.arguments:
            subparser.add_argument(flag, **kwargs)
    return parser


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--x", "1/3"], ["cover", "-h"],
    ["cover", "--x", "1/3", "--depth", "3", "--bogus"], ["cover"],
    ["svg-gaps", "--qmax", "3"], ["common", "--bits", "x"],
    ["--bogus", "cover"], ["-h", "cover"], ["--", "cover"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_subparser_prints_what_the_whole_parser_prints(capsys,
                                                          monkeypatch, argv):
    """A run that names its command builds that subparser alone; its help,
    usage and errors, and those of a run that names none, are those of a
    parser built with every subparser and argument. An argv whose first
    token is no command can still reach a subparser (`--bogus cover`, and
    `-- cover` on Python 3.13), which then reads its arguments."""
    from lambdaset import cli

    alone = run(capsys, *argv)
    description = cli.build_parser().description
    monkeypatch.setattr(cli, "build_parser",
                        lambda argv: _whole_parser(description))
    assert alone == run(capsys, *argv)


def test_verify_tells_a_shortfall_from_a_violation(capsys, monkeypatch):
    """A switch_lower entry whose 2^-80 cells overlap decides nothing:
    `verify --x 1/1000 --trials 5` ends Inconclusive (a row of REFUSED),
    and a narrower width decides it. Exit 2 means a certified violation:
    here every draw's two cells are one point, so the block has length
    0."""
    code, payload, _ = run_json(capsys, "verify", "--x", "1/1000",
                                "--trials", "5", "--width-bits", "200")
    assert code == 0 and payload["violations"] == []
    from lambdaset import constructions
    point = Enclosure((3, 3, 3), 128)
    monkeypatch.setattr(constructions, "_draw",
                        lambda *args: ((0, 1, 1), point, point))
    code, payload, _ = run_json(capsys, "verify", "--x", "1/3",
                                "--trials", "2")
    assert code == 2
    assert [(e["kind"], e["lhs"], e["rhs"]) for e in payload["violations"]
            ] == [("switch_lower", "0", "27/2048")] * 2


def test_case_b_tells_a_shortfall_from_a_violation(capsys, monkeypatch):
    """A square_identity entry whose residual range holds 0 but whose
    magnitude bound misses the 2^-70 cap is undecided: exit 1 at width
    2^-64 (a row of REFUSED), and exit 0 at 2^-80. Exit 2 needs a residual
    range that excludes 0, here from pieces whose alpha_{k+1} cell is moved
    off its root."""
    argv = ["verify", "--x", "1/4", "--trials", "5", "--width-bits"]
    code, payload, _ = run_json(capsys, *argv, "80")
    assert code == 0 and payload["violations"] == []
    from lambdaset import constructions
    solve = constructions.piece_endpoints

    def moved(x, k, cfg):
        piece = solve(x, k, cfg)
        lo, hi, e = piece.alpha_next.cell
        return piece._replace(alpha_next=Enclosure(
            (lo + (1 << e - 40), hi + (1 << e - 40), e), cfg.precision_bits))

    monkeypatch.setattr(constructions, "piece_endpoints", moved)
    code, payload, _ = run_json(capsys, *argv, "80")
    squares = [e for e in payload["entries"] if e["kind"] == "square_identity"]
    assert code == 2 and len(squares) == 6
    assert not any(e["passed"] for e in squares)


UNDECIDED = [("1/3", "switch_lower", "_switch_lower_caseA"),
             ("1/3", "switch_upper", "_switch_upper_caseA"),
             ("1/4", "switch_lower", "_switch_lower_caseB"),
             ("1/4", "switch_upper", "_switch_upper_caseB"),
             ("1/4", "square_identity", "_square_identity")] + [
    (x, family, "_family_entries") for x in ("1/3", "1/4")
    for family in ("gap_ratio", "piece_gap", "half_gap")]


@pytest.mark.parametrize("x,kind,check", UNDECIDED,
                         ids=[" ".join(r[:2]) for r in UNDECIDED])
def test_an_undecided_entry_of_any_kind_exits_1(capsys, monkeypatch, x,
                                                kind, check):
    """Whatever the kind of an entry that its cells leave undecided,
    `verify` ends Inconclusive: exit 1 and one line naming the kind, the
    entry's word or piece, and the width. Here the check of one kind is
    patched to decide none of its entries."""
    from lambdaset import constructions
    decide = getattr(constructions, check)

    def undecided(*args):
        verdict = decide(*args)
        if check == "_family_entries":
            return tuple(e._replace(passed=None) if e.kind == kind else e
                         for e in verdict)
        if check == "_square_identity":
            return verdict._replace(passed=None)
        return (*verdict[:3], None)

    monkeypatch.setattr(constructions, check, undecided)
    code, out, err = run(capsys, "verify", "--x", x, "--trials", "2")
    assert (code, out) == (1, "")
    where = r"word [01]+" if kind.startswith("switch_") else r"piece \d+"
    assert re.fullmatch(rf"error: {kind} of {where} not decided at target "
                        r"width 2\^-80\n", err), err


def test_manifest_stats_count_this_runs_memo_lookups(capsys):
    from lambdaset import lambda_set
    before = lambda_set.psi_inverse.cache_info()
    _, _, manifest = run_json(capsys, "cover", "--x", "1/3", "--depth", "4")
    after = lambda_set.psi_inverse.cache_info()
    assert manifest["stats"]["lambda_set.psi_inverse"] == {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses}
    # a repeated report in one process is one lookup: no gap record is
    # looked up and no root solved
    argv = ["thickness-cl", "--x", "1/3", "--ell", "2", "--kmax", "2",
            "--qmax", "1"]
    run(capsys, *argv)
    _, _, manifest = run_json(capsys, *argv)
    stats = manifest["stats"]
    assert stats["constructions.thickness_Cl"] == {"hits": 1, "misses": 0}
    assert stats["constructions.gap_record"] == {"hits": 0, "misses": 0}
    assert stats["lambda_set.psi_inverse"] == {"hits": 0, "misses": 0}


def test_manifest_counts_the_root_solvers_work(capsys, monkeypatch,
                                               clear_memo_tables):
    """Signs, Newton steps and exact fallbacks repeat exactly for one argv,
    and the fallbacks are the exact evaluations the run made: here one, at
    the root of 0 1^inf, x = 2^-2 + 2^-42, a point of the level-40 grid of
    [1/4, 1/2] since x rounds down to 1/4 at 32 bits."""
    from lambdaset import ifs_core
    argv = ("cover", "--x", "1099511627777/4398046511104", "--depth", "4",
            "--bits", "32", "--width-bits", "60")

    def cold_solver_work():
        """The manifest's root-solver counts of a run with every memo
        table cleared first, so its solves are all made again."""
        clear_memo_tables()
        return run_json(capsys, *argv)[2]["stats"]["root_solver"]

    first = cold_solver_work()
    assert first == cold_solver_work()
    assert first["signs"] > 0 and first["newton_steps"] > 0
    exact = []
    exact_sign = ifs_core.exact_sign
    monkeypatch.setattr(ifs_core, "exact_sign",
                        lambda *args: exact.append(args) or exact_sign(*args))
    work = cold_solver_work()
    assert work["exact_fallbacks"] == len(exact) > 0
    # a warm run makes no solve, so it counts nothing
    _, _, manifest = run_json(capsys, *argv)
    assert set(manifest["stats"]["root_solver"].values()) == {0}


def test_manifest_counts_the_common_search(capsys, monkeypatch):
    """`common --targets 1/3 --depth 9` probes 1111 ratios p/q, and a prime
    of p in a state's denominator ends every probe but the one at 1/3: 834
    orbit steps in all, where greedy_digits takes 16 729 to decide the same
    ratios. The counts are deterministic, so this guards the cut without
    timing it."""
    from lambdaset import intersect
    from lambdaset.ifs_core import Member, NotMember, greedy_digits
    argv = ("common", "--targets", "1/3", "--depth", "9")
    search = run_json(capsys, *argv)[2]["stats"]["common_search"]
    assert search == {"probes": 1111, "orbit_steps": 834,
                      "denominator_exits": 1110}
    # the steps greedy_digits takes over the same candidates
    steps = []
    greedy_cycle = intersect.greedy_cycle

    def beside_greedy_digits(y, p, q, max_steps):
        outcome = greedy_digits(y, Fraction(p, q), max_steps)
        if isinstance(outcome, Member):
            steps.append(len(outcome.coding.preperiod)
                         + len(outcome.coding.period))
        elif isinstance(outcome, NotMember):
            steps.append(outcome.reject_step)
        else:
            steps.append(len(outcome.digits))
        return greedy_cycle(y, p, q, max_steps)

    monkeypatch.setattr(intersect, "greedy_cycle", beside_greedy_digits)
    assert run_json(capsys, *argv)[2]["stats"]["common_search"] == search
    assert len(steps) == search["probes"] and sum(steps) == 16729
    assert sum(steps) >= 10 * search["orbit_steps"]


@pytest.mark.parametrize("argv", [
    ["cover", "--x", "1/3", "--depth", "2", "--bits", "4300"],
    ["cover", "--x", "1/3", "--depth", "2", "--width-bits", "15000"],
    ["verify", "--x", "1/3", "--trials", "1", "--width-bits", "6000"],
    # a decimal whose denominator, 10^4300, has 4301 digits
    ["code", "--x", "0." + "1" * 4300, "--lambda", "1/2"],
], ids=lambda argv: " ".join(argv)[:50])
def test_payload_rationals_past_the_digit_limit(capsys, argv):
    """Rationals with more digits than the interpreter converts by default
    still print, in the payload and in the manifest."""
    code, payload, manifest = run_json(capsys, *argv)
    assert code == 0
    jsonschema.validate(payload, load_schema(argv[0]))
    if "15000" in argv:
        # 2^15000 has 4516 digits
        assert re.fullmatch(r"1/[1-9][0-9]{4515}",
                            payload["precision"]["target_width"])
    if argv[0] == "code":
        assert payload["x"] == manifest["parameters"]["x"]
        assert re.fullmatch(r"1{4300}/10{4300}", payload["x"])


def test_precision_flags_are_capped(capsys, monkeypatch):
    """A precision or a width past 16384 bits is refused before any work
    (REFUSED holds two such runs, PINNED one at 16384), and `thickness`
    refuses it before it reads its gap file from stdin."""
    class Unread(io.StringIO):
        def read(self, *args):
            raise AssertionError("stdin was read")

    monkeypatch.setattr(sys, "stdin", Unread())
    started = time.monotonic()
    assert run(capsys, "thickness", "--gaps", "-", "--bits", "100000000") == (
        1, "", "error: precision_bits must be at most 16384\n")
    assert time.monotonic() - started < 1


def test_manifest_echoes_targets(capsys):
    _, _, manifest = run_json(capsys, "common", "--targets", "1/3,1/4",
                              "--depth", "2")
    assert manifest["parameters"]["targets"] == "1/3,1/4"


def _run_id(command: str, stdin: str | None = None) -> str:
    """A run as a test id: its command, with an argument of 100 characters
    or more shown by its length, and the size of what it reads from stdin."""
    name = " ".join(a if len(a) < 100 else f"<{len(a)} chars>"
                    for a in command.split()) or "no-arguments"
    return name if stdin is None else f"{name} <{len(stdin)} bytes"


# The commands whose payloads bench/checks.py re-checks from the argv, and
# those it re-checks as the library call the run makes. The rest are left
# unchecked: cantor-ds and pieces have no check, and svg-gaps prints a
# drawing. The thickness check needs the gap file's alpha, and its 2^-64
# tightness slack assumes 128-bit rounding, so at --bits 32 it calls a
# correct bound "not tight"; criterion 09 and
# test_thickness_cli_matches_the_definitions check thickness instead.
ARGV_CHECKED = {"cover", "gaps", "intersect", "dim", "common", "code", "pi",
                "expansion"}
CALL_CHECKED = {"verify", "thickness-cl"}


@contextlib.contextmanager
def _no_int_digit_limit():
    """No limit on the digits of an integer printed in decimal, where the
    interpreter has one: bench/checks.py prints the target width 2^-16384
    with str(). The run itself prints its rationals under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _problems(argv: list[str], out: str, payload: dict) -> list[str]:
    """What bench/checks.py finds wrong with a checked run's stdout. A
    library call's arguments are the parsed argv's, its target mirrored
    into (0, 1/2]; verify's case is B exactly for the target 1/4."""
    if argv[0] in ARGV_CHECKED:
        with _no_int_digit_limit():
            return checks.check_cli({"argv": argv}, 0, out.encode())
    args = build_parser(argv).parse_args(argv)
    x = min(args.x, 1 - args.x)
    if argv[0] == "verify":
        request = {"call": "verify_caseB" if x == Fraction(1, 4)
                   else "verify_caseA", "trials": args.trials,
                   "seed": args.seed}
    else:
        request = {"call": "thickness_Cl", "x": str(x), "ell": args.ell,
                   "k_max": args.kmax, "q_max": args.qmax}
    return checks.check_call(request, {"ok": True, "payload": payload})


@pytest.mark.parametrize("row", PINNED,
                         ids=[_run_id(r.command, r.stdin) for r in PINNED])
def test_stdout_matches_pinned_digest(capsys, monkeypatch, row):
    """The row exits 0 and prints the stdout of its digest, which the
    manifest repeats beside the command's name. Every command but svg-gaps
    prints a strict JSON payload: one bench/checks.py finds no problem
    with, where it has a check, and else one valid under the command's
    schema."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(row.stdin or ""))
    argv = row.command.split()
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert sha256(out) == manifest_digest(err) == row.digest
    assert json.loads(err.splitlines()[-1])["command"] == argv[0]
    if argv[0] == "svg-gaps":
        return
    payload = json.loads(out, parse_constant=_no_constant)
    if argv[0] in ARGV_CHECKED | CALL_CHECKED:
        assert _problems(argv, out, payload) == []
    else:
        jsonschema.validate(payload, load_schema(argv[0]))


# every pinned run that prints JSON (svg-gaps reads the Fraction views of
# Enclosure for its display floats)
JSON_RUNS = [row for row in PINNED if not row.command.startswith("svg-gaps")]


@pytest.mark.parametrize("row", JSON_RUNS,
                         ids=[_run_id(r.command, r.stdin) for r in JSON_RUNS])
def test_no_json_run_reads_a_fraction_view(capsys, monkeypatch,
                                           clear_memo_tables, row):
    """Every JSON command compares and prints cells as integers: with the
    Fraction views of Enclosure raising, each pinned run prints its pinned
    bytes from cold memo tables, then again on the tables that run
    filled."""
    def view(self):
        raise AssertionError(f"a Fraction view of {self!r} was read")

    monkeypatch.setattr(Enclosure, "lo", property(view))
    monkeypatch.setattr(Enclosure, "hi", property(view))
    clear_memo_tables()
    for _ in ("cold", "warm"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(row.stdin or ""))
        code, out, _ = run(capsys, *row.command.split())
        assert code == 0
        assert sha256(out) == row.digest


@pytest.mark.parametrize("row", REFUSED,
                         ids=[_run_id(r.command, r.stdin) for r in REFUSED])
def test_refusal_prints_its_one_error_line_at_once(capsys, monkeypatch, row):
    """Exit 1 within 0.3 s, an empty stdout and the row's `error:` line:
    stderr's only line when the library refuses the run, after the usage
    when the parser does."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(row.stdin or ""))
    started = time.perf_counter()
    code, out, err = run(capsys, *row.command.split())
    assert time.perf_counter() - started < 0.3
    assert refused_as_pinned(code, out, err, row.line), (
        code, out, err[-300:])


def test_no_two_rows_run_alike():
    """No two rows of PINNED and REFUSED run the same arguments on the
    same stdin, so a row is never checked twice under two names."""
    runs = Counter((tuple(r.command.split()), r.stdin)
                   for r in [*PINNED, *REFUSED])
    assert [row for row, count in runs.items() if count > 1] == []


def test_pinned_runs_span_every_command():
    """PINNED runs every command, and every command but svg-gaps, which
    prints its diagram as text, ships a schema."""
    assert {r.command.split()[0] for r in PINNED} == set(COMMANDS)
    for name in set(COMMANDS) - {"svg-gaps"}:
        assert load_schema(name)["type"] == "object"
    with pytest.raises(FileNotFoundError):
        load_schema("svg-gaps")



def test_deep_multi_target_common_is_quick(capsys):
    # PINNED holds its payload
    started = time.monotonic()
    assert run(capsys, *"common --targets 1/3,1/4 --depth 16".split())[0] == 0
    assert time.monotonic() - started < 5


def test_bound_violations_exit_2(capsys, monkeypatch, request,
                                 clear_memo_tables):
    """Bounds above every ratio turn each checked ratio into a violation;
    the payload is still printed and still valid. The memo tables are
    cleared first, so the report is computed with these bounds whatever
    ran before, and after, so no later test reads a report made with them."""
    from lambdaset import constructions
    clear_memo_tables()
    request.addfinalizer(clear_memo_tables)
    above = (Fraction(1 << 64),) * 3
    families = constructions._piece_families
    monkeypatch.setattr(constructions, "_piece_families",
                        lambda piece: (families(piece)[0], above))
    code, payload, _ = run_json(capsys, "thickness-cl", "--x", "1/3",
                                "--ell", "2", "--kmax", "2", "--qmax", "1")
    assert code == 2
    jsonschema.validate(payload, load_schema("thickness-cl"))
    # per piece: 2^(qmax+1) - 1 gap records and two inter-piece ratios
    violations = payload["bound_violations"]
    assert len(violations) == 2 * (3 + 2)
    assert {v["family"] for v in violations} == set(constructions.FAMILIES)
    assert {v["k"] for v in violations} == {2, 3}
    assert all(("position" in v) == (v["family"] == "gap_ratio")
               for v in violations)
    assert all(v["bound"] == str(1 << 64) for v in violations)

    code, payload, _ = run_json(capsys, "verify", "--x", "1/3", "--trials", "2")
    assert code == 2
    jsonschema.validate(payload, load_schema("verify"))
    violations = payload["violations"]
    assert [v["kind"] for v in violations] == list(constructions.FAMILIES) * 2
    assert violations == [e for e in payload["entries"] if not e["passed"]]


def test_thickness_below_float_range(capsys, tmp_path):
    """A certified thickness of about 2e-400 is positive, though its float
    is 0: the run keeps it and reports a positive Newhouse bound."""
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"hull": ["0", "1"],
                                "gaps": [["1e-400", "1/2"]]}))
    code, payload, _ = run_json(capsys, "thickness", "--gaps", str(path))
    assert code == 0 and payload["thickness_float"] == 0.0
    assert 0 < Fraction(payload["thickness"]) < Fraction(1, 10 ** 399)
    assert 0 < payload["newhouse_lower"] < 0.001


def test_thickness_file_builds_no_enclosure(capsys, monkeypatch, tmp_path):
    """A gap file goes straight to the integer grid: reading and replaying
    1023 removals builds no Enclosure, where rounding every endpoint to one
    would build 2048."""
    built = []

    def counted(self, *args, init=Enclosure.__init__):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Enclosure, "__init__", counted)
    path = tmp_path / "gaps.json"
    path.write_text(middle_alpha_gaps(Fraction(37, 100), 10))
    code, payload, _ = run_json(capsys, "thickness", "--gaps", str(path))
    assert code == 0 and payload["gaps"] == 1023
    assert len(built) == 0


def test_thickness_reads_gaps_from_stdin(capsys, monkeypatch, tmp_path):
    """A gap file read by its path prints a float equal to its thickness,
    and the bytes it prints when read from stdin."""
    path = tmp_path / "gaps.json"
    path.write_text(middle_alpha_gaps(Fraction(1, 3), 4))
    code, out, _ = run(capsys, "thickness", "--gaps", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["thickness_float"] == float(Fraction(payload["thickness"]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    assert run(capsys, "thickness", "--gaps", "-")[:2] == (code, out)


@pytest.mark.parametrize("name,digest", [
    ("cli-cover",
     "a5330965d8df881a7058af4242b1bddac08ffb0bbb260bce64dc757327a90a33"),
    ("cli-exact",
     "ffc4f579282318c725863c63489fff307a6a971cd3112a6d823d65ed375782d1"),
], ids=["cli-cover", "cli-exact"])
def test_benchmark_traffic_prints_its_pinned_bytes(capsys, monkeypatch,
                                                   tmp_path, clear_memo_tables,
                                                   name, digest):
    """The first three seed-1 blocks of a CLI workload of the benchmark,
    run in order in process, each request from cold memo tables as a fresh
    process runs it: every one exits 0, and their stdout is pinned."""
    stream = WORKLOADS[name](1, tmp_path)
    outs = []
    for request in [*next(stream), *next(stream), *next(stream)]:
        clear_memo_tables()
        code, out, _ = run(capsys, *request["argv"])
        assert code == 0, request["argv"]
        outs.append(out)
    assert sha256("".join(outs)) == digest


# every command whose --x/--targets is a ratio-set target: (argv, target
# at or below 1/2, its mirror image above 1/2)
MIRROR_RUNS = [
    (["expansion", "--x", "{}"], "1/3", "2/3"),
    (["cover", "--x", "{}", "--depth", "3"], "1/4", "3/4"),
    (["gaps", "--x", "{}", "--depth", "3"], "1/4", "3/4"),
    (["dim", "--x", "{}", "--center", "0.46", "--radius", "1/16",
      "--eps-min-exp", "4", "--eps-max-exp", "5", "--bits", "64",
      "--width-bits", "20"], "1/3", "2/3"),
    (["pieces", "--x", "{}", "--k", "1"], "1/3", "2/3"),
    (["cantor-ds", "--x", "{}", "--ell", "2", "--kmax", "2", "--qmax", "1"],
     "1/3", "2/3"),
    (["thickness-cl", "--x", "{}", "--ell", "2", "--kmax", "2", "--qmax", "1"],
     "1/3", "2/3"),
    (["verify", "--x", "{}", "--trials", "1"], "1/3", "2/3"),
    (["svg-gaps", "--x", "{}", "--kmax", "2", "--qmax", "1"], "1/3", "2/3"),
    (["intersect", "--targets", "{}", "--depth", "3"], "1/3,1/4", "2/3,3/4"),
    (["common", "--targets", "{}", "--depth", "3"], "1/3,1/4", "1/3,3/4"),
]


@pytest.mark.parametrize("argv,low,high", MIRROR_RUNS,
                         ids=[r[0][0] for r in MIRROR_RUNS])
def test_targets_above_half_are_mirrored(capsys, argv, low, high):
    code_low, out_low, _ = run(capsys, *(a.format(low) for a in argv))
    code_high, out_high, err = run(capsys, *(a.format(high) for a in argv))
    assert code_low == code_high == 0
    assert out_high == out_low
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["notes"]["symmetry_reduced_from"] == high


# `thickness --gaps` files, written once per module by gap_dir
GAP_FILES = {"valid": {"hull": ["0", "1"], "gaps": [["1/3", "2/3"]]},
             "misshaped": {"hull": [0], "gaps": []},
             "malformed": {"hull": ["0", "1"], "gaps": [["2", "3"]]}}


@pytest.fixture(scope="module")
def gap_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("gap-files")
    for name, doc in GAP_FILES.items():
        (root / name).write_text(json.dumps(doc))
    return root


def _in_gap_dir(gap_dir, argv: list[str]) -> list[str]:
    """argv with each `--gaps=NAME` read from the file NAME of gap_dir."""
    return [f"--gaps={gap_dir / a[7:]}" if a.startswith("--gaps=") else a
            for a in argv]


@pytest.mark.parametrize("argv", [["thickness", "--gaps=valid"]],
                         ids=["thickness"])
def test_payloads_validate_against_schemas(capsys, gap_dir, argv):
    """A run no PINNED row makes, PINNED's payloads being checked by the
    digest test: a gap file read by its path."""
    code, payload, _ = run_json(capsys, *_in_gap_dir(gap_dir, argv))
    assert code == 0
    jsonschema.validate(payload, load_schema(argv[0]))


# the precision flags each command reads: --bits where it rounds rationals
# to enclosures or solves roots, --width-bits where it solves roots
BOTH = ("--bits", "--width-bits")
PRECISION_FLAGS = {"code": (), "pi": (), "expansion": (),
                   "thickness": ("--bits",), "common": ("--bits",),
                   "cover": BOTH, "gaps": BOTH, "dim": BOTH, "pieces": BOTH,
                   "cantor-ds": BOTH, "thickness-cl": BOTH, "verify": BOTH,
                   "intersect": BOTH, "svg-gaps": BOTH}
# a valid argv of each command that lacks a precision flag
NARROW_ARGVS = {"code": ["code", "--x", "1/4", "--lambda", "1/2"],
                "pi": ["pi", "--seq", "(01)", "--lambda", "1/2"],
                "expansion": ["expansion", "--x", "1/3"],
                "thickness": ["thickness", "--gaps", "-"],
                "common": ["common", "--targets", "1/3", "--depth", "1"]}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_take_only_the_precision_flags_they_read(capsys, name):
    code, out, _ = run(capsys, name, "--help")
    assert code == 0
    assert set(re.findall(r"--(?:width-)?bits\b", out)) == set(
        PRECISION_FLAGS[name])
    for flag in set(BOTH) - set(PRECISION_FLAGS[name]):
        code, out, err = run(capsys, *NARROW_ARGVS[name], flag, "40")
        assert code == 1 and out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [
            f"error: unrecognized arguments: {flag} 40"]


# A small grammar of argv for every subcommand. Each flag takes one of its
# listed values or, where None is listed, is left out; a command's precision
# flags come from PRECISION_FLAGS. Depths (at most 6) and the options whose
# defaults start long runs (dim's grid exponents, verify's trial count) are
# always given; k is at most 8. --format and svg-gaps --out are refused.
RATIONALS = ["1/3", "1/4", "2/7", "2/3", "1/2", "0", "-1/3", "1e-30",
             "0.123456789", "", "abc", "1/0"]
INTS = ["1", "2", "3", "0", "-1", "x"]
DEPTHS = ["4", "5", "6"] + INTS
KS = ["4", "5", "6", "7", "8"] + INTS
TARGET_LISTS = [f"{a},{b}" for a in ("1/3", "2/3", "abc")
                for b in ("1/4", "0.123456789", "1e-30")] + RATIONALS
X_FLAG = ("--x", RATIONALS + [None])
TAIL_FLAGS = (("--ell", INTS + [None]), ("--kmax", INTS + [None]),
              ("--qmax", INTS + [None]))
FORMAT_FLAG = ("--format", [None, "csv", "json", "xml"])
GRAMMAR = {
    "code": (X_FLAG, ("--lambda", RATIONALS + [None]),
             ("--max-steps", INTS + [None])),
    "pi": (("--seq", ["(01)", "0(1)", "01", "", "2(0)", None]),
           ("--lambda", RATIONALS + [None])),
    "expansion": (X_FLAG,),
    "cover": (X_FLAG, ("--depth", DEPTHS), FORMAT_FLAG),
    "gaps": (X_FLAG, ("--depth", DEPTHS), FORMAT_FLAG),
    "dim": (X_FLAG, ("--center", RATIONALS), ("--radius", RATIONALS),
            ("--eps-min-exp", INTS), ("--eps-max-exp", INTS)),
    "pieces": (X_FLAG, ("--k", KS + [None])),
    "cantor-ds": (X_FLAG,) + TAIL_FLAGS,
    "thickness": (("--gaps", list(GAP_FILES) + ["missing", None]),),
    "thickness-cl": (X_FLAG,) + TAIL_FLAGS,
    "verify": (X_FLAG, ("--trials", INTS),
               ("--seed", INTS + [None])),
    "intersect": (("--targets", TARGET_LISTS + [None]), ("--depth", DEPTHS),
                  FORMAT_FLAG),
    "common": (("--targets", TARGET_LISTS + [None]), ("--depth", DEPTHS)),
    "svg-gaps": (X_FLAG,) + TAIL_FLAGS + (("--out", [None, "d.svg"]),),
}
# mostly left out, so that most draws reach the library
PRECISION_VALUES = {"--bits": [None] * 6 + ["64", "0", "x"],
                    "--width-bits": [None] * 6 + ["40", "3", "-1", "x"]}


class _Hang(BaseException):
    """Raised by the alarm; no handler in the program catches it."""


def _raise_hang(signum, frame):
    raise _Hang


@st.composite
def cli_argvs(draw):
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [name]
    flags = GRAMMAR[name] + tuple((flag, PRECISION_VALUES[flag])
                                  for flag in PRECISION_FLAGS[name])
    for flag, values in flags:
        value = draw(st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")   # so that -1/3 is not a flag
    # now and then a precision flag the command does not take
    stray = draw(st.sampled_from(
        [None] * 9 + sorted(set(BOTH) - set(PRECISION_FLAGS[name]))))
    if stray is not None:
        argv.append(f"{stray}=40")
    return argv


def test_grammar_spans_every_subcommand():
    assert sorted(GRAMMAR) == sorted(COMMANDS)


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_any_argv_ends_cleanly(gap_dir, argv):
    """Exit 0, 1 or 2 within a few seconds and never a traceback; exit 1
    prints exactly one error line."""
    argv = _in_gap_dir(gap_dir, argv)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Hang:
        pytest.fail(f"still running after 5 s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out.getvalue() == ""
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
