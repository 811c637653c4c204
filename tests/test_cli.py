import contextlib
import hashlib
import io
import json
import re
import signal
import sys
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from lambdaset.cli import COMMANDS, load_schema, main
from lambdaset.numerics import Enclosure


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


def test_code_example(capsys):
    code, payload, manifest = run_json(capsys, "code", "--x", "1/4",
                                       "--lambda", "1/2")
    assert code == 0
    assert payload["outcome"] == "member"
    assert payload["coding"] == "01(0)"
    assert manifest["command"] == "code"
    assert manifest["output_digest"]


def test_pi_and_expansion(capsys):
    code, payload, _ = run_json(capsys, "pi", "--seq", "(01)", "--lambda", "1/2")
    assert code == 0 and payload["value"] == "1/3"
    code, payload, _ = run_json(capsys, "expansion", "--x", "0.25")
    assert code == 0 and payload["sequence"] == "01(0)"


def test_determinism(capsys):
    _, out1, _ = run(capsys, "cover", "--x", "1/4", "--depth", "4")
    _, out2, _ = run(capsys, "cover", "--x", "1/4", "--depth", "4")
    assert out1 == out2


def test_symmetry_reduction(capsys):
    code, out_high, err = run(capsys, "cover", "--x", "3/4", "--depth", "3")
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["notes"]["symmetry_reduced_from"] == "3/4"
    _, out_low, _ = run(capsys, "cover", "--x", "1/4", "--depth", "3")
    assert out_high == out_low


def test_exit_codes(capsys, tmp_path):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "cover", "--x", "1/2", "--depth", "2")[0] == 1
    assert run(capsys, "verify", "--trials", "2")[0] == 1
    assert run(capsys, "code", "--x", "not-a-number", "--lambda", "1/2")[0] == 1
    for x in ("1/3", "1/4"):
        for trials in ("0", "-1"):
            code, out, err = run(capsys, "verify", "--x", x, "--trials", trials)
            assert code == 1 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "cover", "--x", "1/4", "--depth", "2",
                       "--width-bits", "-3")
    assert code == 1 and err == "error: width_bits must be nonnegative\n"
    code, _, err = run(capsys, "dim", "--x", "1/3", "--center", "9/20",
                       "--radius", "1/20", "--eps-min-exp", "-3")
    assert code == 1 and err == "error: grid exponent -3 is negative\n"
    for bits in ("0", "16"):
        code, out, err = run(capsys, "common", "--targets", "1/3", "--depth",
                             "1", "--bits", bits)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ")
    for argv in (["thickness-cl", "--ell", "1", "--qmax", "-1"],
                 ["thickness-cl", "--ell", "1", "--kmax", "0"],
                 ["thickness-cl", "--ell", "1", "--qmax", "-2"],
                 ["cantor-ds", "--ell", "0"],
                 ["svg-gaps", "--kmax", "0"]):
        code, out, err = run(capsys, *argv, "--x", "1/3")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ")
    # a thickness beyond the float range
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"hull": ["0", "1"], "gaps": [
        ["1/2", str(Fraction(1, 2) + Fraction(1, 1 << 1100))]]}))
    code, out, err = run(capsys, "thickness", "--bits", "2000",
                         "--gaps", str(path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ")


def _usage_error(capsys, *argv) -> str:
    """The one error line of a run refused by the parser."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


def test_usage_errors(capsys):
    # verify reads its case from --x, the diagram draws gap words of
    # length at most 1, and each command has one output: a JSON payload or
    # the diagram on stdout
    for argv in (["verify", "--case", "B", "--trials", "1"],
                 ["verify", "--case", "A", "--x", "1/3", "--trials", "1"],
                 ["svg-gaps", "--x", "1/3", "--qmax", "2"],
                 ["svg-gaps", "--x", "1/3", "--qmax", "-1"],
                 ["cover", "--x", "1/3", "--depth", "2", "--format", "csv"],
                 ["cover", "--x", "1/3", "--depth", "2", "--format", "json"],
                 ["svg-gaps", "--x", "1/3", "--out", "d.svg"]):
        _usage_error(capsys, *argv)
    # each --targets entry is parsed on its own and named when it fails
    assert _usage_error(capsys, "common", "--targets", "1/3,abc") == (
        "error: argument --targets: not a rational: 'abc'")


def test_verify_tells_a_shortfall_from_a_violation(capsys, monkeypatch):
    """A switch_lower entry whose 2^-80 cells overlap decides nothing:
    `verify` ends Inconclusive with exit 1 and one line naming the word and
    the width, and a narrower width decides it. Exit 2 means a certified
    violation: here every draw's two cells are one point, so the block
    has length 0."""
    code, out, err = run(capsys, "verify", "--x", "1/1000", "--trials", "5")
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: switch_lower of word [01]{3,12} not decided "
                        r"at target width 2\^-80\n", err)
    code, payload, _ = run_json(capsys, "verify", "--x", "1/1000",
                                "--trials", "5", "--width-bits", "200")
    assert code == 0 and payload["violations"] == []
    from lambdaset import constructions
    point = Enclosure.point(Fraction(3, 8), 128)
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
    2^-64, naming the piece and the width, and exit 0 at 2^-80. Exit 2
    needs a residual range that excludes 0, here from pieces whose
    alpha_{k+1} cell is moved off its root."""
    argv = ["verify", "--x", "1/4", "--trials", "5", "--width-bits"]
    code, out, err = run(capsys, *argv, "64")
    assert (code, out) == (1, "")
    assert err == ("error: square_identity of piece 1 not decided at "
                   "target width 2^-64\n")
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


def test_verify_reads_its_case_from_x(capsys):
    code, payload, manifest = run_json(capsys, "verify", "--x", "1/5",
                                       "--trials", "1")
    assert code == 0 and (payload["case"], payload["x"]) == ("A", "1/5")
    code, payload, manifest = run_json(capsys, "verify", "--x", "3/4",
                                       "--trials", "1")
    assert code == 0 and (payload["case"], payload["x"]) == ("B", "1/4")
    assert manifest["notes"]["symmetry_reduced_from"] == "3/4"


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


def _clear_memo_tables():
    from lambdaset.numerics import MEMO_TABLES
    for table in MEMO_TABLES.values():
        table.cache_clear()


def _cold_solver_work(capsys, *argv):
    """The manifest's root-solver counts of a run with every memo table
    cleared first, so its solves are all made again."""
    _clear_memo_tables()
    _, _, manifest = run_json(capsys, *argv)
    return manifest["stats"]["root_solver"]


def test_manifest_counts_the_root_solvers_work(capsys, monkeypatch):
    """Signs, Newton steps and exact fallbacks repeat exactly for one argv,
    and the fallbacks are the exact evaluations the run made: here one, at
    the root of 0 1^inf, x = 2^-2 + 2^-42, a point of the level-40 grid of
    [1/4, 1/2] since x rounds down to 1/4 at 32 bits."""
    from lambdaset import ifs_core
    argv = ("cover", "--x", "1099511627777/4398046511104", "--depth", "4",
            "--bits", "32", "--width-bits", "60")
    first = _cold_solver_work(capsys, *argv)
    assert first == _cold_solver_work(capsys, *argv)
    assert first["signs"] > 0 and first["newton_steps"] > 0
    exact = []
    exact_sign = ifs_core.exact_sign
    monkeypatch.setattr(ifs_core, "exact_sign",
                        lambda *args: exact.append(args) or exact_sign(*args))
    work = _cold_solver_work(capsys, *argv)
    assert work["exact_fallbacks"] == len(exact) > 0
    # a warm run makes no solve, so it counts nothing
    _, _, manifest = run_json(capsys, *argv)
    assert set(manifest["stats"]["root_solver"].values()) == {0}


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


def test_manifest_echoes_targets(capsys):
    _, _, manifest = run_json(capsys, "common", "--targets", "1/3,1/4",
                              "--depth", "2")
    assert manifest["parameters"]["targets"] == "1/3,1/4"


def test_prefix_budget_ends_deep_covers(capsys):
    # tail constructions, common-ratio searches, long expansions, high
    # piece indices and trial counts meet the same budget before any root
    # is solved
    for argv in (["cover", "--x", "1/3", "--depth", "60"],
                 ["cover", "--x", "1/3", "--depth", "2000"],
                 ["cover", "--x", "1/3", "--depth", "1000000000"],
                 ["common", "--targets", "1/3", "--depth", "1000"],
                 ["common", "--targets", "1/3", "--depth", "34"],
                 ["verify", "--x", "1/3", "--trials", "16385"],
                 ["verify", "--x", "1/4", "--trials", "1000000000"],
                 ["thickness-cl", "--x", "1/3", "--ell", "1", "--kmax", "3",
                  "--qmax", "30"],
                 ["cantor-ds", "--x", "1/3", "--ell", "1", "--kmax", "3",
                  "--qmax", "30"],
                 ["common", "--targets", "1/3,1/4", "--depth", "40"],
                 ["cover", "--x", "0.1234567", "--depth", "4"],
                 ["expansion", "--x", "0.123456789"],
                 ["cover", "--x", "1e-30", "--depth", "3"],
                 ["pieces", "--x", "1/3", "--k", "100000"],
                 ["svg-gaps", "--x", "1/3", "--ell", "1", "--kmax", "20000"]):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 2
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: more than ")
        if argv[0] == "svg-gaps":
            # the diagram's default truncation, gap words of length at
            # most 1, is the one its refusal names
            assert err == ("error: more than 16384 gap records for "
                           "k_max=20000, q_max=1\n")


# stdout digests of runs that list a tail construction, solve gap records,
# search common ratios or solve covers
PINNED_STDOUT = [
    (["cantor-ds", "--x", "1/3", "--ell", "2", "--kmax", "4", "--qmax", "2"],
     "f505a2792a94462d6069166738dc21176d75a70ac7e6cb7040bb07dc4f5c998d"),
    (["svg-gaps", "--x", "1/3", "--ell", "1", "--kmax", "3"],
     "a9e09de10e5c15082a6d31e271e3d791703d06ba06ae09db42a360c28894ef7a"),
    (["svg-gaps", "--x", "1/4", "--ell", "2", "--kmax", "2", "--qmax", "0"],
     "d3ac04798052103837d664ed8bef1226aefb6b58cd29ebb1e4947f084f0958e7"),
    (["thickness-cl", "--x", "1/4", "--ell", "1", "--kmax", "5", "--qmax", "2"],
     "5641b95f5f959a1fec8130a6dc46f17a689d621d73bf010cc1c1b88be796bb2c"),
    (["thickness-cl", "--x", "2/7", "--ell", "2", "--kmax", "4", "--qmax", "2"],
     "ef185c514439de622db502c067d6208d29fc3c27c34e56dfba520de19c6e8083"),
    (["verify", "--x", "1/3", "--trials", "20", "--seed", "3"],
     "80ee43cc7e2b0f75d8cd66787b8bdf6dd587465e8685f74bed771d8ccfb121c4"),
    (["verify", "--x", "2/7", "--trials", "20", "--seed", "3"],
     "548d20d43afb5fc40ca372210ca5caf415de261f96ba6bd310303e898eba84c5"),
    (["verify", "--x", "1/4", "--trials", "20", "--seed", "3"],
     "7b861b9075735fe908410863606ec6a6117eea4e0c22c2b69fd9b8b06f20fbaf"),
    # ledgers at the coarse and fine precisions of the benchmark's covers
    (["verify", "--x", "1/3", "--trials", "50", "--seed", "7", "--bits", "96",
      "--width-bits", "48"],
     "0fa736210e9796b8568fd7664e0ca6ac5171bbc211a7a1113f55326dcc9fbc53"),
    (["verify", "--x", "1/4", "--trials", "50", "--seed", "7", "--bits",
      "176", "--width-bits", "112"],
     "caf192d8ea6b2f833600949a3eb3b515ec765032c5d691cabee36d3653393a1f"),
    (["common", "--targets", "1/3", "--depth", "9"],
     "db4ead4f709aef021c172182c9d26f9b03602a8f57765693367d2116977c346b"),
    (["common", "--targets", "2/7", "--depth", "9"],
     "f19cf39d137c36f35e16a8ff6b691952977f86bd1b8aefb810a21b1e213c82a3"),
    (["common", "--targets", "1/3,1/4", "--depth", "3"],
     "c2382cb4af9f73ee704ed027fa2d7bf3a4ab536a88a3f806be430084da6a2b9a"),
    (["common", "--targets", "1/3,1/4", "--depth", "8"],
     "fe96310366e309305587deef8cf85ecd774a43badd25ffc423c8b221af4691fb"),
    # one run per greedy outcome: member, rejected at step 551, unresolved
    (["code", "--x", "11759701296083149/16837617944622401", "--lambda", "7/17"],
     "c258370b2298d6f8216bce8c8574c339865e50c63dce32f28d6be574dfe1eb1c"),
    (["code", "--x", "153/250", "--lambda", "185/371", "--max-steps", "600"],
     "fb84d80aa27ccff97c4e27fb04d83d904c9285731cbd1d28804220e008a49b19"),
    (["code", "--x", "153/250", "--lambda", "185/371", "--max-steps", "500"],
     "5a4038cbc57973771eea31254df20617696f452faef6c073c3da999c162aaff7"),
    # period 2052
    (["expansion", "--x", "1/2053"],
     "7d5ad63ad86e85dd838d07a856af9001a38395552ce98998ebd59558406c65f2"),
    # covers and gaps of dyadic targets, where 0 1^inf has the exact root x,
    # and the pieces and intersections they are built into
    (["cover", "--x", "1/4", "--depth", "6"],
     "660e6f1bf08241a902a2997ccd03f238396aac760f92fbcbcefadb9e0f2da962"),
    (["gaps", "--x", "5/16", "--depth", "7", "--bits", "64",
      "--width-bits", "40"],
     "bd9414a89498d4f193075155669bb639f1ace3346f536036b2fa3330b164723f"),
    (["pieces", "--x", "1/3", "--k", "5"],
     "6f9b50c004a1a76c715c7f843cae3d842eaec5008253463ba6b88a63020e497a"),
    (["intersect", "--targets", "1/4,5/16", "--depth", "6"],
     "077a0d46b94281d7d63e2eadca60c2a1c52337be0b49a62124013d879aad04e3"),
    # a least-squares slope whose last bit a compensated float `sum` changes
    (["dim", "--x", "3/7", "--center", "13/28", "--radius", "729/28000",
      "--eps-min-exp", "4", "--eps-max-exp", "6"],
     "f4443b19b4c44031bb1b6634f28f04a4f79c9c01e7fa1b1165c88b0e739945ac"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(r[0]) for r in PINNED_STDOUT])
def test_stdout_matches_pinned_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def middle_alpha_gaps(alpha: Fraction, levels: int, hull: tuple) -> dict:
    """`thickness --gaps` input for the middle-alpha Cantor set on hull:
    2^levels - 1 removals, level by level."""
    side = (1 - alpha) / 2
    components, gaps = [hull], []
    for _ in range(levels):
        nxt = []
        for lo, hi in components:
            a, b = lo + side * (hi - lo), hi - side * (hi - lo)
            gaps.append([str(a), str(b)])
            nxt += [(lo, a), (b, hi)]
        components = nxt
    return {"hull": [str(v) for v in hull], "gaps": gaps}


UNIT, SHIFTED = (Fraction(0), Fraction(1)), (Fraction(-3, 8), Fraction(5))
PINNED_THICKNESS = [
    ("middle-19/50", (Fraction(19, 50), 10, UNIT), [],
     "843e23d5c60c7a97946037043e03de59b6145df0884ce040770f067186e63c56"),
    ("middle-19/50 at 32 bits", (Fraction(19, 50), 10, UNIT), ["--bits", "32"],
     "0987c5363f8d031b988651687d90e00dfa15fd4a2e94e28edff87b9b56c4579a"),
    # every endpoint is dyadic, with denominators up to 2^31
    ("dyadic middle-3/8", (Fraction(3, 8), 7, SHIFTED), [],
     "db83ccd03fff2edab18096b057ff7041b8295a73eab8baaae970ce679549a76f"),
]


@pytest.mark.parametrize("shape,flags,digest",
                         [r[1:] for r in PINNED_THICKNESS],
                         ids=[r[0] for r in PINNED_THICKNESS])
def test_thickness_stdout_matches_pinned_digest(capsys, tmp_path, shape,
                                                flags, digest):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(middle_alpha_gaps(*shape)))
    code, out, _ = run(capsys, "thickness", "--gaps", str(path), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_multi_target_common_is_quick(capsys):
    started = time.monotonic()
    code, payload, _ = run_json(capsys, "common", "--targets", "1/3,1/4",
                                "--depth", "16")
    assert time.monotonic() - started < 5
    assert code == 0
    assert {c["status"] for c in payload["certificates"]} == {"Exact"}


def test_targets_below_the_digit_budget_are_refused_at_once(capsys):
    """10^-8600 lies below 2^-16384: its first 16384 digits are 0, so it
    has no expansion within the budget, and the denominator says so before
    any digit is computed."""
    tiny = "0." + "0" * 4299 + "1e-4300"
    for argv in (["expansion", "--x", tiny],
                 ["cover", "--x", tiny, "--depth", "2"]):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 0.5
        assert (code, out) == (1, "")
        assert err == ("error: more than 16384 digits in the binary "
                       f"expansion of 1/1{'0' * 8600}\n")


def test_bound_violations_exit_2(capsys, monkeypatch, request):
    """Bounds above every ratio turn each checked ratio into a violation;
    the payload is still printed and still valid. The memo tables are
    cleared first, so the report is computed with these bounds whatever
    ran before, and after, so no later test reads a report made with them."""
    from lambdaset import constructions
    _clear_memo_tables()
    request.addfinalizer(_clear_memo_tables)
    above = (Fraction(1 << 64),) * 3
    monkeypatch.setattr(constructions, "_family_bounds",
                        lambda piece, m, bits: above)
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


def test_wide_target_at_low_precision(capsys):
    # a 2^-100 grid at 40 bits: only exact signs decide every midpoint
    code, payload, _ = run_json(capsys, "cover", "--x", "1/3", "--depth", "2",
                                "--bits", "40", "--width-bits", "100")
    assert code == 0 and len(payload["intervals"]) == 1


def test_verify_subcommand(capsys):
    code, payload, _ = run_json(capsys, "verify", "--x", "1/4", "--trials", "3")
    assert code == 0
    assert payload["violations"] == []
    assert payload["checked"] == len(payload["entries"])


def test_svg_output(capsys):
    code, out, _ = run(capsys, "svg-gaps", "--x", "1/3", "--ell", "1",
                       "--kmax", "2", "--qmax", "1")
    assert code == 0 and out.startswith("<svg")


def test_thickness_from_file(capsys, tmp_path):
    gaps_doc = {"hull": ["0", "1"],
            "gaps": [["1/3", "2/3"], ["1/9", "2/9"], ["7/9", "8/9"]]}
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(gaps_doc))
    code, payload, _ = run_json(capsys, "thickness", "--gaps", str(path))
    assert code == 0
    assert payload["gaps"] == 3
    assert abs(payload["thickness_float"] - 1.0) < 1e-9


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
    path.write_text(json.dumps(middle_alpha_gaps(Fraction(37, 100), 10, UNIT)))
    code, payload, _ = run_json(capsys, "thickness", "--gaps", str(path))
    assert code == 0 and payload["gaps"] == 1023
    assert len(built) == 0


def test_thickness_reads_gaps_from_stdin(capsys, monkeypatch, tmp_path):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(middle_alpha_gaps(Fraction(1, 3), 4, UNIT)))
    code, out, _ = run(capsys, "thickness", "--gaps", str(path))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    assert run(capsys, "thickness", "--gaps", "-")[:2] == (code, out)


@pytest.mark.parametrize("doc", [[1, 2], {"hull": [0], "gaps": []},
                                 {"hull": [0, 1], "gaps": 5}],
                         ids=["list", "short-hull", "gaps-not-list"])
def test_thickness_rejects_misshaped_gap_files(capsys, tmp_path, doc):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "thickness", "--gaps", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["expansion", "--x", "1e-100000000"],
    ["cover", "--x", "1e-1_000_000", "--depth", "2"],
], ids=lambda argv: argv[0])
def test_huge_decimal_exponents_are_refused_at_once(capsys, argv):
    """Fraction would compute 10^|e| first, for seconds or longer."""
    started = time.perf_counter()
    assert _usage_error(capsys, *argv) == (
        f"error: argument --x: not a rational: {argv[2]!r}")
    assert time.perf_counter() - started < 1


def test_gap_file_with_a_huge_exponent_is_refused_at_once(capsys, tmp_path):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"hull": ["0", "1"],
                                "gaps": [["1e-10000000", "1/2"]]}))
    started = time.perf_counter()
    assert run(capsys, "thickness", "--gaps", str(path)) == (
        1, "", "error: not a rational: '1e-10000000'\n")
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv, message", [
    (["expansion", "--x", "1e-4300"],
     "more than 16384 digits in the binary expansion of 1/1" + "0" * 4300),
    (["cover", "--x", "1e4300", "--depth", "2"],
     "x must lie in (0, 1/2): 1" + "0" * 4300),
], ids=["expansion", "cover"])
def test_error_messages_print_rationals_past_the_digit_limit(capsys, argv,
                                                             message):
    """A refusal names its rational in full, not the interpreter's
    integer-to-string limit."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_expansion_of_a_tiny_target_is_refused_at_once(capsys):
    """10^-4300 has a denominator of fewer than 16384 bits, but 2 has a
    huge order modulo 5^4300: the refusal takes no greedy run."""
    started = time.perf_counter()
    assert run(capsys, "expansion", "--x", "1e-4300")[0] == 1
    assert time.perf_counter() - started < 0.3


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


SCHEMA_RUNS = [
    ("code", ["code", "--x", "1/4", "--lambda", "1/2"]),
    ("pi", ["pi", "--seq", "(01)", "--lambda", "1/2"]),
    ("expansion", ["expansion", "--x", "1/3"]),
    ("cover", ["cover", "--x", "1/4", "--depth", "3"]),
    ("gaps", ["gaps", "--x", "1/4", "--depth", "3"]),
    ("dim", ["dim", "--x", "1/3", "--center", "0.46", "--radius", "1/16",
             "--eps-min-exp", "7", "--eps-max-exp", "9", "--bits", "64",
             "--width-bits", "20"]),
    # two grid sizes leave no residual degrees of freedom: stderr is null
    ("dim-two-point", ["dim", "--x", "1/3", "--center", "9/20",
                       "--radius", "1/20", "--eps-min-exp", "8",
                       "--eps-max-exp", "9"]),
    ("pieces", ["pieces", "--x", "1/4", "--k", "1"]),
    ("cantor-ds", ["cantor-ds", "--x", "1/3", "--ell", "2", "--kmax", "2",
                   "--qmax", "1"]),
    ("thickness-cl", ["thickness-cl", "--x", "1/3", "--ell", "2",
                      "--kmax", "2", "--qmax", "1"]),
    ("verify", ["verify", "--x", "1/4", "--trials", "2"]),
    ("intersect", ["intersect", "--targets", "1/3,1/4", "--depth", "3"]),
    ("common", ["common", "--targets", "1/3,1/4", "--depth", "3"]),
    # a file of GAP_FILES
    ("thickness", ["thickness", "--gaps=valid"]),
]


@pytest.mark.parametrize("name,argv", SCHEMA_RUNS, ids=[r[0] for r in SCHEMA_RUNS])
def test_payloads_validate_against_schemas(capsys, gap_dir, name, argv):
    code, payload, _ = run_json(capsys, *_in_gap_dir(gap_dir, argv))
    assert code == 0
    jsonschema.validate(payload, load_schema(argv[0]))


def test_schema_runs_span_every_json_command():
    # svg-gaps prints its diagram as text, and ships no schema
    json_commands = sorted(set(COMMANDS) - {"svg-gaps"})
    assert sorted({argv[0] for _, argv in SCHEMA_RUNS}) == json_commands
    for name in json_commands:
        assert load_schema(name)["type"] == "object"
    with pytest.raises(FileNotFoundError):
        load_schema("svg-gaps")


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
