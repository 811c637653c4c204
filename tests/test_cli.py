import json

import jsonschema
import pytest

from lambdaset.cli import load_schema, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), json.loads(err.strip().splitlines()[-1])


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


def test_exit_codes(capsys, monkeypatch):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "cover", "--x", "1/2", "--depth", "2")[0] == 1
    assert run(capsys, "verify", "--case", "A", "--trials", "2")[0] == 1
    assert run(capsys, "code", "--x", "not-a-number", "--lambda", "1/2")[0] == 1
    for case in (["--case", "A", "--x", "1/3"], ["--case", "B"]):
        for trials in ("0", "-1"):
            code, out, err = run(capsys, "verify", *case, "--trials", trials)
            assert code == 1 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "cover", "--x", "1/4", "--depth", "2",
                       "--width-bits", "-3")
    assert code == 1 and err == "error: --width-bits must be nonnegative\n"
    for bits in ("0", "16"):
        code, out, err = run(capsys, "expansion", "--x", "1/3", "--bits", bits)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ")
    monkeypatch.setenv("LAMBDASET_PRECISION_BITS", "abc")
    code, _, err = run(capsys, "expansion", "--x", "1/3")
    assert code == 1 and err.count("\n") == 1
    assert err.startswith("error: LAMBDASET_PRECISION_BITS")


def test_prefix_budget_ends_deep_covers(capsys):
    code, out, err = run(capsys, "cover", "--x", "1/3", "--depth", "60")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: more than ")


def test_wide_target_at_low_precision(capsys):
    # a 2^-100 grid at 40 bits: only exact signs decide every midpoint
    code, payload, _ = run_json(capsys, "cover", "--x", "1/3", "--depth", "2",
                                "--bits", "40", "--width-bits", "100")
    assert code == 0 and len(payload["intervals"]) == 1


def test_verify_subcommand(capsys):
    code, payload, _ = run_json(capsys, "verify", "--case", "B", "--trials", "3")
    assert code == 0
    assert payload["violations"] == []
    assert payload["checked"] == len(payload["entries"])


def test_csv_formats(capsys):
    code, out, _ = run(capsys, "cover", "--x", "1/4", "--depth", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,lo,hi,low_code,high_code"
    assert len(lines) == 3
    code, out, _ = run(capsys, "gaps", "--x", "1/4", "--depth", "3",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("index,left,right")
    code, out, _ = run(capsys, "intersect", "--targets", "1/3,1/4",
                       "--depth", "3", "--format", "csv")
    assert code == 0
    assert out.startswith("index,lo,hi,low_code,high_code\n")
    # commands without a CSV writer do not accept --format at all
    assert run(capsys, "pieces", "--x", "1/4", "--k", "1",
               "--format", "csv")[0] == 1


def test_svg_output(capsys, tmp_path):
    target = tmp_path / "gaps.svg"
    code, payload, _ = run_json(capsys, "svg-gaps", "--x", "1/3", "--ell", "1",
                                "--kmax", "2", "--qmax", "1",
                                "--out", str(target))
    assert code == 0 and payload["written"] == str(target)
    text = target.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    code, out, _ = run(capsys, "svg-gaps", "--x", "1/3", "--ell", "1",
                       "--kmax", "2", "--qmax", "1")
    assert code == 0 and out.startswith("<svg")


def test_env_var_precision(capsys, monkeypatch):
    monkeypatch.setenv("LAMBDASET_PRECISION_BITS", "96")
    _, _, err = run(capsys, "expansion", "--x", "1/3")
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["precision_bits"] == 96


def test_thickness_from_file(capsys, tmp_path):
    gaps_doc = {"hull": ["0", "1"],
            "gaps": [["1/3", "2/3"], ["1/9", "2/9"], ["7/9", "8/9"]]}
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps(gaps_doc))
    code, payload, _ = run_json(capsys, "thickness", "--gaps", str(path))
    assert code == 0
    assert payload["gaps"] == 3
    assert abs(payload["thickness_float"] - 1.0) < 1e-9


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
    (["verify", "--case", "A", "--x", "{}", "--trials", "1"], "1/3", "2/3"),
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


SCHEMA_RUNS = [
    ("code", ["code", "--x", "1/4", "--lambda", "1/2"]),
    ("pi", ["pi", "--seq", "(01)", "--lambda", "1/2"]),
    ("expansion", ["expansion", "--x", "1/3"]),
    ("cover", ["cover", "--x", "1/4", "--depth", "3"]),
    ("gaps", ["gaps", "--x", "1/4", "--depth", "3"]),
    ("dim", ["dim", "--x", "1/3", "--center", "0.46", "--radius", "1/16",
             "--eps-min-exp", "7", "--eps-max-exp", "9", "--bits", "64",
             "--width-bits", "20"]),
    ("pieces", ["pieces", "--x", "1/4", "--k", "1"]),
    ("cantor-ds", ["cantor-ds", "--x", "1/3", "--ell", "2", "--kmax", "2",
                   "--qmax", "1"]),
    ("thickness-cl", ["thickness-cl", "--x", "1/3", "--ell", "2",
                      "--kmax", "2", "--qmax", "1"]),
    ("verify", ["verify", "--case", "B", "--trials", "2"]),
    ("intersect", ["intersect", "--targets", "1/3,1/4", "--depth", "3"]),
    ("common", ["common", "--targets", "1/3,1/4", "--depth", "3"]),
]


@pytest.mark.parametrize("name,argv", SCHEMA_RUNS, ids=[r[0] for r in SCHEMA_RUNS])
def test_payloads_validate_against_schemas(capsys, name, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    jsonschema.validate(payload, load_schema(name))


def test_svg_write_payload_schema(capsys, tmp_path):
    target = tmp_path / "d.svg"
    _, payload, _ = run_json(capsys, "svg-gaps", "--x", "1/3", "--kmax", "2",
                             "--qmax", "1", "--out", str(target))
    jsonschema.validate(payload, load_schema("svg-gaps"))
