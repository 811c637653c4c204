"""Each subcommand imports only the library modules it runs, loads no
standard-library module that only some commands need, and the traced
benchmark still sees the library calls that the CLI makes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# standard-library modules that cost start-up time, loaded by no command:
# `dataclasses` (with `inspect`), `statistics`, whose fit `dim` computes
# itself, and `hashlib` with OpenSSL's `_hashlib` (3-4 ms and about 3.6 MB
# of RSS), whose SHA-256 the interpreter also builds in
COSTLY = ("dataclasses", "inspect", "statistics", "hashlib", "_hashlib")

# prints the lambdaset modules, and those of COSTLY, loaded after building
# the parser, or after one in-process run of the argv given on the command
# line
FOOTPRINT = f"""
import contextlib, io, json, sys
from lambdaset.cli import build_parser, main
build_parser()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("lambdaset") or m in {COSTLY})))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _loaded(*argv: str) -> set[str]:
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          env=_env(), capture_output=True, text=True,
                          check=True, timeout=60)
    return {m.removeprefix("lambdaset.") for m in json.loads(done.stdout)}


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"hull": ["0", "1"],
                                "gaps": [["1/3", "2/3"], ["1/9", "2/9"]]}))
    return str(path)


# the lambdaset modules that building the parser loads, and those that one
# run of each command loads besides: no more, and no module of COSTLY
PARSER = {"lambdaset", "cli", "errors", "numerics"}
GREEDY = {"seqcode", "ifs_core"}
SOLVER = GREEDY | {"lambda_set"}
LEDGER = SOLVER | {"cantor_metrics", "constructions"}
DIM = ("dim", "--x", "1/3", "--center", "9/20", "--radius", "1/20",
       "--eps-min-exp", "8", "--eps-max-exp", "9")
FOOTPRINTS = {
    "parser": ((), set()),
    "code": (("code", "--x", "1/3", "--lambda", "1/5"), GREEDY),
    "pi": (("pi", "--seq", "0(01)", "--lambda", "1/3"), GREEDY),
    "expansion": (("expansion", "--x", "1/3"), {"seqcode"}),
    "cover": (("cover", "--x", "1/3", "--depth", "3"), SOLVER),
    "thickness": (("thickness", "--gaps", None), {"cantor_metrics"}),
    "common": (("common", "--targets", "1/3", "--depth", "4"),
               SOLVER | {"intersect"}),
    "dim": (DIM, SOLVER),
    "verify": (("verify", "--x", "1/3", "--trials", "3"), LEDGER),
    "svg-gaps": (("svg-gaps", "--x", "1/3", "--ell", "1", "--kmax", "2"),
                 LEDGER | {"svg"}),
}


@pytest.mark.parametrize("name", FOOTPRINTS)
def test_costly_stdlib_modules_load_only_where_needed(name, gap_file):
    """Each command loads exactly the modules of its FOOTPRINTS row, so
    none of COSTLY either."""
    argv, modules = FOOTPRINTS[name]
    loaded = _loaded(*(gap_file if a is None else a for a in argv))
    assert loaded == PARSER | modules


@pytest.mark.parametrize("argv, layer", [
    (DIM, "lambda_set.box_dim_estimate"),
    (["thickness", "--gaps", None], "cantor_metrics.thickness_of"),
    (["common", "--targets", "1/3", "--depth", "4"], "intersect.find_common"),
    (["pi", "--seq", "0(01)", "--lambda", "1/3"], "ifs_core.pi_eval"),
    (["code", "--x", "1/4", "--lambda", "1/3"], "ifs_core.greedy_digits"),
], ids=["dim", "thickness", "common", "pi", "code"])
def test_tracing_sees_calls_made_by_the_cli(argv, layer, gap_file, tmp_path):
    # these layers are wrapped only where the CLI reads them
    argv = [gap_file if a is None else a for a in argv]
    out = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "tracing.py"),
                    str(out), "0", *argv], cwd=ROOT, env=_env(),
                   capture_output=True, check=True, timeout=60)
    names = {span[2] for span in json.loads(out.read_text())}
    assert {"cli.main", layer} <= names


def _stats(*argv: str) -> dict:
    """The manifest's `stats` of one fresh process running argv."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return json.loads(done.stderr.splitlines()[-1])["stats"]


def test_tracing_hides_no_memo_table(gap_file, tmp_path):
    """The registry holds the memo tables themselves, so a traced run,
    whose library names are wrappers, counts what an untraced one counts;
    the tables of the modules only the tracer loads count nothing. A run
    that loads no module with a table or a counter counts nothing."""
    argv = ("cover", "--x", "1/3", "--depth", "4")
    traced = _stats(str(ROOT / "bench" / "tracing.py"),
                    str(tmp_path / "spans.json"), "0", *argv)
    untraced = _stats("-m", "lambdaset.cli", *argv)
    assert untraced["lambda_set.psi_inverse"]["misses"] > 0
    assert {name: traced.pop(name) for name in untraced} == untraced
    assert all(set(counts.values()) == {0} for counts in traced.values())
    assert _stats("-m", "lambdaset.cli", "thickness", "--gaps", gap_file) == {}
