"""Every name a module exports is used: by another part of the library,
by the benchmark, or by the acceptance suite. Dead surface cannot grow
back unnoticed."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambdaset"


def _library_references() -> dict[str, set[str]]:
    """Name -> modules whose code refers to it, outside the top-level
    statement that defines it (`__all__` strings are not references)."""
    refs: dict[str, set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                defined = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in defined:
                    refs.setdefault(name, set()).add(path.stem)
    return refs


def _outside_text() -> str:
    files = sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def test_every_exported_name_has_a_caller():
    refs = _library_references()
    outside = _outside_text()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"lambdaset.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if name in refs or re.search(rf"\b{re.escape(name)}\b", outside):
                continue
            unused.append(f"{path.stem}.{name}")
    assert unused == []
