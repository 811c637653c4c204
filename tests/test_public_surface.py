"""Every name a module exports or defines, and every public member of its
classes, is used: by another part of the library, by the benchmark, or by
the acceptance suite, and every name a module imports is used in that
module. Dead surface cannot grow back unnoticed. The benchmark's exact
reference imports no code of the library."""

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


def test_every_public_member_has_a_caller():
    """Each public method, classmethod or property of a package class is
    read as `.name` outside its own body: in the library, the benchmark or
    the acceptance suite. An override of a base-class attribute, such as
    an argparse hook, is called by the base class and is exempt."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    attributes: dict[str, list[ast.Attribute]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
    outside = _outside_text()
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"lambdaset.{stem}")
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("_")
                        or any(hasattr(base, fn.name) for base in bases)):
                    continue
                own = set(map(id, ast.walk(fn)))
                if any(id(node) not in own
                       for node in attributes.get(fn.name, ())):
                    continue
                if not re.search(rf"\.{re.escape(fn.name)}\b", outside):
                    unused.append(f"{stem}.{cls.name}.{fn.name}")
    assert unused == []


def _module_level_names(tree: ast.Module) -> list[str]:
    """Undecorated functions and classes, and assigned constants, defined
    at the top level of a module."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if not stmt.decorator_list:
                names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_unexported_name_has_a_caller():
    refs = _library_references()
    outside = _outside_text()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = set(getattr(importlib.import_module(f"lambdaset.{path.stem}"),
                               "__all__", ()))
        for name in _module_level_names(tree):
            if name in exported or name in refs:
                continue
            if not re.search(rf"\b{re.escape(name)}\b", outside):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in stmt.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []


def test_the_exact_reference_imports_only_arithmetic():
    """bench/exact.py, which tier-1 and the benchmark check the library
    against, shares no code with it: it imports only these modules."""
    tree = ast.parse((ROOT / "bench" / "exact.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "fractions", "math"}


def test_every_error_class_is_raised():
    """Every class of `errors` but the base class is raised by name in the
    library. An imported class that nothing raises passes the checks
    above, yet no caller can ever catch it."""
    from lambdaset import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised - {"LambdasetError"}) == []


# the package's memo tables, each made by `numerics.memo`: a
# `functools.lru_cache(maxsize=CACHE_SIZE)`
MEMO_TABLES = {"seqcode.binary_expansion", "lambda_set._target",
               "lambda_set.psi_inverse", "constructions.piece_endpoints",
               "constructions.gap_record", "constructions._piece_families",
               "constructions._family_entries",
               "constructions._square_identity", "constructions.thickness_Cl"}


def test_memo_tables_are_the_listed_bounded_caches():
    """Every module-level function with `cache_info` is a listed memo table
    bounded by CACHE_SIZE, so an unbounded `functools.cache` or an unlisted
    memo fails here; the registry the manifest reads holds the same
    tables."""
    from lambdaset import numerics

    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"lambdaset.{path.stem}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                found[f"{path.stem}.{name}"] = value
    assert set(found) == MEMO_TABLES
    assert {name: fn.cache_info().maxsize for name, fn in found.items()} == {
        name: numerics.CACHE_SIZE for name in MEMO_TABLES}
    assert numerics.MEMO_TABLES == found
