import ast
from pathlib import Path

import pytest

import kkvd.errors

SOURCES = sorted((Path(__file__).parent.parent / "src" / "kkvd").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_each_private_helper_has_one_definition():
    # one copy of each helper: a private top-level function lives in one module
    modules: dict[str, list[str]] = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                modules.setdefault(node.name, []).append(path.name)
    repeated = {name: where for name, where in modules.items() if len(where) > 1}
    assert modules and repeated == {}, repeated


def test_each_private_helper_is_used():
    # a private top-level function that no other code names is dead
    defs, names = {}, []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                defs[stmt.name] = stmt
            named = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
            names.append((stmt, named))
    unused = sorted(
        name
        for name, stmt in defs.items()
        if not any(name in named for other, named in names if other is not stmt)
    )
    assert defs and unused == [], unused


def test_cli_imports_no_private_name_from_io():
    # the CLI goes through kkvd.io's public functions, which keep its checks
    path = next(p for p in SOURCES if p.name == "cli.py")
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module in ("io", "kkvd.io")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_reisner_never_lists_every_face():
    # the Reisner check visits faces up to codimension 2, not all_faces()
    path = next(p for p in SOURCES if p.name == "homology.py")
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "all_faces"
    ]
    assert calls == []


def test_reisner_builds_no_link_in_mask_space():
    # homology reaches links through SimplicialComplex.link, not mask helpers
    path = next(p for p in SOURCES if p.name == "homology.py")
    helpers = {"_compact", "_link_masks", "_masks_of", "_from_masks"}
    names = [
        (node.lineno, getattr(node, field))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for field in ("id", "attr", "name")  # a name, an attribute, an import
        if getattr(node, field, None) in helpers
    ]
    assert names == []


def test_construction_builds_no_face_per_facet():
    # SimplicialComplex.__init__ goes from labels to masks without as_face
    path = next(p for p in SOURCES if p.name == "complexes.py")
    cls = next(
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "SimplicialComplex"
    )
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    names = [
        node.lineno
        for node in ast.walk(init)
        if getattr(node, "id", getattr(node, "attr", None)) == "as_face"
    ]
    assert names == []


def test_cli_writes_stdout_only_in_main():
    # each command returns (exit code, document, text) and main writes one
    # of the two, so no command may print to stdout or touch sys.stdout
    path = next(p for p in SOURCES if p.name == "cli.py")
    module = ast.parse(path.read_text(), filename=str(path))
    writes = []
    for stmt in module.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "main":
            continue
        for node in ast.walk(stmt):
            # sys.stdout, a bare stdout, or stdout imported from sys
            if "stdout" in [getattr(node, f, None) for f in ("attr", "id", "name")]:
                writes.append(node.lineno)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                to = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                if to != ["sys.stderr"]:
                    writes.append(node.lineno)
    assert writes == []


def test_every_raise_names_a_library_error():
    # callers catch KKError, so src raises only what kkvd.errors defines;
    # a bare re-raise and the entry points' SystemExit are exempt
    errors = {name for name, value in vars(kkvd.errors).items() if isinstance(value, type)}
    others = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                entry = name == "SystemExit" and path.name in ("__main__.py", "cli.py")
                if name not in errors and not entry:
                    others.append((path.name, node.lineno, ast.unparse(node.exc)))
    assert others == []
