import ast
from pathlib import Path

import pytest

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
