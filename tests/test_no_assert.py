"""The library's invariants must hold under ``python -O``, which strips
``assert`` statements; they raise explicitly instead."""

import ast
from pathlib import Path

import stablefrac as sf

PACKAGE = Path(sf.__file__).parent


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
