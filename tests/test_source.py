"""Checks on the package source itself."""

import ast
import pathlib

import prostd


def test_no_assert_statements_in_src():
    # invariants that protect exactness must survive python -O, which strips
    # assert statements; raise an errors.py exception instead
    found = []
    for path in sorted(pathlib.Path(prostd.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
