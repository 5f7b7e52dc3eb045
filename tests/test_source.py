"""Source-level checks on the package."""

import ast
from pathlib import Path

import quadartin

SRC = Path(quadartin.__file__).parent


def test_no_bare_asserts():
    # python -O strips assert statements, so no check may rely on one.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
