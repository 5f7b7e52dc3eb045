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



def test_commands_read_only_typed_config():
    # The config schema is the one place config values are converted: no
    # cmd_* in cli.py may call int, float or .get on the config it receives.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        cfg = fn.args.args[0].arg
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            reads_cfg = any(isinstance(n, ast.Name) and n.id == cfg
                            for a in call.args for n in ast.walk(a))
            if (isinstance(f, ast.Name) and f.id in ("int", "float") and reads_cfg) or (
                isinstance(f, ast.Attribute) and f.attr == "get"
                and isinstance(f.value, ast.Name) and f.value.id == cfg
            ):
                found.append(f"{fn.name}:{call.lineno}")
    assert not found, found
