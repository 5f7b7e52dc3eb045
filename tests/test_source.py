"""Source-level checks on the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadartin

SRC = Path(quadartin.__file__).parent


def _is_bare_assertion(node) -> bool:
    # an assert statement, or raise AssertionError / raise AssertionError(...)
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_asserts():
    # python -O strips assert statements, so no check may rely on one; and a
    # failed check raises a named error the CLI maps to an exit code.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_bare_assertion(node)]
    assert not found, found


# src/ ships only what some src/ code uses, down to inputs: every public
# name, method and property has a caller, every optional parameter and
# defaulted record field is passed by some call, and every record field is
# read.  Reference routes live in tests/oracles.py.  Kept with no caller:
# the CLI entry points, the argparse hook, and the pigeonhole tally and its
# members, which ROADMAP item 2 wires into scan.
NO_CALLER_NEEDED = {"main", "entrypoint", "_Parser.error", "PigeonholeTally",
                    "PigeonholeTally.update", "PigeonholeTally.survivors",
                    "PigeonholeTally.max_side_factors", "PigeonholeTally.members_needed"}
# Inputs kept with no src/ caller: main's argv, which the console script
# leaves to sys.argv, and _Key's fields, which validate_config unpacks.
NO_CALLER_NEEDED_INPUTS = {"main.argv", "_Key.what", "_Key.convert", "_Key.default"}


def _trees():
    # the parsed modules of src/quadartin but __init__.py, whose re-exports
    # do not count as uses
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else None)


def _definitions(tree):
    # (qualified name, node) for each top-level function and class, and for
    # each method and property of a top-level class
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def test_every_public_definition_has_a_caller():
    # A name counts as used when it is referenced anywhere in src/quadartin
    # outside its own definition; a method or property, when its name is.
    trees = _trees()
    refs = []  # (module, line, name)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ref = _name(node) or (node.name if isinstance(node, ast.alias) else None)
            if ref is not None:
                refs.append((name, node.lineno, ref))
    unused = []
    for name, tree in trees.items():
        for qualname, node in _definitions(tree):
            public = not node.name.startswith("_")
            exempt = qualname in NO_CALLER_NEEDED or node.name.startswith("cmd_")
            if public and not exempt and not any(
                ref == node.name and not (mod == name and node.lineno <= line <= node.end_lineno)
                for mod, line, ref in refs
            ):
                unused.append(f"{name}:{qualname}")
    assert not unused, unused


def _record_fields(cls):
    # [(field, has a default)] of a dataclass or NamedTuple, else None
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if "dataclass" in map(_name, decorators) or "NamedTuple" in map(_name, cls.bases):
        return [(n.target.id, n.value is not None) for n in cls.body
                if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return None


def _inputs(body, prefix="", method=False):
    # (qualified name, the name a call uses, positional inputs, optional
    # inputs) for each function, method and record class below body; a
    # record's inputs are its fields, and __init__ is called by its class
    for node in body:
        if isinstance(node, ast.ClassDef):
            fields = _record_fields(node)
            if fields is not None:
                yield (node.name, node.name, [f for f, _ in fields],
                       {f for f, default in fields if default})
            yield from _inputs(node.body, f"{node.name}.", True)
        elif isinstance(node, ast.FunctionDef):
            a = node.args
            pos = [x.arg for x in a.args][method:]  # a method's self or cls is no input
            optional = set(pos[len(pos) - len(a.defaults):]) | {
                k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            called = prefix[:-1] if node.name == "__init__" else node.name
            yield f"{prefix}{node.name}", called, pos, optional
            yield from _inputs(node.body, f"{prefix}{node.name}.")


def _calls(tree):
    # (callee name, positional arguments, keywords) of each call, a
    # functools.partial taken as a call of the function it wraps
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            if _name(func) is not None:
                yield _name(func), args, node.keywords


def test_every_optional_input_is_passed():
    # An optional parameter, or a record field with a default, that no src/
    # call passes, by position, by keyword or through functools.partial,
    # only ever takes its default in src/: the default is then the code.
    # Calls are matched by the callee's name; a call with *args or
    # **kwargs passes every input.
    trees = _trees()
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unpassed = []
    for mod, tree in trees.items():
        for qualname, called, pos, optional in _inputs(tree.body):
            for x in sorted(optional):
                if f"{qualname}.{x}" not in NO_CALLER_NEEDED_INPUTS and not any(
                    x in pos[:len(args)] or any(isinstance(a, ast.Starred) for a in args)
                    or any(k.arg in (x, None) for k in kws)
                    for name, args, kws in calls if name == called
                ):
                    unpassed.append(f"{mod}:{qualname}.{x}")
    assert not unpassed, unpassed


def test_every_record_field_is_read():
    # A dataclass or NamedTuple field no src/ code reads as an attribute is
    # carried for nothing.
    trees = _trees()
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{mod}:{cls.name}.{f}" for mod, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for f, _ in _record_fields(cls) or ()
              if f not in reads and f"{cls.name}.{f}" not in NO_CALLER_NEEDED_INPUTS]
    assert not unread, unread


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


def test_no_global_statement_but_the_rho_seed():
    # A global statement is how a module cache grows without bound; the one
    # module state src/ rebinds is the Pollard rho seed.  That statement must
    # be found, so a walker that sees none cannot pass.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, fn.name, name) for node in ast.walk(fn)
                          if isinstance(node, ast.Global) for name in node.names}
    assert found == {("arith.py", "set_rho_seed", "_rho_seed")}, found


# arith owns POWMOD_LIMIT: exact_ints casts every array kernel's inputs by
# it, and powmod and residues choose their int64 route by it, so a later
# change of the bound is made in arith alone.  No kernel chooses or guards
# a dtype itself, and the CLI's bound on lemma42's prime_max is a run-time
# policy with its own literal.  arith's definition (scope None) and its
# read must be found, so a walker that sees none cannot pass.
POWMOD_LIMIT_READERS = {("arith.py", None), ("arith.py", "_fits")}


def _reads(node, name, scope=None):
    # the scope of each read of name below node: its innermost enclosing
    # function, else the outermost string key of the dicts around it
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name):
        yield scope
    if isinstance(node, ast.Dict) and scope is None:
        for key, value in zip(node.keys, node.values):
            label = key.value if isinstance(key, ast.Constant) else None
            yield from _reads(value, name, label)
        return
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, name, scope)


def test_powmod_limit_read_only_where_int64_is_chosen():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, scope) for scope in _reads(tree, "POWMOD_LIMIT")}
    assert found == POWMOD_LIMIT_READERS, found


def _modules_after(code: str, *argv: str) -> set:
    # The modules a fresh interpreter has loaded once it has run code with
    # argv, after checking that it imported the package from SRC.
    probe = code + ("\nimport json, sys, quadartin\nprint(quadartin.__file__)\n"
                    "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert Path(out[-2]).resolve() == (SRC / "__init__.py").resolve()
    return set(json.loads(out[-1]))


def test_cli_import_leaves_the_process_pool_unloaded():
    # The process pool's modules cost every run set-up time and memory, and
    # only --workers > 1 uses them, so a fresh interpreter that imports the
    # CLI has neither loaded.
    loaded = _modules_after("import quadartin.cli")
    assert "quadartin.cli" in loaded
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


def test_package_import_loads_no_submodule():
    # Every caller imports from the submodules, so the package root loads
    # none of them and each run pays only for the modules it uses.
    assert not {m for m in _modules_after("import quadartin") if m.startswith("quadartin.")}


@pytest.mark.parametrize("command, cfg, used, unused", [
    pytest.param("sieve", {"a": -4, "delta": 5, "prime_max": 10**4, "d_max": 20},
                 {"quadartin.sieve", "quadartin.construction"},
                 {"quadartin.experiments", "quadartin.fp2"}, id="sieve"),
    pytest.param("lemma42", {"gens": [2, 3], "prime_max": 10**4},
                 {"quadartin.experiments", "quadartin.fp2"},
                 {"quadartin.construction", "quadartin.sieve"}, id="lemma42"),
])
def test_cli_command_loads_only_the_modules_it_runs(tmp_path, command, cfg, used, unused):
    # Each cmd_* imports its own modules: the sieve ledger needs no order
    # kernel, and the subgroup counts need no residue class and no sieve.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run = ("import sys, quadartin.cli\n"
           "if quadartin.cli.main(sys.argv[1:]) != 0:\n    raise SystemExit('run failed')")
    loaded = _modules_after(run, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert used <= loaded
    assert not unused & loaded
