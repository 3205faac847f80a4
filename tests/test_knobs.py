"""Knob and function censuses over src/pexp.

Knob census: every defaulted parameter of a function defined in src/pexp,
and every defaulted field of a dataclass defined there, is set by at least one
call in src/pexp, demos/ or perfbench/.

A default that no caller overrides is a constant with an option's cost: each
settable value multiplies the configurations that tests must cover.  Calls
are matched by the called name (``f(...)``, or ``mod.f(...)`` where mod is
``pexp`` or one of its modules, so ``args.f`` is not a call of f); a parameter
counts as set when a call passes it by keyword or passes at least as many
positional arguments as its position needs.  A dataclass is called by its
class name, or as ``cls(...)`` inside one of its classmethods; ``init=False``
fields are not knobs.  JSON_CONFIGS are built from JSON dicts, so a string key
of any dict literal in the caller directories also sets their fields.
ALLOWED lists the knobs that only the tests set, kept on purpose.

Function census: every top-level function and class of src/pexp is referenced
outside its own definition somewhere in src/pexp, demos/ or perfbench/.  A
function that only the tests reach is surface without a use; it is wired
into a program path, moved to tests/oracles.py or deleted.  References are
matched by name (``f`` or ``mod.f``), with the same rule for mod as calls in
the knob census.
ALLOWED_FUNCTIONS lists the exceptions, each with its reason.

Constant census: every module-level UPPER_CASE constant of src/pexp (a
leading underscore allowed) is referenced outside its own assignment
somewhere in src/pexp, demos/ or perfbench/, by the same matching rule.  A
constant that nothing reads is a setting left behind by deleted code.
"""

import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src/pexp", "demos", "perfbench")
JSON_CONFIGS = ("ExperimentConfig",)

ALLOWED = {
    "ExperimentConfig.truth_file": "set by users' JSON configs; only the tests write a truth file",
    "ExperimentConfig.max_truncation": "set by users' JSON configs; the tests cap N to keep sweeps cheap",
}
ALLOWED_FUNCTIONS: dict[str, str] = {}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls):
    # @dataclass or @dataclass(...)
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list
    )


def _field_knob(stmt):
    """(in __init__, has a default) of one annotated class-body statement."""
    value = stmt.value
    if value is None:
        return True, False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        in_init = not (isinstance(init, ast.Constant) and init.value is False)
        return in_init, "default" in kw or "default_factory" in kw
    return True, True


def _modules(root, dirs):
    """The parsed module of every Python file under root/dirs."""
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            yield _parse(path)


def _package_names(root):
    """``pexp`` and the name of each of its modules."""
    return {path.stem for path in (root / "src/pexp").glob("*.py")} | {"pexp"}


def _is_package(node, package):
    """Whether node is ``pexp``, a module of it, or ``pexp.mod``."""
    if isinstance(node, ast.Attribute):
        return node.attr in package and _is_package(node.value, package)
    return isinstance(node, ast.Name) and node.id in package


def _referenced(node, package):
    """The name node reads, as ``f`` or as ``mod.f`` for a module of pexp;
    None for any other node, such as ``args.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and _is_package(node.value, package):
        return node.attr
    return None


def _defaulted_parameters(root):
    """{function or dataclass name: [(parameter, positional index or None), ...]}
    over the defaulted parameters of every function and the defaulted fields
    of every dataclass in src/pexp."""
    out = {}
    for tree in _modules(root, ("src/pexp",)):
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        methods = {id(fn) for cls in classes for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            if id(fn) in methods and positional:
                positional = positional[1:]  # self or cls, bound by the call
            knobs = [
                (arg.arg, i)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(a.defaults)
            ]
            knobs += [
                (arg.arg, None)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None
            ]
            if knobs:
                out.setdefault(fn.name, []).extend(knobs)
        for cls in filter(_is_dataclass, classes):
            index = 0
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                in_init, defaulted = _field_knob(stmt)
                if not in_init:
                    continue
                if defaulted:
                    out.setdefault(cls.name, []).append((stmt.target.id, index))
                index += 1
    return out


def _call_args(node):
    """(positional argument count, keyword names) of a call; starred
    arguments set nothing."""
    npos = 0
    for arg in node.args:
        if isinstance(arg, ast.Starred):
            break
        npos += 1
    return npos, {k.arg for k in node.keywords if k.arg is not None}


def _is_classmethod(fn):
    return isinstance(fn, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list
    )


def _calls(root):
    """{called name: [(positional argument count, keyword names), ...]} over
    every call in the caller directories, and the set of string keys of
    their dict literals."""
    package = _package_names(root)
    out, keys = {}, set()
    for tree in _modules(root, CALLER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys.update(
                    k.value
                    for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            if not isinstance(node, ast.Call):
                continue
            name = _referenced(node.func, package)
            if name is not None:
                out.setdefault(name, []).append(_call_args(node))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in filter(_is_classmethod, cls.body):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cls":
                        out.setdefault(cls.name, []).append(_call_args(node))
    return out, keys


def _unset_knobs(root):
    calls, keys = _calls(root)
    unset = set()
    for name, knobs in _defaulted_parameters(root).items():
        for param, index in knobs:
            if name in JSON_CONFIGS and param in keys:
                continue
            if not any(
                param in keywords or (index is not None and index < npos)
                for npos, keywords in calls.get(name, ())
            ):
                unset.add(f"{name}.{param}")
    return unset


def _defined_names(top):
    """The names a top-level statement defines: a function or class name,
    or the plain-name targets of an assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced_names(root):
    """Every name read as ``f`` or ``mod.f`` in the caller directories,
    except a top-level definition's or assignment's references to its own
    name."""
    package = _package_names(root)
    out = set()
    for tree in _modules(root, CALLER_DIRS):
        for top in tree.body:
            names = {_referenced(node, package) for node in ast.walk(top)}
            out |= names - {None} - _defined_names(top)
    return out


def _unreferenced_functions(root):
    """module.name of every top-level function or class of src/pexp that
    nothing in the caller directories references."""
    names = _referenced_names(root)
    out = set()
    for path in sorted((root / "src/pexp").glob("*.py")):
        for top in _parse(path).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in names:
                out.add(f"{path.stem}.{top.name}")
    return out


def _unreferenced_constants(root):
    """module.NAME of every module-level UPPER_CASE constant of src/pexp that
    nothing in the caller directories references."""
    names = _referenced_names(root)
    out = set()
    for path in sorted((root / "src/pexp").glob("*.py")):
        for top in _parse(path).body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                out |= {
                    f"{path.stem}.{name}"
                    for name in _defined_names(top) - names
                    if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)
                }
    return out


def test_every_defaulted_parameter_has_a_caller():
    unset = _unset_knobs(ROOT)
    orphans = sorted(unset - ALLOWED.keys())
    assert not orphans, "defaulted parameters that no call sets: " + ", ".join(orphans)
    stale = sorted(ALLOWED.keys() - unset)
    assert not stale, "allowlisted knobs that a call now sets or that are gone: " + ", ".join(
        stale
    )


def test_every_function_has_a_program_reference():
    unreferenced = _unreferenced_functions(ROOT)
    orphans = sorted(unreferenced - ALLOWED_FUNCTIONS.keys())
    assert not orphans, "functions that only the tests reach: " + ", ".join(orphans)
    stale = sorted(ALLOWED_FUNCTIONS.keys() - unreferenced)
    assert not stale, "allowlisted functions that a program now reaches or that are gone: " + (
        ", ".join(stale)
    )


def test_every_constant_has_a_program_reference():
    orphans = sorted(_unreferenced_constants(ROOT))
    assert not orphans, "constants that nothing reads: " + ", ".join(orphans)


def test_censuses_name_a_planted_orphan_and_unset_knob(tmp_path):
    # a census that finds nothing in a tree with one of each proves nothing
    files = {
        "src/pexp/lib.py": """
            LIMIT = 3
            SIZE = 2
            _ROWS = 64

            def used(a, b=1):
                return a + b + LIMIT

            def helper(n, depth=0):
                return helper(n - 1, depth + 1) if n else depth

            def orphan(x):
                return orphan(x)

            def hidden(x, y=1):
                return x + y
            """,
        "demos/demo.py": """
            import argparse

            from pexp import lib

            args = argparse.Namespace(hidden=lib.used)
            print(lib.used(lib.SIZE), lib.helper(3, 0), args.hidden(1, 2))
            """,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    # args.hidden names an attribute of args, not lib.hidden
    assert _unreferenced_functions(tmp_path) == {"lib.orphan", "lib.hidden"}
    assert _unset_knobs(tmp_path) == {"used.b", "hidden.y"}
    # LIMIT is read inside lib and SIZE by the demo; _ROWS by nothing
    assert _unreferenced_constants(tmp_path) == {"lib._ROWS"}
