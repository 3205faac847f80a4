"""Knob census: every defaulted parameter of a function defined in src/pexp
is set by at least one call in src/pexp, demos/ or perfbench/.

A default that no caller overrides is a constant with an option's cost: each
settable value multiplies the configurations that tests must cover.  Calls
are matched by the called name (``f(...)`` or ``mod.f(...)``); a parameter
counts as set when a call passes it by keyword or passes at least as many
positional arguments as its position needs.  ALLOWED lists the knobs that
only the tests set, kept on purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src/pexp", "demos", "perfbench")

ALLOWED = {
    "decentering_check.nodes": "the tests check the quadrature at its MIN_NODES floor",
    "smallball_sup_nodes.cells": "the tests refine the cell grid to measure its error",
    "smallball_l2_tilted.samples": "the tests size the importance sample",
    "smallball_l2_tilted.rng": "the tests seed the importance sample",
    "run_inequalities.anderson_shifts": "the tests run a shorter battery",
    "run_inequalities.anderson_samples": "the tests run a cheaper battery",
    "run_inequalities.lemma_grid": "the tests run a coarser tail-bound grid",
    "wn_posterior_sample.method": "the tests force rejection at p = 2 against the conjugate law",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted_parameters():
    """{function name: [(parameter, positional index or None), ...]} over the
    defaulted parameters of every function in src/pexp."""
    out = {}
    for path in sorted((ROOT / "src/pexp").glob("*.py")):
        tree = _parse(path)
        methods = {
            id(fn)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        }
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
    return out


def _calls():
    """{called name: [(positional argument count, keyword names), ...]} over
    every call in the caller directories; starred arguments set nothing."""
    out = {}
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                npos = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    npos += 1
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                out.setdefault(name, []).append((npos, keywords))
    return out


def _unset_knobs():
    calls = _calls()
    unset = set()
    for name, knobs in _defaulted_parameters().items():
        for param, index in knobs:
            if not any(
                param in keywords or (index is not None and index < npos)
                for npos, keywords in calls.get(name, ())
            ):
                unset.add(f"{name}.{param}")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    unset = _unset_knobs()
    orphans = sorted(unset - ALLOWED.keys())
    assert not orphans, "defaulted parameters that no call sets: " + ", ".join(orphans)
    stale = sorted(ALLOWED.keys() - unset)
    assert not stale, "allowlisted knobs that a call now sets or that are gone: " + ", ".join(
        stale
    )
