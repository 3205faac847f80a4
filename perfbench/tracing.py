"""Out-of-program tracing for the per-layer metrics.

``Tracer.install`` wraps named functions of pexp at the place each caller
looks the name up: every pexp module global bound to the function (``models``
imports ``evaluate_function`` by name, so its own global is wrapped too), or
the class attribute for a method (``WaveletBasis.gather``).  Each call records
one span: name, start, end, parent, operation id, the calling thread's CPU
time and named counts.  Spans stay in memory until ``write``.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict

WN, DE, RATE, INEQ = "wn-sweep", "de-sweep", "rate-solve", "inequalities"

# Span name -> (workloads whose traced run must call it, reported stats).  The
# workloads are those on which the span's metrics should move an end-to-end
# metric; a wrapper installed under a name nobody looks up would read zero.
LAYERS = {
    "cli.main": ({WN, DE, INEQ}, ("calls", "self_s")),
    "experiments.run_contraction": ({WN, DE}, ("self_s",)),
    "experiments.write_outputs": ({WN, DE}, ("busy_s", "bytes")),
    "experiments.run_inequalities": ({INEQ}, ("self_s",)),
    "models.wn_simulate": ({WN}, ("busy_s",)),
    "models.wn_posterior_sample": ({WN}, ("calls", "busy_s", "wait_s", "ns_per_coord_draw")),
    "models.wn_error_radii": ({WN}, ("busy_s",)),
    "models.de_simulate": ({DE}, ("busy_s",)),
    "models.de_posterior_mcmc": ({DE}, ("calls", "busy_s", "wait_s", "accept_ratio")),
    "models.de_density": ({DE}, ("calls", "busy_s")),
    "models.hellinger": ({DE}, ("busy_s",)),
    "measure.evaluate_function": ({DE}, ("calls", "busy_s")),
    "measure.WaveletBasis.gather": ({DE}, ("calls", "busy_s")),
    "measure.WaveletBasis.evaluation_matrix": ({RATE}, ("calls", "busy_s")),
    "measure.anderson_check": ({INEQ}, ("calls", "busy_s", "self_s")),
    "measure.decentering_check": ({INEQ}, ("calls", "busy_s", "self_s")),
    "concentration.rate_solve_numeric": ({RATE}, ("calls", "busy_s", "self_s")),
    "concentration.concentration_fn": ({RATE}, ("calls",)),
    "concentration.inf_term_exact": ({RATE}, ("calls", "busy_s")),
    "concentration.smallball_mc.l2": ({RATE}, ("calls", "busy_s", "draws_per_s")),
    "concentration.smallball_mc.sup": ({RATE}, ("calls", "busy_s", "draws_per_s")),
    "univariate.sample": ({INEQ}, ("calls", "busy_s", "draws_per_s")),
    "univariate.cdf": ({INEQ}, ("calls", "busy_s")),
    "univariate.pdf": ({INEQ}, ("calls", "busy_s")),
    "sequences.ScalingSpec.gamma": ({RATE, INEQ}, ("calls", "busy_s")),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "wait_s": "s", "bytes": "bytes",
         "draws_per_s": "1/s", "ns_per_coord_draw": "ns", "accept_ratio": "ratio"}


def _draws(size) -> int:
    return math.prod(size) if isinstance(size, tuple) else (1 if size is None else int(size))


def _output_bytes(args, result) -> dict:
    out = args["out_dir"]
    names = ("results.csv", "summary.json", "plotdata.csv")
    return {"bytes": sum(os.path.getsize(os.path.join(out, f)) for f in names)}


def _accepted(args, chain) -> dict:
    attempted = args["cfg"].draws * args["cfg"].thin * (args["m"].spec.levels + 1)
    return {"accepted": round(chain.acceptance_rate * attempted), "attempted": attempted}


# (module, name) -> (span-name suffix from the bound arguments, counts from
# the bound arguments and the result).  The cell functions are wrapped so
# each cell has one root span; they report no metric of their own.
TARGETS = {
    ("cli", "main"): None,
    ("experiments", "run_contraction"): None,
    ("experiments", "_wn_cell"): None,
    ("experiments", "_de_cell"): None,
    ("experiments", "write_outputs"): (None, _output_bytes),
    ("experiments", "run_inequalities"): None,
    ("models", "wn_simulate"): None,
    ("models", "wn_posterior_sample"): (
        None, lambda a, r: {"coord_draws": a["draws"] * len(a["data"].y)}),
    ("models", "wn_error_radii"): None,
    ("models", "de_simulate"): None,
    ("models", "de_posterior_mcmc"): (None, _accepted),
    ("models", "de_density"): None,
    ("models", "hellinger"): None,
    ("measure", "evaluate_function"): None,
    ("measure", "WaveletBasis.gather"): None,
    ("measure", "WaveletBasis.evaluation_matrix"): None,
    ("measure", "anderson_check"): None,
    ("measure", "decentering_check"): None,
    ("concentration", "rate_solve_numeric"): None,
    ("concentration", "concentration_fn"): None,
    ("concentration", "inf_term_exact"): None,
    ("concentration", "smallball_mc"): (
        lambda a: a["norm"], lambda a, r: {"draws": a["samples"] * a["m"].spec.size}),
    ("univariate", "sample"): (None, lambda a, r: {"draws": _draws(a["size"])}),
    ("univariate", "cdf"): None,
    ("univariate", "pdf"): None,
    ("sequences", "ScalingSpec.gamma"): None,
}
# Children of these spans start a new operation (a cell, a battery row); the
# pool threads of run_contraction take its span as their parent.
CONTAINERS = ("experiments.run_contraction", "experiments.run_inequalities")
POOL_OWNER = "experiments.run_contraction"


class _Span:
    __slots__ = ("id", "name", "parent", "op", "t0", "t1", "cpu", "counts")

    def __init__(self, id_, name, parent, op, t0, cpu0):
        self.id, self.name, self.parent, self.op = id_, name, parent, op
        # cpu holds the thread CPU clock at open and the CPU time spent once closed
        self.t0, self.cpu, self.t1, self.counts = t0, cpu0, None, None


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._pool_parent: _Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for mod_name, _ in TARGETS:
            importlib.import_module(f"pexp.{mod_name}")
        pexp_modules = [m for n, m in list(sys.modules.items())
                        if n == "pexp" or n.startswith("pexp.")]
        for (mod_name, qualname), hooks in TARGETS.items():
            module = sys.modules[f"pexp.{mod_name}"]
            owner_name, _, attr = qualname.rpartition(".")
            span_name = f"{mod_name}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, span_name, hooks))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, hooks)
            for mod in pexp_modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when each holds its original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return all(vars(owner).get(attr) is original for owner, attr, original in self._patches)

    def _wrap(self, original, span_name, hooks):
        variant, count = hooks if hooks else (None, None)
        sig = inspect.signature(original) if hooks else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, bound = span_name, None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if variant is not None:
                    name = f"{span_name}.{variant(bound.arguments)}"
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.counts = count(bound.arguments, result)
            return result

        return wrapper

    # -- spans -----------------------------------------------------------
    def _open(self, name) -> _Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._pool_parent
        if parent is None or parent.name in CONTAINERS:
            op = next(self._ops)
        else:
            op = parent.op
        span = _Span(next(self._ids), name, parent.id if parent else None, op,
                     time.perf_counter(), time.thread_time())
        stack.append(span)
        if name == POOL_OWNER:
            self._pool_parent = span
        return span

    def _close(self, span) -> None:
        span.t1 = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._local.stack.pop()
        if span is self._pool_parent:
            self._pool_parent = None
        self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "op": s.op, "start": s.t0, "end": s.t1,
                                     "thread_cpu_s": s.cpu, "counts": s.counts}) + "\n")

    # -- aggregation -----------------------------------------------------
    def layer_stats(self) -> dict:
        """Per span name: calls, busy_s, self_s, wait_s and summed counts."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.t0, s.t1))
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "wait_s": 0.0, "counts": Counter()})
        for s in self.spans:
            busy = s.t1 - s.t0
            st = stats[s.name]
            st["calls"] += 1
            st["busy_s"] += busy
            st["self_s"] += busy - _covered(children.get(s.id, ()), s.t0, s.t1)
            st["wait_s"] += busy - s.cpu
            if s.counts:
                st["counts"].update(s.counts)
        return {name: dict(st, counts=dict(st["counts"])) for name, st in stats.items()}


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]; children in
    pool threads overlap one another."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values from ``Tracer.layer_stats`` output (0 when the
    span never ran on this workload)."""
    out = {}
    for span, (_, wanted) in LAYERS.items():
        st = stats.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0,
                              "counts": {}})
        c, busy = st["counts"], st["busy_s"]
        for stat in wanted:
            if stat in ("calls", "busy_s", "self_s", "wait_s"):
                value = st[stat]
            elif stat == "bytes":
                value = c.get("bytes", 0)
            elif stat == "draws_per_s":
                value = c.get("draws", 0) / busy if busy > 0 else 0.0
            elif stat == "ns_per_coord_draw":
                value = busy * 1e9 / c["coord_draws"] if c.get("coord_draws") else 0.0
            else:  # accept_ratio
                value = c["accepted"] / c["attempted"] if c.get("attempted") else 0.0
            out[f"{span}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    return out


def missing_calls(stats: dict, workload: str) -> list[str]:
    """Spans that must run on this workload but recorded no call."""
    return [span for span, (must, _) in LAYERS.items()
            if workload in must and stats.get(span, {}).get("calls", 0) == 0]
