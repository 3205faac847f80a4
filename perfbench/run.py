"""pexp benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pexp checkout; the program is imported from ./src.
Every pass runs in a fresh worker process (perfbench/worker.py), so each pass
pays the set-up a `pexp` user pays on every call.

--trace 0  runs passes until about S seconds are used (at least two), then
           set-up-only workers until there are five set-up samples, and
           reports the medians of setup_s, wall_s and peak_rss_mb and
           success_rate = 1 - error_rate over all operations.
--trace 1  runs one untraced pass, the same pass traced and, for the
           thread-pool workloads, the same pass traced on one thread, and
           reports the per-layer metrics of the traced pass.

The last line of standard output is the JSON result.  Outputs and span files
go to ./.perfbench-out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import tracing  # noqa: E402  (stdlib only; pexp is imported by the workers)

WORKLOADS = ("wn-sweep", "de-sweep", "rate-solve", "inequalities")
POOL_WORKLOADS = ("wn-sweep", "de-sweep")  # run through experiments' thread pool
MIN_PASSES = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def pass_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"pexp-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def source_sha256() -> str:
    """Hash of the pexp sources (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "pexp")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, out_root: str, threads: int, started: float):
        self.workload = workload
        self.out = os.path.join(out_root, workload)
        self.threads = threads
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "PEXP_THREADS"}
        self.count = 0

    def run_pass(self, seed: int, trace: bool = False, threads: int | None = None,
                 setup_only: bool = False) -> dict:
        self.count += 1
        pass_dir = os.path.join(self.out, f"pass{self.count}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        os.makedirs(pass_dir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--threads", str(threads or self.threads),
               "--out", pass_dir]
        cmd += ["--trace"] if trace else ["--setup-only"] if setup_only else []
        timeout = max(DEADLINE_S - (time.monotonic() - self.started), 1.0)
        log_path = os.path.join(pass_dir, "worker.log")
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"pass {self.count} exceeded the {DEADLINE_S:.0f} s deadline")
        result_path = os.path.join(pass_dir, "result.json")
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["setup_s"] = res["t_first"] - t_spawn
        spans = os.path.join(pass_dir, "spans.jsonl")
        if os.path.exists(spans):
            suffix = "" if threads is None else f"-{threads}thread"
            os.replace(spans, os.path.join(self.out, f"trace{suffix}.jsonl"))
        shutil.rmtree(pass_dir)
        return res


def measure(runner: Runner, seed: int, seconds: float):
    """Passes until the next one would end after `seconds` (at least MIN_PASSES),
    then set-up-only workers up to SETUP_SAMPLES set-ups."""
    passes = []
    while True:
        passes.append(runner.run_pass(pass_seed(seed, len(passes))))
        elapsed = time.monotonic() - runner.started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.run_pass(pass_seed(seed, len(setups)), setup_only=True)["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    return passes, metrics, []


def traced(runner: Runner, seed: int):
    """Untraced, traced and (thread-pool workloads) serial traced pass of one seed."""
    s = pass_seed(seed, 0)
    base = runner.run_pass(s)
    tr = runner.run_pass(s, trace=True)
    passes, problems = [base, tr], []
    if tr["outputs"] != base["outputs"]:
        problems.append("traced outputs differ from the untraced pass")
        tr["failed"] = tr["attempted"]
    pool = runner.workload in POOL_WORKLOADS
    speedup = 0.0
    if pool:
        serial = runner.run_pass(s, trace=True, threads=1)
        passes.append(serial)
        if serial["outputs"] != tr["outputs"]:
            problems.append(f"results.csv differs between 1 and {runner.threads} threads")
            serial["failed"] = serial["attempted"]
        speedup = serial["wall_s"] / tr["wall_s"]
    for p in (tr, *passes[2:]):
        if not p["restored"]:
            problems.append("a wrapper was not removed after the traced pass")
    missing = tracing.missing_calls(tr["layers"], runner.workload)
    if missing:
        problems.append(f"no calls recorded for {missing}")
    metrics = {k: (v["value"], v["unit"]) for k, v in tracing.layer_metrics(tr["layers"]).items()}
    metrics["experiments.thread_speedup"] = (speedup, "ratio")
    used = runner.threads if pool else 1
    metrics["experiments.cpu_util"] = (tr["cpu_s"] / (tr["wall_s"] * used), "ratio")
    metrics["trace_overhead"] = (tr["wall_s"] / base["wall_s"] - 1.0, "ratio")
    return passes, metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "pexp", "__init__.py")):
        print(f"no pexp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    threads = min(2, len(os.sched_getaffinity(0)))
    runner = Runner(args.workload, os.path.join(ROOT, ".perfbench-out"), threads, started)
    try:
        if args.trace:
            passes, metrics, problems = traced(runner, args.seed)
        else:
            passes, metrics, problems = measure(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems.extend(p["problems"])
    error_rate = failed / attempted
    if not args.trace:
        metrics["success_rate"] = (1.0 - error_rate, "ratio")
    env = dict(passes[0]["env"], threads=threads, pexp_source_sha256=source_sha256())
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"operations={attempted} failed={failed}")
    print(f"# per pass: setup_s {[round(p['setup_s'], 4) for p in passes]} "
          f"wall_s {[round(p['wall_s'], 4) for p in passes]}")
    for name, (value, unit) in [("error_rate", (error_rate, "ratio")), *metrics.items()]:
        print(f"{name:48s} {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
