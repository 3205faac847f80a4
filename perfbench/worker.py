"""One pass of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --threads T --out DIR
                                [--trace | --setup-only]

run.py starts this and times set-up from the spawn: importing pexp (numpy,
scipy) and building the workload's inputs all happen here before the first
timed operation.  The pass writes DIR/result.json; with --trace it also
writes DIR/spans.jsonl.  With --setup-only it stops before the first
operation.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import pexp

    if os.path.dirname(os.path.abspath(pexp.__file__)) != os.path.join(SRC, "pexp"):
        print(f"pexp imported from {pexp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out, args.threads)
    if args.setup_only:
        t_first = time.monotonic()
        with open(os.path.join(args.out, "result.json"), "w") as fh:
            json.dump({"t_first": t_first}, fh)
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    cpu0 = time.process_time()
    t_first = time.monotonic()
    wl.run()
    t_last = time.monotonic()
    cpu_s = time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"t_first": t_first, "wall_s": t_last - t_first, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mib}
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["layers"] = tracer.layer_stats()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    outcome = wl.check()
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  outputs=outcome.outputs, problems=outcome.problems,
                  env=environment())
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
