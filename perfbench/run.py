"""The repository's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload predict-http --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, timed at the caller with
no wrappers installed.  ``--trace 1`` first repeats that untraced pass,
then installs span wrappers around the public calls of the runtime
packages and runs a traced pass; it prints the per-layer metrics, the
traced pass's own end-to-end numbers and the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: One BLAS thread: the box has two cores and the program runs two to
#: three threads of its own (OpenBLAS would otherwise start two more).
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("predict-http", "stream-durable",
                                 "train-distill"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"),
                        default="bench",
                        help="'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # Inputs come from the seed alone: no cache may leak between runs.
    for var in ("REPRO_CACHE", "REPRO_EMBED_CACHE", "REPRO_FULL"):
        os.environ.pop(var, None)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import common, metrics

    workload = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_"))
    size = common.SIZES[args.size]
    workdir = os.path.join(
        ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # The last traced run of each workload leaves its spans here.
    spans_path = os.path.join(ROOT, ".perfbench", "spans",
                              f"{args.workload}.jsonl")
    gemm_before = common.ref_gemm_ms()
    started = time.perf_counter()
    try:
        outcome = workload.run(
            ROOT, workdir, args.seed, args.seconds, size, bool(args.trace),
            spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gemm_after = common.ref_gemm_ms()

    correct = all(ok for _, ok, _ in outcome["checks"])
    for name, ok, detail in outcome["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("controls " + json.dumps({
        "fresh_process": os.getpid(), "blas_threads": BLAS_THREADS,
        "warmup_s": size.warmup_s,
        "machine.ref_gemm_ms": [round(gemm_before, 3),
                                round(gemm_after, 3)],
        "wall_s": round(time.perf_counter() - started, 2),
        **outcome["notes"]}))
    print("end_to_end " + json.dumps(
        metrics.report(outcome["e2e"], metrics.end_to_end_names())))
    if args.trace:
        values = dict(outcome["layers"])
        values["machine.ref_gemm_ms_before"] = gemm_before
        values["machine.ref_gemm_ms_after"] = gemm_after
        reported = metrics.report(values, metrics.per_layer_names())
    else:
        reported = metrics.report(outcome["e2e"],
                                  metrics.end_to_end_names())
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
