"""Benchmark of evomarket: one workload per process, timed or traced.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the program's layers are wrapped (``tracing.py``) and the metrics are the
per-layer ones.  Times are scaled by a reference kernel timed beside
them (``reference.py``).  Full results, and the spans of a traced run,
go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3

# One BLAS/OpenMP thread per core at most, fixed before numpy loads;
# set-up probes inherit it.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import reference  # noqa: E402  (loads numpy, so after the thread settings)


def import_program():
    """Import evomarket from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import evomarket

    if Path(evomarket.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"evomarket came from {evomarket.__file__}, not from {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args):
    """Seconds from a fresh process's start until its inputs are ready."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_rounds(workload, seconds, tracer):
    """Whole rounds until ``seconds`` have passed.

    A round's time is the sum of its operations' times, checks left out.
    The workload's reference kernel is timed before every operation and
    after the last, and the round's times are multiplied by the median
    of those scales.  Returns the round times and the operation times by
    kind, each as ``{"raw": ..., "scaled": ...}``, the scale of each
    round, the number of failed operations and a count of each distinct
    failure message.
    """
    times = {"raw": {}, "scaled": {}}
    round_times = {"raw": [], "scaled": []}
    scales, failures, failed = [], Counter(), 0
    op = tracer.op if tracer else (lambda kind: contextlib.nullcontext())
    start = time.perf_counter()
    while not scales or time.perf_counter() - start < seconds:
        round_scales, elapsed_by_op = [], []
        for kind, call, check in workload.ops(len(scales)):
            round_scales.append(reference.scale(workload.reference))
            t0 = time.perf_counter()
            try:
                with op(kind):
                    output = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = time.perf_counter() - t0
                problems = [f"{kind} raised {type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - t0
                problems = check(output)
            elapsed_by_op.append((kind, elapsed))
            if problems:
                failed += 1
                failures[problems[0]] += 1
        round_scales.append(reference.scale(workload.reference))
        scales.append(statistics.median(round_scales))
        for key, scale in (("raw", 1.0), ("scaled", scales[-1])):
            for kind, elapsed in elapsed_by_op:
                times[key].setdefault(kind, []).append(elapsed * scale)
            round_times[key].append(sum(e for _, e in elapsed_by_op) * scale)
    return round_times, times, scales, failed, failures


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import selfcheck
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = OUT / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, scratch)
            print("ready", flush=True)
            return 0
        selfcheck.run_all()
        setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracing.install(tracer)
        setup_start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, scratch)
        own_setup = time.perf_counter() - setup_start
        # the program's own progress lines and warnings would bury the result line
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            round_times, times, scales, failed, failures = run_rounds(
                workload, args.seconds, tracer)
        run_problems = workload.finish()
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(v) for v in times["raw"].values())
    op_counts = {kind: len(v) for kind, v in times["raw"].items()}
    run_s = {key: statistics.median(v) for key, v in round_times.items()}
    op_median_s = {
        key: {kind: statistics.median(v) for kind, v in by_kind.items()}
        for key, by_kind in times.items()
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer, op_counts)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s["scaled"], "unit": "s"},
            "op_s": {"value": op_median_s["scaled"][workload.primary], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": THREADS,
        "rounds": len(scales),
        "operations": op_counts,
        "reference": workload.reference,
        "scales": scales,
        "run_s": run_s,
        "op_median_s": op_median_s,
        "setup_probes_s": setups,
        "in_process_setup_s": own_setup,
        "failures": dict(failures),
        "run_problems": run_problems,
        "wall_s": time.perf_counter() - START,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    for problem, count in sorted(failures.items()):
        print(f"perfbench: {count} x {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"perfbench: run check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
