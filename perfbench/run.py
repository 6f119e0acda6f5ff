"""Benchmark for lie-diffuse: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload heat-exact --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` three fresh processes run one after another,
each timing its import and first (cold) job and then warm jobs for a third
of ``--seconds``, and the end-to-end metrics are printed.  With ``--trace 1``
one process runs untraced warm jobs, then the same jobs under the
outside-in tracer, and the per-layer metrics are printed.  Human-readable
lines come first; the last line of standard output is the JSON result.  See
README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes per untraced run; setup_s is the median over them.
PROCESSES = 3
# A whole run, all its processes included, ends within this many seconds.
RUN_TIMEOUT_S = 170

# Thread-count variables fixed for every worker.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics whose name differs from the tracer's stat.
RENAMED = {"cli.reference_s": "cli.reference.s", "cli.artifacts_s": "cli.artifacts.s"}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_worker(args, workdir, seconds, trace, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # One BLAS thread: a second one waits on a vCPU that a neighbour on a
    # shared host may hold, which slowed BLAS-heavy jobs and widened their
    # run-to-run spread.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{k: "1" for k in BLAS_THREAD_VARS})
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=deadline - time.monotonic(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} overran the run's "
                         f"{RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with "
                         f"{proc.returncode} and no result")
    return json.loads(lines[-1])


def end_to_end(records, spec):
    warm = [t for r in records for t in r["warm_s"]]
    solve = statistics.median(warm)
    # The cold start of a one-shot call.  Subtracting a warm job, as a
    # measure of set-up alone, leaves a small difference of two times that
    # each wander by +-15 % on a shared host: it read -0.14 to 1.54 s per
    # process for a quantity near 0.5 s.  It is printed, not bounded.
    colds = [r["import_s"] + r["first_s"][0] for r in records]
    per_process = ", ".join(f"{c:.3f}" for c in colds)
    minus_solve = ", ".join(f"{c - solve:.3f}" for c in colds)
    info = {"solve_s": f"n={len(warm)}",
            "solve_s_tail": f"p75 of n={len(warm)}",
            "setup_s": f"per process: {per_process}; minus solve_s: {minus_solve}",
            "peak_rss_mb": f"median of {len(records)} processes"}
    values = {
        "solve_s": solve,
        # Ten samples beyond a percentile at or above the median need twenty
        # warm jobs, more than a run holds for three of the four workloads;
        # the maximum of a run swung with single host stalls.
        "solve_s_tail": statistics.quantiles(warm, n=4, method="inclusive")[2],
        "setup_s": statistics.median(colds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}, info


def per_layer(record, spec):
    """Metrics named in BENCHMARK.json; a layer that did not run reads 0."""
    values = dict(record["layers"])
    for new, old in RENAMED.items():
        values[new] = values.get(old, 0.0)
    values["evolve.rk4_substeps_per_step"] = \
        values.get("evolve.step_rk4.calls", 0.0) / record["steps"]
    values["harmonic.plan_cold_s"] = record["plan_cold_s"]
    values["trace.overhead_s"] = \
        statistics.median(record["traced_s"]) - statistics.median(record["warm_s"])
    info = {"trace.overhead_s": f"traced n={len(record['traced_s'])}, "
                                f"untraced n={len(record['warm_s'])}"}
    return {m["name"]: (values.get(m["name"], 0.0), m["unit"])
            for m in spec["per_layer"]}, info


def main(argv=None):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="warm measuring time, split over the processes "
                        "(traced: half untraced, half traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (two_L about 4, a few steps)")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="self-test: perturb the reference so every job fails")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lie_diffuse" / "__init__.py").is_file():
        print(f"no lie_diffuse package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out"
    workdir = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            records = [run_worker(args, workdir, args.seconds / 2, 1, deadline)]
            metrics, info = per_layer(records[0], spec)
        else:
            records = [run_worker(args, workdir / str(i), args.seconds / PROCESSES,
                                  0, deadline) for i in range(PROCESSES)]
            metrics, info = end_to_end(records, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # Repeats in other processes must give the same bytes as the first.
    failed += sum(r["attempted"] - r["failed"] for r in records[1:]
                  if r["hashes"] != records[0]["hashes"])
    meta = dict(records[0]["meta"], nproc=len(os.sched_getaffinity(0)),
                cpu=cpu_model(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, processes=len(records))
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in sorted({q for r in records for q in r["problems"]}):
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}"
              + (f"  ({info[name]})" if name in info else ""))
    print(f"{args.workload} failed_frac = {failed / attempted:.6g}  "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
