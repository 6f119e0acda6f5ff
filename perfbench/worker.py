"""One benchmark process: import the package, run jobs of one workload.

Started by run.py, once per fresh process.  It times the package import and
the first (cold) job, then runs warm jobs until its time budget is spent
(at least one).
With --trace 1 it then installs the outside-in tracer and runs traced jobs.
Every job is checked after its timed region.  The last line of standard
output is one JSON record for run.py.

    PYTHONPATH=src python3 perfbench/worker.py --workload heat-exact \\
        --seed 1 --seconds 5 --trace 0 --workdir .perfbench_out/w
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _timed_job(wl, record, key, tracer=None):
    """Run one job, time it, check it outside the timed region.  A tracer
    tags the job's spans with the job's index."""
    wl.before_job()
    gc.collect()     # so no job pays for the garbage of the one before
    if tracer is not None:
        tracer.job = len(record[key])
    start = time.perf_counter()
    try:
        outcome, error = wl.job(), None
    except Exception as exc:     # a raising job is a failed job, not a crash
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if error is None:
        try:
            problems = wl.check(outcome)
        except Exception as exc:     # missing or unreadable outputs
            problems = [f"check: {type(exc).__name__}: {exc}"]
    else:
        problems = [error]
    record["attempted"] += 1
    if problems:
        record["failed"] += 1
        if len(record["problems"]) < 10:
            record["problems"].extend(problems)
    record[key].append(elapsed)
    return elapsed


def _run_for(wl, record, key, budget, tracer=None):
    """Jobs until the budget is spent (at least one), stopping early when
    half a job more would overrun it."""
    start = time.perf_counter()
    while True:
        last = _timed_job(wl, record, key, tracer)
        if time.perf_counter() - start + 0.5 * last >= budget:
            return


def _plan_cold(two_L, seed, repeats=3):
    """First inverse transform on a fresh grid minus a warm one (median)."""
    harmonic = importlib.import_module("lie_diffuse.harmonic")
    F = harmonic.random_field("su2", two_L, seed)
    diffs = []
    for _ in range(repeats):
        grid = harmonic.GridSpec("su2", two_L)
        t0 = time.perf_counter()
        harmonic.fourier_inverse(F, grid)
        t1 = time.perf_counter()
        harmonic.fourier_inverse(F, grid)
        t2 = time.perf_counter()
        diffs.append((t1 - t0) - (t2 - t1))
    return statistics.median(diffs)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _meta():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="budget for untraced warm jobs (and again for traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt-reference", action="store_true")
    args = p.parse_args(argv)

    start = time.perf_counter()
    importlib.import_module("lie_diffuse.cli")   # imports every module
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir), tiny=args.tiny,
                                  corrupt=args.corrupt_reference)
    record = {"import_s": import_s, "first_s": [], "warm_s": [], "traced_s": [],
              "attempted": 0, "failed": 0, "problems": [], "steps": wl.steps}
    _timed_job(wl, record, "first_s")
    _run_for(wl, record, "warm_s", args.seconds)

    if args.trace:
        from tracer import Tracer
        record["plan_cold_s"] = _plan_cold(wl.plan_two_L, args.seed)
        tracer = Tracer()
        tracer.install()
        wl.job = tracer.timed("job", wl.job)
        _run_for(wl, record, "traced_s", args.seconds, tracer)
        tracer.uninstall()
        record["layers"] = tracer.layer_stats(list(range(len(record["traced_s"]))))
        tracer.dump(Path(args.workdir).parent
                    / f"trace-{args.workload}-seed{args.seed}.json")

    record["hashes"] = wl.first_hashes
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["meta"] = _meta()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
