"""Run every workload on several seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --out second.json \\
        --against perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-5 --workloads drift-rk4 --out d.json

For each workload and end-to-end metric it records the values, their median
and quartiles, and the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``).  It adds the per-layer metrics of
one traced run per workload, on the first seed.  It flags a spread above the
metric's bound (setup_s excepted), and with --against a median worse than
the earlier one by more than the bound.  The summary makes no performance
claim (``"claim": null``).  Exits 1 when anything is flagged or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    return proc.returncode, json.loads(lines[-1]), meta


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--out", required=True)
    p.add_argument("--against", help="an earlier summary to compare medians with")
    p.add_argument("--workloads", help="comma-separated names (default: all)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(x) for x in args.seeds.split("-"))
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    summary = {"claim": None, "seeds": args.seeds,
               "run_seconds": spec["run_seconds"], "workloads": {}, "layers": {}}
    flags = []
    names = [w["name"] for w in spec["workloads"]]
    for name in args.workloads.split(",") if args.workloads else names:
        if name not in names:
            raise SystemExit(f"unknown workload {name}")
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(lo, hi + 1):
            code, res, meta = run_once(name, seed, spec["run_seconds"])
            if code != 0 or not res["correct"]:
                flags.append(f"{name} seed {seed}: exit {code}, "
                             f"{res['failed']} of {res['attempted']} jobs failed")
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary["meta"] = {k: meta[k] for k in ("cpu", "nproc", "python", "numpy",
                                                "scipy", "blas", "blas_threads")}
        code, res, _ = run_once(name, lo, spec["run_seconds"], trace=1)
        if code != 0 or not res["correct"]:
            flags.append(f"{name} traced run: exit {code}, "
                         f"{res['failed']} of {res['attempted']} jobs failed")
        summary["layers"][name] = {
            k: v["value"] for k, v in res["metrics"].items()}
        rows = summary["workloads"][name] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            row = rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med,
                                     "bound": m["bound"], "values": v}
            if m["name"] != "setup_s" and row["spread"] > m["bound"]:
                flags.append(f"{name} {m['name']}: spread {row['spread']:.3f} "
                             f"over bound {m['bound']}")
            if earlier:
                before = earlier["workloads"][name][m["name"]]["median"]
                row["vs_earlier"] = med / before - 1.0
                if row["vs_earlier"] > m["bound"]:
                    flags.append(f"{name} {m['name']}: median {med:.4g} worse "
                                 f"than {before:.4g} by more than {m['bound']}")
            print(f"  {m['name']}: median {med:.4g} spread {row['spread']:.3f}"
                  + (f" vs earlier {row['vs_earlier']:+.3f}" if earlier else ""))
    summary["flags"] = flags
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
