"""Self-test of the benchmark at tiny sizes (two_L about 4, a few steps).

    python3 perfbench/selftest.py

Checks that
* every end-to-end and per-layer metric in BENCHMARK.json is emitted, with
  its unit, by an untraced and a traced run of every workload;
* each layer's metrics are nonzero on the workloads where that layer runs,
  and every per-layer metric is nonzero on some workload, so the tracer
  really wraps the functions the package calls;
* a deliberately corrupted reference makes every job fail, so the
  correctness gate behind failed_frac is live;
* without the package next to it the benchmark exits nonzero and prints no
  result.
Exits 0 when all hold, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on a workload (the layer runs there).
NONZERO = {
    "heat-exact": ["harmonic.plancherel_norm.calls", "harmonic.spectral_inner.s",
                   "symbol.evaluator.calls", "symbol.invariant_apply.calls",
                   "wellposed.classify_problem.s", "wellposed.scan_samples",
                   "evolve.evolve.self_s", "evolve.sobolev_norm.calls",
                   "evolve.energy_identity_residual.s",
                   "evolve.energy_estimate_check.s", "cli.run_command.s",
                   "cli.artifacts_s", "symbol.build_operator_symbol.s"],
    "drift-rk4": ["evolve.step_rk4.calls", "evolve.step_rk4.s",
                  "evolve.rk4_substeps_per_step", "symbol.invariant_apply.s",
                  "wellposed.positivity_check.s", "symbol.evaluator.calls"],
    "varcoef-cn": ["harmonic.fourier_forward.calls", "harmonic.fourier_inverse.s",
                   "symbol.apply_spectral.calls", "symbol.apply_spectral.self_s",
                   "evolve.step_crank_nicolson.calls", "evolve.cn_iters_per_step",
                   "wellposed.strong_ellipticity_constant.s",
                   "wellposed.positivity_check.s", "symbol.evaluator.calls"],
    "wave-reduce": ["reduce.reduce_to_first_order.s", "reduce.solve_reduced.s",
                    "reduce.extract_u.s", "reduce.expm.calls", "cli.reference_s",
                    "cli.artifacts_s", "symbol.evaluator.calls"],
}
# Layers that must not run on a workload.
ZERO = {
    "heat-exact": ["harmonic.fourier_forward.calls", "harmonic.fourier_inverse.calls",
                   "evolve.step_rk4.calls", "evolve.step_crank_nicolson.calls"],
    "drift-rk4": ["harmonic.fourier_forward.calls", "symbol.apply_spectral.calls"],
    "varcoef-cn": ["symbol.invariant_apply.calls", "cli.run_command.s"],
    "wave-reduce": ["evolve.step_rk4.calls", "evolve.sobolev_norm.calls"],
}


def run(workload, *extra, cwd=ROOT, trace=0):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, spec_key):
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{spec_key} mismatch: {set(got) ^ set(want)}"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), k


def main():
    failures = []
    traced = {}

    def step(label, fn, *args):
        try:
            fn(*args)
            print(f"ok   {label}")
        except AssertionError as exc:
            failures.append(f"{label}: {exc}")
            print(f"FAIL {label}: {exc}")

    for w in SPEC["workloads"]:
        name = w["name"]
        step(f"{name} untraced",
             lambda: check_metrics(result(run(name)), "end_to_end"))
        step(f"{name} traced", check_traced, name, traced)
        step(f"{name} corrupted reference", check_corrupt, name)
    step("every per-layer metric nonzero somewhere", check_coverage, traced)
    step("no package: exits nonzero without a result", check_bare)
    return 1 if failures else 0


def check_traced(name, traced):
    res = result(run(name, trace=1))
    assert res["correct"] and res["failed"] == 0, res
    check_metrics(res, "per_layer")
    values = traced[name] = {k: v["value"] for k, v in res["metrics"].items()}
    for k in NONZERO[name]:
        assert values[k] > 0, f"{k} is {values[k]}, expected > 0"
    for k in ZERO[name]:
        assert values[k] == 0, f"{k} is {values[k]}, expected 0"


def check_coverage(traced):
    """A misspelt metric name would read 0 on every workload."""
    assert len(traced) == len(SPEC["workloads"]), "a traced run failed"
    dead = [m["name"] for m in SPEC["per_layer"]
            if not any(v[m["name"]] != 0 for v in traced.values())]
    assert not dead, f"zero on every workload: {dead}"


def check_corrupt(name):
    res = result(run(name, "--corrupt-reference"))
    assert not res["correct"], "corrupted reference passed"
    assert res["failed"] == res["attempted"] > 0, res


def check_bare():
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("heat-exact", cwd=bare)
        assert proc.returncode != 0, "exit code 0"
        assert '"correct"' not in proc.stdout, "printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
