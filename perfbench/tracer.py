"""Outside-in tracer: wraps the package's public functions from the benchmark.

Nothing inside ``lie_diffuse`` is edited.  Each traced function is replaced,
in every package namespace that holds it, by a wrapper that records a span
(name, start, end, parent span, job id).  Very frequent calls get count-only
wrappers.  Spans stay in memory; ``Tracer.dump`` writes them out at the end.

Pitfalls this handles:

* names imported by value (``from .harmonic import fourier_forward``) live
  in several module namespaces, so every namespace holding the same object
  is patched, and so are module-level dicts holding it (``evolve._STEPPERS``);
* ``lie_diffuse.evolve`` is the re-exported function, not the module, so
  modules are fetched with ``importlib.import_module``;
* ``Symbol.evaluator`` is a per-instance closure, counted by wrapping it on
  every symbol returned from ``build_operator_symbol``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("harmonic", "symbol", "wellposed", "evolve", "reduce", "cli")

# (module, attribute, span name) of every timed function.
TIMED = (
    ("harmonic", "fourier_forward", "harmonic.fourier_forward"),
    ("harmonic", "fourier_inverse", "harmonic.fourier_inverse"),
    ("harmonic", "plancherel_norm", "harmonic.plancherel_norm"),
    ("harmonic", "spectral_inner", "harmonic.spectral_inner"),
    ("symbol", "build_operator_symbol", "symbol.build_operator_symbol"),
    ("symbol", "invariant_apply", "symbol.invariant_apply"),
    ("symbol", "apply_spectral", "symbol.apply_spectral"),
    ("wellposed", "classify_problem", "wellposed.classify_problem"),
    ("wellposed", "strong_ellipticity_constant",
     "wellposed.strong_ellipticity_constant"),
    ("wellposed", "positivity_check", "wellposed.positivity_check"),
    ("evolve", "evolve", "evolve.evolve"),
    ("evolve", "step_rk4", "evolve.step_rk4"),
    ("evolve", "step_crank_nicolson", "evolve.step_crank_nicolson"),
    ("evolve", "sobolev_norm", "evolve.sobolev_norm"),
    ("evolve", "energy_identity_residual", "evolve.energy_identity_residual"),
    ("evolve", "energy_estimate_check", "evolve.energy_estimate_check"),
    ("reduce", "reduce_to_first_order", "reduce.reduce_to_first_order"),
    ("reduce", "solve_reduced", "reduce.solve_reduced"),
    ("reduce", "extract_u", "reduce.extract_u"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "_reduce_reference", "cli.reference"),
    ("cli", "save_field", "cli.artifacts"),
    ("cli", "_write_json", "cli.artifacts"),
    ("cli", "_write_trajectory_csv", "cli.artifacts"),
)

# Count-only wrapper for scipy's expm as the reduce module calls it (the
# evolve module imports the same function, and is left alone).
COUNTED = (("reduce", "expm", "reduce.expm"),)


def package_modules():
    return [importlib.import_module("lie_diffuse")] + [
        importlib.import_module(f"lie_diffuse.{m}") for m in MODULES]


class Tracer:
    """Spans and counters for one process; install once, then run jobs."""

    def __init__(self):
        self.spans: list[tuple] = []    # (id, name, start, end, parent, job)
        self.counts: Counter = Counter()
        self.scan_samples: Counter = Counter()   # job -> classifier samples
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def timed(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(result,
        args)`` runs after the span closes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, self.job)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ hooks

    def _count_evaluator(self, sym, args):
        sym.evaluator = self._counted("symbol.evaluator", sym.evaluator)

    def _count_scan(self, cls, args):
        """reps x times x x-nodes, summed over both reports' scans."""
        dual_enumerate = importlib.import_module("lie_diffuse.harmonic").dual_enumerate
        for rep in (cls.se_report, cls.positivity_report):
            if rep is not None:
                s = rep.scanned
                reps = len(dual_enumerate(args[0].group, s["scan_two_L"]))
                self.scan_samples[self.job] += reps * s["time_samples"] \
                    * s["x_samples"]

    # ------------------------------------------------------------ install

    def _replace(self, original, wrapper, modules=None) -> int:
        """Swap ``original`` for ``wrapper`` wherever the package holds it."""
        hits = 0
        for mod in modules or package_modules():
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._undo.append((space, key, original))
                    space[key] = wrapper
                    hits += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper
                            hits += 1
        return hits

    def install(self):
        hooks = {"symbol.build_operator_symbol": self._count_evaluator,
                 "wellposed.classify_problem": self._count_scan}
        for module, attr, name in TIMED:
            fn = getattr(importlib.import_module(f"lie_diffuse.{module}"), attr)
            if not self._replace(fn, self.timed(name, fn, hooks.get(name))):
                raise RuntimeError(f"nothing to trace for {module}.{attr}")
        for module, attr, name in COUNTED:
            mod = importlib.import_module(f"lie_diffuse.{module}")
            fn = getattr(mod, attr)
            if not self._replace(fn, self._counted(name, fn), [mod]):
                raise RuntimeError(f"nothing to count for {module}.{attr}")

    def uninstall(self):
        for space, key, original in reversed(self._undo):
            space[key] = original
        self._undo.clear()

    # ------------------------------------------------------------ results

    def layer_stats(self, jobs: list) -> dict[str, float]:
        """Per-job means of calls, total time and self time for each name,
        plus the Crank-Nicolson iterations per step."""
        n = len(jobs)
        keep = set(jobs)
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        by_id = {}
        for sid, name, start, end, parent, job in self.spans:
            if job in keep:
                by_id[sid] = name
                calls[name] += 1
                total[name] += end - start
        cn_children = 0
        for sid, name, start, end, parent, job in self.spans:
            if parent in by_id:
                child[parent] += end - start
                if by_id[parent] == "evolve.step_crank_nicolson" \
                        and name == "symbol.apply_spectral":
                    cn_children += 1
        self_time = defaultdict(float)
        for sid, name, start, end, parent, job in self.spans:
            if sid in by_id:
                self_time[name] += end - start - child[sid]
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.s"] = total[name] / n
            out[f"{name}.self_s"] = self_time[name] / n
        for (name, job), c in self.counts.items():
            if job in keep:
                out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + c / n
        cn = calls["evolve.step_crank_nicolson"]
        out["evolve.cn_iters_per_step"] = cn_children / cn - 1.0 if cn else 0.0
        out["wellposed.scan_samples"] = sum(
            self.scan_samples[j] for j in jobs) / n
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "job"],
                       "spans": self.spans,
                       "counts": [[k[0], k[1], v] for k, v in self.counts.items()]},
                      fh)

