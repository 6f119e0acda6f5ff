"""Run a fixed set of CLI configs against two source trees and compare.

    python tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories (for example a checkout of the
parent commit and this tree).  Each config runs once per tree in a fresh
process with ``PYTHONPATH`` pointed at that tree.  Configs of the command
``library`` run LIBRARY instead of the CLI: the CLI grammar has no spatial
coefficients or time profiles, so only the library reaches the
x-dependent steppers.  For every config the
script prints the two exit codes and, per artifact, whether the bytes match
and the largest relative difference between corresponding numbers.  For a
JSON artifact whose bytes differ it then prints each differing JSON path
with its old and new value (at most MAX_PATHS of them, then a count), e.g.
``classification.strong_ellipticity.tail: "scan-limited" -> "conclusive"``.
The exit status is 1 when any exit code or artifact differs, else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REDUCE = {"time_order": 2, "coefficients": ["-0.2*laplace^1/2", "-1*laplace"],
          "data": ["random 1", "random 2"], "forcing": "random 3",
          "two_L": 6, "dt": 0.01}

# The varcoef-cn symbol -c(x) p(t) laplace^1/2 + 0.2*iX3 of perfbench, with
# c = 1 + 0.3 Re(random field at two_L=4, seed 5) max-normalised and
# p(t) = 1 + 0.5 sin 3t (p = 1 without the profile, a t-independent symbol
# whose x-average Symbol.matrix caches), stepped from a random u0 at
# two_L=10 to T=1 with dt=0.05; the forcing, when asked for, is (1 + t)
# times a random field.  Writes the final state and the energy report to
# the output directory.
LIBRARY = """
import json, math, sys
from pathlib import Path
import numpy as np
from lie_diffuse.harmonic import (GridField, fourier_inverse, quadrature_grid,
                                  random_field, save_field)
from lie_diffuse.symbol import OperatorSpec, OperatorTerm, build_operator_symbol
from lie_diffuse.evolve import EvolutionProblem, evolve

cfg = json.loads(Path(sys.argv[1]).read_text())
out = Path(sys.argv[2])
grid = quadrature_grid("su2", 4)
r = fourier_inverse(random_field("su2", 4, 5), grid).values.real
c = GridField(grid, 1.0 + 0.3 * r / np.abs(r).max())
sym = build_operator_symbol(OperatorSpec("su2", 4, [
    OperatorTerm("laplace", exponent=0.5, const=-1.0, space=c,
                 profile=(lambda t: 1.0 + 0.5 * math.sin(3.0 * t))
                 if cfg["profile"] else None),
    OperatorTerm("iX3", const=0.2)]))
f = random_field("su2", 10, 6)
forcing = (lambda t: (1.0 + t) * f) if cfg["forcing"] else None
traj, report = evolve(EvolutionProblem(sym, random_field("su2", 10, 5), forcing,
                                       T=1.0, s=0.5), scheme=cfg["scheme"], dt=0.05)
out.mkdir()
save_field(out / "state_final.json", traj[-1])
(out / "report.json").write_text(json.dumps(report.to_json_dict(), sort_keys=True))
"""

# (name, command, config)
CONFIGS = [
    ("heat-exact", "evolve",
     {"operator": "-1*bessel^2", "two_L": 8, "u0": "random 3", "dt": 0.01,
      "s": 1.0}),
    ("dense-exact-forced", "evolve",
     {"operator": "-1*laplace^1/2 + 0.3*X1", "two_L": 6, "u0": "random 4",
      "forcing": "random 5", "dt": 0.02, "scheme": "exact"}),
    ("drift-rk4-forced", "evolve",
     {"operator": "-1*laplace^1/2 + 1*iX3 + 0.3*X1", "two_L": 6,
      "u0": "random 5", "forcing": "random 6", "dt": 0.01, "scheme": "rk4",
      "s": 0.5}),
    ("ladder-rk4", "evolve",
     {"operator": "-1*laplace^1/2 + 0.2*d+ + 0.1*d-", "two_L": 6,
      "u0": "random 14", "forcing": "random 15", "dt": 0.01, "scheme": "rk4",
      "s": 0.5}),
    ("rk4-substeps", "evolve",
     {"operator": "-1*laplace - 1*id", "two_L": 8, "u0": "random 7",
      "dt": 0.25, "scheme": "rk4"}),
    ("cn-diagonal", "evolve",
     {"operator": "-1*bessel^3/2 + 0.5*iX3", "two_L": 6, "u0": "random 8",
      "dt": 0.05, "scheme": "cn", "s": 1.0}),
    ("cn-dense", "evolve",
     {"operator": "-1*laplace^1/2 + 0.5*X2", "two_L": 6, "u0": "random 9",
      "forcing": "random 10", "dt": 0.05, "scheme": "cn"}),
    ("subelliptic", "evolve",
     {"operator": "-1*sublaplace - 1*id", "two_L": 6, "u0": "random 11",
      "dt": 0.02, "s": 0.5, "kind": "subelliptic",
      "weight_kind": "subelliptic"}),
    ("negative-s-forced", "evolve",
     {"operator": "-1*bessel^1", "two_L": 6, "u0": "random 16",
      "forcing": "random 17", "dt": 0.02, "scheme": "exact", "s": -1.0}),
    ("subelliptic-skew-forced", "evolve",
     {"operator": "-1*sublaplace - 1*id + 1*X3", "two_L": 6, "u0": "random 18",
      "forcing": "random 19", "dt": 0.02, "scheme": "cn", "s": 0.5,
      "kind": "subelliptic", "weight_kind": "subelliptic"}),
    ("backward-exit-3", "evolve",
     {"operator": "laplace", "two_L": 6, "u0": "delta", "dt": 0.01}),
    ("circle", "evolve",
     {"group": "torus1", "operator": "-1*laplace^1/2", "two_L": 8,
      "u0": "random 12", "forcing": "random 13", "dt": 0.01, "s": 1.0}),
    ("reduce-exact", "reduce", REDUCE),
    ("reduce-cn", "reduce", {**REDUCE, "scheme": "cn", "dt": 0.002}),
    ("reduce-rk4", "reduce", {**REDUCE, "scheme": "rk4"}),
    ("reduce-dense", "reduce",
     {**REDUCE, "coefficients": ["-0.2*laplace^1/2 + 0.1*X1", "-1*laplace"]}),
    ("reduce-sublaplace", "reduce",
     {**REDUCE, "coefficients": ["-0.2*laplace^1/2", "-1*sublaplace"]}),
    ("reduce-exact-m3", "reduce",
     {"time_order": 3,
      "coefficients": ["-1*laplace^1/2", "-1*laplace", "-0.1*laplace^3/2"],
      "data": ["random 4", "random 5", "random 6"], "two_L": 4, "dt": 0.01}),
    ("check-drift", "check",
     {"operator": "-1*laplace^1/2 + 1*iX3 + 0.3*X1", "two_L": 6}),
    ("check-subelliptic", "check",
     {"operator": "-1*sbessel^2 + 0.5*d0 + 0.2*X3", "two_L": 6,
      "weight_kind": "subelliptic"}),
    ("circle-negative-s", "evolve",
     {"group": "torus1", "operator": "-1*bessel^1 - 0.5*laplace", "two_L": 8,
      "u0": "random 20", "forcing": "random 21", "dt": 0.01, "s": -1.0}),
    ("transform-selftest", "transform-selftest", {"two_L": 24}),
    ("varcoef-cn", "library", {"scheme": "cn", "forcing": False, "profile": True}),
    ("varcoef-rk4-forced", "library",
     {"scheme": "rk4", "forcing": True, "profile": True}),
    ("steady-varcoef-cn", "library",
     {"scheme": "cn", "forcing": False, "profile": False}),
    ("steady-varcoef-rk4", "library",
     {"scheme": "rk4", "forcing": False, "profile": False}),
]

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf")


def run_tree(src: Path, command: str, config: dict, workdir: Path) -> int:
    workdir.mkdir(parents=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config, sort_keys=True))
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    args = ["-c", LIBRARY, str(cfg), str(workdir / "out")] if command == "library" \
        else ["-m", "lie_diffuse.cli", "--config", str(cfg), "--command", command,
              "--out", str(workdir / "out")]
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode


def max_rel_diff(a: str, b: str) -> float | None:
    """Largest |x - y| / max(|x|, |y|) over corresponding numbers, or None
    when the texts hold different counts of numbers."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x == y or (x != x and y != y):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return worst


MAX_PATHS = 50      # differing JSON paths printed per artifact
_ABSENT = object()  # a key found on one side only


def json_diffs(a, b, path: str = ""):
    """Yield (path, old, new) for each place where two JSON values differ:
    objects recurse by key, equally long arrays by index, anything else is
    compared by its JSON text (so NaN equals NaN)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from json_diffs(a.get(key, _ABSENT), b.get(key, _ABSENT),
                                  f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_diffs(x, y, f"{path}[{i}]")
    elif a is _ABSENT or b is _ABSENT or json.dumps(a) != json.dumps(b):
        yield path, a, b


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def compare(old: Path, new: Path, name: str, command: str, config: dict,
            tmp: Path) -> bool:
    code_old = run_tree(old, command, config, tmp / name / "old")
    code_new = run_tree(new, command, config, tmp / name / "new")
    same = code_old == code_new
    print(f"{name} ({command}): exit {code_old} / {code_new}"
          + ("" if same else "  EXIT CODES DIFFER"))
    out_old, out_new = tmp / name / "old" / "out", tmp / name / "new" / "out"
    files = sorted({p.relative_to(out_old) for p in out_old.rglob("*") if p.is_file()}
                   | {p.relative_to(out_new) for p in out_new.rglob("*") if p.is_file()})
    for rel in files:
        a, b = out_old / rel, out_new / rel
        if not (a.exists() and b.exists()):
            print(f"  {rel}: only in {'old' if a.exists() else 'new'}")
            same = False
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"  {rel}: bytes identical")
            continue
        same = False
        rel_diff = max_rel_diff(a.read_text(), b.read_text())
        detail = "number count differs" if rel_diff is None \
            else f"max relative difference {rel_diff:.3e}"
        print(f"  {rel}: bytes differ, {detail}")
        if rel.suffix == ".json":
            diffs = list(json_diffs(json.loads(a.read_text()),
                                    json.loads(b.read_text())))
            for path, x, y in diffs[:MAX_PATHS]:
                print(f"    {path}: {_show(x)} -> {_show(y)}")
            if len(diffs) > MAX_PATHS:
                print(f"    ... and {len(diffs) - MAX_PATHS} more paths")
    return same


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = Path(args[0]), Path(args[1])
    with tempfile.TemporaryDirectory() as tmp:
        results = [compare(old, new, name, command, config, Path(tmp))
                   for name, command, config in CONFIGS]
    print(f"{sum(results)} of {len(results)} configs identical")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
