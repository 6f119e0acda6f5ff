"""Run a fixed set of CLI configs against two source trees and compare.

    python tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories (for example a checkout of the
parent commit and this tree).  Each config runs once per tree in a fresh
process with ``PYTHONPATH`` pointed at that tree.  For every config the
script prints the two exit codes and, per artifact, whether the bytes match
and the largest relative difference between corresponding numbers.  The
exit status is 1 when any exit code or artifact differs, else 0.
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
]

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf")


def run_tree(src: Path, command: str, config: dict, workdir: Path) -> int:
    workdir.mkdir(parents=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config, sort_keys=True))
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    proc = subprocess.run(
        [sys.executable, "-m", "lie_diffuse.cli", "--config", str(cfg),
         "--command", command, "--out", str(workdir / "out")],
        env=env, capture_output=True, text=True, timeout=600)
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
