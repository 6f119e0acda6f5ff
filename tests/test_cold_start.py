"""Cold start: scipy is loaded only by the calls that use it.

Importing the CLI, check, and RK4, CN or diagonal exact evolve run on numpy
alone.  A dense exact step (expm), reduce (expm and its solve_ivp
reference) and the first Wigner plan (eigh_tridiagonal) import scipy on
demand, and write the same bytes as a process that loaded scipy first.
Each case runs in a fresh interpreter, since the test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = {
    "check": {"operator": "-1*laplace^1/2 + 1*iX3", "two_L": 4},
    "evolve-rk4": {"operator": "-1*laplace^1/2 + 1*iX3", "two_L": 4,
                   "u0": "random 1", "forcing": "random 2", "dt": 0.01,
                   "scheme": "rk4", "s": 0.5},
    "evolve-cn": {"operator": "-1*laplace^1/2 + 0.5*X2", "two_L": 4,
                  "u0": "random 3", "dt": 0.05, "scheme": "cn"},
    "evolve-exact-diagonal": {"operator": "-1*bessel^2", "two_L": 4,
                              "u0": "random 4", "dt": 0.01, "s": 1.0},
}

ON_DEMAND = {
    "evolve-exact-dense": ("evolve", {
        "operator": "-1*laplace^1/2 + 0.3*X1", "two_L": 4, "u0": "random 5",
        "forcing": "random 6", "dt": 0.02, "scheme": "exact"}),
    "reduce": ("reduce", {
        "time_order": 2, "coefficients": ["-0.2*laplace^1/2", "-1*laplace"],
        "data": ["random 1", "random 2"], "two_L": 4, "dt": 0.01}),
    "transform-selftest": ("transform-selftest", {"two_L": 4}),
}

SCRIPT = """
import json, sys
preload = sys.argv[1]
if preload:
    import scipy.linalg, scipy.integrate
from lie_diffuse.cli import main
loaded = ["scipy" in sys.modules]
if len(sys.argv) > 2:
    code = main(["--config", sys.argv[2], "--command", sys.argv[3],
                 "--out", sys.argv[4]])
    loaded.append("scipy" in sys.modules)
else:
    code = 0
print(json.dumps({"code": code, "scipy": loaded}))
"""


def run_fresh(tmp_path, name, command=None, config=None, preload=False):
    args = [sys.executable, "-c", SCRIPT, "1" if preload else ""]
    if command is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        args += [str(path), command, str(tmp_path / name)]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    assert run_fresh(tmp_path, "import") == {"code": 0, "scipy": [False]}


@pytest.mark.parametrize("name", sorted(NO_SCIPY))
def test_numpy_only_commands_leave_scipy_unloaded(tmp_path, name):
    command = "check" if name == "check" else "evolve"
    got = run_fresh(tmp_path, name, command, NO_SCIPY[name])
    assert got == {"code": 0, "scipy": [False, False]}


@pytest.mark.parametrize("name", sorted(ON_DEMAND))
def test_on_demand_scipy_gives_the_same_bytes(tmp_path, name):
    command, config = ON_DEMAND[name]
    lazy = run_fresh(tmp_path, name, command, config)
    eager = run_fresh(tmp_path, name + "-eager", command, config, preload=True)
    assert lazy == {"code": 0, "scipy": [False, True]}
    assert eager == {"code": 0, "scipy": [True, True]}
    files = sorted(p.relative_to(tmp_path / name)
                   for p in (tmp_path / name).rglob("*") if p.is_file())
    assert Path("report.json") in files
    for rel in files:
        assert ((tmp_path / name / rel).read_bytes()
                == (tmp_path / (name + "-eager") / rel).read_bytes()), rel
