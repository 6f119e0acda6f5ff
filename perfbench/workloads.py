"""The four benchmark workloads: inputs, the timed job, and its checks.

Each workload turns the benchmark seed into inputs, runs one job (the timed
part), and checks the job's outputs against a reference that does not use
the code path being measured.  The package modules are looked up through
``importlib`` at call time, so wrappers installed by the tracer are seen.

Workloads (see README.md for why each was chosen):

* heat-exact   CLI ``evolve``, ``-1*bessel^2`` at two_L=48, CaseI, exact
               stepper with cached diagonal propagators.
* drift-rk4    CLI ``evolve``, ``-1*laplace^1/2 + 1*iX3 + 0.3*X1`` at
               two_L=24 with constant forcing, RK4, CaseII.
* varcoef-cn   library path (the CLI grammar has no spatial coefficients):
               ``-c(x) p(t) laplace^1/2 + 0.2*iX3``, 20 Crank-Nicolson steps.
* wave-reduce  CLI ``reduce`` of a damped wave equation at two_L=16.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.linalg import expm


def _mod(name: str):
    return importlib.import_module(f"lie_diffuse.{name}")


def _hash_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _snapshot_blocks(path: Path) -> dict[int, np.ndarray]:
    """Read a field snapshot with plain json, keyed by two_ell."""
    data = json.loads(path.read_text())
    return {int(e["two_ell"]): np.asarray(e["re"]) + 1j * np.asarray(e["im"])
            for e in data["coeffs"]}


def _field_blocks(F) -> dict[int, np.ndarray]:
    return {rep.two_ell: np.asarray(mat) for rep, mat in F.items()}


def _max_rel_err(got: dict, want: dict) -> float:
    if set(got) != set(want):
        return math.inf
    scale = max(float(np.abs(w).max()) for w in want.values())
    err = max(float(np.abs(got[k] - want[k]).max()) for k in want)
    return err / scale


def _ladder(two_ell: int):
    """Jz, J+ in the increasing-j basis, from the angular-momentum formulas."""
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    ell = two_ell / 2.0
    Jp = np.zeros((two_ell + 1, two_ell + 1), dtype=complex)
    for i in range(two_ell):
        Jp[i + 1, i] = math.sqrt(ell * (ell + 1) - j[i] * (j[i] + 1))
    return np.diag(j).astype(complex), Jp


class Workload:
    """One job kind.  Subclasses define ``job`` and ``check``.

    ``corrupt`` perturbs the reference so the self-test can show that the
    correctness gate rejects a wrong answer.
    """

    name = ""
    steps = 0           # time steps per job, for per-step ratios
    plan_two_L = 0      # bandlimit of the grid the transforms of a job use

    def __init__(self, seed: int, workdir: Path, tiny: bool = False,
                 corrupt: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.corrupt = corrupt
        self.first_hashes: dict | None = None
        self._reference = None
        workdir.mkdir(parents=True, exist_ok=True)

    def reference(self):
        if self._reference is None:
            self._reference = self.make_reference()
        return self._reference

    def make_reference(self):
        raise NotImplementedError

    def job(self):
        raise NotImplementedError

    def check(self, outcome) -> list[str]:
        raise NotImplementedError

    def before_job(self):
        """Untimed preparation before each job."""

    def _same_as_first(self, hashes: dict) -> list[str]:
        if self.first_hashes is None:
            self.first_hashes = hashes
            return []
        return [] if hashes == self.first_hashes else [
            "artifacts differ from the first repeat"]


class CliWorkload(Workload):
    """A workload run through ``lie_diffuse.cli.main`` in-process."""

    command = ""

    def config(self) -> dict:
        raise NotImplementedError

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cfg = self.config()
        self.cfg_path = self.workdir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, sort_keys=True))
        self.out = self.workdir / "out"

    def before_job(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def job(self):
        return _mod("cli").main(["--config", str(self.cfg_path), "--command",
                                 self.command, "--out", str(self.out)])

    def report(self) -> dict:
        return json.loads((self.out / "report.json").read_text())

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        return self.check_report(self.report()) + self._same_as_first(
            _hash_tree(self.out))

    def check_report(self, report: dict) -> list[str]:
        raise NotImplementedError


class HeatExact(CliWorkload):
    name = "heat-exact"
    command = "evolve"

    def config(self):
        two_L, dt = (4, 0.1) if self.tiny else (48, 0.01)
        self.steps, self.plan_two_L = round(1.0 / dt), two_L
        return {"operator": "-1*bessel^2", "two_L": two_L,
                "u0": f"random {self.seed}", "dt": dt, "s": 1.0}

    def make_reference(self):
        """Closed-form decay exp(-T (1 + lambda_ell)) of each mode."""
        u0 = _field_blocks(_mod("harmonic").random_field(
            "su2", self.cfg["two_L"], self.seed))
        T = 1.0 + (1e-3 if self.corrupt else 0.0)
        final = {tl: math.exp(-T * (1.0 + tl * (tl + 2) / 4.0)) * m
                 for tl, m in u0.items()}
        return u0, final

    def check_report(self, report):
        problems = []
        verdict = report["classification"]["verdict"]
        if verdict != "CaseI" or not report["ran"]:
            problems.append(f"verdict {verdict}, expected CaseI")
        u0, final = self.reference()
        snaps = self.out / "snapshots"
        if _max_rel_err(_snapshot_blocks(snaps / "state_initial.json"), u0) > 0.0:
            problems.append("initial snapshot differs from the input field")
        err = _max_rel_err(_snapshot_blocks(snaps / "state_final.json"), final)
        if not err <= 1e-10:
            problems.append(f"final state off the closed form by {err:.3e}")
        return problems


class DriftRK4(CliWorkload):
    name = "drift-rk4"
    command = "evolve"

    def config(self):
        two_L, dt = (4, 0.1) if self.tiny else (24, 0.01)
        self.steps, self.plan_two_L = round(1.0 / dt), two_L
        return {"operator": "-1*laplace^1/2 + 1*iX3 + 0.3*X1", "two_L": two_L,
                "u0": f"random {self.seed}", "forcing": f"random {self.seed + 1}",
                "dt": dt, "scheme": "rk4", "s": 0.5}

    def make_reference(self):
        """Per-mode expm of the augmented block [[T A, T I], [0, 0]]."""
        harmonic = _mod("harmonic")
        two_L = self.cfg["two_L"]
        u0 = _field_blocks(harmonic.random_field("su2", two_L, self.seed))
        f = _field_blocks(harmonic.random_field("su2", two_L, self.seed + 1))
        T = 1.0
        final = {}
        for tl, V in u0.items():
            d = tl + 1
            Jz, Jp = _ladder(tl)
            X1 = -0.5j * (Jp + Jp.conj().T)
            lam = tl * (tl + 2) / 4.0
            A = -math.sqrt(lam) * np.eye(d) + Jz + 0.3 * X1
            if self.corrupt:
                A = A + 1e-3 * np.eye(d)
            big = np.zeros((2 * d, 2 * d), dtype=complex)
            big[:d, :d] = T * A
            big[:d, d:] = T * np.eye(d)
            E = expm(big)
            final[tl] = E[:d, :d] @ V + E[:d, d:] @ f[tl]
        return u0, final

    def check_report(self, report):
        problems = []
        cls = report["classification"]
        tail = cls.get("positivity", {}).get("tail")
        if cls["verdict"] != "CaseII" or tail != "conclusive" or not report["ran"]:
            problems.append(f"verdict {cls['verdict']}/{tail}, "
                            "expected CaseII/conclusive")
        u0, final = self.reference()
        snaps = self.out / "snapshots"
        if _max_rel_err(_snapshot_blocks(snaps / "state_initial.json"), u0) > 0.0:
            problems.append("initial snapshot differs from the input field")
        err = _max_rel_err(_snapshot_blocks(snaps / "state_final.json"), final)
        # seeds 0-9 stay below 4.6e-9 at dt=0.01 and 3e-5 at dt=0.1
        if not err <= (3e-4 if self.tiny else 1e-7):
            problems.append(f"final state off the expm reference by {err:.3e}")
        return problems


class WaveReduce(CliWorkload):
    name = "wave-reduce"
    command = "reduce"

    def config(self):
        two_L, dt = (4, 0.02) if self.tiny else (16, 0.002)
        self.steps, self.plan_two_L = round(1.0 / dt), two_L
        s = self.seed
        return {"time_order": 2,
                "coefficients": ["-0.2*laplace^1/2", "-1*laplace"],
                "data": [f"random {s}", f"random {s + 1}"],
                "forcing": f"random {s + 2}", "two_L": two_L, "dt": dt}

    def make_reference(self):
        """The report's own reference: its pass flag, and a deviation bound
        from seeds 0-9 (largest seen: 5.8e-10)."""
        return 1e-12 if self.corrupt else 1e-7

    def check_report(self, report):
        dev = report["max_deviation_from_reference"]
        if report["pass"] is not True or not dev <= self.reference():
            return [f"reduce pass={report['pass']} deviation {dev:.3e}"]
        return []


class VarcoefCN(Workload):
    """Library path: x- and t-dependent coefficients, Crank-Nicolson."""

    name = "varcoef-cn"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        harmonic = _mod("harmonic")
        self.coef_two_L, self.two_L, self.steps = (2, 4, 10) if self.tiny \
            else (4, 10, 20)
        self.plan_two_L = self.coef_two_L + self.two_L   # apply_spectral's grid
        # A private grid keeps the interned one (and its plan) cold for the job.
        grid = harmonic.GridSpec("su2", self.coef_two_L)
        r = harmonic.fourier_inverse(harmonic.random_field(
            "su2", self.coef_two_L, self.seed), grid).values.real
        self.c_values = 1.0 + 0.3 * r / np.abs(r).max()
        self.u0 = harmonic.random_field("su2", self.two_L, self.seed)

    def job(self):
        harmonic, symbol = _mod("harmonic"), _mod("symbol")
        grid = harmonic.quadrature_grid("su2", self.coef_two_L)
        c = harmonic.GridField(grid, self.c_values)
        terms = [symbol.OperatorTerm("laplace", exponent=0.5, const=-1.0, space=c,
                                     profile=lambda t: 1.0 + 0.5 * math.sin(3.0 * t)),
                 symbol.OperatorTerm("iX3", const=0.2)]
        sym = symbol.build_operator_symbol(
            symbol.OperatorSpec("su2", self.coef_two_L, terms))
        cls = _mod("wellposed").classify_problem(sym, T=1.0)
        evolve = _mod("evolve")
        # a SolverError propagates and fails the job
        traj, report = evolve.evolve(
            evolve.EvolutionProblem(sym, self.u0, T=1.0), scheme="cn",
            dt=1.0 / self.steps, classification=cls)
        return cls, traj, report

    def make_reference(self):
        """Identity residual bound, relative to ||u0||^2, set from seeds 0-9
        (largest seen: 0.342 at full size, 0.069 tiny) with headroom; the
        O(dt^2) difference quotient is largest where the high modes decay."""
        return 1e-6 if self.corrupt else (0.1 if self.tiny else 0.5)

    def check(self, outcome) -> list[str]:
        cls, traj, report = outcome
        problems = []
        if cls.case != "CaseII":
            problems.append(f"verdict {cls.case}, expected CaseII")
        l2 = np.asarray(report.l2_norms)
        if np.any(np.diff(l2) > 1e-12 * l2[0]):
            problems.append("L2 norm increased")
        e0 = l2[0] ** 2
        worst = max(report.identity_residuals) / e0
        if not worst <= self.reference():
            problems.append(f"identity residual {worst:.3e} over tolerance")
        digest = hashlib.sha256()
        for mat in traj[-1].coeffs.values():
            digest.update(np.ascontiguousarray(mat).tobytes())
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        return problems + self._same_as_first({"state": digest.hexdigest()})


WORKLOADS = {w.name: w for w in (HeatExact, DriftRK4, VarcoefCN, WaveReduce)}
