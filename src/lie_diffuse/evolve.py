"""Time integration of dv/dt = K(t) v + f and energy diagnostics.

States are packed spectral fields; the generator acts per representation
through its symbol.  Three steppers are provided:

* step_exact_invariant: per-mode matrix exponential, exact for x- and
  t-independent K (t-dependent coefficients are frozen at the step
  midpoint, which keeps second order).  The forcing integral
  int_0^dt exp((dt-tau) A) f dtau is evaluated exactly for constant f via
  an augmented exponential block, and by the midpoint rule otherwise.
* step_rk4: classical fourth-order Runge-Kutta, conditionally stable; the
  evolve driver enforces dt <= 2.7 / |lambda_max| by substepping.
* step_crank_nicolson: A-stable trapezoidal rule with midpoint-frozen
  coefficients.  x-independent symbols get direct per-mode solves; the
  x-dependent path runs a Richardson iteration preconditioned with the
  x-averaged symbol (tolerance 1e-12, fixed iteration cap), updating the
  iterate's buffer in place.

All three, and reduce.solve_reduced on its stacked companion blocks, share
one stepping core: per-mode exact, CN and RK4 updates, one forcing resolver,
and one driver (_integrate) that snaps dt, picks the "auto" scheme, builds
a t-independent generator's matrices and propagators once, and substeps RK4
past its stability cap.

Energy diagnostics follow the L^2 identity d/dt ||v||^2 = 2 Re(Kv, v)
+ 2 Re(f, v) via finite differences, and the energy estimate
||v(t)||^2 <= C ||u0||^2 + C' int ||f||^2 with fitted constants.  They run
one state at a time on its buffer: a norm is one weighted dot, a Bessel
weight or a diagonal K one per-entry product (see the symbol module).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .harmonic import (
    SpectralField,
    plancherel_norm,
    spectral_inner,
)
from .symbol import (Symbol, apply_spectral, averaged_matrix, invariant_apply,
                     weighted_field)
from .wellposed import Classification, classify_problem


class SolverError(RuntimeError):
    """Iterative solve failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------- Sobolev norms

def sobolev_norm(F: SpectralField, s: float, kind: str = "elliptic") -> float:
    """H^s norm: Plancherel norm of the Bessel-weighted coefficients."""
    if s == 0.0:
        return math.sqrt(plancherel_norm(F))
    return math.sqrt(plancherel_norm(weighted_field(F, s, kind)))


# ---------------------------------------------------------------- problem setup

@dataclass
class EvolutionProblem:
    """Cauchy problem data: generator symbol, initial state, forcing, horizon.

    forcing may be None, a constant SpectralField, or a callable t -> field.
    s and kind fix the Sobolev norm used in the energy report.
    """

    sym: Symbol
    u0: SpectralField
    forcing: object = None
    T: float = 1.0
    s: float = 0.0
    kind: str = "elliptic"

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")
        if isinstance(self.forcing, SpectralField):
            if (self.forcing.group != self.u0.group
                    or self.forcing.two_L != self.u0.two_L):
                raise ValueError("forcing and initial data bandlimit mismatch")

    def forcing_at(self, t: float) -> SpectralField | None:
        return _forcing_at(self.forcing, t)


def _apply(sym: Symbol, t: float, F: SpectralField) -> SpectralField:
    if sym.x_independent:
        return invariant_apply(sym, F, t)
    return apply_spectral(sym, t, F)


def _mode_matrix(sym: Symbol, t: float, rep) -> np.ndarray:
    """The generator block at rep; x-dependent symbols give their x-average."""
    if sym.x_independent:
        return np.asarray(sym.matrix(t, rep))
    return averaged_matrix(sym, t, rep)


# ---------------------------------------------------------------- stepping core
#
# A mode is a coefficient block V with generator matrix A: d x d here, the
# (m d) x d stack of a companion system in the reduce module.

def _forcing_at(forcing, t: float):
    """Forcing at time t: None, a constant (field or blocks), or a callable."""
    return forcing(t) if callable(forcing) else forcing


def _is_diagonal(A: np.ndarray) -> bool:
    return not np.any(A - np.diag(np.diagonal(A)))


def _phi1(w: np.ndarray) -> np.ndarray:
    """(e^w - 1)/w, stable for small and zero arguments."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-8
    safe = np.where(small, 1.0, w)
    out = (np.exp(safe) - 1.0) / safe
    series = 1.0 + w / 2.0 + w * w / 6.0
    return np.where(small, series, out)


def _exact_propagators(A: np.ndarray, dt: float, expm=expm):
    """Return (kind, P, Q) with v' = P v + Q f for one step of v' = A v + f:
    elementwise for diagonal A, else from exp [[dt A, dt I], [0, 0]]."""
    if _is_diagonal(A):
        a = np.diagonal(A)
        return ("diag", np.exp(dt * a), dt * _phi1(dt * a))
    d = A.shape[0]
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = dt * A
    big[:d, d:] = dt * np.eye(d)
    E = expm(big)
    return ("dense", E[:d, :d], E[:d, d:])


def _exact_update(propagators, V: np.ndarray, F) -> np.ndarray:
    kind, P, Q = propagators
    if kind == "diag":
        new = P[:, None] * V
        return new if F is None else new + Q[:, None] * F
    new = P @ V
    return new if F is None else new + Q @ F


def _cn_update(A: np.ndarray, V: np.ndarray, F, dt: float) -> np.ndarray:
    """Solve (I - dt/2 A) V' = (I + dt/2 A) V + dt F; diagonal A directly."""
    rhs = V + (0.5 * dt) * (A @ V)
    if F is not None:
        rhs = rhs + dt * F
    if _is_diagonal(A):
        return rhs / (1.0 - 0.5 * dt * np.diagonal(A))[:, None]
    return np.linalg.solve(np.eye(A.shape[0]) - 0.5 * dt * A, rhs)


def _rk4(rhs, v, t: float, dt: float):
    """Classical RK4 for any state with + and scalar *; rhs(t, v) = dv/dt."""
    k1 = rhs(t, v)
    k2 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k2)
    k4 = rhs(t + dt, v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_modes(scheme: str, state, matrix, forcing, t: float, dt: float,
                propagators):
    """One step of v' = A(t) v + f(t) for each mode of a SpectralField or a
    dict of blocks (returned as the same type).  matrix(t, rep) gives A,
    propagators(rep, t, dt) the exact (kind, P, Q) of the step from t."""
    tm = t + 0.5 * dt
    fm = _forcing_at(forcing, tm)
    if scheme == "rk4":
        fs = {t: _forcing_at(forcing, t), tm: fm, t + dt: _forcing_at(forcing, t + dt)}
    out = state.zeros_like() if isinstance(state, SpectralField) else {}
    blocks = out.coeffs if isinstance(state, SpectralField) else out
    for rep, V in state.items():
        Fm = None if fm is None else fm[rep]
        if scheme == "exact":
            blocks[rep] = _exact_update(propagators(rep, t, dt), V, Fm)
        elif scheme == "cn":
            blocks[rep] = _cn_update(matrix(tm, rep), V, Fm, dt)
        else:
            def rhs(tau, W, rep=rep):
                f = fs[tau]
                dW = matrix(tau, rep) @ W
                return dW if f is None else dW + f[rep]
            blocks[rep] = _rk4(rhs, V, t, dt)
    return out


def _invariant_propagators(sym: Symbol):
    """(rep, t, dt) -> exact propagators of sym frozen at the step midpoint."""
    return lambda rep, t, dt: _exact_propagators(
        _mode_matrix(sym, t + 0.5 * dt, rep), dt)


# ---------------------------------------------------------------- steppers

def step_exact_invariant(state: SpectralField, sym: Symbol, forcing=None,
                         t: float = 0.0, dt: float = 1e-2) -> SpectralField:
    """One exact per-mode exponential step; requires an x-independent symbol."""
    if not sym.x_independent:
        raise ValueError("exact stepper needs an x-independent symbol")
    return _step_modes("exact", state, None, forcing, t, dt,
                       _invariant_propagators(sym))


def step_rk4(state: SpectralField, sym: Symbol, forcing=None,
             t: float = 0.0, dt: float = 1e-2) -> SpectralField:
    """One classical Runge-Kutta step of the method-of-lines system."""

    def rhs(tau, F):
        out = _apply(sym, tau, F)
        f = _forcing_at(forcing, tau)
        return out + f if f is not None else out

    return _rk4(rhs, state, t, dt)


def step_crank_nicolson(state: SpectralField, sym: Symbol, forcing=None,
                        t: float = 0.0, dt: float = 1e-2,
                        tol: float = 1e-12, max_iter: int = 200) -> SpectralField:
    """One trapezoidal step with coefficients frozen at the midpoint.

    x-independent symbols are solved mode by mode.  Otherwise
    (I - dt/2 K) is inverted by Richardson iteration preconditioned with
    the x-averaged symbol; non-convergence raises SolverError.
    """
    if sym.x_independent:
        return _step_modes("cn", state, partial(_mode_matrix, sym), forcing,
                           t, dt, None)
    tm = t + 0.5 * dt
    fmid = _forcing_at(forcing, tm)
    rhs = state + (0.5 * dt) * apply_spectral(sym, tm, state)
    if fmid is not None:
        rhs = rhs + dt * fmid
    pre = {}
    for rep in state.coeffs:
        A = averaged_matrix(sym, tm, rep)
        pre[rep] = np.linalg.inv(np.eye(A.shape[0]) - 0.5 * dt * A)
    scale = math.sqrt(plancherel_norm(rhs)) + 1.0
    v = rhs.copy()
    rnorm = math.inf
    for _ in range(max_iter):
        resid = rhs - (v - (0.5 * dt) * apply_spectral(sym, tm, v))
        rnorm = math.sqrt(plancherel_norm(resid))
        if rnorm <= tol * scale:
            return v
        for rep, V in v.items():
            V += pre[rep] @ resid[rep]
    raise SolverError(f"Crank-Nicolson iteration stalled (residual {rnorm:.3e})",
                      rnorm)


# ---------------------------------------------------------------- driver

_STEPPERS = {"exact": step_exact_invariant, "rk4": step_rk4,
             "cn": step_crank_nicolson}

RK4_STABILITY = 2.7


def _rk4_substeps(matrix, reps, t_independent: bool, T: float, dt: float) -> int:
    """Substeps keeping RK4 within RK4_STABILITY / max ||matrix(t, rep)||_2."""
    times = [0.0] if t_independent else [0.0, 0.5 * T, T]
    lam = 0.0
    for rep in reps:
        for t in times:
            lam = max(lam, float(np.linalg.norm(matrix(t, rep), 2)))
    if lam > 0.0 and dt > RK4_STABILITY / lam:
        substeps = int(math.ceil(dt * lam / RK4_STABILITY))
        warnings.warn(
            f"RK4 step {dt:.3g} exceeds the stability cap "
            f"{RK4_STABILITY / lam:.3g}; substepping x{substeps}")
        return substeps
    return 1


def _integrate(v0, T: float, dt: float, scheme: str, *, x_independent: bool,
               t_independent: bool, forcing, matrix, propagators, step=None,
               record=lambda v: v):
    """Driver of evolve and reduce.solve_reduced; returns (scheme, dt,
    [record(v0), record(v1), ...]).  dt snaps to at least two whole steps;
    "auto" is exact for x- and t-independent generators, CN otherwise; a
    t-independent generator's matrices, and its exact propagators when the
    forcing is not callable, are built once per rep; RK4 substeps past its
    cap.  step(scheme, v, t, h) defaults to _step_modes."""
    if dt > T:
        raise ValueError("dt exceeds the horizon")
    n_steps = max(2, int(round(T / dt)))
    dt = T / n_steps
    if scheme == "auto":
        scheme = "exact" if (x_independent and t_independent) else "cn"
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "exact" and not x_independent:
        raise ValueError("exact stepper needs an x-independent symbol")

    reps = [rep for rep, _ in v0.items()]
    if t_independent and scheme != "exact":
        mats = {rep: matrix(0.0, rep) for rep in reps}
        matrix = lambda t, rep: mats[rep]  # noqa: E731
    substeps = 1
    if scheme == "rk4":
        substeps = _rk4_substeps(matrix, reps, t_independent, T, dt)
    if scheme == "exact" and t_independent and not callable(forcing):
        cache = {rep: propagators(rep, 0.0, dt) for rep in reps}
        # cached propagators are applied mode by mode for every caller
        propagators, step = (lambda rep, t, h: cache[rep]), None
    if step is None:
        def step(scheme, v, t, h):
            return _step_modes(scheme, v, matrix, forcing, t, h, propagators)

    trajectory = [record(v0)]
    v = v0
    h = dt / substeps
    for n in range(n_steps):
        t = n * dt
        for k in range(substeps):
            v = step(scheme, v, t + k * h, h)
        trajectory.append(record(v))
    return scheme, dt, trajectory


@dataclass
class EnergyReport:
    """Per-step norms, identity residuals and fitted estimate constants."""

    times: list[float]
    l2_norms: list[float]
    hs_norms: list[float]
    hs_gain_norms: list[float]
    identity_residuals: list[float]
    C: float
    C_prime: float
    estimate_satisfied: bool
    scheme: str
    case: str | None = None
    verified: bool | None = None
    s: float = 0.0
    kind: str = "elliptic"

    def to_json_dict(self) -> dict:
        return asdict(self)


def evolve(problem: EvolutionProblem, scheme: str = "auto", dt: float = 1e-2,
           classification: Classification | None = None):
    """Integrate the problem and return (trajectory, EnergyReport).

    scheme "auto" picks the exact per-mode exponential for x- and
    t-independent generators and Crank-Nicolson otherwise.  dt is snapped
    so the horizon is an integer number of steps (at least two).
    Unverified problems still run; the report carries the classification.
    """
    sym, u0 = problem.sym, problem.u0
    if sym.group != u0.group:
        raise ValueError("symbol and state group mismatch")
    scheme, dt, trajectory = _integrate(
        u0.copy(), problem.T, dt, scheme, x_independent=sym.x_independent,
        t_independent=sym.t_independent, forcing=problem.forcing,
        matrix=partial(_mode_matrix, sym), propagators=_invariant_propagators(sym),
        step=lambda scheme, v, t, h: _STEPPERS[scheme](v, sym, problem.forcing, t, h))

    if classification is None:
        classification = classify_problem(sym, T=problem.T)

    times = [n * dt for n in range(len(trajectory))]
    l2 = [math.sqrt(plancherel_norm(w)) for w in trajectory]
    hs = [sobolev_norm(w, problem.s, problem.kind) for w in trajectory]
    gain = [sobolev_norm(w, problem.s + 0.5 * sym.order, problem.kind)
            for w in trajectory]
    residuals = energy_identity_residual(trajectory, sym, problem.forcing_at, dt)
    C, C_prime, satisfied = energy_estimate_check(
        trajectory, u0, problem.forcing_at, problem.s, problem.kind, dt)
    report = EnergyReport(times, l2, hs, gain, residuals, C, C_prime, satisfied,
                          scheme, case=classification.case,
                          verified=classification.verified,
                          s=problem.s, kind=problem.kind)
    return trajectory, report


# ---------------------------------------------------------------- diagnostics

def energy_identity_residual(trajectory, sym: Symbol, forcing_at, dt: float,
                             t0: float = 0.0) -> list[float]:
    """Residual of d/dt ||v||^2 = 2 Re(Kv, v) + 2 Re(f, v) per sample.

    Interior points use centered differences, the endpoints one-sided
    three-point stencils, so all residuals are O(dt^2) on smooth data.
    """
    n = len(trajectory)
    if n < 3:
        raise ValueError("need at least three states for the identity residual")
    E = [plancherel_norm(v) for v in trajectory]
    out = []
    for i, v in enumerate(trajectory):
        t = t0 + i * dt
        if i == 0:
            dE = (-3.0 * E[0] + 4.0 * E[1] - E[2]) / (2.0 * dt)
        elif i == n - 1:
            dE = (3.0 * E[i] - 4.0 * E[i - 1] + E[i - 2]) / (2.0 * dt)
        else:
            dE = (E[i + 1] - E[i - 1]) / (2.0 * dt)
        rhs = 2.0 * spectral_inner(_apply(sym, t, v), v).real
        f = forcing_at(t) if forcing_at is not None else None
        if f is not None:
            rhs += 2.0 * spectral_inner(f, v).real
        out.append(abs(dE - rhs))
    return out


def energy_estimate_check(trajectory, u0: SpectralField, forcing_at,
                          s: float = 0.0, kind: str = "elliptic",
                          dt: float = 1e-2):
    """Fit (C, C') in ||v(t)||^2 <= C ||u0||^2 + C' int_0^T ||f||^2 dtau.

    With no forcing C is the worst ratio and C' = 0.  Otherwise C is
    scanned on a log grid; for each C the smallest feasible C' is
    max(0, max_t (||v||^2 - C ||u0||^2) / F_tot), and the pair minimizing
    C ||u0||^2 + C' F_tot is reported.  Finite data always admit finite
    constants, so the satisfied flag records that the reported pair is
    feasible at every sample.
    """
    E = np.array([sobolev_norm(v, s, kind) ** 2 for v in trajectory])
    U = sobolev_norm(u0, s, kind) ** 2
    n = len(trajectory)
    fnorm2 = np.zeros(n)
    if forcing_at is not None:
        for i in range(n):
            f = forcing_at(i * dt)
            if f is not None:
                fnorm2[i] = sobolev_norm(f, s, kind) ** 2
    F_tot = float(np.trapezoid(fnorm2, dx=dt))

    if U == 0.0 and E.max() == 0.0:
        return 1.0, 0.0, True
    if F_tot == 0.0:
        C = float(E.max() / U) if U > 0.0 else math.inf
        return C, 0.0, U > 0.0
    if U == 0.0:
        return 1.0, float(E.max() / F_tot), True
    C_max = float(E.max() / U)
    grid = np.concatenate(([0.0], np.geomspace(max(C_max * 1e-6, 1e-12),
                                               C_max, 240)))
    best = None
    for C in grid:
        C_prime = max(0.0, float((E - C * U).max() / F_tot))
        cost = C * U + C_prime * F_tot
        if best is None or cost < best[0] - 1e-15 * (1.0 + abs(best[0])):
            best = (cost, float(C), C_prime)
    return best[1], best[2], True
