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

All three, and reduce.solve_reduced on its packed companion rows, share one
stepping core (exact, CN and RK4 updates per entry or per block) and one
driver (_integrate) that snaps dt, picks the "auto" scheme, builds a
t-independent generator's operand or propagators once, and substeps RK4
past its stability cap.  A diagonal generator's exact step is one per-entry
product over the buffer.

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
# The state is an (m, size) buffer whose row j is one packed field: m = 1 for
# evolve, u_1..u_m of a companion system in the reduce module, whose forcing
# (0, ..., 0, f) enters the last row.  matrix(t, rep) is the (m d) x (m d)
# generator block.  When each of its d x d blocks is diagonal at every rep,
# it couples entry (r, c) of a block only across the m rows; its operand is
# then the (m, m, size) array of these per-entry m x m matrices, else the
# tuple of blocks.  Exact propagators (P, Q) take the same two forms; a 1-D
# block there is a diagonal.

def _forcing_at(forcing, t: float):
    """Forcing at time t: None, a constant field, or a callable."""
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


def _operand(layout, m: int, matrix, t: float):
    """The generator at t in the stepping core's form (see above)."""
    mats = [matrix(t, rep) for rep in layout.reps]
    rows = [np.diagonal(A.reshape(m, len(A) // m, m, -1), axis1=1, axis2=3)
            for A in mats]
    if any(np.count_nonzero(A) != np.count_nonzero(M) for A, M in zip(mats, rows)):
        return tuple(mats)
    return np.repeat(np.concatenate(rows, axis=-1), layout.row_sizes, axis=-1)


def _exact_propagators(A: np.ndarray, dt: float, expm=expm):
    """(P, Q) with v' = P v + Q f for one step of v' = A v + f: elementwise
    (1-D) for diagonal A, else from exp [[dt A, dt I], [0, 0]], which also
    takes a stack of matrices in one call."""
    if A.ndim == 2 and _is_diagonal(A):
        a = np.diagonal(A)
        return np.exp(dt * a), dt * _phi1(dt * a)
    d = A.shape[-1]
    big = np.zeros(A.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    big[..., :d, :d] = dt * A
    big[..., :d, d:] = dt * np.eye(d)
    E = expm(big)
    return E[..., :d, :d], E[..., :d, d:]


def _propagators(op, layout, dt: float, expm=expm):
    """Exact (P, Q) of an operand's step: per block, or per entry from one
    batched exponential of each block row's m x m matrix."""
    if isinstance(op, tuple):
        return tuple(zip(*(_exact_propagators(A, dt, expm) for A in op)))
    sizes = layout.row_sizes
    rows = op[..., np.cumsum(sizes) - sizes]
    if len(op) == 1:       # elementwise, as for a diagonal block
        P, Q = np.exp(dt * rows), dt * _phi1(dt * rows)
    else:
        P, Q = (X.transpose(1, 2, 0) for X in
                _exact_propagators(rows.transpose(2, 0, 1), dt, expm))
    return np.repeat(P, sizes, axis=-1), np.repeat(Q, sizes, axis=-1)


def _apply_op(op, U: np.ndarray, layout) -> np.ndarray:
    """A U for an operand A, as a fresh buffer."""
    if not isinstance(op, tuple):
        out = op[:, 0] * U[0]
        for j in range(1, len(U)):
            out += op[:, j] * U[j]
        return out
    out = np.empty_like(U)
    for (sl, d), A in zip(layout.slots.values(), op):   # each rep's (m d) x d block
        V = U[:, sl].reshape(-1, d)
        out[:, sl] = (A[:, None] * V if A.ndim == 1 else A @ V).reshape(len(U), -1)
    return out


def _cn_solve(op, rhs: np.ndarray, dt: float, layout) -> np.ndarray:
    """Solve (I - dt/2 A) X = rhs; diagonal blocks directly."""
    if not isinstance(op, tuple):
        lhs = (np.eye(len(op))[..., None] - 0.5 * dt * op).transpose(2, 0, 1)
        return np.linalg.solve(lhs, rhs.T[..., None])[..., 0].T.copy()
    out = np.empty_like(rhs)
    for (sl, d), A in zip(layout.slots.values(), op):
        R = rhs[:, sl].reshape(-1, d)
        X = (R / (1.0 - 0.5 * dt * np.diagonal(A))[:, None] if _is_diagonal(A)
             else np.linalg.solve(np.eye(A.shape[0]) - 0.5 * dt * A, R))
        out[:, sl] = X.reshape(len(rhs), -1)
    return out


def _rk4(rhs, v, t: float, dt: float):
    """Classical RK4 for any state with + and scalar *; rhs(t, v) = dv/dt."""
    k1 = rhs(t, v)
    k2 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k2)
    k4 = rhs(t + dt, v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_modes(scheme: str, U: np.ndarray, layout, operand, forcing,
                t: float, dt: float, propagators) -> np.ndarray:
    """One step of U' = A(t) U + (0, ..., 0, f(t)) on an (m, size) buffer;
    operand(t) gives A and propagators(t, dt) the exact (P, Q) of the step
    from t, both in the stepping core's forms.  Returns a fresh buffer."""
    tm = t + 0.5 * dt

    def force(tau):       # (0, ..., 0, f(tau)) as a buffer, or None
        f = _forcing_at(forcing, tau)
        return None if f is None else np.concatenate([np.zeros_like(U[1:]),
                                                      f.data[None]])

    if scheme == "exact":
        (P, Q), F = propagators(t, dt), force(tm)
        new = _apply_op(P, U, layout)
        return new if F is None else new + _apply_op(Q, F, layout)
    if scheme == "cn":
        A, F = operand(tm), force(tm)
        rhs = U + (0.5 * dt) * _apply_op(A, U, layout)
        if F is not None:
            rhs = rhs + dt * F
        return _cn_solve(A, rhs, dt, layout)
    fs = {tau: force(tau) for tau in (t, tm, t + dt)}

    def rhs(tau, W):
        dW = _apply_op(operand(tau), W, layout)
        return dW if fs[tau] is None else dW + fs[tau]
    return _rk4(rhs, U, t, dt)


def _step_field(scheme: str, state: SpectralField, operand, forcing, t: float,
                dt: float, propagators=None) -> SpectralField:
    """_step_modes on one field (m = 1)."""
    return state.with_data(_step_modes(scheme, state.data[None], state.layout,
                                       operand, forcing, t, dt, propagators)[0])


# ---------------------------------------------------------------- steppers

def step_exact_invariant(state: SpectralField, sym: Symbol, forcing=None,
                         t: float = 0.0, dt: float = 1e-2) -> SpectralField:
    """One exact per-mode exponential step; requires an x-independent symbol."""
    if not sym.x_independent:
        raise ValueError("exact stepper needs an x-independent symbol")
    layout = state.layout
    return _step_field("exact", state, None, forcing, t, dt, lambda tau, h: _propagators(
        _operand(layout, 1, partial(_mode_matrix, sym), tau + 0.5 * h), layout, h))


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
        # block by block: a per-entry product rounds unlike the matrix product
        return _step_field("cn", state, lambda tau: tuple(
            _mode_matrix(sym, tau, rep) for rep in state.layout.reps), forcing, t, dt)
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


def _integrate(U0: np.ndarray, layout, T: float, dt: float, scheme: str, *,
               x_independent: bool, t_independent: bool, forcing, matrix,
               expm=expm, step=None, record=lambda U: U):
    """Driver of evolve and reduce.solve_reduced on an (m, size) buffer (see
    the stepping core); returns (scheme, dt, [record(U0), record(U1), ...]).
    dt snaps to at least two whole steps; "auto" is exact for x- and
    t-independent generators, CN otherwise; a t-independent generator's
    matrices, operand or exact propagators are built once; RK4 substeps past
    its cap.  step(scheme, U, t, h) defaults to _step_modes, which also takes
    every cached exact step."""
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

    if t_independent and scheme != "exact":
        mats = {rep: matrix(0.0, rep) for rep in layout.reps}
        matrix = lambda t, rep: mats[rep]  # noqa: E731
    substeps = 1
    if scheme == "rk4":
        substeps = _rk4_substeps(matrix, layout.reps, t_independent, T, dt)
    operand = partial(_operand, layout, len(U0), matrix)

    def propagators(t, h):
        return _propagators(operand(t + 0.5 * h), layout, h, expm)
    if t_independent and scheme == "exact":
        props = propagators(0.0, dt)
        propagators, step = (lambda t, h: props), None
    elif t_independent and step is None:
        op = operand(0.0)
        operand = lambda t: op  # noqa: E731
    if step is None:
        def step(scheme, U, t, h):
            return _step_modes(scheme, U, layout, operand, forcing, t, h, propagators)

    trajectory = [record(U0)]
    U = U0
    h = dt / substeps
    for n in range(n_steps):
        t = n * dt
        for k in range(substeps):
            U = step(scheme, U, t + k * h, h)
        trajectory.append(record(U))
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
    field = lambda U: u0.with_data(U[0])  # noqa: E731
    scheme, dt, trajectory = _integrate(
        u0.data[None].copy(), u0.layout, problem.T, dt, scheme,
        x_independent=sym.x_independent, t_independent=sym.t_independent,
        forcing=problem.forcing, matrix=partial(_mode_matrix, sym),
        step=lambda scheme, U, t, h: _STEPPERS[scheme](
            field(U), sym, problem.forcing, t, h).data[None], record=field)

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
