"""Companion reduction of order-m-in-time problems to first-order systems.

The Cauchy problem

    d^m u / dt^m = a_1 D d^{m-1} u + ... + a_m D u + f,
    d^j u / dt^j (0) = g_{j+1},   j = 0..m-1,

with invariant (x-independent) coefficient operators a_i of order at most i
is rewritten through u_j = d^{j-1}/dt^{j-1} Gamma^{m-j} u, where Gamma =
(1 + Laplacian)^{1/2} is the Bessel potential.  The stacked state obeys

    d/dt (u_1, ..., u_m) = B (u_1, ..., u_m) + (0, ..., 0, f),

with Gamma on the superdiagonal of B and last-row blocks
b_i = a_{m-i+1} Gamma^{i-m}, all of order one, so the system is genuinely
first order in time and first order in frequency.

Per representation the blocks are plain matrices, so the stacked (m d) x d
coefficient blocks go through the evolve module's stepping code: the same
exact-exponential / Crank-Nicolson / RK4 updates and the same driver, RK4
substepping included.  Only the companion propagators are built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .harmonic import SpectralField
from .symbol import Symbol, bessel_weight
from .evolve import (
    _exact_propagators,
    _forcing_at,
    _integrate,
    weighted_field,
)


@dataclass
class HigherOrderProblem:
    """Order-m Cauchy data: coefficients a_1..a_m, data g_1..g_m, forcing.

    coeffs[i-1] holds a_i (the operator multiplying d^{m-i} u / dt^{m-i}),
    either a Symbol of order <= i or None for a missing term.
    """

    m: int
    coeffs: list
    data: list
    forcing: object = None
    T: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("time order m must be at least 2")
        if len(self.coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficient slots, got {len(self.coeffs)}")
        if len(self.data) != self.m:
            raise ValueError(f"need {self.m} data fields, got {len(self.data)}")
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")
        group, two_L = self.data[0].group, self.data[0].two_L
        for g in self.data:
            if g.group != group or g.two_L != two_L:
                raise ValueError("data fields disagree on group or bandlimit")
        if isinstance(self.forcing, SpectralField) and (
                self.forcing.group != group or self.forcing.two_L != two_L):
            raise ValueError("forcing and data disagree on group or bandlimit")
        for i, sym in enumerate(self.coeffs, start=1):
            if sym is None:
                continue
            if not isinstance(sym, Symbol):
                raise ValueError(f"coefficient a_{i} is not a symbol")
            if sym.group != group:
                raise ValueError(f"coefficient a_{i} is on {sym.group}, "
                                 f"the data on {group}")
            if sym.order > i + 1e-12:
                raise ValueError(
                    f"coefficient a_{i} declares order {sym.order}, "
                    f"which exceeds its slot order {i}")
            if not sym.x_independent:
                raise ValueError("reduction supports x-independent coefficients")


@dataclass
class FirstOrderSystem:
    """Companion form of a HigherOrderProblem, per-representation blocks."""

    m: int
    group: str
    two_L: int
    coeffs: list
    initial: list          # stacked u_j(0) = Gamma^{m-j} g_j
    forcing: object = None
    T: float = 1.0
    gamma_kind: str = "elliptic"
    t_independent: bool = True

    def gamma_power(self, rep, power: float) -> np.ndarray:
        return bessel_weight(rep, float(power), self.gamma_kind)

    def block_matrix(self, t: float, rep) -> np.ndarray:
        """The (m d) x (m d) companion matrix at one representation."""
        d = rep.dim
        m = self.m
        B = np.zeros((m * d, m * d), dtype=complex)
        G = self.gamma_power(rep, 1.0)
        for j in range(m - 1):
            B[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = G
        for i in range(m):
            a = self.coeffs[m - i - 1]       # b_{i+1} = a_{m-i} Gamma^{i+1-m}
            if a is None:
                continue
            A = np.asarray(a.matrix(t, rep))
            B[(m - 1) * d:, i * d:(i + 1) * d] = A @ self.gamma_power(rep, i + 1 - m)
        return B

    def forcing_at(self, t: float):
        return _forcing_at(self.forcing, t)


def reduce_to_first_order(p: HigherOrderProblem,
                          gamma_kind: str = "elliptic") -> FirstOrderSystem:
    """Build the companion system, with u_j(0) = Gamma^{m-j} g_j."""
    group, two_L = p.data[0].group, p.data[0].two_L
    initial = [weighted_field(g, float(p.m - j), gamma_kind)
               for j, g in enumerate(p.data, start=1)]
    t_indep = all(s is None or s.t_independent for s in p.coeffs)
    return FirstOrderSystem(p.m, group, two_L, list(p.coeffs), initial,
                            p.forcing, p.T, gamma_kind, t_indep)


def _last_slot(sys: FirstOrderSystem, f):
    """The stacked forcing (0, ..., 0, f) as per-representation blocks; a
    callable f gives a callable, None stays None."""
    if f is None:
        return None
    if callable(f):
        return lambda t: _last_slot(sys, f(t))
    out = {}
    for rep, mat in f.items():
        d = rep.dim
        F = np.zeros((sys.m * d, d), dtype=complex)
        F[(sys.m - 1) * d:] = mat
        out[rep] = F
    return out


def _exact_block(sys: FirstOrderSystem, rep, t: float, dt: float):
    """Exact propagators of the companion block frozen at the step midpoint."""
    # this module's expm, which perfbench's tracer counts as reduce.expm
    return _exact_propagators(sys.block_matrix(t + 0.5 * dt, rep), dt, expm)


def solve_reduced(sys: FirstOrderSystem, scheme: str = "auto",
                  dt: float = 1e-3):
    """Integrate the companion system; returns the stacked trajectory.

    Each trajectory entry is a list of m SpectralFields (u_1..u_m).  The
    stacked (m d) x d blocks go through the evolve module's stepping core
    and driver: the same dt snapping, scheme choice, per-mode exact /
    Crank-Nicolson / RK4 updates, propagator caching and RK4 substepping.
    """

    def snapshot(state):
        return [SpectralField(sys.group, sys.two_L, {
            rep: V[j * rep.dim:(j + 1) * rep.dim] for rep, V in state.items()})
            for j in range(sys.m)]

    state = {rep: np.concatenate([F[rep] for F in sys.initial], axis=0)
             for rep in sys.initial[0].coeffs}
    _, _, trajectory = _integrate(
        state, sys.T, dt, scheme, x_independent=True,
        t_independent=sys.t_independent, forcing=_last_slot(sys, sys.forcing),
        matrix=sys.block_matrix,
        propagators=partial(_exact_block, sys), record=snapshot)
    return trajectory


def extract_u(sys: FirstOrderSystem, trajectory):
    """Recover u = Gamma^{-(m-1)} u_1 along a stacked trajectory."""
    return [weighted_field(stacked[0], float(1 - sys.m), sys.gamma_kind)
            for stacked in trajectory]
