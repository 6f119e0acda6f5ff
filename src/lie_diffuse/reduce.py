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

The state is one (m, size) buffer whose row j is the packed u_{j+1}; the
forcing enters its last row.  When every coefficient is diagonal at every
representation (no X1, X2, d+ or d- term), B couples entry (r, c) of a block
only across u_1..u_m, and the evolve module's stepping core steps with these
per-entry m x m matrices, the exact propagators coming from one batched expm
of every block row's augmented 2m x 2m matrix.  A dense coefficient keeps
the per-representation (m d) x (m d) blocks on the same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .harmonic import SpectralField
from .symbol import Symbol, bessel_weight
from .evolve import _forcing_at, _integrate, weighted_field


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


def solve_reduced(sys: FirstOrderSystem, scheme: str = "auto",
                  dt: float = 1e-3):
    """Integrate the companion system through the evolve module's driver.
    Each trajectory entry is the list of m SpectralFields u_1..u_m, views
    of the rows of that step's (m, size) buffer."""
    base = sys.initial[0]
    _, _, trajectory = _integrate(
        np.stack([F.data for F in sys.initial]), base.layout, sys.T, dt, scheme,
        x_independent=True, t_independent=sys.t_independent, forcing=sys.forcing,
        # this module's expm, which perfbench's tracer counts as reduce.expm
        matrix=sys.block_matrix, expm=expm,
        record=lambda U: [base.with_data(row) for row in U])
    return trajectory


def extract_u(sys: FirstOrderSystem, trajectory):
    """Recover u = Gamma^{-(m-1)} u_1 along a stacked trajectory."""
    return [weighted_field(stacked[0], float(1 - sys.m), sys.gamma_kind)
            for stacked in trajectory]
