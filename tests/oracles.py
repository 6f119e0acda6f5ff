"""Independent reference constructions used by the test modules.

Everything here is built from textbook angular-momentum formulas, from
finite differences of the group-level evaluator, or (for the well-posedness
scans) from one symbol evaluation per sample, deliberately avoiding the
library's own batched machinery.  The SU(2) Fourier transforms are written
here with einsum, as the reference for the library's matrix-product stages.
The time-stepping references are the per-scheme loops that evolve() and
solve_reduced ran before both shared the evolve module's stepping core.
BlockField and its norms, Bessel weights and invariant_apply are the
dict-of-blocks field layout the package used before its packed buffer.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

import lie_diffuse.wellposed as wp
from lie_diffuse.harmonic import (
    SU2,
    GridField,
    RepIndex,
    SpectralField,
    dual_enumerate,
    wigner_matrix,
)
from lie_diffuse.symbol import bessel_weight


def ladder(two_ell):
    """Angular momentum matrices Jz, J+, J- in the increasing-j basis."""
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    ell = two_ell / 2.0
    d = two_ell + 1
    Jz = np.diag(j).astype(complex)
    Jp = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        Jp[i + 1, i] = np.sqrt(ell * (ell + 1) - j[i] * (j[i] + 1))
    Jm = Jp.conj().T
    return Jz, Jp, Jm


def _dirdiff(two_ell, angles_of_s, h=0.02):
    """d/ds xi(exp(s X))|_0 by Richardson-extrapolated central differences."""
    rep = RepIndex(SU2, two_ell=two_ell)

    def D(step):
        return (wigner_matrix(rep, angles_of_s(step))
                - wigner_matrix(rep, angles_of_s(-step))) / (2.0 * step)

    r1a = (4.0 * D(h / 2) - D(h)) / 3.0
    r1b = (4.0 * D(h / 4) - D(h / 2)) / 3.0
    return (16.0 * r1b - r1a) / 15.0


def lie_algebra_fd(two_ell):
    """dxi(X1), dxi(X2), dxi(X3) from group-level finite differences.

    exp(s X3) and exp(s X2) are Euler-angle curves; X1 = [X2, X3] supplies
    the third generator without needing a third curve.
    """
    dX3 = _dirdiff(two_ell, lambda s: (s, 0.0, 0.0))
    dX2 = _dirdiff(two_ell, lambda s: (0.0, s, 0.0))
    dX1 = dX2 @ dX3 - dX3 @ dX2
    return dX1, dX2, dX3


# ---------------------------------------------------------------- transform reference

def su2_forward_einsum(f, two_L):
    """Reference for harmonic._su2_forward: phi, psi and theta stages as einsum."""
    g = f.grid
    T = g._plan(g.two_L)
    A, B, C = g.n_phi, g.n_theta, g.n_psi
    vals = f.values.reshape(A, B, C)
    U = np.einsum("am,abc->mbc", np.conj(g._ephi), vals) / A
    V = np.einsum("cn,mbc->mbn", np.conj(g._epsi), U) / C
    out = {}
    for rep in dual_enumerate(SU2, two_L):
        tl = rep.two_ell
        sel = np.arange(T - tl, T + tl + 1, 2)
        Vsel = V[np.ix_(sel, np.arange(B), sel)]
        out[rep] = np.einsum("b,bmn,mbn->nm", g.w_theta, g._dstacks[tl], Vsel)
    return SpectralField(SU2, two_L, out)


def su2_inverse_einsum(F, grid):
    """Reference for harmonic._su2_inverse, in the same einsum form."""
    T = grid._plan(max(grid.two_L, F.two_L))
    B = grid.n_theta
    M = 2 * T + 1
    W = np.zeros((M, B, M), dtype=complex)
    for rep, mat in F.items():
        tl = rep.two_ell
        sel = np.arange(T - tl, T + tl + 1, 2)
        W[np.ix_(sel, np.arange(B), sel)] += (tl + 1) * np.einsum(
            "bmn,nm->mbn", grid._dstacks[tl], mat)
    Tarr = np.einsum("mbn,cn->mbc", W, grid._epsi)
    vals = np.einsum("am,mbc->abc", grid._ephi, Tarr)
    return GridField(grid, vals.ravel())


# ---------------------------------------------------------------- scan reference
#
# The well-posedness scans as a plain per-sample loop: one sym.evaluator call
# and one eigenvalue problem per (representation, time, x-node), in that
# nesting order.  The library batches each (representation, time) slice over
# the x-nodes; its reports must match these exactly.

def _time_grid(sym, T, n):
    if sym.t_independent or n == 1:
        return [0.0]
    return [0.5 * T * (1.0 - math.cos(math.pi * i / (n - 1))) for i in range(n)]


def _x_nodes(sym, max_x_samples):
    if sym.x_independent:
        return [None]
    n = sym.base_grid.node_count
    stride = max(1, -(-n // max_x_samples))
    return list(range(0, n, stride))


def _neg_herm(M):
    M = np.asarray(M)
    return -(0.5 * (M + M.conj().T))


def _min_eig(H):
    off = H - np.diag(np.diagonal(H))
    if not np.any(off):
        return float(np.real(np.diagonal(H)).min()) if H.size else 0.0
    return float(np.linalg.eigvalsh(H).min())


def _default_depth(sym, scan_two_L):
    if scan_two_L is not None:
        return scan_two_L
    if not sym.x_independent:
        return 2 * sym.two_L
    return 100 if wp._herm_diagonal_everywhere(sym) else 40


def positivity_per_sample(sym, T=1.0, time_samples=17, scan_two_L=None,
                          tol=1e-10, max_x_samples=160):
    """Reference for wellposed.positivity_check."""
    times = _time_grid(sym, T, time_samples)
    nodes = _x_nodes(sym, max_x_samples)
    scan_two_L = _default_depth(sym, scan_two_L)
    tail_kind, needed = wp._structural_tail(sym, times)
    if tail_kind == "extend":
        scan_two_L = max(scan_two_L, needed)
    best, best_w, first_fail = math.inf, None, None
    for rep in dual_enumerate(sym.group, scan_two_L):
        for t in times:
            for node in nodes:
                eig = _min_eig(_neg_herm(sym.evaluator(t, node, rep)))
                if eig < best:
                    best = eig
                    best_w = wp.Witness(t, node, rep, eig)
                if eig < -tol and first_fail is None:
                    first_fail = wp.Witness(t, node, rep, eig)
    scanned = {"scan_two_L": scan_two_L, "time_samples": len(times),
               "x_samples": len(nodes)}
    if first_fail is not None:
        return wp.EllipticityReport("failed", best, first_fail, scanned,
                                    tail="conclusive")
    tail = "scan-limited" if tail_kind == "none" else "conclusive"
    return wp.EllipticityReport("positive", best, best_w, scanned, tail=tail)


def strong_ellipticity_per_sample(sym, T=1.0, time_samples=17, scan_two_L=None,
                                  weight_kind="elliptic",
                                  min_weight=math.sqrt(2.0), tol=1e-10,
                                  max_x_samples=160):
    """Reference for wellposed.strong_ellipticity_constant."""
    times = _time_grid(sym, T, time_samples)
    nodes = _x_nodes(sym, max_x_samples)
    scan_two_L = _default_depth(sym, scan_two_L)
    m = sym.order
    best, best_w, best_ex = math.inf, None, math.inf
    for rep in dual_enumerate(sym.group, scan_two_L):
        Winvh = bessel_weight(rep, -m / 2.0, weight_kind)
        lam = rep.two_ell * (rep.two_ell + 2) / 4.0 if sym.group == SU2 \
            else float(rep.k ** 2)
        included = (1.0 + lam) ** 0.5 >= min_weight
        for t in times:
            for node in nodes:
                H = _neg_herm(sym.evaluator(t, node, rep))
                C = _min_eig(Winvh @ H @ Winvh)
                if C < best:
                    best = C
                    best_w = wp.Witness(t, node, rep, C)
                if included and C < best_ex:
                    best_ex = C
    scanned = {"scan_two_L": scan_two_L, "time_samples": len(times),
               "x_samples": len(nodes)}
    kind = "strongly_elliptic" if best > tol else "failed"
    ex_kind = "strongly_elliptic" if best_ex > tol else "failed"
    return wp.EllipticityReport(kind, best, best_w, scanned, tail="scan-limited",
                                excluded_constant=best_ex, excluded_kind=ex_kind,
                                min_weight=min_weight)


# ---------------------------------------------------------------- stepping reference
#
# evolve() on the exact scheme and solve_reduced under every scheme, as
# separate loops with their own propagators.  The library's shared stepping
# core does the same floating-point operations in the same order for evolve
# and for a companion system with a dense coefficient, so those trajectories
# must match these bit for bit.  A companion whose blocks are all diagonal is
# stepped entry by entry with m x m matrices, which round differently.

def _phi1(w):
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-8
    safe = np.where(small, 1.0, w)
    out = (np.exp(safe) - 1.0) / safe
    series = 1.0 + w / 2.0 + w * w / 6.0
    return np.where(small, series, out)


def _propagators(A, dt):
    """(kind, P, Q) of one exact step of v' = A v + f."""
    d = A.shape[0]
    off = A - np.diag(np.diagonal(A))
    if not np.any(off):
        a = np.diagonal(A)
        return ("diag", np.exp(dt * a), dt * _phi1(dt * a))
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = dt * A
    big[:d, d:] = dt * np.eye(d)
    E = expm(big)
    return ("dense", E[:d, :d], E[:d, d:])


def _steps(T, dt):
    n_steps = max(2, int(round(T / dt)))
    return n_steps, T / n_steps


def evolve_exact_loop(problem, dt):
    """Reference trajectory of evolve(problem, scheme="exact", dt=dt):
    propagators built once when the symbol and forcing are t-independent,
    otherwise per step at the step midpoint."""
    sym, forcing = problem.sym, problem.forcing
    n_steps, dt = _steps(problem.T, dt)
    cached = sym.t_independent and not callable(forcing)
    if cached:
        props = {rep: _propagators(np.asarray(sym.evaluator(0.5 * dt, None, rep)), dt)
                 for rep in problem.u0.coeffs}
    trajectory = [problem.u0.copy()]
    v = problem.u0
    for n in range(n_steps):
        t = n * dt
        f = forcing(t + 0.5 * dt) if callable(forcing) else forcing
        out = v.zeros_like()
        for rep, V in v.items():
            kind, P, Q = props[rep] if cached else _propagators(
                np.asarray(sym.evaluator(t + 0.5 * dt, None, rep)), dt)
            Fm = f[rep] if f is not None else None
            if kind == "diag":
                new = P[:, None] * V
                if Fm is not None:
                    new = new + Q[:, None] * Fm
            else:
                new = P @ V
                if Fm is not None:
                    new = new + Q @ Fm
            out.coeffs[rep] = new
        v = out
        trajectory.append(v)
    return trajectory


def solve_reduced_loop(sys, scheme, dt):
    """Reference for solve_reduced: each stacked (m d) x d block stepped on
    its own by the exact, Crank-Nicolson or RK4 formula (no substepping)."""
    n_steps, dt = _steps(sys.T, dt)
    m = sys.m
    reps = list(sys.initial[0].coeffs)
    state = {rep: np.concatenate([F[rep] for F in sys.initial], axis=0)
             for rep in reps}

    def exact_block(rep, t):
        B = sys.block_matrix(t + 0.5 * dt, rep)
        n = B.shape[0]
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[:n, :n] = dt * B
        big[:n, n:] = dt * np.eye(n)
        E = expm(big)
        return E[:n, :n], E[:n, n:]

    const_force = not callable(sys.forcing)
    cache = {}
    if scheme == "exact" and sys.t_independent and const_force:
        cache = {rep: exact_block(rep, 0.0) for rep in reps}

    def forcing_block(t, rep):
        f = sys.forcing_at(t)
        if f is None:
            return None
        d = rep.dim
        F = np.zeros((m * d, d), dtype=complex)
        F[(m - 1) * d:] = f[rep]
        return F

    def rk4_block(rep, V, t):
        def rhs(tau, W):
            out = sys.block_matrix(tau, rep) @ W
            F = forcing_block(tau, rep)
            return out + F if F is not None else out

        k1 = rhs(t, V)
        k2 = rhs(t + 0.5 * dt, V + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, V + 0.5 * dt * k2)
        k4 = rhs(t + dt, V + dt * k3)
        return V + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def snapshot():
        fields = [SpectralField.zeros(sys.group, sys.two_L) for _ in range(m)]
        for rep in reps:
            d = rep.dim
            for j in range(m):
                fields[j].coeffs[rep] = state[rep][j * d:(j + 1) * d]
        return fields

    trajectory = [snapshot()]
    for n in range(n_steps):
        t = n * dt
        for rep in reps:
            V = state[rep]
            if scheme == "exact":
                P, Q = cache.get(rep) or exact_block(rep, t)
                Fm = forcing_block(t + 0.5 * dt, rep)
                V = P @ V if Fm is None else P @ V + Q @ Fm
            elif scheme == "cn":
                tm = t + 0.5 * dt
                B = sys.block_matrix(tm, rep)
                rhs = V + (0.5 * dt) * (B @ V)
                Fm = forcing_block(tm, rep)
                if Fm is not None:
                    rhs = rhs + dt * Fm
                V = np.linalg.solve(np.eye(B.shape[0]) - 0.5 * dt * B, rhs)
            else:
                V = rk4_block(rep, V, t)
            state[rep] = V
        trajectory.append(snapshot())
    return trajectory


# ---------------------------------------------------------------- field layout reference
#
# One separately allocated d x d block per representation, arithmetic block by
# block, and weights and symbols applied with dense matrix products.  The
# packed field does the same elementwise floating-point operations (a
# diagonal-matrix product gives the entry times the diagonal), so blocks must
# match exactly; norms and pairings sum in another order and match to
# rounding.

@dataclass
class BlockField:
    """Dict-of-blocks spectral field; missing blocks are zero."""

    group: str
    two_L: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        full = {}
        for rep in dual_enumerate(self.group, self.two_L):
            mat = self.coeffs.get(rep)
            if mat is None:
                mat = np.zeros((rep.dim, rep.dim), dtype=complex)
            else:
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (rep.dim, rep.dim):
                    raise ValueError(f"coefficient shape {mat.shape} wrong for {rep}")
            full[rep] = mat
        for rep in self.coeffs:
            if rep not in full:
                raise ValueError(f"representation {rep} above bandlimit {self.two_L}")
        self.coeffs = full

    @classmethod
    def of(cls, F):
        """Copy of a packed field's blocks."""
        return cls(F.group, F.two_L, {rep: np.array(m) for rep, m in F.items()})

    def items(self):
        return self.coeffs.items()

    def __getitem__(self, rep):
        return self.coeffs[rep]

    def __add__(self, other):
        return BlockField(self.group, self.two_L,
                          {r: m + other.coeffs[r] for r, m in self.coeffs.items()})

    def __sub__(self, other):
        return BlockField(self.group, self.two_L,
                          {r: m - other.coeffs[r] for r, m in self.coeffs.items()})

    def __mul__(self, c):
        return BlockField(self.group, self.two_L,
                          {r: c * m for r, m in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def plancherel_norm_blocks(F):
    """sum_xi d_xi ||F(xi)||_HS^2, one block at a time."""
    total = 0.0
    for rep, mat in F.items():
        total += rep.dim * float(np.sum(np.abs(mat) ** 2))
    return total


def spectral_inner_blocks(F, G):
    """sum_xi d_xi Tr[F(xi) G(xi)^*] through one matrix product per block."""
    total = 0.0 + 0.0j
    for rep, mat in F.items():
        total += rep.dim * np.trace(mat @ G[rep].conj().T)
    return complex(total)


def weighted_field_blocks(F, s, kind="elliptic"):
    """The order-s Bessel weight as a dense matrix product per block."""
    return BlockField(F.group, F.two_L,
                      {rep: bessel_weight(rep, s, kind) @ mat for rep, mat in F.items()})


def invariant_apply_blocks(sym, F, t=0.0):
    """One evaluator call and one matrix product per block."""
    return BlockField(F.group, F.two_L,
                      {rep: sym.evaluator(t, None, rep) @ mat for rep, mat in F.items()})
