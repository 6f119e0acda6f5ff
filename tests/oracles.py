"""Independent reference constructions used by the test modules.

Everything here is built from textbook angular-momentum formulas, from
finite differences of the group-level evaluator, or (for the well-posedness
scans) from one symbol evaluation per sample, deliberately avoiding the
library's own batched machinery; min_eig_at is the smallest eigenvalue of
a weighted Hermitian part at one degree, from closed-form spectra and the
ladder entries, against which the tail bound is checked.  The SU(2)
Fourier transforms are written
here with einsum, as the reference for the library's matrix-product stages.
The time-stepping references are the per-scheme loops that evolve() and
solve_reduced ran before both shared the evolve module's stepping core.
BlockField and its norms, Bessel weights and invariant_apply are the
dict-of-blocks field layout the package used before its packed buffer;
invariant_apply_bands applies a tridiagonal symbol row by row, as the packed
banded operand does.  quantization_sum and quadrature_average are the
quantized operator and the Haar average straight from their definitions,
one evaluator call per node of the symbol's base grid.  The per-state
energy diagnostics are the ones evolve() ran before it read each state
once: Sobolev norms of the Bessel-weighted field, the identity's pairing
spectral_inner(K v, v), and the estimate fitted on those norms.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, expm

import lie_diffuse.wellposed as wp
from lie_diffuse.harmonic import (
    SU2,
    GridField,
    RepIndex,
    SpectralField,
    dual_enumerate,
    fourier_forward,
    plancherel_norm,
    spectral_inner,
    wigner_matrix,
)
from lie_diffuse.symbol import (apply_spectral, bessel_weight, invariant_apply,
                                weighted_field)


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
# nesting order, with representations by level (two_ell, or |k| with -k
# first).  The library batches each (representation, time) slice over the
# x-nodes and decides its depth and tail from a tail bound; given the depth
# and tail of its report, the scanned minima, witnesses and verdicts must
# match these exactly.

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


def _reps_by_level(group, depth):
    return sorted(dual_enumerate(group, depth),
                  key=lambda rep: rep.two_ell if group == SU2 else abs(rep.k))


def _neg_herm(M):
    M = np.asarray(M)
    return -(0.5 * (M + M.conj().T))


def _min_eig(H):
    off = H - np.diag(np.diagonal(H))
    if not np.any(off):
        return float(np.real(np.diagonal(H)).min()) if H.size else 0.0
    return float(np.linalg.eigvalsh(H).min())


def positivity_per_sample(sym, report, T=1.0, time_samples=17, tol=1e-10,
                          max_x_samples=160):
    """Reference for wellposed.positivity_check, scanned to the depth of its
    report; a passing scan takes the report's tail."""
    times = _time_grid(sym, T, time_samples)
    nodes = _x_nodes(sym, max_x_samples)
    depth = report.scanned["scan_two_L"]
    best, best_w, first_fail = math.inf, None, None
    for rep in _reps_by_level(sym.group, depth):
        for t in times:
            for node in nodes:
                eig = _min_eig(_neg_herm(sym.evaluator(t, node, rep)))
                if eig < best:
                    best = eig
                    best_w = wp.Witness(t, node, rep, eig)
                if eig < -tol and first_fail is None:
                    first_fail = wp.Witness(t, node, rep, eig)
    scanned = {"scan_two_L": depth, "time_samples": len(times),
               "x_samples": len(nodes)}
    if first_fail is not None:
        return wp.EllipticityReport("failed", best, first_fail, scanned,
                                    tail="conclusive")
    return wp.EllipticityReport("positive", best, best_w, scanned, tail=report.tail)


def strong_ellipticity_per_sample(sym, report, T=1.0, time_samples=17,
                                  weight_kind="elliptic",
                                  min_weight=math.sqrt(2.0), tol=1e-10,
                                  max_x_samples=160):
    """Reference for wellposed.strong_ellipticity_constant, scanned to the
    depth of its report.  A conclusive tail bound caps both constants, so
    those are min(scanned, report's constant) and the tail the report's."""
    times = _time_grid(sym, T, time_samples)
    nodes = _x_nodes(sym, max_x_samples)
    depth = report.scanned["scan_two_L"]
    m = sym.order
    best, best_w, best_ex = math.inf, None, math.inf
    for rep in _reps_by_level(sym.group, depth):
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
    if report.tail == "conclusive":
        best = min(best, report.constant)
        best_ex = min(best_ex, report.excluded_constant)
    scanned = {"scan_two_L": depth, "time_samples": len(times),
               "x_samples": len(nodes)}
    kind = "strongly_elliptic" if best > tol else "failed"
    ex_kind = "strongly_elliptic" if best_ex > tol else "failed"
    return wp.EllipticityReport(kind, best, best_w, scanned, tail=report.tail,
                                excluded_constant=best_ex, excluded_kind=ex_kind,
                                min_weight=min_weight)


# ---------------------------------------------------------------- tail reference
#
# The smallest eigenvalue of -Herm sigma at one SU(2) degree, weighted by
# W^{-m/2} on both sides when a weight kind is given, from the textbook
# angular-momentum matrices and closed-form spectra (lam = ell(ell+1),
# mu = lam - j^2), against which the library's tail bound is checked.

def min_eig_at(terms, coefs, two_ell, m=0.0, kind=None):
    """lambda_min of (W^{-m/2}) (-Herm sum_k coefs[k] base_k) (W^{-m/2}) at
    two_ell, W the elliptic (1 + lam)^{1/2} or subelliptic (1 + mu)^{1/2}
    weight (none when kind is None).  Every base is tridiagonal in the
    increasing-j basis (J+ below the diagonal, with entries
    (lam - j (j + 1))^{1/2}), and a Hermitian tridiagonal matrix is
    unitarily similar to the real one with its diagonal and the moduli of
    its off-diagonal."""
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    lam = np.full(two_ell + 1, two_ell * (two_ell + 2) / 4.0)
    mu = lam - j ** 2
    c = np.sqrt(lam[1:] - j[:-1] * (j[:-1] + 1))   # J+ from j to j + 1
    zero = np.zeros_like(c)
    diagonal = {"laplace": lambda e: lam ** e, "sublaplace": lambda e: mu ** e,
                "bessel": lambda e: (1 + lam) ** (e / 2),
                "sbessel": lambda e: (1 + mu) ** (e / 2),
                "id": lambda e: np.ones_like(lam)}
    fields = {"iX3": (j, zero, zero), "d0": (j, zero, zero), "X3": (-1j * j, zero, zero),
              "X1": (0 * j, -0.5j * c, -0.5j * c), "X2": (0 * j, -0.5 * c, 0.5 * c),
              "d+": (0 * j, c, zero), "d-": (0 * j, zero, c)}   # (main, sub, super)
    main, sub, sup = 0j, 0j, 0j
    for t, k in zip(terms, coefs):
        d, lo, up = (diagonal[t.base](t.exponent), zero, zero) if t.base in diagonal \
            else fields[t.base]
        main, sub, sup = main + k * d, sub + k * lo, sup + k * up
    h_main, h_sup = -np.real(main), -0.5 * (sup + np.conj(sub))
    if kind is not None:
        w = (1 + (lam if kind == "elliptic" else mu)) ** (-m / 4)
        h_main, h_sup = w * w * h_main, w[:-1] * w[1:] * h_sup
    return float(eigvalsh_tridiagonal(h_main * np.ones_like(lam), np.abs(h_sup) * np.ones_like(c),
                                      select="i", select_range=(0, 0))[0])


# ---------------------------------------------------------------- quantization reference
#
# (A f)(x) = sum_xi d_xi Tr[xi(x) a(t, x, xi) fhat(xi)] and the Haar average
# of a(t, x, xi), summed node by node over the symbol's base grid with the
# dense evaluator, against which the term-by-term appliers are checked.

def _rep_at_nodes(grid, rep):
    """xi(x_n) at every node of the grid (flat order), shape (N, d, d)."""
    if grid.group != SU2:
        return np.exp(-1j * rep.k * grid.theta)[:, None, None]
    nodes = np.meshgrid(grid.phi, grid.theta, grid.psi, indexing="ij")
    return np.stack([wigner_matrix(rep, angles)
                     for angles in zip(*(a.ravel() for a in nodes))])


def quantization_sum(sym, t, f):
    """Reference for quantize_apply on f given at sym's base-grid nodes."""
    grid = sym.base_grid
    assert f.grid is grid
    out = np.zeros(grid.node_count, dtype=complex)
    for rep, mat in fourier_forward(f).items():
        xi = _rep_at_nodes(grid, rep)
        for n in range(grid.node_count):
            out[n] += rep.dim * np.trace(xi[n] @ sym.evaluator(t, n, rep) @ mat)
    return GridField(grid, out)


def quadrature_average(sym, t, rep):
    """Reference for Symbol.matrix of an x-dependent symbol: the base grid's
    quadrature of the symbol over x."""
    w = sym.base_grid.weights()
    return sum(w[n] * sym.evaluator(t, n, rep) for n in range(len(w)))


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


def invariant_apply_bands(sym, F, t=0.0):
    """One evaluator call per block, applied through its three diagonals row
    by row: out[r] = A[r, r-1] V[r-1] + A[r, r] V[r] + A[r, r+1] V[r+1], the
    terms past the block's edges left out."""
    out = {}
    for rep, V in F.items():
        A = np.asarray(sym.evaluator(t, None, rep))
        d = rep.dim
        W = np.empty_like(V)
        for r in range(d):
            row = A[r, r] * V[r]
            if r > 0:
                row = A[r, r - 1] * V[r - 1] + row
            if r < d - 1:
                row = row + A[r, r + 1] * V[r + 1]
            W[r] = row
        out[rep] = W
    return BlockField(F.group, F.two_L, out)


# ---------------------------------------------------------------- per-state energy diagnostics

def sobolev_norm_weighted(F, s, kind="elliptic"):
    """H^s norm as the Plancherel norm of the Bessel-weighted field."""
    if s == 0.0:
        return math.sqrt(plancherel_norm(F))
    return math.sqrt(plancherel_norm(weighted_field(F, s, kind)))


def energy_identity_terms(trajectory, sym, forcing_at, dt, t0=0.0):
    """Per sample (residual, |dE| + |2 Re(Kv, v)|) of d/dt ||v||^2 =
    2 Re(Kv, v) + 2 Re(f, v), with E = plancherel_norm(v) and K v applied."""
    n = len(trajectory)
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
        Kv = invariant_apply(sym, v, t) if sym.x_independent \
            else apply_spectral(sym, t, v)
        pair = 2.0 * spectral_inner(Kv, v).real
        rhs = pair
        f = forcing_at(t) if forcing_at is not None else None
        if f is not None:
            rhs += 2.0 * spectral_inner(f, v).real
        out.append((abs(dE - rhs), abs(dE) + abs(pair)))
    return out


def energy_estimate_weighted(trajectory, u0, forcing_at, s=0.0,
                             kind="elliptic", dt=1e-2):
    """(C, C', satisfied) fitted as evolve's energy_estimate_check does, on
    sobolev_norm_weighted."""
    E = np.array([sobolev_norm_weighted(v, s, kind) ** 2 for v in trajectory])
    U = sobolev_norm_weighted(u0, s, kind) ** 2
    n = len(trajectory)
    fnorm2 = np.zeros(n)
    if forcing_at is not None:
        for i in range(n):
            f = forcing_at(i * dt)
            if f is not None:
                fnorm2[i] = sobolev_norm_weighted(f, s, kind) ** 2
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


def energy_report_per_state(problem, trajectory, dt):
    """evolve()'s report fields from the per-state route, plus the identity's
    per-sample scales |dE| + |2 Re(Kv, v)|."""
    s, kind, order = problem.s, problem.kind, problem.sym.order
    terms = energy_identity_terms(trajectory, problem.sym, problem.forcing_at, dt)
    C, C_prime, satisfied = energy_estimate_weighted(
        trajectory, problem.u0, problem.forcing_at, s, kind, dt)
    return {
        "l2_norms": [math.sqrt(plancherel_norm(w)) for w in trajectory],
        "hs_norms": [sobolev_norm_weighted(w, s, kind) for w in trajectory],
        "hs_gain_norms": [sobolev_norm_weighted(w, s + 0.5 * order, kind)
                          for w in trajectory],
        "identity_residuals": [r for r, _ in terms],
        "identity_scales": [scale for _, scale in terms],
        "C": C, "C_prime": C_prime, "estimate_satisfied": satisfied}
