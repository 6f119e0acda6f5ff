"""Independent reference constructions used by the test modules.

Everything here is built from textbook angular-momentum formulas, from
finite differences of the group-level evaluator, or (for the well-posedness
scans) from one symbol evaluation per sample, deliberately avoiding the
library's own batched machinery.  The SU(2) Fourier transforms are written
here with einsum, as the reference for the library's matrix-product stages.
"""

import math

import numpy as np

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
