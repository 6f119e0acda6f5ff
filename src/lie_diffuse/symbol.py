"""Symbols of invariant and variable-coefficient operators.

A symbol assigns to each representation (and possibly each time and grid
node) a d x d matrix; the associated operator acts by

    (A f)(x) = sum_xi d_xi Tr[ xi(x) a(t, x, xi) fhat(xi) ],

so an invariant symbol acts per mode as fhat(xi) -> a(xi) fhat(xi) and the
matrix coefficient xi_{ij} is an eigenfunction of any diagonal symbol with
eigenvalue taken at the column index j.

First-order generators on SU(2) follow the creation/annihilation/neutral
triple d+, d-, d0 with commutators [d0, d+] = d+, [d-, d0] = d-,
[d+, d-] = 2 d0, realized on symbols by the angular-momentum ladder
matrices.  The real basis is X1 = -i/2 (d- + d+), X2 = (d- - d+)/2,
X3 = -i d0, so sigma(iX3) = diag(j).  The Laplacian has symbol
ell(ell+1) I and the sub-Laplacian -X1^2 - X2^2 has diag(ell(ell+1) - j^2).

Operators are described structurally as sums of coefficient * base terms
(OperatorSpec); coefficients may be constants, bandlimited spatial fields,
and scalar time profiles.  Products of a spatial coefficient with a
bandlimited state are formed on a grid resolving the combined bandwidth and
projected back, which avoids aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .harmonic import (
    SU2,
    TORUS1,
    GridField,
    GridSpec,
    RepIndex,
    SpectralField,
    dual_enumerate,
    fourier_forward,
    fourier_inverse,
    quadrature_grid,
)

VECTOR_FIELDS = ("d0", "d+", "d-", "X1", "X2", "X3", "iX3")
_DIAGONAL_BASES = ("laplace", "sublaplace", "bessel", "sbessel", "id")
_HERMITIAN_BASES = _DIAGONAL_BASES + ("d0", "iX3")


@lru_cache(maxsize=None)
def _ladder(two_ell: int):
    """Jz, J+, J- for the given doubled degree, increasing-j basis."""
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    ell = two_ell / 2.0
    d = two_ell + 1
    Jz = np.diag(j).astype(complex)
    Jp = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        Jp[i + 1, i] = np.sqrt(ell * (ell + 1) - j[i] * (j[i] + 1))
    Jm = Jp.conj().T.copy()
    Jz.flags.writeable = False
    Jp.flags.writeable = False
    Jm.flags.writeable = False
    return Jz, Jp, Jm


def laplace_symbol(rep: RepIndex) -> np.ndarray:
    """Symbol of the (positive) Laplacian: ell(ell+1) I, or k^2 on the circle."""
    if rep.group == TORUS1:
        return np.array([[float(rep.k ** 2)]], dtype=complex)
    tl = rep.two_ell
    lam = tl * (tl + 2) / 4.0
    return lam * np.eye(tl + 1, dtype=complex)


def sublaplace_symbol(rep: RepIndex) -> np.ndarray:
    """Symbol of the sub-Laplacian -X1^2 - X2^2: diag(ell(ell+1) - j^2)."""
    if rep.group != SU2:
        raise ValueError("sublaplace_symbol is defined on SU(2) only")
    tl = rep.two_ell
    lam = tl * (tl + 2) / 4.0
    j = np.arange(-tl, tl + 1, 2) / 2.0
    return np.diag(lam - j ** 2).astype(complex)


def vector_field_symbol(name: str, rep: RepIndex) -> np.ndarray:
    """Symbol of a first-order generator; see the module docstring for names."""
    if rep.group != SU2:
        raise ValueError("vector fields are defined on SU(2) only")
    Jz, Jp, Jm = _ladder(rep.two_ell)
    if name == "d0":
        return Jz.copy()
    if name == "d+":
        return Jp.copy()
    if name == "d-":
        return Jm.copy()
    if name == "X1":
        return -0.5j * (Jp + Jm)
    if name == "X2":
        return 0.5 * (Jm - Jp)
    if name == "X3":
        return -1j * Jz
    if name == "iX3":
        return Jz.copy()
    raise ValueError(f"unknown vector field {name!r}")


def bessel_weight(rep: RepIndex, s: float, kind: str = "elliptic") -> np.ndarray:
    """Weight matrix for H^s norms: (1 + Laplacian)^{s/2} per mode.

    kind "elliptic" uses the full Laplacian, giving (1 + ell(ell+1))^{s/2} I;
    kind "subelliptic" uses the sub-Laplacian spectrum per diagonal slot,
    diag((1 + ell(ell+1) - j^2)^{s/2}).  On the circle the two coincide.
    """
    if kind not in ("elliptic", "subelliptic"):
        raise ValueError(f"unknown weight kind {kind!r}")
    if rep.group == TORUS1:
        return np.array([[(1.0 + rep.k ** 2) ** (s / 2.0)]], dtype=complex)
    tl = rep.two_ell
    lam = tl * (tl + 2) / 4.0
    if kind == "elliptic":
        return (1.0 + lam) ** (s / 2.0) * np.eye(tl + 1, dtype=complex)
    j = np.arange(-tl, tl + 1, 2) / 2.0
    return np.diag((1.0 + lam - j ** 2) ** (s / 2.0)).astype(complex)


def fractional_power(M: np.ndarray, p: float) -> np.ndarray:
    """M^p for Hermitian positive semidefinite M, p >= 0.

    Diagonal input takes the entrywise fast path; otherwise the power goes
    through an eigendecomposition.  Eigenvalues in [-1e-12, 0) are clamped
    to zero; anything more negative is an error, as is non-Hermitian input.
    """
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    M = np.asarray(M, dtype=complex)
    scale = max(1.0, float(np.abs(M).max()) if M.size else 1.0)
    if np.abs(M - M.conj().T).max() > 1e-10 * scale:
        raise ValueError("non-Hermitian input")
    off = M - np.diag(np.diagonal(M))
    if not np.any(off):
        ev = np.real(np.diagonal(M)).copy()
        if ev.min() < -1e-12 * scale:
            raise ValueError(f"negative eigenvalue {ev.min():g}")
        ev[ev < 0] = 0.0
        return np.diag(ev ** p).astype(complex)
    ev, V = np.linalg.eigh(M)
    if ev.min() < -1e-12 * scale:
        raise ValueError(f"negative eigenvalue {ev.min():g}")
    ev = np.where(ev < 0, 0.0, ev)
    return (V * ev ** p) @ V.conj().T


def _base_matrix(base: str, exponent: float, rep: RepIndex) -> np.ndarray:
    if base == "id":
        return np.eye(rep.dim, dtype=complex)
    if base in ("laplace", "sublaplace"):
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} for {base}")
        mat = laplace_symbol(rep) if base == "laplace" else sublaplace_symbol(rep)
        diag = np.real(np.diagonal(mat))
        return np.diag(diag ** exponent).astype(complex)
    if base == "bessel":
        return bessel_weight(rep, exponent, "elliptic")
    if base == "sbessel":
        return bessel_weight(rep, exponent, "subelliptic")
    if base in VECTOR_FIELDS:
        return vector_field_symbol(base, rep)
    raise ValueError(f"unknown base {base!r}")


def _base_order(base: str, exponent: float) -> float:
    if base == "id":
        return 0.0
    if base in ("laplace", "sublaplace"):
        return 2.0 * exponent
    if base in ("bessel", "sbessel"):
        return float(exponent)
    return 1.0  # vector fields


@dataclass
class OperatorTerm:
    """One coefficient * base summand of an operator description.

    The coefficient is const * space(x) * profile(t); space is a bandlimited
    real field (given spectrally or as grid samples) and profile a real
    callable of time.  Missing factors default to 1.
    """

    base: str
    exponent: float = 1.0
    const: complex = 1.0
    space: SpectralField | None = None
    profile: Callable[[float], float] | None = None


@dataclass
class OperatorSpec:
    """Structured operator description: a sum of OperatorTerm entries.

    two_L fixes the working bandlimit for coefficient sampling; rho, delta
    and kappa declare the symbol class and step count used by the
    well-posedness checks (kappa = 2 for genuinely subelliptic SU(2)
    operators, 1 for elliptic ones).
    """

    group: str
    two_L: int
    terms: list[OperatorTerm] = field(default_factory=list)
    rho: float = 1.0
    delta: float = 0.0
    kappa: int = 1


@dataclass
class Symbol:
    """Evaluated symbol with classification metadata.

    evaluator(t, x_node, rep) returns the d x d matrix; x_node is a flat
    node index into base_grid, or None for x-independent evaluation.  Terms
    (when built from an OperatorSpec) keep the structural description used
    by the fast application paths and the well-posedness tail analysis.
    """

    evaluator: Callable
    order: float
    rho: float = 1.0
    delta: float = 0.0
    kappa: int = 1
    x_independent: bool = True
    t_independent: bool = True
    hermitian: bool = False
    group: str = SU2
    two_L: int = 0
    terms: list[OperatorTerm] | None = None
    base_grid: GridSpec | None = None

    def __post_init__(self):
        self._space_samples: dict[tuple[int, int], np.ndarray] = {}

    def space_samples(self, term_index: int, grid: GridSpec) -> np.ndarray:
        """Samples of a term's spatial coefficient on the given grid (cached)."""
        key = (term_index, id(grid))
        if key not in self._space_samples:
            space = self.terms[term_index].space
            self._space_samples[key] = fourier_inverse(space, grid).values
        return self._space_samples[key]


def build_operator_symbol(spec: OperatorSpec) -> Symbol:
    """Compile an OperatorSpec into a Symbol.

    Spatial coefficients given as GridFields are Fourier-transformed at the
    spec bandlimit; the checks reject sub-Laplacian or vector-field bases
    off SU(2) and negative diffusion exponents.
    """
    if spec.group not in (SU2, TORUS1):
        raise ValueError(f"unknown group {spec.group!r}")
    grid = quadrature_grid(spec.group, spec.two_L)
    terms: list[OperatorTerm] = []
    hermitian = True
    for term in spec.terms:
        if term.base in ("laplace", "sublaplace") and term.exponent < 0:
            raise ValueError(
                f"negative exponent {term.exponent} for {term.base}")
        if spec.group == TORUS1 and term.base in VECTOR_FIELDS + ("sublaplace", "sbessel"):
            raise ValueError(f"base {term.base!r} is defined on SU(2) only")
        space = term.space
        if isinstance(space, GridField):
            space = fourier_forward(space, min(space.grid.two_L, spec.two_L))
        if space is not None and (space.group != spec.group
                                  or space.two_L > spec.two_L):
            raise ValueError("coefficient field does not match the spec grid")
        terms.append(OperatorTerm(term.base, term.exponent, complex(term.const),
                                  space, term.profile))
        if term.base not in _HERMITIAN_BASES or abs(complex(term.const).imag) > 0:
            hermitian = False
    x_indep = all(t.space is None for t in terms)
    t_indep = all(t.profile is None for t in terms)
    order = max((_base_order(t.base, t.exponent) for t in terms), default=0.0)

    sym = Symbol(evaluator=None, order=order, rho=spec.rho, delta=spec.delta,
                 kappa=spec.kappa, x_independent=x_indep, t_independent=t_indep,
                 hermitian=hermitian, group=spec.group, two_L=spec.two_L,
                 terms=terms, base_grid=grid)

    for i, term in enumerate(terms):
        if term.space is not None:
            samples = sym.space_samples(i, grid)
            if np.abs(samples.imag).max() > 1e-10 * (1.0 + np.abs(samples.real).max()):
                sym.hermitian = False

    def evaluator(t, x_node, rep):
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        for i, term in enumerate(terms):
            c = term.const
            if term.profile is not None:
                c = c * term.profile(t)
            if term.space is not None:
                if x_node is None:
                    raise ValueError("x-dependent symbol needs a node index")
                c = c * sym.space_samples(i, grid)[x_node]
            out += c * _base_matrix(term.base, term.exponent, rep)
        return out

    sym.evaluator = evaluator
    return sym


def invariant_apply(sym: Symbol, F: SpectralField, t: float = 0.0) -> SpectralField:
    """Per-mode action fhat(xi) -> a(xi) fhat(xi) for x-independent symbols."""
    if not sym.x_independent:
        raise ValueError("invariant_apply requires an x-independent symbol")
    out = {}
    for rep, mat in F.items():
        out[rep] = sym.evaluator(t, None, rep) @ mat
    return SpectralField(F.group, F.two_L, out)


def _grid_rep_matrices(grid: GridSpec, rep: RepIndex) -> np.ndarray:
    """xi(x_n) for every node of the grid, shape (N, d, d)."""
    if grid.group == TORUS1:
        T = grid._plan(max(grid.two_L, abs(rep.k)))
        return grid._ephi[:, rep.k + T][:, None, None]
    T = grid._plan(max(grid.two_L, rep.two_ell))
    tl = rep.two_ell
    sel = np.arange(T - tl, T + tl + 1, 2)
    dst = grid._dstacks[tl]                      # (B, d, d)
    ephi = grid._ephi[:, sel]                    # (A, d): exp(-i r phi_a)
    epsi = grid._epsi[:, sel]                    # (C, d): exp(-i c psi_c)
    out = np.einsum("ar,brs,cs->abcrs", ephi, dst, epsi)
    A, B, C = grid.n_phi, grid.n_theta, grid.n_psi
    return out.reshape(A * B * C, tl + 1, tl + 1)


def quantize_apply(sym: Symbol, t: float, f: GridField) -> GridField:
    """Pointwise values of the quantized operator applied to f.

    The result keeps the full pointwise content (no re-projection); for a
    symbol a(x) * Id this is exactly the product a(x) f(x) at the nodes.
    Structured symbols work on any grid; a bare x-dependent evaluator is
    applied on its own base grid through the quantization sum directly.
    """
    F = fourier_forward(f)
    if sym.x_independent:
        return fourier_inverse(invariant_apply(sym, F, t), f.grid)
    if sym.terms is not None:
        out = np.zeros(f.grid.node_count, dtype=complex)
        for i, term in enumerate(sym.terms):
            c = term.const
            if term.profile is not None:
                c = c * term.profile(t)
            base = SpectralField(F.group, F.two_L, {
                rep: _base_matrix(term.base, term.exponent, rep) @ mat
                for rep, mat in F.items()})
            vals = fourier_inverse(base, f.grid).values
            if term.space is not None:
                vals = vals * sym.space_samples(i, f.grid)
            out += c * vals
        return GridField(f.grid, out)
    if f.grid is not sym.base_grid:
        raise ValueError("grid mismatch: bare evaluator is tied to its base grid")
    out = np.zeros(f.grid.node_count, dtype=complex)
    for rep, mat in F.items():
        xi = _grid_rep_matrices(f.grid, rep)
        for n in range(f.grid.node_count):
            a = sym.evaluator(t, n, rep)
            out[n] += rep.dim * np.trace(xi[n] @ a @ mat)
    return GridField(f.grid, out)


def apply_spectral(sym: Symbol, t: float, F: SpectralField) -> SpectralField:
    """Bandlimited (Galerkin) action of the operator on spectral data.

    x-independent symbols act per mode.  Structured x-dependent symbols
    evaluate coefficient-state products on a grid resolving the combined
    bandwidth and project back to F's bandlimit, which is alias-free.  Bare
    x-dependent evaluators are sampled on their base grid; their content is
    treated as limited to that grid's bandwidth.
    """
    if sym.x_independent:
        return invariant_apply(sym, F, t)
    if sym.terms is not None:
        big = quadrature_grid(F.group, sym.two_L + F.two_L)
        acc_grid = np.zeros(big.node_count, dtype=complex)
        acc_spec = SpectralField.zeros(F.group, F.two_L)
        for i, term in enumerate(sym.terms):
            c = term.const
            if term.profile is not None:
                c = c * term.profile(t)
            base = SpectralField(F.group, F.two_L, {
                rep: _base_matrix(term.base, term.exponent, rep) @ mat
                for rep, mat in F.items()})
            if term.space is None:
                acc_spec = acc_spec + c * base
            else:
                vals = fourier_inverse(base, big).values
                acc_grid += c * vals * sym.space_samples(i, big)
        out = fourier_forward(GridField(big, acc_grid), F.two_L)
        return acc_spec + out
    grid = sym.base_grid
    f = fourier_inverse(F, grid)
    return fourier_forward(quantize_apply(sym, t, f), F.two_L)


def averaged_matrix(sym: Symbol, t: float, rep: RepIndex) -> np.ndarray:
    """Haar average over x of the symbol at one representation.

    Used as a per-mode preconditioner for implicit solves with spatially
    varying coefficients.
    """
    if sym.x_independent:
        return sym.evaluator(t, None, rep)
    if sym.terms is not None:
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        trivial = RepIndex(sym.group) if sym.group == SU2 \
            else RepIndex(TORUS1, k=0)
        for term in sym.terms:
            c = term.const
            if term.profile is not None:
                c = c * term.profile(t)
            if term.space is not None:
                c = c * term.space.coeffs[trivial][0, 0]
            out += c * _base_matrix(term.base, term.exponent, rep)
        return out
    grid = sym.base_grid
    w = grid.weights()
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for n in range(grid.node_count):
        out += w[n] * sym.evaluator(t, n, rep)
    return out
