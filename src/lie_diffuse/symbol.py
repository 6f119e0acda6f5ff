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
and scalar time profiles.  A Symbol is its terms: every metadata value and
its dense evaluator are computed from them, and every application path
reads them.  Symbol.coefficients is the one rule for a term's coefficient
at a time, at x-nodes or averaged over x, and Symbol.coefficient_range its
certified range over the group.  Products of a spatial coefficient with a
bandlimited state are formed on a grid resolving the combined bandwidth and
projected back, which avoids aliasing.

Every base is diagonal or a ladder matrix, so a structured symbol is held
per representation as its (..., 3, d) bands: row r of the sub, main and
super band holds A[r, r-1], A[r, r] and A[r, r+1].  _bands is the one place
a base's spectrum is written, from lam = ell(ell+1) and j (k^2 and j = 0 on
the circle); the dense builders (laplace_symbol, ..., bessel_weight) are the
fill of its bands.  One assembly (_assemble) sums coefficient * bands in
term order for the evaluator (and so Symbol.matrix, the one dense
accessor), the operands and the scans.
On a packed SpectralField, entry (r, c) of a block takes main[r] x[r, c] +
sub[r] x[r-1, c] + super[r] x[r+1, c] through the layout's row-shift
indices, or main[r] x[r, c] alone when the off-bands vanish.  _apply_op
is the one applier of these operands, and of the evolve module's
stepping-core forms (among them the dense blocks of reduce's companion
systems and of x-independent Crank-Nicolson), on (m, size) buffers of
packed fields.  Base bands are built once per representation, operands
once per layout (for a t-independent symbol).  The base vocabulary is
declared once below; _check_term enforces it for Symbol (and so
build_operator_symbol) and the CLI grammar alike.
"""

from __future__ import annotations

import cmath
import math
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
    field_layout,
    fourier_forward,
    fourier_inverse,
    ladder_coefficients,
    quadrature_grid,
)

# The base vocabulary: positive semidefinite diagonal bases (laplace,
# sublaplace, bessel, sbessel, id) and the first-order vector fields.
VECTOR_FIELDS = ("iX3", "d0", "X1", "X2", "X3", "d+", "d-")
_SU2_ONLY = VECTOR_FIELDS + ("sublaplace", "sbessel")
# The bases that take an exponent, with its least value; the others take
# none, which OperatorTerm writes as exponent 1.0.
_EXPONENT_MIN = {"laplace": 0.0, "sublaplace": 0.0,
                 "bessel": -math.inf, "sbessel": -math.inf}
# Order per unit exponent, keyed by every known base.
_ORDER = {"laplace": 2.0, "sublaplace": 2.0, "bessel": 1.0, "sbessel": 1.0,
          "id": 0.0, **dict.fromkeys(VECTOR_FIELDS, 1.0)}
WEIGHT_KINDS = ("elliptic", "subelliptic")


def _check_term(base: str, exponent: float | None, group: str | None = None) -> float:
    """Enforce the base vocabulary on one term and return its exponent.

    exponent None means none was written (1.0); group, when given, rules
    out the SU(2)-only bases on another group.  A NaN or infinite exponent
    is out of every range (NaN compares False with any bound).
    """
    if base not in _ORDER:
        raise ValueError(f"unknown operator base {base!r}")
    if exponent is None:
        exponent = 1.0
    elif base not in _EXPONENT_MIN:
        raise ValueError(f"base {base!r} takes no exponent (got {exponent})")
    elif not math.isfinite(exponent):
        raise ValueError(f"exponent {exponent} of {base} must be finite")
    elif exponent < _EXPONENT_MIN[base]:
        raise ValueError(f"exponent {exponent} out of range for {base} "
                         f"(needs q >= {_EXPONENT_MIN[base]:g})")
    if group not in (None, SU2) and base in _SU2_ONLY:
        raise ValueError(f"base {base!r} is defined on SU(2) only")
    return exponent


def _weight_base(kind: str) -> str:
    """The Bessel base of a weight kind: bessel (elliptic) or sbessel."""
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    return "bessel" if kind == "elliptic" else "sbessel"


@lru_cache(maxsize=None)
def _ladder(two_ell: int):
    """Bands of Jz, J+, J- for the given doubled degree, increasing-j basis."""
    Jz, Jp = np.zeros((2, 3, two_ell + 1), dtype=complex)
    Jz[1] = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    Jp[0, 1:] = ladder_coefficients(two_ell)
    return Jz, Jp, _adjoint(Jp)


def _adjoint(bands: np.ndarray) -> np.ndarray:
    """Bands of the conjugate transpose of (..., 3, d) bands."""
    out = np.zeros_like(bands)
    out[..., 0, 1:] = bands[..., 2, :-1].conj()
    out[..., 1, :] = bands[..., 1, :].conj()
    out[..., 2, :-1] = bands[..., 0, 1:].conj()
    return out


def _densify(bands: np.ndarray) -> np.ndarray:
    """The (..., d, d) matrices with these (..., 3, d) bands, +0 elsewhere."""
    d = bands.shape[-1]
    i = np.arange(d)
    out = np.zeros(bands.shape[:-2] + (d, d), dtype=complex)
    out[..., i[1:], i[:-1]] = bands[..., 0, 1:]
    out[..., i, i] = bands[..., 1, :]
    out[..., i[:-1], i[1:]] = bands[..., 2, :-1]
    return out


def laplace_symbol(rep: RepIndex) -> np.ndarray:
    """Symbol of the (positive) Laplacian: ell(ell+1) I, or k^2 on the circle."""
    return _densify(_bands(rep, "laplace", 1.0))


def sublaplace_symbol(rep: RepIndex) -> np.ndarray:
    """Symbol of the sub-Laplacian -X1^2 - X2^2: diag(ell(ell+1) - j^2)."""
    return _densify(_bands(rep, "sublaplace", 1.0))


def vector_field_symbol(name: str, rep: RepIndex) -> np.ndarray:
    """Symbol of a first-order generator; see the module docstring for names."""
    if name not in VECTOR_FIELDS:
        raise ValueError(f"unknown vector field {name!r}")
    return _densify(_bands(rep, name, 1.0))


def bessel_weight(rep: RepIndex, s: float, kind: str = "elliptic") -> np.ndarray:
    """Weight matrix for H^s norms: (1 + Laplacian)^{s/2} per mode.

    kind "elliptic" uses the full Laplacian, giving (1 + ell(ell+1))^{s/2} I;
    kind "subelliptic" uses the sub-Laplacian spectrum per diagonal slot,
    diag((1 + ell(ell+1) - j^2)^{s/2}).  On the circle the two coincide.
    """
    return _densify(_bands(rep, _weight_base(kind), float(s)))


@lru_cache(maxsize=4096)
def _bands(rep: RepIndex, base: str, exponent: float) -> np.ndarray:
    """Read-only (3, d) bands of a base symbol at rep (see the module
    docstring); entries past the block edges are 0.

    Diffusion bases take numpy's array power, a flat (elliptic or circle)
    Bessel weight Python's float power: the two can differ in the last bit,
    and the CLI artifacts are pinned to these.
    """
    if rep.group != SU2 and (base in VECTOR_FIELDS or base == "sublaplace"):
        raise ValueError(f"base {base!r} is defined on SU(2) only")
    if rep.group == SU2:
        tl = rep.two_ell
        lam, j = tl * (tl + 2) / 4.0, np.arange(-tl, tl + 1, 2) / 2.0
    else:
        lam, j = float(rep.k ** 2), 0.0
    spectrum = lam - j ** 2 if base in ("sublaplace", "sbessel") else lam
    out = np.zeros((3, rep.dim), dtype=complex)
    if base in VECTOR_FIELDS:
        Jz, Jp, Jm = _ladder(rep.two_ell)
        out = {"d0": Jz, "iX3": Jz, "d+": Jp, "d-": Jm, "X3": -1j * Jz,
               "X1": -0.5j * (Jp + Jm), "X2": 0.5 * (Jm - Jp)}[base]
    elif base in ("laplace", "sublaplace"):
        out[1] = np.full(rep.dim, spectrum) ** exponent
    elif base in ("bessel", "sbessel"):
        out[1] = (1.0 + spectrum) ** (exponent / 2.0)
    elif base == "id":
        out[1] = 1.0
    else:
        raise ValueError(f"unknown operator base {base!r}")
    out.flags.writeable = False
    return out


def _assemble(terms, coefs, rep: RepIndex) -> np.ndarray:
    """sum_k coefs[k] * bands of terms[k] at rep, in term order: (3, d), or
    (n_x, 3, d) when a coefficient is an (n_x, 1, 1) column over x-nodes.
    Each entry is the dense sum's, entry for entry."""
    shape = np.broadcast_shapes((3, rep.dim), *(np.shape(c) for c in coefs))
    out = np.zeros(shape, dtype=complex)
    for c, term in zip(coefs, terms):
        out += c * _bands(rep, term.base, term.exponent)
    return out


def _operand(bands, layout) -> np.ndarray:
    """Operand over a layout from one (3, d) band stack per representation:
    the (3, size) bands, row k at entry (r, c) of a block being bands[k][r],
    or the (1, 1, size) per-entry main row when both off-diagonals vanish."""
    rows = np.concatenate(bands, axis=1)
    if not (rows[0].any() or rows[2].any()):
        rows = rows[1][None, None]
    return np.repeat(rows, layout.row_sizes, axis=-1)


def _apply_op(op, U: np.ndarray, layout) -> np.ndarray:
    """A U for an operand A on an (m, size) buffer of packed fields, as a
    fresh buffer.  A is an (m, m, size) array of per-entry m x m matrices,
    the (3, size) bands of a tridiagonal symbol (m = 1), a tuple of
    per-representation (m d) x (m d) blocks (a 1-D block is a diagonal), or
    a callable U -> A U."""
    if callable(op):
        return op(U)
    if isinstance(op, tuple):
        out = np.empty_like(U)
        for (sl, d), A in zip(layout.slots.values(), op):   # rows u_1..u_m stacked
            V = U[:, sl].reshape(-1, d)
            out[:, sl] = (A[:, None] * V if A.ndim == 1 else A @ V).reshape(len(U), -1)
        return out
    if op.ndim == 2:
        x = U[0]
        return (op[1] * x + op[0] * x[layout.prev_row]
                + op[2] * x[layout.next_row])[None]
    out = op[:, 0] * U[0]
    for j in range(1, len(U)):
        out += op[:, j] * U[j]
    return out


@lru_cache(maxsize=32)
def _base_operand(base: str, exponent: float, group: str, two_L: int):
    """_operand of a base symbol over the (group, two_L) layout, read-only."""
    layout = field_layout(group, two_L)
    op = _operand([_bands(rep, base, exponent) for rep in layout.reps], layout)
    op.flags.writeable = False
    return op


def _apply_base(base: str, exponent: float, F: SpectralField) -> SpectralField:
    """A base symbol applied per mode."""
    op = _base_operand(base, exponent, F.group, F.two_L)
    return F.with_data(_apply_op(op, F.data[None], F.layout)[0])


def weighted_field(F: SpectralField, s: float, kind: str = "elliptic") -> SpectralField:
    """Apply the order-s Bessel weight (see bessel_weight) per representation."""
    return _apply_base(_weight_base(kind), float(s), F)


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

    def at(self, t: float) -> complex:
        """The coefficient at time t without its space factor:
        const * profile(t), in that order."""
        return self.const if self.profile is None else self.const * self.profile(t)


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
    """A symbol given by its terms, with classification metadata.

    terms are OperatorTerm entries on group at working bandlimit two_L;
    rho, delta and kappa are as in OperatorSpec.  Each term passes the base
    vocabulary (_check_term) and must have a finite constant; a GridField
    coefficient is Fourier-transformed at two_L.  All else is computed from
    these six: order (the largest term order), x_independent and
    t_independent (no term has a spatial factor, a time profile), base_grid
    (the two_L quadrature grid, whose flat node indices are the x-nodes of
    coefficients, the scans and evaluator), the coefficients and their
    ranges, and the dense evaluator.
    """

    terms: list[OperatorTerm]
    group: str
    two_L: int
    rho: float = 1.0
    delta: float = 0.0
    kappa: int = 1

    def __post_init__(self):
        if self.group not in (SU2, TORUS1):
            raise ValueError(f"unknown group {self.group!r}")
        terms = []
        for k, term in enumerate(self.terms):
            _check_term(term.base, None if term.exponent == 1.0 else term.exponent,
                        self.group)
            const = complex(term.const)
            if not cmath.isfinite(const):
                raise ValueError(f"constant {term.const} of term {k} "
                                 f"({term.base}) must be finite")
            space = term.space
            if isinstance(space, GridField):
                space = fourier_forward(space, min(space.grid.two_L, self.two_L))
            if space is not None and (space.group != self.group
                                      or space.two_L > self.two_L):
                raise ValueError("coefficient field does not match the spec grid")
            terms.append(OperatorTerm(term.base, term.exponent, const, space,
                                      term.profile))
        self.terms = terms
        self.order = max((_ORDER[t.base] * t.exponent for t in terms), default=0.0)
        self.x_independent = all(t.space is None for t in terms)
        self.t_independent = all(t.profile is None for t in terms)
        self.base_grid = quadrature_grid(self.group, self.two_L)
        self._cache = {}

    def _cached(self, key, build):
        """build() once per key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def coefficients(self, t: float, nodes=None) -> list:
        """Each term's coefficient at time t: const * profile(t) times its
        spatial factor, as an (n_x, 1, 1) column over the given flat
        base_grid node indices, or times the factor's mean (its
        trivial-representation coefficient) when nodes is None; a scalar
        for a term without a spatial factor.  The products are taken one
        node at a time: numpy's vectorised complex product may round
        differently, and reports are pinned to this rounding."""
        coefs = [term.at(t) for term in self.terms]
        for i, term in enumerate(self.terms):
            if term.space is None:
                continue
            if nodes is None:
                coefs[i] = coefs[i] * term.space[RepIndex(self.group)][0, 0]
            else:
                s = self.space_samples(i, self.base_grid)
                coefs[i] = np.array([coefs[i] * s[n] for n in nodes])[:, None, None]
        return coefs

    def coefficient_range(self, i: int):
        """Interval of term i's real spatial factor space(x) over the whole
        group, (1, 1) without one; None for a complex-valued factor and for
        a time profile, an opaque callable that cannot be bounded between
        its samples.

        space(x) = sum_xi d_xi Tr[xi(x) c_hat(xi)] with every xi(x) unitary,
        so |space(x) - c_hat(1)| <= sum_{xi != 1} d_xi ||c_hat(xi)||_*
        (nuclear norms; Ruzhansky & Turunen, Pseudo-Differential Operators
        and Symmetries, 2010).  The base-grid samples would miss a dip
        between the nodes.
        """
        term = self.terms[i]
        if term.profile is not None:
            return None
        if term.space is None:
            return 1.0, 1.0
        s = self.space_samples(i, self.base_grid)
        if np.abs(s.imag).max() > 1e-10 * (1.0 + np.abs(s.real).max()):
            return None
        trivial = RepIndex(self.group)     # k = 0 on the circle
        mean = float(term.space[trivial][0, 0].real)
        radius = sum(rep.dim * float(np.linalg.svd(c, compute_uv=False).sum())
                     for rep, c in term.space.items() if rep != trivial)
        return mean - radius, mean + radius

    def evaluator(self, t: float, x_node: int | None, rep: RepIndex) -> np.ndarray:
        """The dense d x d symbol at time t and representation rep; x_node is
        a flat node index into base_grid, or None for the x-average (the
        symbol itself when x-independent).  An instance may assign its own
        evaluator (a counting wrapper, say), which matrix() then calls."""
        coefs = self.coefficients(t, None if x_node is None else [x_node])
        return _densify(_assemble(self.terms, coefs, rep).reshape(3, rep.dim))

    def matrix(self, t: float, rep: RepIndex) -> np.ndarray:
        """The dense symbol at rep, averaged over x (evaluator with no node):
        the one dense accessor, and for an x-dependent symbol the per-mode
        preconditioner of implicit solves.  A t-independent symbol is
        evaluated once per representation."""
        if not self.t_independent:
            return self.evaluator(t, None, rep)
        return self._cached(rep, lambda: self.evaluator(t, None, rep))

    def space_samples(self, term_index: int, grid: GridSpec) -> np.ndarray:
        """Samples of a term's spatial coefficient on the given grid, cached
        by what fixes the grid's nodes (a freed grid's id can be reused)."""
        space = self.terms[term_index].space
        return self._cached(("space", term_index, grid.group, grid.two_L),
                            lambda: fourier_inverse(space, grid).values)


def build_operator_symbol(spec: OperatorSpec) -> Symbol:
    """Compile an OperatorSpec into a Symbol (see Symbol for the checks)."""
    return Symbol(spec.terms, spec.group, spec.two_L, spec.rho, spec.delta,
                  spec.kappa)


def _invariant_operand(sym: Symbol, t: float, F: SpectralField):
    """The operand of sym at t over F's layout, assembled from its terms and
    built once if t-independent."""
    def build():
        coefs = sym.coefficients(t)
        return _operand([_assemble(sym.terms, coefs, rep)
                         for rep in F.layout.reps], F.layout)
    return sym._cached((F.group, F.two_L), build) if sym.t_independent else build()


def invariant_apply(sym: Symbol, F: SpectralField, t: float = 0.0) -> SpectralField:
    """Per-mode action fhat(xi) -> a(xi) fhat(xi) for x-independent symbols."""
    if not sym.x_independent:
        raise ValueError("invariant_apply requires an x-independent symbol")
    return F.with_data(_apply_op(_invariant_operand(sym, t, F), F.data[None],
                                 F.layout)[0])


def quantize_apply(sym: Symbol, t: float, f: GridField) -> GridField:
    """Pointwise values of the quantized operator applied to f, on any grid.

    Each term's base acts per mode and its coefficient multiplies the
    result at the nodes; the result keeps the full pointwise content (no
    re-projection), so for a symbol a(x) * Id this is exactly the product
    a(x) f(x) at the nodes.
    """
    F = fourier_forward(f)
    if sym.x_independent:
        return fourier_inverse(invariant_apply(sym, F, t), f.grid)
    out = np.zeros(f.grid.node_count, dtype=complex)
    for i, term in enumerate(sym.terms):
        c = term.at(t)
        vals = fourier_inverse(_apply_base(term.base, term.exponent, F),
                               f.grid).values
        if term.space is not None:
            vals = vals * sym.space_samples(i, f.grid)
        out += c * vals
    return GridField(f.grid, out)


def apply_spectral(sym: Symbol, t: float, F: SpectralField) -> SpectralField:
    """Bandlimited (Galerkin) action of the operator on spectral data.

    x-independent symbols act per mode.  x-dependent ones evaluate each
    coefficient-state product on a grid resolving the combined bandwidth
    and project back to F's bandlimit, which is alias-free.
    """
    if sym.x_independent:
        return invariant_apply(sym, F, t)
    big = quadrature_grid(F.group, sym.two_L + F.two_L)
    acc_grid = np.zeros(big.node_count, dtype=complex)
    acc_spec = SpectralField.zeros(F.group, F.two_L)
    for i, term in enumerate(sym.terms):
        c = term.at(t)
        base = _apply_base(term.base, term.exponent, F)
        if term.space is None:
            acc_spec = acc_spec + c * base
        else:
            vals = fourier_inverse(base, big).values
            acc_grid += c * vals * sym.space_samples(i, big)
    out = fourier_forward(GridField(big, acc_grid), F.two_L)
    return acc_spec + out

