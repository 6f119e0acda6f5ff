"""Group Fourier analysis on SU(2) and the circle.

Conventions
-----------
The unitary dual of SU(2) is enumerated by half-integer degrees ell stored as
doubled integers two_ell = 0, 1, 2, ...; the representation with two_ell has
dimension d = two_ell + 1 and rows/columns indexed by j = -ell..ell in
increasing order.  Group elements use z-y-z Euler angles,

    x(phi, theta, psi) = exp(phi X3) exp(theta X2) exp(psi X3),

with phi in [0, 2pi), theta in [0, pi], psi in [0, 4pi), which gives the
matrix coefficients

    xi(x)[r, c] = exp(-i r phi) d^{ell}[r, c](theta) exp(-i c psi).

The Haar measure is the probability measure; in these coordinates
dx = sin(theta) dphi dtheta dpsi / (16 pi^2).  The Fourier transform and its
inverse follow the matrix-coefficient normalization

    fhat(xi) = int_G f(x) xi(x)^* dx,
    f(x)     = sum_xi d_xi Tr[xi(x) fhat(xi)],

so Peter-Weyl orthogonality reads int xi[i,j] conj(xi[k,l]) = delta delta / d
and Plancherel reads ||f||_{L^2}^2 = sum_xi d_xi ||fhat(xi)||_{HS}^2.

The circle ("torus1") is the abelian special case: characters exp(i k theta),
k = -L..L, 1x1 coefficient matrices, uniform quadrature.

Quadrature is Gauss-Legendre in cos(theta) times uniform rules in phi and
psi; a grid with bandlimit two_L integrates products of any two matrix
coefficients with two_ell <= two_L exactly.

On SU(2) both transforms are separable (Kostelec & Rockmore, "FFTs on the
Rotation Group", JFAA 14, 2008).  The phi and psi stages are dense DFTs over
all doubled indices -T..T, done as BLAS matrix products with the phase
tables of the grid's plan.  The theta stage works one degree at a time: the
indices of degree two_ell form one parity class with stride 2, so its block
is the strided view [T - two_ell : T + two_ell + 1 : 2] on both index axes,
weighted there with the Wigner little-d values at the theta nodes.

The little-d matrices d^{ell}[r, c](theta) = <ell r| exp(-i theta Jy) |ell c>
come from an exact diagonalization of Jy (Feng, Wang, Yang & Jin,
"High-precision evaluation of Wigner's d matrix by exact diagonalization",
Phys. Rev. E 92, 043307, 2015).  With c_r the J+ ladder coefficients and
D = diag(i^r), conj(D) Jy D is the real symmetric tridiagonal matrix with
zero diagonal and off-diagonal -c_r / 2, whose spectrum is exactly
j = -ell..ell.  With U its eigenvectors,

    d[r, c](theta) = Re(i^(r-c) sum_mu U[r, mu] U[c, mu] exp(-i j_mu theta)),

a cosine sum for even r - c and a sine sum for odd r - c: two real matrix
products per degree.  Against exp(-i theta Jy) the largest entry error is
about 4e-15 at two_ell = 64 and 6e-15 at two_ell = 128, and a random
field's inverse-then-forward round trip on its own grid returns it to about
2e-14 (relative, Plancherel norm) at two_L = 64.

Storage
-------
A SpectralField keeps all its coefficients in one contiguous complex buffer,
``F.data``: the d x d blocks in dual_enumerate order, each in C order.  The
layout (block slices and d_xi at every entry) is built once per (group,
two_L) by field_layout.  ``F[rep]``, ``F.items()`` and ``F.coeffs.values()``
give views onto the buffer, so writing into a block writes the field;
``F.coeffs[rep] = m`` copies m into its view after checking the shape and
that rep is within the bandlimit.  Field arithmetic is one numpy operation
on the buffers, and the Plancherel norm and pairing one weighted dot each.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SU2 = "su2"
TORUS1 = "torus1"

_GROUPS = (SU2, TORUS1)


@dataclass(frozen=True)
class RepIndex:
    """Label of an irreducible representation.

    For SU(2) the degree is carried as two_ell = 2*ell >= 0; for the circle
    the character index k (any integer) is used and two_ell is ignored.
    """

    group: str
    two_ell: int = 0
    k: int = 0

    def __post_init__(self):
        if self.group not in _GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        if self.group == SU2 and self.two_ell < 0:
            raise ValueError("two_ell must be nonnegative")

    @property
    def dim(self) -> int:
        return self.two_ell + 1 if self.group == SU2 else 1


def dual_enumerate(group: str, two_L: int) -> list[RepIndex]:
    """All representations up to the bandlimit, in increasing order.

    SU(2): two_ell = 0..two_L.  Circle: k = -two_L..two_L (the bandlimit
    parameter is the plain character cutoff there).
    """
    if group == SU2:
        return [RepIndex(SU2, two_ell=t) for t in range(two_L + 1)]
    if group == TORUS1:
        return [RepIndex(TORUS1, k=k) for k in range(-two_L, two_L + 1)]
    raise ValueError(f"unknown group {group!r}")


class GridSpec:
    """Quadrature grid on the group, exact for coefficient products.

    SU(2) uses n_phi = n_psi = 2*two_L + 1 uniform nodes in phi and psi and
    n_theta = two_L + 1 Gauss-Legendre nodes in cos(theta); the circle uses
    2*two_L + 1 uniform nodes.  Weights are normalized to total mass 1.
    Nodes are flattened in C order over (phi, theta, psi).

    Instances are interned by quadrature_grid(); use it rather than
    constructing a grid directly.
    """

    def __init__(self, group: str, two_L: int):
        if group not in _GROUPS:
            raise ValueError(f"unknown group {group!r}")
        self.group = group
        self.two_L = int(two_L)
        if group == SU2:
            self.n_phi = 2 * self.two_L + 1
            self.n_psi = 2 * self.two_L + 1
            self.n_theta = self.two_L + 1
            self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
            self.psi = 4.0 * np.pi * np.arange(self.n_psi) / self.n_psi
            xs, ws = np.polynomial.legendre.leggauss(self.n_theta)
            # integrate in u = cos(theta); nodes listed with increasing theta
            self.theta = np.arccos(xs[::-1])
            self.w_theta = 0.5 * ws[::-1]
        else:
            self.n_nodes = 2 * self.two_L + 1
            self.theta = 2.0 * np.pi * np.arange(self.n_nodes) / self.n_nodes
        self._plan_two_L = -1
        self._dstacks: dict[int, np.ndarray] = {}
        self._ephi = None
        self._epsi = None

    @property
    def node_count(self) -> int:
        if self.group == SU2:
            return self.n_phi * self.n_theta * self.n_psi
        return self.n_nodes

    def weights(self) -> np.ndarray:
        """Flat quadrature weights, summing to 1."""
        if self.group == SU2:
            w = np.ones(self.n_phi)[:, None, None] * self.w_theta[None, :, None] \
                * np.ones(self.n_psi)[None, None, :]
            return (w / (self.n_phi * self.n_psi)).ravel()
        return np.full(self.n_nodes, 1.0 / self.n_nodes)

    def _plan(self, two_L_needed: int):
        """Little-d stacks and phase matrices up to the requested bandlimit;
        each degree's stack is built once."""
        if two_L_needed > self._plan_two_L:
            T = two_L_needed
            if self.group == SU2:
                for tl in range(self._plan_two_L + 1, T + 1):
                    self._dstacks[tl] = wigner_d(tl, self.theta)
                half_m = (np.arange(-T, T + 1)) / 2.0
                self._ephi = np.exp(-1j * np.outer(self.phi, half_m))
                self._epsi = np.exp(-1j * np.outer(self.psi, half_m))
            else:
                ks = np.arange(-T, T + 1)
                self._ephi = np.exp(-1j * np.outer(self.theta, ks))
            self._plan_two_L = T
        return self._plan_two_L


_GRID_CACHE: dict[tuple[str, int], GridSpec] = {}


def quadrature_grid(group: str, two_L: int) -> GridSpec:
    """Interned grid for (group, two_L); repeated calls return the same object."""
    key = (group, int(two_L))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = GridSpec(group, two_L)
    return _GRID_CACHE[key]


@dataclass
class GridField:
    """Complex samples on a grid, one value per node (flattened order)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.node_count,):
            raise ValueError("grid mismatch: values length != node count")


class FieldLayout:
    """Where each representation's block sits in a packed buffer: slots[rep]
    is (slice, d); dims holds d_xi at every entry (the Plancherel weight),
    row_sizes the length d of each block row, row after row, and row_starts
    the index of each block row's first entry.  prev_row and
    next_row give the index of entry (r-1, c) and (r+1, c) of the same block
    at each entry (r, c), or the entry itself at the block's first or last
    row, where a banded symbol has no sub or super diagonal."""

    def __init__(self, group: str, two_L: int):
        self.group, self.two_L = group, two_L
        self.reps = tuple(dual_enumerate(group, two_L))
        sizes = [rep.dim ** 2 for rep in self.reps]
        ends = np.cumsum([0] + sizes).tolist()
        self.slots = {rep: (slice(a, b), rep.dim)
                      for rep, a, b in zip(self.reps, ends, ends[1:])}
        self.size = ends[-1]
        self.dims = np.repeat([float(rep.dim) for rep in self.reps], sizes)
        self.dims.flags.writeable = False
        dims = [rep.dim for rep in self.reps]
        self.row_sizes = np.repeat(dims, dims)
        self.row_starts = np.cumsum(self.row_sizes) - self.row_sizes
        idx = np.arange(self.size)
        d = np.repeat(dims, sizes)
        row = (idx - np.repeat(ends[:-1], sizes)) // d
        self.prev_row = np.where(row > 0, idx - d, idx)
        self.next_row = np.where(row < d - 1, idx + d, idx)
        for a in (self.row_sizes, self.row_starts, self.prev_row, self.next_row):
            a.flags.writeable = False


field_layout = lru_cache(maxsize=None)(FieldLayout)   # interned per (group, two_L)


class SpectralField(Mapping):
    """Fourier coefficients: one d x d matrix per representation <= bandlimit,
    packed into one buffer (see Storage above).  The field is a mapping rep ->
    block view, also reachable as coeffs; blocks not given are zero."""

    # numpy scalars then defer to __rmul__ instead of iterating the mapping
    __array_ufunc__ = None

    def __init__(self, group: str, two_L: int, coeffs=None):
        self.group, self.two_L = group, two_L
        self.layout = field_layout(group, two_L)
        self.data = np.zeros(self.layout.size, dtype=complex)
        for rep, mat in (coeffs or {}).items():
            self[rep] = mat

    @classmethod
    def zeros(cls, group: str, two_L: int) -> "SpectralField":
        return cls(group, two_L)

    def with_data(self, data) -> "SpectralField":
        """A field on this layout holding data (a whole buffer, not copied)."""
        out = object.__new__(SpectralField)
        out.group, out.two_L, out.layout = self.group, self.two_L, self.layout
        out.data = np.ascontiguousarray(data, dtype=complex)
        if out.data.shape != (self.layout.size,):
            raise ValueError(f"buffer shape {out.data.shape} wrong for the layout")
        return out

    def zeros_like(self) -> "SpectralField":
        return self.with_data(np.zeros_like(self.data))

    @property
    def coeffs(self) -> "SpectralField":
        return self

    def __getitem__(self, rep: RepIndex) -> np.ndarray:
        sl, d = self.layout.slots[rep]
        return self.data[sl].reshape(d, d)

    def __setitem__(self, rep: RepIndex, mat):
        """Copy mat into rep's block."""
        if rep not in self.layout.slots:
            raise ValueError(f"representation {rep} above bandlimit {self.two_L}")
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (rep.dim, rep.dim):
            raise ValueError(f"coefficient shape {mat.shape} wrong for {rep}")
        self[rep][...] = mat

    def __iter__(self):
        return iter(self.layout.reps)

    def __len__(self) -> int:
        return len(self.layout.reps)

    def copy(self) -> "SpectralField":
        return self.with_data(self.data.copy())

    def _check_compatible(self, other: "SpectralField"):
        if self.group != other.group or self.two_L != other.two_L:
            raise ValueError("field mismatch: group or bandlimit differ")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self.with_data(self.data + other.data)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self.with_data(self.data - other.data)

    def __mul__(self, c) -> "SpectralField":
        return self.with_data(c * self.data)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)


def ladder_coefficients(two_ell: int) -> np.ndarray:
    """J+ ladder coefficients c_r = sqrt((ell - j_r)(ell + j_r + 1)) for
    r = 0..d-2, so that J+ maps |ell j_r> to c_r |ell j_{r+1}>."""
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    ell = two_ell / 2.0
    return np.sqrt((ell - j[:-1]) * (ell + j[:-1] + 1))


def wigner_d(two_ell: int, theta) -> np.ndarray:
    """Little-d matrices d^{ell}(theta_b), shape (B, d, d), for any real
    angles theta (see the module docstring for the construction)."""
    from scipy.linalg import eigh_tridiagonal   # loaded on first plan build
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = two_ell + 1
    j = np.arange(-two_ell, two_ell + 1, 2) / 2.0
    U = eigh_tridiagonal(np.zeros(d), -0.5 * ladder_coefficients(two_ell))[1]
    phase = np.outer(theta, j)     # U's eigenvalues, ascending, are exactly j
    cos = (U * np.cos(phase)[:, None, :]) @ U.T
    sin = (U * np.sin(phase)[:, None, :]) @ U.T
    k = np.subtract.outer(np.arange(d), np.arange(d)) % 4   # (r - c) mod 4
    return np.where(k % 2 == 0, cos, sin) * np.where(k < 2, 1.0, -1.0)


def wigner_matrix(rep: RepIndex, angles) -> np.ndarray:
    """Representation matrix xi(x) at Euler angles (phi, theta, psi).

    Rows and columns are indexed by j = -ell..ell increasing; the result is
    unitary and equals the identity at (0, 0, 0).  Any real angles are
    accepted (the formulas continue analytically outside the fundamental
    ranges), which is convenient for inverses via negated angles.
    """
    if rep.group != SU2:
        raise ValueError("wigner_matrix is defined for SU(2) representations only")
    phi, theta, psi = (float(a) for a in angles)
    d = wigner_d(rep.two_ell, theta)[0]
    j = np.arange(-rep.two_ell, rep.two_ell + 1, 2) / 2.0
    return np.exp(-1j * j[:, None] * phi) * d * np.exp(-1j * j[None, :] * psi)


def _su2_forward(f: GridField, two_L: int) -> SpectralField:
    g = f.grid
    T = g._plan(g.two_L)
    A, B, C = g.n_phi, g.n_theta, g.n_psi
    M = 2 * T + 1
    # phi stage, then psi stage, over all doubled indices -T..T
    U = np.conj(g._ephi).T @ f.values.reshape(A, B * C)
    V = (U.reshape(M * B, C) @ np.conj(g._epsi)).reshape(M, B, M)
    V *= g.w_theta[:, None] / (A * C)
    out = SpectralField(SU2, two_L)
    for rep, block in out.items():
        tl = rep.two_ell
        sl = slice(T - tl, T + tl + 1, 2)
        dst = g._dstacks[tl]
        block[...] = (V[sl, :, sl] * dst.transpose(1, 0, 2)).sum(axis=1).T
    return out


def _su2_inverse(F: SpectralField, grid: GridSpec) -> GridField:
    T = grid._plan(max(grid.two_L, F.two_L))
    A, B, C = grid.n_phi, grid.n_theta, grid.n_psi
    M = 2 * T + 1
    W = np.zeros((M, B, M), dtype=complex)
    for rep, mat in F.items():
        tl = rep.two_ell
        if not np.any(mat):
            continue
        sl = slice(T - tl, T + tl + 1, 2)
        dst = grid._dstacks[tl]
        W[sl, :, sl] += (tl + 1) * (dst.transpose(1, 0, 2) * mat.T[:, None, :])
    # psi stage, then phi stage
    U = W.reshape(M * B, M) @ grid._epsi.T
    vals = grid._ephi @ U.reshape(M, B * C)
    return GridField(grid, vals.ravel())


def fourier_forward(f: GridField, two_L: int | None = None) -> SpectralField:
    """Group Fourier transform fhat(xi) = int f(x) xi(x)^* dx.

    The grid must have bandlimit >= the requested one; quadrature is then
    exact for bandlimited f.
    """
    grid = f.grid
    if two_L is None:
        two_L = grid.two_L
    if two_L > grid.two_L:
        raise ValueError(
            f"bandlimit mismatch: grid supports {grid.two_L}, requested {two_L}")
    if grid.group == SU2:
        return _su2_forward(f, two_L)
    T = grid._plan(grid.two_L)
    coef = (np.conj(grid._ephi).T @ f.values) / grid.n_nodes
    # the circle's 1 x 1 blocks are its characters k = -two_L..two_L in order
    return SpectralField(TORUS1, two_L).with_data(coef[T - two_L:T + two_L + 1])


def fourier_inverse(F: SpectralField, grid: GridSpec) -> GridField:
    """Evaluate f(x) = sum_xi d_xi Tr[xi(x) fhat(xi)] at the grid nodes."""
    if F.group != grid.group:
        raise ValueError("field mismatch: group differs from grid")
    if grid.group == SU2:
        return _su2_inverse(F, grid)
    T = grid._plan(max(grid.two_L, F.two_L))
    coef = np.zeros(2 * T + 1, dtype=complex)
    coef[T - F.two_L:T + F.two_L + 1] = F.data
    return GridField(grid, grid._ephi @ coef)


def l2_inner(f: GridField, g: GridField) -> complex:
    """L^2 inner product int f conj(g) dx by quadrature."""
    if f.grid is not g.grid:
        raise ValueError("grid mismatch: fields live on different grids")
    w = f.grid.weights()
    return complex(np.sum(w * f.values * np.conj(g.values)))


def plancherel_norm(F: SpectralField) -> float:
    """Spectral energy sum_xi d_xi ||F(xi)||_HS^2 (the squared L^2 norm)."""
    return float(np.vdot(F.data, F.layout.dims * F.data).real)


def spectral_inner(F: SpectralField, G: SpectralField) -> complex:
    """Plancherel pairing sum_xi d_xi Tr[F(xi) G(xi)^*] (equals the L^2 one)."""
    F._check_compatible(G)
    return complex(np.vdot(G.data, F.layout.dims * F.data))


def random_field(group: str, two_L: int, seed: int) -> SpectralField:
    """Deterministic random coefficients (standard complex normal entries)."""
    rng = np.random.default_rng(seed)
    F = SpectralField(group, two_L)
    for rep, block in F.items():
        d = rep.dim
        block[...] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return F


def field_to_dict(F: SpectralField) -> dict:
    """JSON-ready layout; SU(2) entries keyed by two_ell, circle ones by k."""
    coeffs = []
    for rep, mat in F.items():
        entry = {"two_ell": rep.two_ell} if F.group == SU2 else {"k": rep.k}
        entry["re"] = np.real(mat).tolist()
        entry["im"] = np.imag(mat).tolist()
        coeffs.append(entry)
    return {"group": F.group, "two_L": F.two_L, "coeffs": coeffs}


def field_from_dict(data: dict) -> SpectralField:
    group = data["group"]
    two_L = int(data["two_L"])
    out = {}
    for entry in data["coeffs"]:
        if group == SU2:
            rep = RepIndex(SU2, two_ell=int(entry["two_ell"]))
        else:
            rep = RepIndex(TORUS1, k=int(entry["k"]))
        out[rep] = np.asarray(entry["re"], dtype=float) \
            + 1j * np.asarray(entry["im"], dtype=float)
    return SpectralField(group, two_L, out)


def save_field(path, F: SpectralField):
    """Write F as compact JSON with sorted keys.

    Blocks are encoded one at a time with json.dumps: it takes the C encoder,
    where json.dump always encodes in Python, and one block at a time keeps
    the encoder's memory to one block rather than the whole field.
    """
    fmt = {"sort_keys": True, "separators": (",", ":")}
    data = field_to_dict(F)
    coeffs = data.pop("coeffs")
    head, tail = json.dumps({"coeffs": [], **data}, **fmt).split("[]", 1)
    with open(path, "w") as fh:
        fh.write(head + "[")
        for i, entry in enumerate(coeffs):
            fh.write(("," if i else "") + json.dumps(entry, **fmt))
        fh.write("]" + tail)


def load_field(path) -> SpectralField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))
