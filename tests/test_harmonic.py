import json

import numpy as np
import pytest
from scipy.linalg import expm

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    GridField,
    RepIndex,
    SpectralField,
    dual_enumerate,
    field_from_dict,
    field_to_dict,
    fourier_forward,
    fourier_inverse,
    l2_inner,
    plancherel_norm,
    quadrature_grid,
    random_field,
    save_field,
    spectral_inner,
    wigner_matrix,
)
from oracles import ladder


def coefficient_field(grid, two_ell, i, j):
    """The matrix coefficient xi^{ell}_{ij} sampled on the grid."""
    F = SpectralField.zeros(SU2, grid.two_L)
    F.coeffs[RepIndex(SU2, two_ell=two_ell)][j, i] = 1.0 / (two_ell + 1)
    return fourier_inverse(F, grid)


def test_dual_enumerate_su2():
    reps = dual_enumerate(SU2, 5)
    assert [r.two_ell for r in reps] == [0, 1, 2, 3, 4, 5]
    assert [r.dim for r in reps] == [1, 2, 3, 4, 5, 6]


def test_dual_enumerate_torus():
    reps = dual_enumerate(TORUS1, 1)
    assert [r.k for r in reps] == [-1, 0, 1]
    assert all(r.dim == 1 for r in reps)


def test_wigner_identity_at_origin():
    for tl in range(0, 6):
        xi = wigner_matrix(RepIndex(SU2, two_ell=tl), (0.0, 0.0, 0.0))
        assert np.abs(xi - np.eye(tl + 1)).max() < 1e-14


def test_wigner_half_spin_at_theta_pi():
    xi = wigner_matrix(RepIndex(SU2, two_ell=1), (0.0, np.pi, 0.0))
    # off-diagonal, entries of modulus 0 or 1, unitary
    assert abs(xi[0, 0]) < 1e-14 and abs(xi[1, 1]) < 1e-14
    assert abs(abs(xi[0, 1]) - 1.0) < 1e-14
    assert np.abs(xi @ xi.conj().T - np.eye(2)).max() < 1e-14


@pytest.mark.parametrize("tl", range(0, 11))
def test_wigner_unitary(tl):
    rng = np.random.default_rng(17 + tl)
    for _ in range(4):
        ang = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
               rng.uniform(0, 4 * np.pi))
        xi = wigner_matrix(RepIndex(SU2, two_ell=tl), ang)
        assert np.abs(xi @ xi.conj().T - np.eye(tl + 1)).max() < 1e-10


def test_wigner_homomorphism_inverse():
    # x(phi,theta,psi)^{-1} has Euler angles (-psi, -theta, -phi)
    rng = np.random.default_rng(3)
    for tl in (1, 2, 3, 5):
        ang = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
               rng.uniform(0, 4 * np.pi))
        a = wigner_matrix(RepIndex(SU2, two_ell=tl), ang)
        b = wigner_matrix(RepIndex(SU2, two_ell=tl),
                          (-ang[2], -ang[1], -ang[0]))
        assert np.abs(a @ b - np.eye(tl + 1)).max() < 1e-10


@pytest.mark.parametrize("tl", range(0, 9))
def test_wigner_matches_exponential(tl):
    # independent path: xi = exp(-i phi Jz) exp(-i theta Jy) exp(-i psi Jz)
    Jz, Jp, Jm = ladder(tl)
    Jy = (Jp - Jm) / 2j
    for ang in ((0.4, 1.1, 2.2), (5.0, 2.9, 9.7)):
        ref = expm(-1j * ang[0] * Jz) @ expm(-1j * ang[1] * Jy) \
            @ expm(-1j * ang[2] * Jz)
        got = wigner_matrix(RepIndex(SU2, two_ell=tl), ang)
        assert np.abs(got - ref).max() < 1e-12


def test_wigner_rejects_torus():
    with pytest.raises(ValueError):
        wigner_matrix(RepIndex(TORUS1, k=2), (0.0, 0.0, 0.0))


def test_weights_sum_to_one():
    for group, L in ((SU2, 4), (SU2, 9), (TORUS1, 7)):
        g = quadrature_grid(group, L)
        assert abs(g.weights().sum() - 1.0) < 1e-14


def test_grid_interned():
    assert quadrature_grid(SU2, 6) is quadrature_grid(SU2, 6)


def test_constant_function():
    g = quadrature_grid(SU2, 4)
    one = GridField(g, np.ones(g.node_count))
    assert abs(l2_inner(one, one) - 1.0) < 1e-14
    F = fourier_forward(one)
    assert abs(F.coeffs[RepIndex(SU2, two_ell=0)][0, 0] - 1.0) < 1e-12
    rest = sum(np.abs(F.coeffs[r]).max() for r in F.coeffs if r.two_ell > 0)
    assert rest < 1e-12


def test_coefficient_norm_half_spin():
    # ||xi^{1/2}_{11}||_{L^2}^2 = 1/d = 1/2
    g = quadrature_grid(SU2, 6)
    f = coefficient_field(g, 1, 0, 0)
    assert abs(l2_inner(f, f).real - 0.5) < 1e-12


def test_forward_of_coefficient_lands_transposed():
    # fhat of xi_{ij} has 1/d at [j, i]
    g = quadrature_grid(SU2, 6)
    f = coefficient_field(g, 1, 0, 0)
    F = fourier_forward(f)
    expect = np.zeros((2, 2))
    expect[0, 0] = 0.5
    assert np.abs(F.coeffs[RepIndex(SU2, two_ell=1)] - expect).max() < 1e-12


def test_peter_weyl_table():
    g = quadrature_grid(SU2, 8)
    fields = {}
    for tl in range(5):
        d = tl + 1
        for i in range(d):
            for j in range(d):
                fields[(tl, i, j)] = coefficient_field(g, tl, i, j)
    keys = sorted(fields)
    for k1 in keys:
        for k2 in keys:
            val = l2_inner(fields[k1], fields[k2])
            expect = 1.0 / (k1[0] + 1) if k1 == k2 else 0.0
            assert abs(val - expect) < 1e-10


@pytest.mark.parametrize("group,L", [(SU2, 8), (TORUS1, 8)])
def test_roundtrip_and_plancherel(group, L):
    g = quadrature_grid(group, L)
    for seed in range(6):
        F = random_field(group, L, seed)
        f = fourier_inverse(F, g)
        F2 = fourier_forward(f)
        sq = plancherel_norm(F)
        diff = sum(np.sum(np.abs(F2.coeffs[r] - F.coeffs[r]) ** 2) * r.dim
                   for r in F.coeffs)
        assert diff <= 1e-20 * sq
        assert abs(l2_inner(f, f).real - sq) <= 1e-10 * sq


def test_spectral_inner_matches_l2():
    g = quadrature_grid(SU2, 5)
    F = random_field(SU2, 5, 11)
    G = random_field(SU2, 5, 12)
    f = fourier_inverse(F, g)
    h = fourier_inverse(G, g)
    assert abs(l2_inner(f, h) - spectral_inner(F, G)) < 1e-10 * plancherel_norm(F) ** 0.5


def test_forward_bandlimit_mismatch():
    g = quadrature_grid(SU2, 4)
    f = GridField(g, np.ones(g.node_count))
    with pytest.raises(ValueError, match="bandlimit"):
        fourier_forward(f, two_L=6)


def test_l2_inner_grid_mismatch():
    f = GridField(quadrature_grid(SU2, 3), np.ones(quadrature_grid(SU2, 3).node_count))
    h = GridField(quadrature_grid(SU2, 4), np.ones(quadrature_grid(SU2, 4).node_count))
    with pytest.raises(ValueError, match="grid"):
        l2_inner(f, h)


def test_inverse_above_grid_bandlimit_is_pointwise():
    # evaluating a two_L=6 series on a two_L=3 grid is plain evaluation
    F = random_field(SU2, 6, 5)
    coarse = quadrature_grid(SU2, 3)
    fine = quadrature_grid(SU2, 6)
    f_coarse = fourier_inverse(F, coarse)
    # compare at one matching node: phi=psi=0 exists on both grids
    f_fine = fourier_inverse(F, fine)
    # reconstruct value at node 0 of each grid independently via wigner sums
    def direct(angles):
        tot = 0.0 + 0.0j
        for rep, mat in F.items():
            xi = wigner_matrix(rep, angles)
            tot += rep.dim * np.trace(xi @ mat)
        return tot
    a0 = (coarse.phi[0], coarse.theta[0], coarse.psi[0])
    assert abs(f_coarse.values[0] - direct(a0)) < 1e-10


def test_json_roundtrip():
    for group, L in ((SU2, 4), (TORUS1, 3)):
        F = random_field(group, L, 21)
        blob = json.dumps(field_to_dict(F))
        G = field_from_dict(json.loads(blob))
        assert G.group == F.group and G.two_L == F.two_L
        for r in F.coeffs:
            assert np.abs(F.coeffs[r] - G.coeffs[r]).max() < 1e-15


def test_save_field_bytes_match_one_shot_encoding(tmp_path):
    """Block-by-block writing gives the bytes of one json.dumps call."""
    for group, L in ((SU2, 0), (SU2, 5), (TORUS1, 3)):
        F = random_field(group, L, 21)
        path = tmp_path / f"{group}{L}.json"
        save_field(path, F)
        assert path.read_text() == json.dumps(
            field_to_dict(F), sort_keys=True, separators=(",", ":"))


def test_field_arithmetic():
    F = random_field(SU2, 3, 1)
    G = random_field(SU2, 3, 2)
    H = 2.0 * F - G
    r = RepIndex(SU2, two_ell=2)
    assert np.abs(H.coeffs[r] - (2 * F.coeffs[r] - G.coeffs[r])).max() < 1e-15
    with pytest.raises(ValueError):
        F + random_field(SU2, 4, 1)
