import dataclasses
import math

import numpy as np
import pytest

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    GridField,
    GridSpec,
    RepIndex,
    SpectralField,
    fourier_forward,
    fourier_inverse,
    quadrature_grid,
    random_field,
)
from lie_diffuse.symbol import (
    OperatorSpec,
    OperatorTerm,
    Symbol,
    apply_spectral,
    bessel_weight,
    build_operator_symbol,
    invariant_apply,
    laplace_symbol,
    quantize_apply,
    sublaplace_symbol,
    vector_field_symbol,
)
from oracles import lie_algebra_fd, quadrature_average, quantization_sum


def su2(tl):
    return RepIndex(SU2, two_ell=tl)


# ---------------------------------------------------------------- fixed values

def test_laplace_symbol_values():
    assert np.abs(laplace_symbol(su2(1)) - 0.75 * np.eye(2)).max() < 1e-15
    assert np.abs(laplace_symbol(su2(2)) - 2.0 * np.eye(3)).max() < 1e-15
    assert np.abs(laplace_symbol(RepIndex(TORUS1, k=-3)) - 9.0).max() < 1e-15


def test_sublaplace_symbol_values():
    assert np.abs(sublaplace_symbol(su2(2)) - np.diag([1.0, 2.0, 1.0])).max() < 1e-15
    assert np.abs(sublaplace_symbol(su2(1)) - 0.5 * np.eye(2)).max() < 1e-15
    with pytest.raises(ValueError):
        sublaplace_symbol(RepIndex(TORUS1, k=1))


def test_vector_field_values():
    assert np.abs(vector_field_symbol("iX3", su2(2)) - np.diag([-1, 0, 1])).max() < 1e-15
    dp = vector_field_symbol("d+", su2(1))
    assert abs(dp[1, 0] - 1.0) < 1e-15 and np.abs(dp).sum() == pytest.approx(1.0)
    assert np.abs(dp @ dp).max() < 1e-15  # nilpotent
    with pytest.raises(ValueError):
        vector_field_symbol("X1", RepIndex(TORUS1, k=0))
    with pytest.raises(ValueError):
        vector_field_symbol("X9", su2(1))


def test_bessel_weight_values():
    assert np.abs(bessel_weight(su2(2), 2.0) - 3.0 * np.eye(3)).max() < 1e-14
    got = bessel_weight(su2(2), -2.0, "subelliptic")
    assert np.abs(got - np.diag([0.5, 1.0 / 3.0, 0.5])).max() < 1e-14
    # the two kinds coincide on the circle
    r = RepIndex(TORUS1, k=2)
    assert np.abs(bessel_weight(r, 1.3) - bessel_weight(r, 1.3, "subelliptic")).max() < 1e-15


# ------------------------------------------------------------------- structure

@pytest.mark.parametrize("tl", range(0, 9))
def test_commutator_closure(tl):
    d0 = vector_field_symbol("d0", su2(tl))
    dp = vector_field_symbol("d+", su2(tl))
    dm = vector_field_symbol("d-", su2(tl))
    assert np.abs(d0 @ dp - dp @ d0 - dp).max() < 1e-10
    assert np.abs(dm @ d0 - d0 @ dm - dm).max() < 1e-10
    assert np.abs(dp @ dm - dm @ dp - 2 * d0).max() < 1e-10
    x1 = vector_field_symbol("X1", su2(tl))
    x2 = vector_field_symbol("X2", su2(tl))
    x3 = vector_field_symbol("X3", su2(tl))
    assert np.abs(x1 @ x2 - x2 @ x1 - x3).max() < 1e-10


@pytest.mark.parametrize("tl", range(0, 9))
def test_laplace_decomposition(tl):
    x3 = vector_field_symbol("X3", su2(tl))
    got = sublaplace_symbol(su2(tl)) - x3 @ x3
    assert np.abs(got - laplace_symbol(su2(tl))).max() < 1e-12


@pytest.mark.parametrize("tl", range(1, 9))
def test_vector_fields_match_directional_derivatives(tl):
    dX1, dX2, dX3 = lie_algebra_fd(tl)
    assert np.abs(vector_field_symbol("X3", su2(tl)) - dX3).max() < 1e-8
    assert np.abs(vector_field_symbol("X2", su2(tl)) - dX2).max() < 1e-8
    assert np.abs(vector_field_symbol("X1", su2(tl)) - dX1).max() < 1e-8


@pytest.mark.parametrize("tl", range(1, 9))
def test_sublaplace_matches_directional_derivative_oracle(tl):
    dX1, dX2, _ = lie_algebra_fd(tl)
    oracle = -dX1 @ dX1 - dX2 @ dX2
    assert np.abs(oracle - sublaplace_symbol(su2(tl))).max() < 1e-8


# -------------------------------------------------------------- operator specs

def test_build_operator_symbol_drift_example():
    spec = OperatorSpec(SU2, 8, [
        OperatorTerm("laplace", 0.5, const=-1.0),
        OperatorTerm("iX3", const=1.0),
    ])
    sym = build_operator_symbol(spec)
    got = sym.evaluator(0.0, None, su2(2))
    s2 = np.sqrt(2.0)
    assert np.abs(got - np.diag([-s2 - 1, -s2, -s2 + 1])).max() < 1e-12
    assert sym.x_independent and sym.t_independent
    assert sym.order == pytest.approx(1.0)


def test_build_rejects_negative_diffusion_exponent():
    with pytest.raises(ValueError, match="exponent"):
        build_operator_symbol(OperatorSpec(SU2, 4, [OperatorTerm("laplace", -1.0)]))


def test_build_rejects_exponent_on_vector_field():
    with pytest.raises(ValueError, match="'X1' takes no exponent"):
        build_operator_symbol(OperatorSpec(SU2, 4, [OperatorTerm("X1", exponent=2.0)]))


def test_build_rejects_exponent_on_id():
    with pytest.raises(ValueError, match="'id' takes no exponent"):
        build_operator_symbol(OperatorSpec(SU2, 4, [OperatorTerm("id", exponent=3.0)]))


def test_build_rejects_unknown_base():
    with pytest.raises(ValueError, match="unknown operator base 'lapalce'"):
        build_operator_symbol(OperatorSpec(SU2, 2, [OperatorTerm("lapalce")]))


def test_build_rejects_su2_bases_on_torus():
    with pytest.raises(ValueError, match="SU\\(2\\)"):
        build_operator_symbol(OperatorSpec(TORUS1, 4, [OperatorTerm("iX3")]))


@pytest.mark.parametrize("terms,match", [
    ([OperatorTerm("laplace", exponent=math.nan, const=-1.0)],
     "exponent nan of laplace must be finite"),
    ([OperatorTerm("bessel", exponent=-math.inf, const=-1.0)],
     "exponent -inf of bessel must be finite"),
    ([OperatorTerm("sbessel", exponent=math.inf, const=-1.0)],
     "exponent inf of sbessel must be finite"),
    ([OperatorTerm("laplace", const=-1.0), OperatorTerm("iX3", const=math.nan)],
     r"constant nan of term 1 \(iX3\) must be finite"),
    ([OperatorTerm("id", const=complex(0.0, math.inf))],
     r"constant infj of term 0 \(id\) must be finite"),
], ids=["nan-exponent", "minus-inf-bessel", "inf-sbessel", "nan-const",
        "inf-imaginary-const"])
def test_build_rejects_non_finite_term(terms, match):
    """NaN passes every "exponent < minimum" test and bessel's minimum is
    -inf, so these once built a symbol of order NaN or +-inf."""
    with pytest.raises(ValueError, match=match):
        build_operator_symbol(OperatorSpec(SU2, 4, terms))


def test_symbol_is_its_terms():
    """Symbol takes the terms and the class data; the rest is computed."""
    assert [f.name for f in dataclasses.fields(Symbol)] == [
        "terms", "group", "two_L", "rho", "delta", "kappa"]
    a = random_field(SU2, 2, 13)
    sym = Symbol([OperatorTerm("laplace", 0.5, const=-1.0, space=a),
                  OperatorTerm("iX3", const=0.5, profile=lambda t: 1.0 + t)],
                 SU2, 2, kappa=2)
    assert (sym.order, sym.x_independent, sym.t_independent) == (1.0, False, False)
    assert sym.base_grid is quadrature_grid(SU2, 2) and sym.kappa == 2
    want = build_operator_symbol(OperatorSpec(SU2, 2, sym.terms, kappa=2))
    for n in (0, 7):
        assert np.array_equal(sym.evaluator(0.3, n, su2(2)),
                              want.evaluator(0.3, n, su2(2)))


def test_symbol_metadata_flags():
    spec = OperatorSpec(SU2, 4, [
        OperatorTerm("laplace", 1.0, const=-1.0, profile=lambda t: 1.0 + t),
    ])
    sym = build_operator_symbol(spec)
    assert sym.x_independent and not sym.t_independent
    assert sym.order == pytest.approx(2.0)


# ------------------------------------------------------------------ application

@pytest.mark.parametrize("tl", range(0, 9))
def test_quantized_laplacian_eigenfunctions(tl):
    # -Laplacian sends every coefficient xi_{ij} to -ell(ell+1) xi_{ij}
    g = quadrature_grid(SU2, 8)
    spec = OperatorSpec(SU2, 8, [OperatorTerm("laplace", 1.0, const=-1.0)])
    sym = build_operator_symbol(spec)
    lam = tl * (tl + 2) / 4.0
    d = tl + 1
    F = SpectralField.zeros(SU2, 8)
    F.coeffs[su2(tl)][min(1, d - 1), 0] = 1.0 / d
    f = fourier_inverse(F, g)
    got = quantize_apply(sym, 0.0, f)
    ref = -lam * f.values
    scale = max(np.abs(f.values).max(), 1e-30)
    assert np.abs(got.values - ref).max() <= 1e-8 * max(lam, 1.0) * scale


def test_invariant_vs_quantize_agreement():
    g = quadrature_grid(SU2, 6)
    spec = OperatorSpec(SU2, 6, [
        OperatorTerm("sublaplace", 0.5, const=-0.7),
        OperatorTerm("d+", const=0.3),
    ])
    sym = build_operator_symbol(spec)
    F = random_field(SU2, 6, 9)
    f = fourier_inverse(F, g)
    a = quantize_apply(sym, 0.0, f)
    b = fourier_inverse(invariant_apply(sym, F), g)
    scale = np.abs(a.values).max()
    assert np.abs(a.values - b.values).max() < 1e-12 * scale


def test_multiplication_symbol_is_pointwise_product():
    g = quadrature_grid(SU2, 4)
    rng = np.random.default_rng(2)
    a_vals = fourier_inverse(random_field(SU2, 4, 30), g).values.real.astype(complex)
    a_field = GridField(g, a_vals)
    spec = OperatorSpec(SU2, 4, [OperatorTerm("id", const=1.0, space=a_field)])
    sym = build_operator_symbol(spec)
    F = random_field(SU2, 4, 31)
    f = fourier_inverse(F, g)
    got = quantize_apply(sym, 0.0, f)
    assert np.abs(got.values - a_vals * f.values).max() \
        < 1e-10 * np.abs(a_vals * f.values).max()


def test_coefficient_samples_follow_non_interned_grids():
    """A freed grid's id can come back for a grid of another size; the
    cached coefficient samples must still be the new grid's."""
    a = random_field(SU2, 2, 32)
    sym = build_operator_symbol(OperatorSpec(SU2, 2, [OperatorTerm("id", space=a)]))
    for tl in (4, 6, 4, 6):
        g = GridSpec(SU2, tl)
        f = fourier_inverse(random_field(SU2, tl, 33), g)
        want = fourier_inverse(a, g).values * f.values
        got = quantize_apply(sym, 0.0, f).values
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
        del g, f


def test_apply_spectral_structured_matches_bare_evaluator():
    # same operator term by term and through the quantization sum of its
    # dense evaluator, on the base grid
    coarse_L, spec_L = 2, 4
    g4 = quadrature_grid(SU2, spec_L)
    a_vals = fourier_inverse(random_field(SU2, coarse_L, 7), g4).values.real
    spec = OperatorSpec(SU2, spec_L, [
        OperatorTerm("laplace", 0.5, const=-1.0, space=GridField(g4, a_vals.astype(complex))),
        OperatorTerm("iX3", const=0.5),
    ])
    sym = build_operator_symbol(spec)
    F = random_field(SU2, coarse_L, 8)
    got = apply_spectral(sym, 0.0, F)
    ref = fourier_forward(quantization_sum(sym, 0.0, fourier_inverse(F, g4)), coarse_L)
    worst = max(np.abs(got.coeffs[r] - ref.coeffs[r]).max() for r in got.coeffs)
    assert worst < 1e-10


def test_torus_bare_evaluator_matches_structured():
    # c(x) * laplace on the circle term by term and through the quantization
    # sum, which needs the circle's characters on the grid
    coarse_L, spec_L = 2, 4
    g = quadrature_grid(TORUS1, spec_L)
    c_vals = 1.5 + fourier_inverse(random_field(TORUS1, coarse_L, 9), g).values.real
    spec = OperatorSpec(TORUS1, spec_L, [
        OperatorTerm("laplace", 1.0, const=-1.0, space=GridField(g, c_vals.astype(complex)))])
    sym = build_operator_symbol(spec)
    F = random_field(TORUS1, coarse_L, 10)
    f = fourier_inverse(F, g)
    want = quantization_sum(sym, 0.0, f)
    got = apply_spectral(sym, 0.0, F)
    ref = fourier_forward(want, coarse_L)
    scale = max(np.abs(m).max() for m in got.coeffs.values())
    assert max(np.abs(got.coeffs[r] - ref.coeffs[r]).max()
               for r in got.coeffs) < 1e-12 * scale
    a = quantize_apply(sym, 0.0, f).values
    assert np.abs(a - want.values).max() < 1e-12 * np.abs(a).max()


def test_averaged_matrix():
    """The dense accessor of an x-dependent symbol is its x-average: each
    spatial factor replaced by its mean, the base grid's quadrature."""
    g = quadrature_grid(SU2, 4)
    a_vals = fourier_inverse(random_field(SU2, 4, 12), g).values.real
    mean = float(np.sum(g.weights() * a_vals))
    spec = OperatorSpec(SU2, 4, [
        OperatorTerm("laplace", 1.0, const=-1.0, space=GridField(g, a_vals.astype(complex)))])
    sym = build_operator_symbol(spec)
    got = sym.matrix(0.0, su2(2))
    assert np.abs(got - (-mean) * laplace_symbol(su2(2))).max() < 1e-10
    assert np.abs(got - quadrature_average(sym, 0.0, su2(2))).max() < 1e-12


def test_torus_operator():
    spec = OperatorSpec(TORUS1, 6, [OperatorTerm("laplace", 1.0, const=-1.0)])
    sym = build_operator_symbol(spec)
    F = random_field(TORUS1, 6, 3)
    G = invariant_apply(sym, F)
    for rep, mat in G.items():
        assert np.abs(mat - (-rep.k ** 2) * F.coeffs[rep]).max() < 1e-14
