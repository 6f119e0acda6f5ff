import math

import numpy as np
import pytest

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    RepIndex,
    SpectralField,
    dual_enumerate,
    plancherel_norm,
    random_field,
)
from lie_diffuse.symbol import OperatorSpec, OperatorTerm, build_operator_symbol
from lie_diffuse.reduce import (
    FirstOrderSystem,
    HigherOrderProblem,
    extract_u,
    reduce_to_first_order,
    solve_reduced,
)
from oracles import solve_reduced_loop


def laplacian(const=-1.0, two_L=4):
    return build_operator_symbol(
        OperatorSpec(SU2, two_L, [OperatorTerm("laplace", const=const)]))


def mode_field(two_ell, two_L=4, value=1.0):
    F = SpectralField.zeros(SU2, two_L)
    d = two_ell + 1
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = value
    F.coeffs[RepIndex(SU2, two_ell=two_ell)] = m
    return F


def wave_problem(g1, g2, two_L=4, T=1.0):
    """d^2 u/dt^2 = -Laplacian u, per mode a harmonic oscillator."""
    return HigherOrderProblem(2, [None, laplacian(-1.0, two_L)], [g1, g2], T=T)


# ---------------------------------------------------------------- construction

def test_wave_system_block_layout():
    zero = SpectralField.zeros(SU2, 4)
    sys = reduce_to_first_order(wave_problem(zero, zero))
    rep = RepIndex(SU2, two_ell=2)
    B = sys.block_matrix(0.0, rep)
    d = rep.dim
    lam, gam = 2.0, math.sqrt(3.0)       # lambda and (1+lambda)^{1/2} at l=1
    assert np.allclose(B[:d, :d], 0.0)
    assert np.allclose(B[:d, d:], gam * np.eye(d))
    assert np.allclose(B[d:, :d], (-lam / gam) * np.eye(d))
    assert np.allclose(B[d:, d:], 0.0)


def test_initial_state_weighting():
    u0 = mode_field(2)
    sys = reduce_to_first_order(wave_problem(u0, SpectralField.zeros(SU2, 4)))
    rep = RepIndex(SU2, two_ell=2)
    # u_1(0) = Gamma u0, u_2(0) = g2 = 0
    assert sys.initial[0][rep][0, 0] == pytest.approx(math.sqrt(3.0))
    assert np.abs(sys.initial[1][rep]).max() == 0.0


def test_problem_validation():
    zero = SpectralField.zeros(SU2, 4)
    with pytest.raises(ValueError):
        HigherOrderProblem(1, [None], [zero])
    with pytest.raises(ValueError):
        HigherOrderProblem(2, [None], [zero, zero])
    with pytest.raises(ValueError):
        HigherOrderProblem(2, [None, None], [zero])
    # a_1 slot allows order <= 1 only
    with pytest.raises(ValueError):
        HigherOrderProblem(2, [laplacian(), None], [zero, zero])


def test_problem_rejects_nonpositive_horizon():
    zero = SpectralField.zeros(SU2, 4)
    with pytest.raises(ValueError, match="horizon"):
        HigherOrderProblem(2, [None, None], [zero, zero], T=0.0)


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_problem_rejects_non_finite_horizon(T):
    zero = SpectralField.zeros(SU2, 4)
    with pytest.raises(ValueError, match=f"horizon T must be positive and finite, got {T}"):
        HigherOrderProblem(2, [None, None], [zero, zero], T=T)


def test_problem_rejects_data_on_another_bandlimit():
    with pytest.raises(ValueError, match="data fields disagree"):
        HigherOrderProblem(2, [None, laplacian()],
                           [SpectralField.zeros(SU2, 4), SpectralField.zeros(SU2, 2)])


def test_problem_rejects_coefficient_on_another_group():
    zero = SpectralField.zeros(SU2, 4)
    circle = build_operator_symbol(
        OperatorSpec(TORUS1, 4, [OperatorTerm("laplace", const=-1.0)]))
    with pytest.raises(ValueError, match="a_2 is on torus1"):
        HigherOrderProblem(2, [None, circle], [zero, zero])


def test_problem_rejects_forcing_at_another_bandlimit():
    zero = SpectralField.zeros(SU2, 4)
    with pytest.raises(ValueError, match="forcing and data"):
        HigherOrderProblem(2, [None, laplacian()], [zero, zero],
                           forcing=SpectralField.zeros(SU2, 2))


def test_problem_rejects_forcing_on_another_group():
    zero = SpectralField.zeros(SU2, 4)
    with pytest.raises(ValueError, match="forcing and data"):
        HigherOrderProblem(2, [None, laplacian()], [zero, zero],
                           forcing=SpectralField.zeros(TORUS1, 4))


def test_last_row_blocks_are_order_one():
    """b_j amplification grows at most linearly in the elliptic weight."""
    zero = SpectralField.zeros(SU2, 20)
    sys = reduce_to_first_order(wave_problem(zero, zero, two_L=20))
    ratios = []
    for rep in dual_enumerate(SU2, 20):
        B = sys.block_matrix(0.0, rep)
        d = rep.dim
        weight = math.sqrt(1.0 + rep.two_ell * (rep.two_ell + 2) / 4.0)
        ratios.append(np.linalg.norm(B[d:, :d], 2) / weight)
    assert max(ratios) < 1.5 * ratios[0] + 1.0


# ---------------------------------------------------------------- solving

def test_oscillator_cosine_mode():
    """g2 = 0 starts a pure cosine: u(t) = cos(sqrt(lambda) t) g1 at l=1."""
    u0 = mode_field(2)
    sys = reduce_to_first_order(wave_problem(u0, SpectralField.zeros(SU2, 4)))
    traj = solve_reduced(sys, scheme="cn", dt=1e-3)
    u = extract_u(sys, traj)
    rep = RepIndex(SU2, two_ell=2)
    expect = math.cos(math.sqrt(2.0) * 1.0)
    assert u[-1][rep][0, 0].real == pytest.approx(expect, abs=1e-6)
    assert abs(u[-1][rep][0, 0].imag) < 1e-9


def test_oscillator_sine_mode_exact_scheme():
    """g1 = 0, g2 = v0: u(t) = sin(sqrt(lambda) t)/sqrt(lambda) v0."""
    v0 = mode_field(2)
    sys = reduce_to_first_order(wave_problem(SpectralField.zeros(SU2, 4), v0))
    traj = solve_reduced(sys, scheme="exact", dt=0.02)
    u = extract_u(sys, traj)
    rep = RepIndex(SU2, two_ell=2)
    expect = math.sin(math.sqrt(2.0)) / math.sqrt(2.0)
    assert u[-1][rep][0, 0].real == pytest.approx(expect, abs=1e-12)


def test_zero_data_stays_zero():
    zero = SpectralField.zeros(SU2, 4)
    sys = reduce_to_first_order(wave_problem(zero, zero))
    traj = solve_reduced(sys, scheme="exact", dt=0.1)
    for stacked in traj:
        for F in stacked:
            assert all(np.abs(m).max() == 0.0 for m in F.coeffs.values())


def test_reduced_matches_per_mode_oracle():
    """Random data: the reduced solve agrees with the scalar ODE solution
    u'' = -lambda u computed independently per mode."""
    g1 = random_field(SU2, 4, seed=31)
    g2 = random_field(SU2, 4, seed=32)
    sys = reduce_to_first_order(wave_problem(g1, g2))
    u = extract_u(sys, solve_reduced(sys, scheme="exact", dt=0.01))
    for rep in dual_enumerate(SU2, 4):
        lam = rep.two_ell * (rep.two_ell + 2) / 4.0
        w = math.sqrt(lam) if lam > 0 else 0.0
        if w > 0:
            expect = (math.cos(w) * g1[rep]
                      + math.sin(w) / w * g2[rep])
        else:
            expect = g1[rep] + g2[rep]   # u'' = 0: linear motion
        assert np.abs(u[-1][rep] - expect).max() < 1e-10


def test_forced_last_slot():
    """Constant forcing drives u'' = -lambda u + c: particular solution
    c/lambda (1 - cos(w t))."""
    f = mode_field(2, value=0.5)
    zero = SpectralField.zeros(SU2, 4)
    prob = HigherOrderProblem(2, [None, laplacian()], [zero, zero], forcing=f)
    sys = reduce_to_first_order(prob)
    u = extract_u(sys, solve_reduced(sys, scheme="exact", dt=0.01))
    rep = RepIndex(SU2, two_ell=2)
    w = math.sqrt(2.0)
    expect = 0.5 / 2.0 * (1.0 - math.cos(w))
    assert u[-1][rep][0, 0].real == pytest.approx(expect, abs=1e-10)


def test_rk4_scheme_also_converges():
    u0 = mode_field(2)
    sys = reduce_to_first_order(wave_problem(u0, SpectralField.zeros(SU2, 4)))
    u = extract_u(sys, solve_reduced(sys, scheme="rk4", dt=0.01))
    rep = RepIndex(SU2, two_ell=2)
    assert u[-1][rep][0, 0].real == pytest.approx(math.cos(math.sqrt(2.0)),
                                                  abs=1e-8)


def test_third_order_reduction_round_trip():
    """m = 3 with a_3 = -(1+Laplacian)^{3/2}: modes solve u''' = -mu u with
    mu = (1+lambda)^{3/2}; compare against the scalar series solution."""
    two_L = 2
    a3 = build_operator_symbol(
        OperatorSpec(SU2, two_L, [OperatorTerm("bessel", exponent=3.0, const=-1.0)]))
    g1 = mode_field(2, two_L=two_L)
    zero = SpectralField.zeros(SU2, two_L)
    prob = HigherOrderProblem(3, [None, None, a3], [g1, zero, zero], T=0.5)
    sys = reduce_to_first_order(prob)
    u = extract_u(sys, solve_reduced(sys, scheme="exact", dt=0.005))
    rep = RepIndex(SU2, two_ell=2)
    mu = 3.0 ** 1.5
    # scalar oracle: solve u''' = -mu u by its own companion matrix
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-mu, 0.0, 0.0]])
    from scipy.linalg import expm as dense_expm
    oracle = (dense_expm(0.5 * C) @ np.array([1.0, 0.0, 0.0]))[0]
    assert u[-1][rep][0, 0].real == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------- shared stepping core

# a_1 and a_2 of the damped order-m problem: diagonal blocks (per-entry
# stepping), row-dependent diagonal blocks, and a dense a_1 (block path)
COEFFICIENTS = {
    "diagonal": ([("laplace", 0.5, -0.2)], "laplace"),
    "sublaplace": ([("laplace", 0.5, -0.2)], "sublaplace"),
    "dense": ([("laplace", 0.5, -0.2), ("X1", 1.0, 0.1)], "laplace"),
}


def order_m_system(m, forcing, t_dependent, two_L=2, T=0.2, kind="diagonal"):
    """Damped order-m problem with random data; a_2 may carry a time profile."""
    def sym(terms):
        return build_operator_symbol(OperatorSpec(SU2, two_L, terms))

    a1, a2 = COEFFICIENTS[kind]
    profile = (lambda t: 1.0 + 0.5 * math.sin(3.0 * t)) if t_dependent else None
    coeffs = [sym([OperatorTerm(b, exponent=e, const=c) for b, e, c in a1]),
              sym([OperatorTerm(a2, const=-1.0, profile=profile)])]
    if m == 3:
        coeffs.append(sym([OperatorTerm("bessel", exponent=3.0, const=-1.0)]))
    data = [random_field(SU2, two_L, seed=40 + j) for j in range(m)]
    f = random_field(SU2, two_L, seed=50)
    forcing = {"none": None, "constant": f,
               "callable": lambda t: (1.0 + t) * f}[forcing]
    return reduce_to_first_order(
        HigherOrderProblem(m, coeffs, data, forcing=forcing, T=T))


@pytest.mark.parametrize("t_dependent", [False, True])
@pytest.mark.parametrize("forcing", ["none", "constant", "callable"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("scheme", ["exact", "cn", "rk4"])
def test_solve_reduced_matches_stacked_block_loop(scheme, m, forcing, t_dependent):
    """The trajectory of stepping each stacked block alone: bit for bit on
    the block path (dense a_1), and to 1e-13 of each field's largest
    coefficient on the per-entry path, whose m x m products round
    differently from the (m d) x (m d) ones."""
    for kind in COEFFICIENTS:
        sys = order_m_system(m, forcing, t_dependent, kind=kind)
        got = solve_reduced(sys, scheme=scheme, dt=0.02)
        want = solve_reduced_loop(sys, scheme, 0.02)
        assert len(got) == len(want) == 11
        for g_fields, w_fields in zip(got, want):
            assert len(g_fields) == m
            for G, W in zip(g_fields, w_fields):
                if kind == "dense":
                    assert all(np.array_equal(G[rep], W[rep]) for rep in W.coeffs)
                else:
                    err = max(np.abs(G[rep] - W[rep]).max() for rep in W.coeffs)
                    scale = max(np.abs(w).max() for w in W.coeffs.values())
                    assert err <= 1e-13 * scale


def test_solve_reduced_leaves_the_initial_data_alone():
    """trajectory[0] and sys.initial hold the initial data after the solve,
    and the steps never wrote into either."""
    sys = order_m_system(2, "constant", False)
    before = [F.data.copy() for F in sys.initial]
    traj = solve_reduced(sys, scheme="exact", dt=0.02)
    for j, F in enumerate(sys.initial):
        assert np.array_equal(F.data, before[j])
        assert np.array_equal(traj[0][j].data, before[j])
        assert not np.shares_memory(traj[0][j].data, F.data)
    assert np.abs(traj[-1][0].data - before[0]).max() > 0.0


def test_rk4_substeps_past_its_stability_cap():
    """dt = 1 is about twice the cap at two_L = 8: the step is cut in two
    and the damped wave decays instead of growing."""
    two_L = 8
    a1 = build_operator_symbol(OperatorSpec(
        SU2, two_L, [OperatorTerm("laplace", exponent=0.5, const=-0.2)]))
    prob = HigherOrderProblem(
        2, [a1, laplacian(-1.0, two_L)],
        [random_field(SU2, two_L, seed=1), random_field(SU2, two_L, seed=2)],
        T=4.0)
    sys = reduce_to_first_order(prob)
    with pytest.warns(UserWarning, match="stability cap .*substepping x2"):
        traj = solve_reduced(sys, scheme="rk4", dt=1.0)
    norms = [math.sqrt(sum(plancherel_norm(F) for F in stacked)) for stacked in traj]
    assert norms[-1] <= norms[0]


@pytest.mark.parametrize("scheme", ["exact", "cn", "rk4"])
def test_t_independent_generator_is_built_once_per_rep(scheme):
    """Each companion block is built once, whatever the number of steps,
    RK4 stages and substeps."""
    sys = order_m_system(2, "constant", False, two_L=16, T=0.1)
    calls = []
    build = sys.block_matrix

    def counted(t, rep):
        calls.append(rep)
        return build(t, rep)
    sys.block_matrix = counted
    solve_reduced(sys, scheme=scheme, dt=0.01)
    assert len(calls) == len(set(calls)) == 17


def test_exact_scheme_calls_the_module_expm(monkeypatch):
    """solve_reduced looks up this module's expm at call time, so patching
    the name lie_diffuse.reduce.expm (as perfbench's tracer does to count
    reduce.expm.calls) sees every exponential the exact scheme takes."""
    import lie_diffuse.reduce as reduce

    calls = []
    real = reduce.expm

    def counted(a):
        calls.append(a.shape)
        return real(a)
    monkeypatch.setattr(reduce, "expm", counted)
    v0 = mode_field(2)
    sys = reduce_to_first_order(wave_problem(SpectralField.zeros(SU2, 4), v0))
    u = extract_u(sys, solve_reduced(sys, scheme="exact", dt=0.02))
    assert len(calls) >= 1
    expect = math.sin(math.sqrt(2.0)) / math.sqrt(2.0)
    assert u[-1][RepIndex(SU2, two_ell=2)][0, 0].real == pytest.approx(expect, abs=1e-12)
