import math

import numpy as np
import pytest

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    GridField,
    RepIndex,
    SpectralField,
    plancherel_norm,
    quadrature_grid,
    random_field,
)
from lie_diffuse.symbol import OperatorSpec, OperatorTerm, apply_spectral, build_operator_symbol
from lie_diffuse.evolve import (
    EvolutionProblem,
    SolverError,
    energy_estimate_check,
    energy_identity_residual,
    evolve,
    sobolev_norm,
    step_crank_nicolson,
    step_exact_invariant,
    step_rk4,
)
from lie_diffuse.wellposed import classify_problem
from oracles import evolve_exact_loop


def op(terms, two_L=4):
    return build_operator_symbol(OperatorSpec(SU2, two_L, terms))


def mode_field(two_ell, i=0, j=0, two_L=4):
    """Spectral field of the single coefficient xi^{ell}_{ij}."""
    F = SpectralField.zeros(SU2, two_L)
    d = two_ell + 1
    m = np.zeros((d, d), dtype=complex)
    m[j, i] = 1.0 / d
    F.coeffs[RepIndex(SU2, two_ell=two_ell)] = m
    return F


HEAT = op([OperatorTerm("laplace", const=-1.0)])
ZERO = op([])


# ---------------------------------------------------------------- Sobolev norms

def test_sobolev_norm_of_constant():
    one = SpectralField.zeros(SU2, 4)
    one.coeffs[RepIndex(SU2, two_ell=0)] = np.array([[1.0 + 0j]])
    for s in (-1.0, 0.0, 2.0):
        for kind in ("elliptic", "subelliptic"):
            assert sobolev_norm(one, s, kind) == pytest.approx(1.0)


def test_sobolev_norm_halfspin_h2():
    F = mode_field(1, i=1, j=1)
    expect = (7.0 / 4.0) / math.sqrt(2.0)
    assert sobolev_norm(F, 2.0) == pytest.approx(expect, abs=1e-14)


def test_sobolev_zero_index_is_l2():
    F = random_field(SU2, 6, seed=3)
    assert sobolev_norm(F, 0.0) == math.sqrt(plancherel_norm(F))


def test_torus_kinds_coincide():
    F = random_field(TORUS1, 5, seed=4)
    a = sobolev_norm(F, 1.37, "elliptic")
    b = sobolev_norm(F, 1.37, "subelliptic")
    assert a == pytest.approx(b, rel=1e-15)


# ---------------------------------------------------------------- exact stepper

def test_exact_heat_mode_decay():
    F = mode_field(1, i=1, j=1)
    v = F
    for n in range(10):
        v = step_exact_invariant(v, HEAT, None, n * 0.1, 0.1)
    rep = RepIndex(SU2, two_ell=1)
    expect = math.exp(-0.75) * F[rep]
    assert np.abs(v[rep] - expect).max() < 1e-12


def test_exact_fractional_mode_decay():
    half = op([OperatorTerm("laplace", exponent=0.5, const=-1.0)])
    v = step_exact_invariant(mode_field(2), half, None, 0.0, 0.2)
    rep = RepIndex(SU2, two_ell=2)
    assert v[rep][0, 0] == pytest.approx(math.exp(-math.sqrt(2.0) * 0.2) / 3.0)


def test_exact_zero_operator_identity():
    F = random_field(SU2, 4, seed=5)
    v = step_exact_invariant(F, ZERO, None, 0.0, 0.3)
    for rep, m in F.items():
        assert np.array_equal(v[rep], m)


def test_exact_rejects_x_dependent():
    g = quadrature_grid(SU2, 2)
    _, T, _ = np.meshgrid(g.phi, g.theta, g.psi, indexing="ij")
    coef = GridField(g, (1.0 + 0.3 * np.cos(T)).ravel().astype(complex))
    sym = build_operator_symbol(
        OperatorSpec(SU2, 2, [OperatorTerm("laplace", const=-1.0, space=coef)]))
    with pytest.raises(ValueError):
        step_exact_invariant(random_field(SU2, 2, seed=1), sym, None, 0.0, 0.1)


# ---------------------------------------------------------------- scheme orders

def run_const(stepper, sym, F0, dt, T=1.0, forcing=None):
    v = F0
    n = int(round(T / dt))
    for k in range(n):
        v = stepper(v, sym, forcing, k * dt, dt)
    return v


def test_scheme_orders_on_heat_mode():
    """Observed convergence over dt in {0.1, 0.05, 0.025}: RK4 >= 3.7, CN >= 1.9."""
    F0 = mode_field(2, two_L=2)
    sym = op([OperatorTerm("laplace", const=-1.0)], two_L=2)
    rep = RepIndex(SU2, two_ell=2)
    exact = math.exp(-2.0) / 3.0
    errs = {"rk4": [], "cn": []}
    for dt in (0.1, 0.05, 0.025):
        errs["rk4"].append(abs(run_const(step_rk4, sym, F0, dt)[rep][0, 0] - exact))
        errs["cn"].append(abs(
            run_const(step_crank_nicolson, sym, F0, dt)[rep][0, 0] - exact))
    for name, floor in (("rk4", 3.7), ("cn", 1.9)):
        e = errs[name]
        assert math.log2(e[0] / e[1]) > floor
        assert math.log2(e[1] / e[2]) > floor


def test_steppers_identity_on_zero_problem():
    F = random_field(SU2, 4, seed=6)
    for stepper in (step_rk4, step_crank_nicolson):
        v = stepper(F, ZERO, None, 0.0, 0.25)
        for rep, m in F.items():
            assert np.abs(v[rep] - m).max() < 1e-15


# ---------------------------------------------------------------- evolve driver

def test_evolve_heat_matches_analytic_decay():
    u0 = random_field(SU2, 4, seed=7)
    traj, report = evolve(EvolutionProblem(HEAT, u0, T=1.0), dt=0.05)
    assert report.scheme == "exact"
    for rep, m in traj[-1].items():
        lam = rep.two_ell * (rep.two_ell + 2) / 4.0
        assert np.abs(m - math.exp(-lam) * u0[rep]).max() < 1e-10


def test_evolve_manufactured_forcing_rk4():
    u0 = random_field(SU2, 4, seed=8)
    traj, report = evolve(EvolutionProblem(ZERO, u0, forcing=u0, T=1.0),
                          scheme="rk4", dt=0.05)
    for rep, m in traj[-1].items():
        assert np.abs(m - 2.0 * u0[rep]).max() < 1e-8
    assert report.C_prime >= 0.0


def test_evolve_drift_l2_nonincreasing():
    sym = op([OperatorTerm("laplace", exponent=0.5, const=-1.0),
              OperatorTerm("iX3", const=1.0)])
    u0 = random_field(SU2, 4, seed=9)
    _, report = evolve(EvolutionProblem(sym, u0, T=1.0), dt=0.02)
    assert report.case == "CaseII" and report.verified
    for a, b in zip(report.l2_norms, report.l2_norms[1:]):
        assert b <= a + 1e-10


def test_evolve_skew_drift_conserves_mass():
    sym = op([OperatorTerm("X3", const=2.0)])
    u0 = random_field(SU2, 4, seed=10)
    _, report = evolve(EvolutionProblem(sym, u0, T=1.0), scheme="exact", dt=0.01)
    drift = max(abs(x - report.l2_norms[0]) for x in report.l2_norms)
    assert drift < 1e-10


def test_evolve_rk4_substeps_when_stiff():
    sym = op([OperatorTerm("laplace", const=-1.0)], two_L=8)
    u0 = random_field(SU2, 8, seed=11)
    with pytest.warns(UserWarning, match="stability"):
        traj, report = evolve(EvolutionProblem(sym, u0, T=1.0), scheme="rk4", dt=0.5)
    # substepping keeps the run stable: norms decay instead of blowing up
    assert report.l2_norms[-1] < report.l2_norms[0]
    assert all(np.isfinite(x) for x in report.l2_norms)
    slow = RepIndex(SU2, two_ell=1)  # non-stiff mode stays accurate
    assert np.abs(traj[-1][slow] - math.exp(-0.75) * u0[slow]).max() < 1e-4


def test_evolve_rejects_oversized_dt():
    u0 = random_field(SU2, 4, seed=12)
    with pytest.raises(ValueError):
        evolve(EvolutionProblem(HEAT, u0, T=0.1), dt=0.5)


def test_forcing_bandlimit_checked():
    with pytest.raises(ValueError):
        EvolutionProblem(HEAT, random_field(SU2, 4, seed=1),
                         forcing=random_field(SU2, 6, seed=2))


# ---------------------------------------------------------------- diagnostics

def test_identity_residual_zero_problem():
    u0 = random_field(SU2, 4, seed=13)
    traj, report = evolve(EvolutionProblem(ZERO, u0, T=1.0), dt=0.1)
    assert max(report.identity_residuals) < 1e-12


def test_identity_residual_manufactured():
    """v = (1+t) u0 with K=0, f=u0: the identity holds up to O(dt^2)."""
    u0 = random_field(SU2, 2, seed=14)
    _, report = evolve(EvolutionProblem(ZERO, u0, forcing=u0, T=1.0),
                       scheme="rk4", dt=0.05)
    assert max(report.identity_residuals) < 1e-9


def test_identity_residual_halves_at_second_order():
    """The centered residual at a fixed interior time drops by ~4 under
    dt-halving (comparing at the same t, so the decay envelope cancels)."""
    u0 = random_field(SU2, 2, seed=15)
    prob = EvolutionProblem(HEAT, u0, T=1.0)
    _, r1 = evolve(prob, dt=0.1)
    _, r2 = evolve(prob, dt=0.05)
    ratio = r1.identity_residuals[5] / r2.identity_residuals[10]  # t = 0.5
    assert 3.5 < ratio < 4.5


def test_identity_residual_needs_three_states():
    u0 = random_field(SU2, 2, seed=16)
    with pytest.raises(ValueError):
        energy_identity_residual([u0, u0], ZERO, None, 0.1)


def test_energy_estimate_contraction():
    sym = op([OperatorTerm("bessel", exponent=2.0, const=-1.0)])
    u0 = random_field(SU2, 4, seed=17)
    _, report = evolve(EvolutionProblem(sym, u0, T=1.0), dt=0.05)
    assert report.C <= 1.0 + 1e-10
    assert report.C_prime == 0.0


def test_energy_estimate_zero_operator():
    u0 = random_field(SU2, 4, seed=18)
    _, report = evolve(EvolutionProblem(ZERO, u0, T=1.0), dt=0.1)
    assert report.C == pytest.approx(1.0, abs=1e-12)


def test_energy_estimate_forced_pair_feasible():
    u0 = random_field(SU2, 4, seed=19)
    f = random_field(SU2, 4, seed=20)
    traj, report = evolve(EvolutionProblem(HEAT, u0, forcing=f, T=1.0), dt=0.05)
    U = plancherel_norm(u0)
    F_tot = plancherel_norm(f) * 1.0
    for v in traj:
        assert plancherel_norm(v) <= report.C * U + report.C_prime * F_tot + 1e-9


# ---------------------------------------------------------------- x-dependent CN

def xdep_symbol(amp=0.4, two_L=2):
    g = quadrature_grid(SU2, two_L)
    _, T, _ = np.meshgrid(g.phi, g.theta, g.psi, indexing="ij")
    coef = GridField(g, (1.0 + amp * np.cos(T)).ravel().astype(complex))
    return build_operator_symbol(
        OperatorSpec(SU2, two_L, [OperatorTerm("laplace", const=-1.0, space=coef)]))


def test_cn_xdep_solves_the_implicit_system():
    sym = xdep_symbol()
    u0 = random_field(SU2, 2, seed=21)
    dt = 0.05
    v = step_crank_nicolson(u0, sym, None, 0.0, dt)
    lhs = v - (0.5 * dt) * apply_spectral(sym, 0.5 * dt, v)
    rhs = u0 + (0.5 * dt) * apply_spectral(sym, 0.5 * dt, u0)
    err = math.sqrt(plancherel_norm(lhs - rhs))
    assert err < 1e-11 * (1.0 + math.sqrt(plancherel_norm(rhs)))


def test_cn_xdep_constant_coefficient_agrees_with_invariant():
    """A constant multiplier field must reproduce the x-independent path."""
    g = quadrature_grid(SU2, 2)
    coef = GridField(g, np.full(g.node_count, 1.5, dtype=complex))
    sym_x = build_operator_symbol(
        OperatorSpec(SU2, 2, [OperatorTerm("laplace", const=-1.0, space=coef)]))
    sym_c = build_operator_symbol(
        OperatorSpec(SU2, 2, [OperatorTerm("laplace", const=-1.5)]))
    u0 = random_field(SU2, 2, seed=22)
    va = step_crank_nicolson(u0, sym_x, None, 0.0, 0.1)
    vb = step_crank_nicolson(u0, sym_c, None, 0.0, 0.1)
    for rep in u0.coeffs:
        assert np.abs(va[rep] - vb[rep]).max() < 1e-11


def test_cn_xdep_nonconvergence_reports_residual():
    sym = xdep_symbol(amp=1.4)
    u0 = random_field(SU2, 2, seed=23)
    with pytest.raises(SolverError) as err:
        step_crank_nicolson(u0, sym, None, 0.0, 0.5, max_iter=1)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------- shared stepping core

@pytest.mark.parametrize("case", ["diag", "diag-forced", "dense-forced",
                                  "t-dependent", "callable-forcing"])
def test_evolve_exact_matches_per_mode_loop(case):
    """Bit for bit the same trajectory as the per-mode propagator loop."""
    u0 = random_field(SU2, 4, seed=21)
    f = random_field(SU2, 4, seed=22)
    sym, forcing = HEAT, None
    if case == "diag-forced":
        forcing = f
    elif case == "dense-forced":
        sym = op([OperatorTerm("laplace", const=-1.0), OperatorTerm("X1", const=0.5)])
        forcing = f
    elif case == "t-dependent":
        sym = op([OperatorTerm("laplace", const=-1.0,
                               profile=lambda t: 1.0 + 0.5 * math.sin(3.0 * t))])
        forcing = f
    elif case == "callable-forcing":
        forcing = lambda t: (1.0 + t) * f  # noqa: E731
    problem = EvolutionProblem(sym, u0, forcing=forcing, T=0.3)
    traj, _ = evolve(problem, scheme="exact", dt=0.03)
    want = evolve_exact_loop(problem, 0.03)
    assert len(traj) == len(want) == 11
    for G, W in zip(traj, want):
        assert all(np.array_equal(G[rep], W[rep]) for rep in W.coeffs)


@pytest.mark.parametrize("scheme", ["exact", "cn", "rk4"])
@pytest.mark.parametrize("operator", ["diagonal", "dense"])
def test_evolve_evaluates_invariant_symbol_once_per_rep(scheme, operator):
    """Stepping and diagnostics reuse one evaluation per representation of an
    x- and t-independent symbol (the classifier's scan is not counted)."""
    terms = [OperatorTerm("laplace", exponent=0.5, const=-1.0),
             OperatorTerm("iX3", const=0.5)]
    if operator == "dense":
        terms.append(OperatorTerm("X1", const=0.3))
    sym = op(terms)
    cls = classify_problem(sym)
    calls = []
    evaluator = sym.evaluator

    def counted(t, x, rep):
        calls.append(rep)
        return evaluator(t, x, rep)
    sym.evaluator = counted
    problem = EvolutionProblem(sym, random_field(SU2, 4, seed=31),
                               forcing=random_field(SU2, 4, seed=32), T=0.2, s=1.0)
    evolve(problem, scheme=scheme, dt=0.02, classification=cls)
    assert len(calls) == len(set(calls)) <= 5
