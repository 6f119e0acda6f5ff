import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    GridField,
    dual_enumerate,
    fourier_inverse,
    quadrature_grid,
    random_field,
)
from lie_diffuse.symbol import OperatorSpec, OperatorTerm, Symbol, build_operator_symbol
from lie_diffuse.wellposed import (
    classify_problem,
    garding_order_bound,
    hermitian_part,
    positivity_check,
    strong_ellipticity_constant,
    su2_drift_criterion,
)

from oracles import positivity_per_sample, strong_ellipticity_per_sample


def drift_symbol(a, a3, m=1.0, two_L=8):
    terms = [OperatorTerm("laplace", exponent=m / 2.0, const=a)]
    if a3 != 0.0:
        terms.append(OperatorTerm("iX3", const=a3))
    return build_operator_symbol(OperatorSpec(SU2, two_L, terms))


# ---------------------------------------------------------------- hermitian part

def test_hermitian_part_examples():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(hermitian_part(M), [[0.0, 0.5], [0.5, 0.0]])
    H = np.array([[2.0, 1j], [-1j, 0.5]])
    assert np.allclose(hermitian_part(H), H)
    S = np.array([[1j, 2.0], [-2.0, -3j]])
    assert np.abs(hermitian_part(S)).max() == 0.0


# ---------------------------------------------------------------- order window

def test_garding_window_values():
    assert garding_order_bound(1.0, 0.0, 1) == (1.0, True)
    assert garding_order_bound(1.0, 0.0, 2) == (0.5, True)
    val, ok = garding_order_bound(1.0, 1.0 / 3.0, 2)
    assert abs(val) < 1e-15
    assert not ok


def test_garding_rejects_bad_parameters():
    for rho, delta, kappa in [(0.0, 0.0, 1), (1.5, 0.0, 1), (1.0, -0.1, 1),
                              (1.0, 0.0, 0), (1.0, 0.0, 1.5)]:
        with pytest.raises(ValueError):
            garding_order_bound(rho, delta, kappa)


@given(rho=st.floats(0.05, 1.0), delta=st.floats(0.0, 0.3),
       kappa=st.sampled_from([1, 2, 3]), h=st.floats(0.01, 0.2))
@settings(max_examples=60, deadline=None)
def test_garding_monotone(rho, delta, kappa, h):
    """More smoothing loss (delta up, rho down) shrinks the order window."""
    base, _ = garding_order_bound(rho, delta, kappa)
    worse, _ = garding_order_bound(rho, delta + h, kappa)
    assert worse < base
    if rho + h <= 1.0:
        better, _ = garding_order_bound(rho + h, delta, kappa)
        assert better > base
    if kappa == 1:
        assert base == pytest.approx(rho - delta)


# ---------------------------------------------------------------- drift criterion

def test_drift_criterion_boundary_holds():
    ok, witness = su2_drift_criterion(-1.0, 1.0, 1.0)
    assert ok
    assert witness is None


def test_drift_criterion_violation_witness():
    ok, witness = su2_drift_criterion(-1.0, 1.5, 1.0)
    assert not ok
    assert witness["value"] == pytest.approx(0.5)
    assert witness["a3"] == 1.5


def test_drift_criterion_low_order():
    assert su2_drift_criterion(-1.0, 0.0, 0.5) == (True, None)
    ok, witness = su2_drift_criterion(-1.0, 1e-3, 0.5)
    assert not ok and witness["value"] == pytest.approx(1e-3)
    ok, witness = su2_drift_criterion(0.5, 0.0, 0.5)
    assert not ok and witness["a"] == 0.5
    assert su2_drift_criterion(-1.0, 0.0, 0.0) == (True, None)


def test_drift_criterion_order_range():
    with pytest.raises(ValueError):
        su2_drift_criterion(-1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        su2_drift_criterion(-1.0, 0.0, -0.1)


def test_drift_criterion_sampled_fields():
    a = np.array([-1.0, -2.0, -0.5])
    a3 = np.array([0.5, 1.0, 0.75])
    ok, witness = su2_drift_criterion(a, a3, 1.0)
    assert not ok
    assert witness["index"] == 2 and witness["value"] == pytest.approx(0.25)
    assert su2_drift_criterion(a, np.array([1.0, 2.0, 0.5]), 1.0)[0]


def test_drift_criterion_matches_symbol_scan():
    """Closed form vs eigenvalue scan on a dyadic 10x10 coefficient grid.

    Grid step 7/32 is exactly representable, so the boundary pairs
    a3 = -a sit exactly on |a3| + a = 0 for both predicates.
    """
    step = 7.0 / 32.0
    for i in range(10):
        for j in range(10):
            a, a3 = -step * i, step * j
            ok, _ = su2_drift_criterion(a, a3, 1.0)
            report = positivity_check(drift_symbol(a, a3), scan_two_L=100)
            assert ok == (report.kind == "positive"), (a, a3)


# ---------------------------------------------------------------- positivity

def test_positivity_fractional_heat():
    report = positivity_check(drift_symbol(-1.0, 0.0, m=1.0))
    assert report.kind == "positive"
    assert report.tail == "conclusive"
    assert report.constant == pytest.approx(0.0, abs=1e-14)
    assert report.witness.rep.two_ell == 0


def test_positivity_drift_first_witness():
    """a=-1, a3=1.5: first violating degree is l=1 with entry sqrt(2)-1.5."""
    report = positivity_check(drift_symbol(-1.0, 1.5))
    assert report.kind == "failed"
    assert report.tail == "conclusive"
    w = report.witness
    assert w.rep.two_ell == 2
    assert w.eig == pytest.approx(math.sqrt(2.0) - 1.5, abs=1e-12)
    assert report.constant < -20.0  # global minimum sits at the scan edge


def test_positivity_zero_operator():
    sym = build_operator_symbol(OperatorSpec(SU2, 4, []))
    report = positivity_check(sym)
    assert report.kind == "positive" and report.tail == "conclusive"


def test_positivity_space_dependent_diffusion():
    g = quadrature_grid(SU2, 2)
    P, T, Q = np.meshgrid(g.phi, g.theta, g.psi, indexing="ij")
    coef = GridField(g, (1.5 + 0.4 * np.cos(T)).ravel().astype(complex))
    spec = OperatorSpec(SU2, 2, [OperatorTerm("laplace", const=-1.0, space=coef)])
    sym = build_operator_symbol(spec)
    report = positivity_check(sym)
    assert report.kind == "positive"
    assert report.tail == "conclusive"
    assert report.scanned["x_samples"] == g.node_count

    cls = classify_problem(sym)
    assert cls.case == "Unverified"
    assert "exceeds" in cls.reason


def test_positivity_bare_symbol_is_scan_limited():
    sym = Symbol(evaluator=lambda t, x, rep: -np.eye(rep.dim, dtype=complex),
                 order=0.0)
    report = positivity_check(sym, scan_two_L=10)
    assert report.kind == "positive"
    assert report.tail == "scan-limited"


@given(c=st.floats(1e-3, 1e3))
@settings(max_examples=25, deadline=None)
def test_positivity_scale_covariant(c):
    """Positive rescaling never flips the verdict or moves the witness."""
    good = positivity_check(drift_symbol(-c, c), scan_two_L=20)
    assert good.kind == "positive"
    bad = positivity_check(drift_symbol(-c, 1.5 * c), scan_two_L=20)
    assert bad.kind == "failed"
    assert bad.witness.rep.two_ell == 2


# ---------------------------------------------------------------- ellipticity

def test_strong_ellipticity_bessel_heat_unit_constant():
    spec = OperatorSpec(SU2, 8, [OperatorTerm("bessel", exponent=1.0, const=-1.0)])
    report = strong_ellipticity_constant(build_operator_symbol(spec))
    assert report.kind == "strongly_elliptic"
    assert report.constant == pytest.approx(1.0, abs=1e-12)


def test_strong_ellipticity_subelliptic_scaling():
    spec = OperatorSpec(SU2, 8, [OperatorTerm("sbessel", exponent=1.0, const=-2.0)])
    report = strong_ellipticity_constant(build_operator_symbol(spec),
                                         weight_kind="subelliptic")
    assert report.constant == pytest.approx(2.0, abs=1e-12)


def test_strong_ellipticity_trivial_rep_degenerates():
    """-L^{1/2} has vanishing symbol at the trivial representation: the
    strict verdict fails with C=0 there, the low-frequency-excluded rerun
    passes with the l=1 constant."""
    report = strong_ellipticity_constant(drift_symbol(-1.0, 0.0))
    assert report.kind == "failed"
    assert report.constant == pytest.approx(0.0, abs=1e-14)
    assert report.witness.rep.two_ell == 0
    assert report.excluded_kind == "strongly_elliptic"
    assert report.excluded_constant == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_strong_ellipticity_implies_positivity():
    spec = OperatorSpec(SU2, 8, [OperatorTerm("bessel", exponent=1.0, const=-1.0)])
    sym = build_operator_symbol(spec)
    assert strong_ellipticity_constant(sym).ok
    assert positivity_check(sym).ok


# ---------------------------------------------------------------- classification

def test_classify_bessel_heat_case1():
    spec = OperatorSpec(SU2, 8, [OperatorTerm("bessel", exponent=2.0, const=-1.0)])
    cls = classify_problem(build_operator_symbol(spec))
    assert cls.case == "CaseI"
    assert cls.verified
    assert cls.constant == pytest.approx(1.0, abs=1e-12)
    assert cls.order == 2.0


def test_classify_boundary_drift_case2():
    cls = classify_problem(drift_symbol(-1.0, 1.0))
    assert cls.case == "CaseII"
    assert cls.kappa_order == pytest.approx(1.0)
    assert cls.order == 1.0


def test_classify_backward_heat_unverified():
    cls = classify_problem(drift_symbol(1.0, 0.0, m=2.0))
    assert cls.case == "Unverified"
    assert not cls.verified
    assert "positivity failed" in cls.reason
    w = cls.positivity_report.witness
    assert w.rep.two_ell == 1
    assert w.eig == pytest.approx(-0.75)


def test_report_json_shape():
    report = positivity_check(drift_symbol(-1.0, 1.5))
    d = report.to_json_dict()
    assert d["verdict"] == "failed"
    assert set(d["witness"]) == {"t", "x_node", "two_ell", "eig"}
    cls = classify_problem(drift_symbol(-1.0, 1.0)).to_json_dict()
    assert cls["verdict"] == "CaseII"
    assert "positivity" in cls


# ---------------------------------------------------------------- batched scan vs per-sample reference

def real_coef(group, two_L, amp, seed=7):
    """1 + amp * r(x) / max|r| for a deterministic random real field r."""
    grid = quadrature_grid(group, two_L)
    r = fourier_inverse(random_field(group, two_L, seed), grid).values.real
    return GridField(grid, 1.0 + amp * r / np.abs(r).max())


def varcoef_symbol(amp):
    """-c(x) p(t) L^{1/2} + 0.2 iX3, the shape of the varcoef-cn benchmark."""
    terms = [OperatorTerm("laplace", exponent=0.5, const=-1.0,
                          space=real_coef(SU2, 2, amp),
                          profile=lambda t: 1.0 + 0.5 * math.sin(3.0 * t)),
             OperatorTerm("iX3", const=0.2)]
    return build_operator_symbol(OperatorSpec(SU2, 2, terms))


def dense_symbol(x_dependent):
    """Non-Hermitian and non-diagonal: complex X1 coefficient plus d+ / d-.

    Constant coefficients stay positive with the minimum off the trivial
    representation; the x- and t-dependent X1 coefficient outgrows the
    diffusion at high degree and fails.
    """
    space = real_coef(SU2, 2, 0.5) if x_dependent else None
    profile = (lambda t: math.cos(t)) if x_dependent else None
    terms = [OperatorTerm("laplace", exponent=0.5, const=-1.0),
             OperatorTerm("id", const=-0.5),
             OperatorTerm("X1", const=0.3 + (1.5j if x_dependent else 0.4j),
                          space=space, profile=profile),
             OperatorTerm("d+", const=0.2),
             OperatorTerm("d-", const=-0.1j)]
    return build_operator_symbol(OperatorSpec(SU2, 2, terms))


def complex_space_symbol():
    """Complex-valued spatial coefficient and complex constant, where the
    order in which the coefficient products are rounded shows."""
    terms = [OperatorTerm("laplace", exponent=0.5, const=-1.0),
             OperatorTerm("id", const=-0.5),
             OperatorTerm("X2", const=0.3 - 0.7j, space=random_field(SU2, 2, 3),
                          profile=lambda t: 1.0 - t)]
    return build_operator_symbol(OperatorSpec(SU2, 2, terms))


def bare_symbol():
    inner = dense_symbol(True)
    return Symbol(evaluator=lambda t, x, rep: inner.evaluator(t, x, rep),
                  order=inner.order, x_independent=False, t_independent=False,
                  group=SU2, two_L=inner.two_L, base_grid=inner.base_grid)


def torus_symbol():
    terms = [OperatorTerm("laplace", exponent=0.5, const=-1.0 + 0.25j,
                          space=real_coef(TORUS1, 8, 1.3),
                          profile=lambda t: 1.0 + t),
             OperatorTerm("id", const=-0.05)]
    return build_operator_symbol(OperatorSpec(TORUS1, 8, terms))


def subelliptic_symbol():
    terms = [OperatorTerm("sublaplace", exponent=0.5, const=-1.0,
                          space=real_coef(SU2, 2, 0.4)),
             OperatorTerm("iX3", const=0.1)]
    return build_operator_symbol(OperatorSpec(SU2, 2, terms, kappa=2))


SCAN_CASES = {
    "varcoef-0.3": (lambda: varcoef_symbol(0.3), "elliptic"),
    "varcoef-1.2": (lambda: varcoef_symbol(1.2), "elliptic"),
    "dense": (lambda: dense_symbol(False), "elliptic"),
    "dense-x-t": (lambda: dense_symbol(True), "elliptic"),
    "complex-space": (complex_space_symbol, "elliptic"),
    "bare": (bare_symbol, "elliptic"),
    "torus1": (torus_symbol, "elliptic"),
    "subelliptic": (subelliptic_symbol, "subelliptic"),
}


def as_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_batched_scans_match_per_sample_reference(case):
    make, weight_kind = SCAN_CASES[case]
    sym = make()
    assert as_json(positivity_check(sym)) == as_json(positivity_per_sample(sym))
    assert as_json(strong_ellipticity_constant(sym, weight_kind=weight_kind)) \
        == as_json(strong_ellipticity_per_sample(sym, weight_kind=weight_kind))


def test_varcoef_scan_verdicts():
    """Amplitude 0.3 keeps c(x) > 0 (CaseII); 1.2 makes it change sign."""
    assert classify_problem(varcoef_symbol(0.3)).case == "CaseII"
    report = positivity_check(varcoef_symbol(1.2))
    assert report.kind == "failed"
    assert report.witness.x_node is not None and report.witness.eig < 0.0


def count_evaluator_calls(sym):
    calls = []
    inner = sym.evaluator

    def counted(t, x, rep):
        calls.append(1)
        return inner(t, x, rep)

    sym.evaluator = counted
    return calls


def test_structured_scan_makes_no_evaluator_calls():
    sym = varcoef_symbol(0.3)
    calls = count_evaluator_calls(sym)
    positivity_check(sym)
    strong_ellipticity_constant(sym)
    assert len(calls) == 0


def test_bare_scan_calls_evaluator_once_per_sample():
    sym = bare_symbol()
    calls = count_evaluator_calls(sym)
    report = positivity_check(sym)
    s = report.scanned
    reps = len(dual_enumerate(SU2, s["scan_two_L"]))
    assert len(calls) == reps * s["time_samples"] * s["x_samples"]
