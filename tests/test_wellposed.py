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
    RepIndex,
    fourier_forward,
    fourier_inverse,
    quadrature_grid,
    random_field,
)
from lie_diffuse.symbol import (VECTOR_FIELDS, WEIGHT_KINDS, OperatorSpec, OperatorTerm,
                                build_operator_symbol)
from lie_diffuse.wellposed import (
    SCAN_TWO_L,
    TOL,
    _unweighted_floor,
    classify_problem,
    garding_order_bound,
    hermitian_part,
    positivity_check,
    strong_ellipticity_constant,
    su2_drift_criterion,
)

from oracles import min_eig_at, positivity_per_sample, strong_ellipticity_per_sample


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


def test_coefficient_dip_between_nodes_is_scan_limited():
    """A coefficient positive at every base-grid node but negative between
    them (minimum -0.103 on the two_L=48 grid) bounds no tail."""
    g = quadrature_grid(SU2, 2)
    c = fourier_forward(GridField(g, np.random.default_rng(3)
                                  .standard_normal(75).astype(complex)), 2)
    trivial = RepIndex(SU2)
    c.coeffs[trivial] = c[trivial] + (0.001 - fourier_inverse(c, g).values.real.min())
    assert fourier_inverse(c, g).values.real.min() > 0.0
    assert fourier_inverse(c, quadrature_grid(SU2, 48)).values.real.min() < -0.1
    sym = build_operator_symbol(OperatorSpec(SU2, 2, [
        OperatorTerm("laplace", 0.5, const=-1.0, space=c)]))
    cls = classify_problem(sym)
    assert cls.positivity_report.kind == "positive"
    assert cls.positivity_report.tail == "scan-limited"
    assert cls.case == "CaseII"


def test_circle_coefficient_range_reads_the_k0_block():
    """The circle's layout starts at k = -two_L; the mean is the k = 0 block."""
    g = quadrature_grid(TORUS1, 2)
    coef = GridField(g, (1.5 + 0.4 * np.cos(g.theta)).astype(complex))
    sym = build_operator_symbol(OperatorSpec(TORUS1, 2, [
        OperatorTerm("laplace", const=-1.0, space=coef)]))
    report = positivity_check(sym)
    assert report.kind == "positive" and report.tail == "conclusive"


# numpy warns as the bands overflow and as inf meets 0 in the products
NON_FINITE_WARNING = "overflow|invalid value"


# Each case first overflows at two_ell = 3, where lam = 3.75 and the
# sub-Laplacian's slots are lam - j^2 = 1.5 (j = +-3/2) and 3.5 (j = +-1/2).
def _nan_first():
    """diag(-1, NaN, NaN, -1): sublaplace^600 overflows in the inner slots
    only (3.5^600; 1.5^600 ~ 1e105), where inf - inf is NaN."""
    return [OperatorTerm("sublaplace", 600.0),
            OperatorTerm("sublaplace", 600.0, const=-1.0),
            OperatorTerm("id", const=-1.0)]


def _nan_diagonal():
    """NaN on the whole diagonal: laplace^1000 - laplace^1000 is inf - inf."""
    return [OperatorTerm("laplace", 1000.0),
            OperatorTerm("laplace", 1000.0, const=-1.0)]


def _minus_inf_entry():
    """-inf on the whole diagonal: -laplace^1000."""
    return [OperatorTerm("laplace", 1000.0, const=-1.0)]


@pytest.mark.parametrize("terms", [_nan_first, _nan_diagonal, _minus_inf_entry])
def test_non_finite_symbol_is_a_named_error(terms):
    """eigvalsh may return NaN for such input (NaN < -tol is False, which
    would read as "positive") or fail inside LAPACK."""
    sym = build_operator_symbol(OperatorSpec(SU2, 4, terms()))
    match = (r"non-finite symbol at RepIndex\(group='su2', two_ell=3, k=0\), "
             r"t=0\.0, x_node=None")
    for check in (positivity_check, strong_ellipticity_constant, classify_problem):
        with pytest.warns(RuntimeWarning, match=NON_FINITE_WARNING), \
                pytest.raises(ValueError, match=match):
            check(sym, scan_two_L=6)


def test_non_finite_symbol_names_the_x_node():
    """c(x) * -laplace^q with lam^q = 2e307 at two_ell = 2 (lam = 2): the
    product overflows where |c| > 8.98, and only there, since c(x) =
    a - b cos(theta) takes the values -3.87, 3.87 and 11.62 on the grid
    and twice 3.87 * 2e307 is still finite."""
    g = quadrature_grid(SU2, 2)
    _, theta, _ = np.meshgrid(g.phi, g.theta, g.psi, indexing="ij")
    b = 10.0
    c = GridField(g, (0.5 * math.sqrt(0.6) * b - b * np.cos(theta)).ravel() + 0j)
    sym = build_operator_symbol(OperatorSpec(SU2, 2, [
        OperatorTerm("laplace", math.log2(2e307), const=-1.0, space=c)]))
    samples = sym.space_samples(0, sym.base_grid)
    node = int(np.flatnonzero(np.abs(samples) > np.finfo(float).max / 2e307)[0])
    assert node > 0     # the first node is finite, so the error names the node
    with pytest.warns(RuntimeWarning, match=NON_FINITE_WARNING), \
            pytest.raises(ValueError, match=rf"two_ell=2.*x_node={node}$"):
        positivity_check(sym)


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


def tridiagonal_symbol(case):
    """Non-Hermitian tridiagonal symbols whose Hermitian part has off-bands,
    so their scans densify and run eigvalsh."""
    terms = {
        "d+": [OperatorTerm("d+", const=0.5)],
        "x-plus-X2": [OperatorTerm("laplace", exponent=0.5, const=-1.0,
                                   space=real_coef(SU2, 2, 0.4)),
                      OperatorTerm("X2", const=0.2 + 0.3j)],
        "X1-profile": [OperatorTerm("laplace", exponent=0.5, const=-1.0),
                       OperatorTerm("X1", const=0.3 + 0.2j,
                                    profile=lambda t: 1.0 + t)],
        "sublaplace-X2": [OperatorTerm("sublaplace", exponent=0.5, const=-1.0),
                          OperatorTerm("X2", const=0.4j),
                          OperatorTerm("id", const=-0.2)],
    }[case]
    return build_operator_symbol(OperatorSpec(SU2, 2, terms, kappa=2))


SCAN_CASES = {
    "tridiagonal-d+": (lambda: tridiagonal_symbol("d+"), "elliptic"),
    "tridiagonal-x-plus-X2": (lambda: tridiagonal_symbol("x-plus-X2"), "elliptic"),
    "tridiagonal-X1-profile": (lambda: tridiagonal_symbol("X1-profile"), "elliptic"),
    # subelliptic weights differ along the diagonal, so the weighted slice
    # shows which column weight each band takes
    "tridiagonal-subelliptic": (lambda: tridiagonal_symbol("sublaplace-X2"),
                                "subelliptic"),
    "varcoef-0.3": (lambda: varcoef_symbol(0.3), "elliptic"),
    "varcoef-1.2": (lambda: varcoef_symbol(1.2), "elliptic"),
    "dense": (lambda: dense_symbol(False), "elliptic"),
    "dense-x-t": (lambda: dense_symbol(True), "elliptic"),
    "complex-space": (complex_space_symbol, "elliptic"),
    "torus1": (torus_symbol, "elliptic"),
    "subelliptic": (subelliptic_symbol, "subelliptic"),
}


def as_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_batched_scans_match_per_sample_reference(case):
    make, weight_kind = SCAN_CASES[case]
    sym = make()
    report = positivity_check(sym)
    assert as_json(report) == as_json(positivity_per_sample(sym, report))
    report = strong_ellipticity_constant(sym, weight_kind=weight_kind)
    assert as_json(report) == as_json(
        strong_ellipticity_per_sample(sym, report, weight_kind=weight_kind))


def test_tridiagonal_scans_take_the_dense_path():
    """Each tridiagonal case has a Hermitian part with off-bands somewhere
    in its scan, so the eigvalsh branch is what the byte-equal test pins."""
    for case in ("d+", "x-plus-X2", "X1-profile", "sublaplace-X2"):
        sym = tridiagonal_symbol(case)
        H = hermitian_part(sym.evaluator(0.0, None if sym.x_independent else 0,
                                         RepIndex(SU2, two_ell=2)))
        assert np.any(H - np.diag(np.diagonal(H)))


def test_time_profile_tail_is_scan_limited():
    """p(t) = 1 - 2 exp(-((t - 0.37)/1e-3)^2) dips to -1 between the 17 scan
    times: a profile cannot be bounded from its samples, so the positivity
    tail is scan-limited (a constant coefficient keeps a conclusive one).
    classify_problem does not read tails yet and still returns CaseII."""
    def p(t):
        return 1.0 - 2.0 * math.exp(-((t - 0.37) / 1e-3) ** 2)
    sym = build_operator_symbol(OperatorSpec(SU2, 4, [
        OperatorTerm("laplace", exponent=0.5, const=-1.0, profile=p)]))
    report = positivity_check(sym, T=1.0)
    assert (report.kind, report.tail) == ("positive", "scan-limited")
    assert as_json(report) == as_json(positivity_per_sample(sym, report))
    assert classify_problem(sym, T=1.0).case == "CaseII"
    const = build_operator_symbol(OperatorSpec(SU2, 4, [
        OperatorTerm("laplace", exponent=0.5, const=-1.0)]))
    assert positivity_check(const).tail == "conclusive"


@pytest.mark.parametrize("drift,depth,kind,fixed_tail", [
    ((3.0,), 5, "failed", "scan-limited"),
    ((0.5,), 0, "positive", "conclusive"),
    ((1.0, -1.0), 0, "positive", "conclusive"),
], ids=["drift-wins-at-low-degree", "drift-dominated", "drift-cancels"])
def test_laplace_drift_tail_sets_the_scan_depth(drift, depth, kind, fixed_tail):
    """-laplace + a3*iX3 (order m = 2).  With x = 1/(1 + lam) the tail
    bound past level n is 1 - x_n - |a3| x_n^{1/2} (|j| <= lam^{1/2}), so
    the default scan stops at the first level where it is >= 0: past
    two_ell 5 for |a3| = 3 (a witness at two_ell 1), at once for 0.5 and
    for the cancelling pair iX3 - iX3, whose constant drifts add before the
    bound takes their size.  Every tail is conclusive.  A given depth 0 is
    scanned as given, and the bound past it holds except for |a3| = 3."""
    terms = [OperatorTerm("laplace", const=-1.0)]
    terms += [OperatorTerm("iX3", const=a3) for a3 in drift]
    sym = build_operator_symbol(OperatorSpec(SU2, 4, terms))
    report = positivity_check(sym)
    assert (report.kind, report.tail) == (kind, "conclusive")
    assert report.scanned["scan_two_L"] == depth
    assert (report.witness.rep.two_ell, report.witness.eig) \
        == ((1, -0.75) if kind == "failed" else (0, 0.0))
    fixed = positivity_check(sym, scan_two_L=0)
    assert (fixed.kind, fixed.tail, fixed.scanned["scan_two_L"]) \
        == ("positive", fixed_tail, 0)


@pytest.mark.parametrize("base,exponent,two_ell,eig", [
    ("bessel", 0.5, 202, -0.0250958062102562),
    ("laplace", 0.25, 201, -0.00018595352855399483),
])
def test_drift_past_the_default_depth_is_found(base, exponent, two_ell, eig):
    """-base^e + 0.1*iX3 is diagonal and x- and t-independent, so its
    bound is exact, and the drift, of order 1 above the diffusion's 1/2,
    outgrows it past the default depth: the scan runs on until the first
    violation (j = ell, where (1 + lam)^{1/4} or lam^{1/4} falls below
    0.1 ell).  -bessel^1/2 + 0.1*iX3 once read CaseI with C = 0.0417 on a
    scan-limited tail at depth 100."""
    sym = build_operator_symbol(OperatorSpec(SU2, 4, [
        OperatorTerm(base, exponent, const=-1.0), OperatorTerm("iX3", const=0.1)]))
    cls = classify_problem(sym)
    assert cls.case == "Unverified"
    pos = cls.positivity_report
    assert (pos.kind, pos.tail) == ("failed", "conclusive")
    assert pos.scanned["scan_two_L"] >= two_ell
    assert (pos.witness.rep.two_ell, pos.witness.eig) == (two_ell, pytest.approx(eig, rel=1e-9))


def test_scans_stop_once_the_bound_settles_them():
    """-bessel^2 has the exact tail bound 1 = W^2 / W^2: the strong
    ellipticity scan stops at two_ell 2, the first degree the excluded
    rerun (<xi> >= sqrt 2) sees, with C its scanned minimum.
    -laplace^1/2 vanishes at the trivial representation; its bound
    (1 - 1/(1 + lam_n))^{1/2} passes the excluded minimum sqrt(2/3) past
    two_ell 2, and positivity stops at once, the bound being >= 0."""
    heat = build_operator_symbol(OperatorSpec(SU2, 8, [
        OperatorTerm("bessel", 2.0, const=-1.0)]))
    se = strong_ellipticity_constant(heat)
    assert (se.kind, se.tail, se.scanned["scan_two_L"]) == ("strongly_elliptic", "conclusive", 2)
    assert se.constant == pytest.approx(1.0, rel=1e-15)
    half = drift_symbol(-1.0, 0.0)
    se = strong_ellipticity_constant(half)
    assert (se.kind, se.tail, se.scanned["scan_two_L"]) == ("failed", "conclusive", 2)
    assert se.excluded_constant == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert positivity_check(half).scanned["scan_two_L"] == 0


def test_positivity_settles_on_the_unweighted_floor():
    """dense_symbol(False) is strictly positive with minimum 0.5 at two_ell
    0.  Past two_ell 1 its weighted tail bound b is positive, and b W^m at
    two_ell 2 already exceeds 0.5: the scan stops at depth 1 (it ran to
    SCAN_TWO_L while settling needed b >= 0 >= the minimum) with the
    report of a full-depth scan."""
    sym = dense_symbol(False)
    report = positivity_check(sym)
    full = positivity_check(sym, scan_two_L=SCAN_TWO_L)
    assert report.scanned["scan_two_L"] == 1
    assert (report.kind, report.constant, report.witness, report.tail) == \
        (full.kind, full.constant, full.witness, full.tail) == \
        ("positive", 0.5, full.witness, "conclusive")


@pytest.mark.parametrize("b,m,floor", [(2.0, 1.0, 6.0), (0.0, 1.0, 0.0),
                                       (-2.0, 0.0, -2.0), (2.0, -1.0, 0.0),
                                       (-2.0, -1.0, -2.0 / 3.0),
                                       (-2.0, 1.0, -math.inf)])
def test_unweighted_floor_cases(b, m, floor):
    """inf over W >= 3 (lam = 8) of b W^m, for each sign of b and m."""
    assert _unweighted_floor(b, m, 8.0) == pytest.approx(floor, rel=1e-15)


def test_complex_coefficient_bounds_no_tail():
    """A complex-valued spatial factor has no certified range, so
    -(1 + 0.1i r(x))*bessel^1, positive and strongly elliptic at every
    sample the scans take, reads scan-limited on both tails."""
    g = quadrature_grid(SU2, 2)
    r = fourier_inverse(random_field(SU2, 2, seed=4), g).values.real
    sym = build_operator_symbol(OperatorSpec(SU2, 2, [OperatorTerm(
        "bessel", 1.0, const=-1.0, space=GridField(g, 1.0 + 0.1j * r / np.abs(r).max()))]))
    assert sym.coefficient_range(0) is None
    pos, se = positivity_check(sym), strong_ellipticity_constant(sym)
    assert (pos.kind, pos.tail) == ("positive", "scan-limited")
    assert (se.kind, se.tail) == ("strongly_elliptic", "scan-limited")


def test_certified_constant_is_the_bound_below_the_scan():
    """-sbessel^2 + 0.5*d0 + 0.2*X3 against the subelliptic weight reads
    1 - 0.5 j / (1 + mu) >= 1/2 (|j| <= mu; the real X3 has no Hermitian
    part), with infimum 1/2 approached as ell grows: the scanned minimum
    stays above it, and the conclusive C is the bound 1/2."""
    sym = build_operator_symbol(OperatorSpec(SU2, 6, [
        OperatorTerm("sbessel", 2.0, const=-1.0), OperatorTerm("d0", const=0.5),
        OperatorTerm("X3", const=0.2)]))
    se = strong_ellipticity_constant(sym, weight_kind="subelliptic")
    assert (se.kind, se.tail, se.constant) == ("strongly_elliptic", "conclusive", 0.5)
    assert se.witness.eig > 0.5


def test_empty_depth_scan_is_rejected():
    """scan_two_L = -2 scans no representation; the vacuous minimum +inf
    once made the anti-diffusion +laplace^1/2 CaseI with C = inf."""
    sym = drift_symbol(1.0, 0.0)
    with pytest.raises(ValueError, match="scan_two_L must be >= 0, got -2"):
        classify_problem(sym, scan_two_L=-2)
    assert classify_problem(sym, scan_two_L=2).case == "Unverified"


@pytest.mark.parametrize("samples", [0, -1])
def test_empty_time_scan_is_rejected(samples):
    """-p(t)*laplace^1/2 with p(t) = -1 is Unverified at 17 and at 1 time
    samples; at 0 or -1 the scan was empty and gave CaseI with C = inf."""
    sym = build_operator_symbol(OperatorSpec(SU2, 4, [
        OperatorTerm("laplace", exponent=0.5, const=-1.0, profile=lambda t: -1.0)]))
    for ok in (17, 1):
        assert classify_problem(sym, time_samples=ok).case == "Unverified"
    with pytest.raises(ValueError, match=f"time_samples must be >= 1, got {samples}"):
        classify_problem(sym, time_samples=samples)


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


# ---------------------------------------------------------------- tail soundness

TERM_BASES = ([("laplace", q) for q in (0.25, 0.5, 1.0, 1.5)]
              + [("sublaplace", q) for q in (0.5, 1.0)]
              + [("bessel", s) for s in (-1.0, 0.5, 1.0, 2.0)]
              + [("sbessel", s) for s in (1.0, 2.0)] + [("id", 1.0)]
              + [(name, 1.0) for name in ("iX3", "d0", "X1", "X2", "X3", "d+", "d-")])


@st.composite
def tail_cases(draw):
    """1-3 SU(2) terms with real or complex constants, at two_L = 2, and a
    weight kind; at most one diffusion term carries a real coefficient
    1 + amp r(x) / max|r|, which for amp > 1 dips below 0 somewhere."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        base, exponent = draw(st.sampled_from(TERM_BASES))
        const = complex(draw(st.sampled_from([-2.0, -1.0, -0.5, -0.2, 0.3, 1.0])),
                        draw(st.sampled_from([0.0, 0.0, 0.3, -0.7])))
        terms.append(OperatorTerm(base, exponent, const))
    diffusion = [t for t in terms if t.base not in VECTOR_FIELDS]
    if diffusion and draw(st.booleans()):
        draw(st.sampled_from(diffusion)).space = real_coef(
            SU2, 2, draw(st.sampled_from([0.5, 0.9, 1.1])), seed=draw(st.integers(0, 9)))
    return terms, draw(st.sampled_from(WEIGHT_KINDS))


def oracle_degrees(depth):
    """Every degree up to twice the scan depth, then geometrically to 400."""
    degrees = list(range(2 * depth + 1))
    while degrees[-1] < 400:
        degrees.append(min(400, int(1.5 * degrees[-1]) + 1))
    return degrees


@given(case=tail_cases())
@settings(max_examples=100, deadline=None)
def test_conclusive_tails_hold_past_the_scan(case):
    """A conclusive positive or strongly elliptic report holds where the
    scan did not look: at every degree up to twice its depth and at
    geometrically spaced degrees up to two_ell 400, with the coefficient
    taken on the two_L = 24 grid, the dense oracle finds nothing below C
    (below -TOL for positivity).  The weighted Hermitian part is affine in
    the coefficient value s, so its smallest eigenvalue is concave in s and
    the grid's extreme values of s are the ones to check."""
    terms, kind = case
    sym = build_operator_symbol(OperatorSpec(SU2, 2, terms))
    values = [[t.const] for t in sym.terms]
    for i, t in enumerate(sym.terms):
        if t.space is not None:
            s = fourier_inverse(t.space, quadrature_grid(SU2, 24)).values.real
            values[i] = [t.const * s.min(), t.const * s.max()]
    picks = [[v[0] for v in values], [v[-1] for v in values]]
    for report, weight in ((strong_ellipticity_constant(sym, weight_kind=kind), kind),
                           (positivity_check(sym), None)):
        if report.tail != "conclusive" or not report.ok:
            continue
        floor = report.constant if weight else -TOL
        for two_ell in oracle_degrees(report.scanned["scan_two_L"]):
            for coefs in picks:
                eig = min_eig_at(sym.terms, coefs, two_ell, sym.order, weight)
                assert eig >= floor - 1e-9 * (1.0 + abs(eig)), (two_ell, coefs)
