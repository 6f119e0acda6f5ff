"""Well-posedness checks: positivity, strong ellipticity, order bounds.

For an evolution dv/dt = K(t) v + f the checks inspect the symbol of K over
a scan of (t, x, representation):

* positivity_check asks for sigma_{-Re K} >= 0 (via the Hermitian part);
* strong_ellipticity_constant asks for the stronger lower bound
  Re(-sigma_K) >= C * W(xi)^m against the elliptic or subelliptic weight;
* garding_order_bound gives the sharp order window kappa_order =
  rho/kappa - (2 - 1/kappa) delta available from positivity alone, valid
  while delta < rho / (2 kappa - 1);
* su2_drift_criterion is the closed form for a L^{m/2} + drift on SU(2);
* classify_problem combines them into CaseI (strongly elliptic), CaseII
  (positive within the order window) or Unverified.

A scan runs level by level (two_ell on SU(2), |k| on the circle), and one
rule covers the frequencies it does not reach: _tail_bound, a certified
lower bound on the smallest eigenvalue of W^{-m/2} (-Herm sigma) W^{-m/2}
at every level from n on, from the symbol's terms alone (Gershgorin row
sums of the tridiagonal bands, closed-form entry bounds against the
weight, spatial coefficients as intervals, equal leading orders compared
by coefficient).  For an x-dependent symbol it bounds every level, since
x-nodes sample a coefficient only; a time profile admits no bound.  With
that bound b past the scan:

* a tail is "conclusive" when b >= 0 (positivity) or b > TOL (strong
  ellipticity), or when a failure witness exists, else "scan-limited";
* a conclusive strong-ellipticity C is min(scanned minimum, b), which holds
  at every frequency (likewise the low-frequency-excluded C);
* without a given scan_two_L a scan stops at the first level past which b
  (for positivity, the least b W^m past it, on a conclusive tail) is at
  least every running minimum the report prints, so the constants,
  witnesses and verdicts are those of a full-depth scan.  Otherwise it runs
  to the default depth, SCAN_TWO_L or 2 two_L for an x-dependent symbol,
  and past it, up to MAX_SCAN_TWO_L, only while the tail is open and the
  bound exact (x- and t-independent, diagonal Hermitian part, where each
  level's scan is cheap and exact).  A given scan_two_L is scanned exactly.

A failure witness is always conclusive.  The witness reported on failure is
the first violating sample in scan order (lowest level first), which names
the lowest frequency where the inequality breaks.

Each (representation, time) slice of a scan is assembled from the symbol's
terms at all sampled x-nodes in one batch, as (n_x, 3, d) bands (see the
symbol module).  The smallest eigenvalues are read off the
diagonal where the off-diagonals vanish, else from one batched eigvalsh of
the dense matrices.  Scan order (level, then time, then x-node) and the
witness rules are those of a sample-by-sample loop: the witness of the
minimum is its first occurrence, the failure witness the first sample below
-TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonic import SU2, TORUS1, RepIndex
from .symbol import (VECTOR_FIELDS, Symbol, _adjoint, _assemble, _bands,
                     _densify, _weight_base)

TOL = 1e-10                   # an eigenvalue below -TOL fails a scan
MAX_X_SAMPLES = 160           # x-nodes scanned, at most (every stride-th)
MIN_WEIGHT = math.sqrt(2.0)   # the excluded rerun keeps <xi> >= MIN_WEIGHT
SCAN_TWO_L = 100              # default depth of an x-independent scan
MAX_SCAN_TWO_L = 1000         # cap of a scan past its default depth


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^*) / 2, for one matrix or a stack of them."""
    return 0.5 * (M + np.swapaxes(np.asarray(M).conj(), -1, -2))


@dataclass
class Witness:
    """Location of an extremal (usually violating) scan sample."""

    t: float
    x_node: int | None
    rep: RepIndex
    eig: float

    def to_json_dict(self) -> dict:
        key = "two_ell" if self.rep.group == SU2 else "k"
        return {"t": self.t, "x_node": self.x_node,
                key: getattr(self.rep, key), "eig": self.eig}


@dataclass
class EllipticityReport:
    """Outcome of a positivity or strong-ellipticity scan.

    kind is "strongly_elliptic", "positive" or "failed"; constant holds the
    ellipticity constant (or the minimal eigenvalue for positivity scans).
    For strong-ellipticity scans the low-frequency-excluded rerun is stored
    alongside the strict verdict.
    """

    kind: str
    constant: float
    witness: Witness | None
    scanned: dict = field(default_factory=dict)
    tail: str | None = None
    excluded_constant: float | None = None
    excluded_kind: str | None = None
    min_weight: float | None = None

    @property
    def ok(self) -> bool:
        return self.kind in ("strongly_elliptic", "positive")

    def to_json_dict(self) -> dict:
        out = {"verdict": self.kind, "C": self.constant,
               "witness": self.witness.to_json_dict() if self.witness else None,
               "scanned": self.scanned}
        if self.tail is not None:
            out["tail"] = self.tail
        if self.excluded_kind is not None:
            out["excluded"] = {"verdict": self.excluded_kind,
                               "C": self.excluded_constant,
                               "min_weight": self.min_weight}
        return out


def _diag_units(base: str, e: float, kind: str):
    """(lower, upper) units bounding the entries of a diagonal base (bessel
    with e = 0 for id) against the weight of kind, None for the bound 0.

    A base's own spectrum (lam for laplace and bessel, mu for sublaplace
    and sbessel) is the weight's when the kinds match: lam^q = (W^2-1)^q,
    (1+lam)^{s/2} = W^s.  Otherwise mu lies in [0, lam] (elliptic W) and
    lam in [mu, mu (mu + 1)] (subelliptic W), and the base is monotone in
    its spectrum."""
    bessel = base in ("bessel", "sbessel")
    near = (0.0, e) if bessel else (e, 0.0)
    if (base in ("laplace", "bessel")) == (kind == "elliptic"):
        return near, near
    if kind == "elliptic":
        ends = ((0.0, 0.0) if bessel or e == 0 else None, near)
    else:
        ends = (near, (0.0, 2.0 * e) if bessel else (e, 2.0 * e))
    return ends[::-1] if bessel and e < 0 else ends


def _lam(group: str, n: int) -> float:
    """The Laplacian eigenvalue at scan level n: ell(ell+1), or k^2."""
    return n / 2 * (n / 2 + 1) if group == SU2 else float(n * n)


def _unweighted_floor(b: float, m: float, lam: float) -> float:
    """inf over W >= (1 + lam)^{1/2} of b W^m: a lower bound on the
    eigenvalues of -Herm sigma at every level past lam where b bounds
    W^{-m/2} (-Herm sigma) W^{-m/2} (the elliptic weight is a scalar per
    representation).  W^m is capped below overflow, which only lowers a
    positive floor."""
    if b < 0 < m or b == -math.inf:
        return -math.inf
    if b > 0 > m:
        return 0.0
    return b * math.exp(min(0.5 * m * math.log1p(lam), 700.0))


def _tail_bound(sym: Symbol, kind: str):
    """(bound, exact): bound(n) is a certified lower bound on the smallest
    eigenvalue of W^{-m/2} (-Herm sigma) W^{-m/2} at every scan level >= n,
    all x and t, with W the weight of kind and m the symbol order; exact
    says sigma is x- and t-independent with a diagonal Hermitian part.

    Gershgorin's theorem on D^2 (-Herm sigma), similar to the weighted
    matrix (D = W^{-m/2}), bounds it below by the smallest row value
    W_r^{-m} (H_rr - |H_r,r-1| - |H_r,r+1|).  A term of real factor s in
    [lo, hi] (Symbol.coefficient_range) adds s times the Hermitian part of
    its constant times its base, so each row gains at least c u(W_r), c a
    coefficient and u a unit (W^2 - 1)^a W^b (_diag_units; |j| <= ell <=
    lam^{1/2} and |j| <= mu; the ladder row sums c_{r-1} + c_r <= 2 mu^{1/2}
    by concavity).  Terms of one unit add their coefficients first, so equal
    leading orders compare by coefficient.  With x = W^-2 in (0, x_n], unit
    over W^m is (1 - x)^a x^e, e = (m - 2a - b)/2; a positive leading unit
    (e = 0) is replaced by the line below (1 - x)^a that meets it at x_n,
    and the bound is the sum over powers x^e of each one's infimum.
    """
    m = sym.order
    kind = kind if sym.group == SU2 else "elliptic"   # one spectrum, k^2
    units, exact = {}, sym.x_independent and sym.t_independent
    fields = {}    # per spatial factor: (max |s|, -Herm at two_ell = 1)
    for i, term in enumerate(sym.terms):
        rng = sym.coefficient_range(i)
        if rng is None:
            return (lambda n: -math.inf), False
        if term.base in VECTOR_FIELDS:    # j = +-1/2 and c_0 = 1 at two_ell = 1
            B = term.const * _bands(RepIndex(SU2, two_ell=1), term.base, 1.0)
            s, H = fields.get(id(term.space), (max(map(abs, rng)), 0.0))
            fields[id(term.space)] = s, H - 0.5 * (B + _adjoint(B))
        else:
            base, e = ("bessel", 0.0) if term.base == "id" \
                else (term.base, term.exponent)
            c = min(r * -term.const.real for r in rng)
            unit = _diag_units(base, e, kind)[c < 0]
            if unit is not None:
                units[unit] = units.get(unit, 0.0) + c
    jz = (0.5, 0.0) if kind == "elliptic" else (1.0, 0.0)
    for s, H in fields.values():   # one factor's fields add before |.|
        for unit, c in ((jz, 2.0 * abs(H[1, 1])), ((0.5, 0.0), 2.0 * abs(H[2, 0]))):
            if c:
                units[unit] = units.get(unit, 0.0) - s * float(c)
        exact = exact and H[2, 0] == 0

    def bound(n: int) -> float:
        n = n if sym.x_independent else 0   # x-nodes do not bound a level
        x = 1.0 / (1.0 + (_lam(sym.group, n) if kind == "elliptic" else n / 2))
        powers = {}
        for (a, b), c in units.items():
            e = (m - 2.0 * a - b) / 2.0
            if c > 0 and e == 0 and a > 0:   # chord (a < 1) or tangent at x
                y = (1.0 - x) ** a
                slope = a * (1.0 - x) ** (a - 1.0) if a > 1 else (1.0 - y) / x
                powers[1.0] = powers.get(1.0, 0.0) - c * slope
                c *= y + slope * x
            powers[e] = powers.get(e, 0.0) + c
        if any(d < 0 and e < 0 for e, d in powers.items()):
            return -math.inf
        return sum(d * x ** e for e, d in powers.items() if d < 0 or d > 0 and e == 0)
    return bound, exact


def _scan_grid(sym: Symbol, T: float, time_samples: int, scan_two_L: int | None):
    """Time samples, x-nodes and scan depth shared by both scans.

    Times are Chebyshev-Lobatto points on [0, T] (endpoints included), the
    x-nodes every stride-th base-grid node (at most MAX_X_SAMPLES), and the
    depth is the given scan_two_L, which is scanned exactly, else the
    default: level 2 two_L for an x-dependent symbol and SCAN_TWO_L
    otherwise, which _scan may stop short of once the tail bound settles
    the scan, or pass, up to MAX_SCAN_TWO_L, while an exact bound leaves the
    tail open.  A negative depth or fewer than one time sample would scan
    nothing and report the vacuous minimum +inf, so both raise ValueError.
    """
    if scan_two_L is not None and scan_two_L < 0:
        raise ValueError(f"scan_two_L must be >= 0, got {scan_two_L}")
    if time_samples < 1:
        raise ValueError(f"time_samples must be >= 1, got {time_samples}")
    if sym.t_independent or time_samples == 1:
        times = [0.0]
    else:
        n = time_samples
        times = [0.5 * T * (1.0 - math.cos(math.pi * i / (n - 1)))
                 for i in range(n)]
    if sym.x_independent:
        nodes = [None]
    else:
        n = sym.base_grid.node_count
        nodes = list(range(0, n, max(1, -(-n // MAX_X_SAMPLES))))
    if scan_two_L is None:
        scan_two_L = SCAN_TWO_L if sym.x_independent else 2 * sym.two_L
    return times, nodes, scan_two_L


def _scan(sym: Symbol, T: float, time_samples: int, scan_two_L: int | None,
          kind: str, visit, settle, weight=None):
    """Scan (t, x, xi) level by level (two_ell, or |k| with -k first), then
    time, then x-node; return the scanned dict of the report and the tail
    bound of kind (_tail_bound) past the last level.

    visit(rep, t, nodes, eigs) sees every (representation, time) slice, eigs
    holding the smallest eigenvalue of -Herm(sigma(t, x, rep)) at each
    x-node (of W (-Herm sigma) W with W = diag(weight(rep)) when given).
    After level n, settle(b, lam) reads the caller's running minima against
    the bound b past it, lam being the Laplacian eigenvalue at level n + 1:
    (settled, conclusive), the bound being at least every minimum the
    report prints, and the tail conclusive.  A given scan_two_L is scanned
    exactly.  Otherwise the scan ends once settled, else at the
    default depth (_scan_grid) if the tail is conclusive or the bound not
    exact, else at the first conclusive level or MAX_SCAN_TWO_L.

    A slice is assembled as (n_x, 3, d) bands from Symbol.coefficients at
    the x-nodes, which the evaluator reads too; -Herm is -(0.5 (B + B^*))
    band by band and the weight (w_r H_rc) w_c per entry, the operations of
    the dense -(M + M^*)/2 and W H W, so every entry is bit-identical to the dense slice's.  A slice
    with a NaN or infinite entry raises ValueError naming its first such
    x-node: eigvalsh would return NaN, which no tolerance test rejects, or
    fail with a bare LAPACK error.
    """
    times, nodes, depth = _scan_grid(sym, T, time_samples, scan_two_L)
    coefs = [sym.coefficients(t, nodes) for t in times]
    bound, exact = _tail_bound(sym, kind)
    for n in itertools.count():
        for rep in ([RepIndex(SU2, two_ell=n)] if sym.group == SU2
                    else [RepIndex(TORUS1, k=k) for k in sorted({-n, n})]):
            w = None if weight is None else weight(rep)
            for k, t in enumerate(times):
                B = _assemble(sym.terms, coefs[k], rep).reshape(-1, 3, rep.dim)
                H = -(0.5 * (B + _adjoint(B)))
                if w is not None:
                    H = (w * H) * np.stack([np.pad(w[:-1], (1, 0)), w,
                                            np.pad(w[1:], (0, 1))])
                if not np.isfinite(H).all():
                    i = int(np.argmin(np.isfinite(H).all(axis=(1, 2))))
                    raise ValueError(f"non-finite symbol at {rep}, t={t}, "
                                     f"x_node={nodes[i]}")
                eigs = np.real(H[:, 1]).min(axis=1)   # eigvalsh where off-bands show
                rows = np.flatnonzero(H[:, ::2].reshape(len(H), -1).any(axis=1))
                if rows.size:
                    eigs[rows] = np.linalg.eigvalsh(_densify(H[rows])).min(axis=1)
                visit(rep, t, nodes, eigs)
        b = bound(n + 1)
        settled, conclusive = settle(b, _lam(sym.group, n + 1))
        if n >= depth if scan_two_L is not None else (
                settled or n >= depth and (conclusive or not exact or n >= MAX_SCAN_TWO_L)):
            return {"scan_two_L": n, "time_samples": len(times),
                    "x_samples": len(nodes)}, b


def positivity_check(sym: Symbol, T: float = 1.0, time_samples: int = 17,
                     scan_two_L: int | None = None) -> EllipticityReport:
    """Scan sigma_{-Re K} over (t, x, xi) for positive semidefiniteness.

    The verdict is "positive" when the smallest Hermitian-part eigenvalue of
    -sigma stays above -TOL, otherwise "failed" with the first violating
    sample as witness.  The tail is "conclusive" on a failure or when the
    elliptic tail bound b past the scan is >= 0, else "scan-limited".  The
    scan settles once the tail is conclusive and the least b W^m past it
    (_unweighted_floor) is at least the scanned minimum (_scan).
    """
    best, best_w, first_fail = math.inf, None, None

    def visit(rep, t, nodes, eigs):
        nonlocal best, best_w, first_fail
        i = int(np.argmin(eigs))
        if eigs[i] < best:
            best = float(eigs[i])
            best_w = Witness(t, nodes[i], rep, best)
        bad = np.flatnonzero(eigs < -TOL)
        if first_fail is None and bad.size:
            first_fail = Witness(t, nodes[bad[0]], rep, float(eigs[bad[0]]))

    def settle(b, lam):
        conclusive = first_fail is not None or b >= 0
        return conclusive and _unweighted_floor(b, sym.order, lam) >= best, conclusive

    scanned, b = _scan(sym, T, time_samples, scan_two_L, "elliptic", visit, settle)
    if first_fail is not None:
        return EllipticityReport("failed", best, first_fail, scanned,
                                 tail="conclusive")
    return EllipticityReport("positive", best, best_w, scanned,
                             tail="conclusive" if b >= 0 else "scan-limited")


def strong_ellipticity_constant(sym: Symbol, T: float = 1.0,
                                time_samples: int = 17,
                                scan_two_L: int | None = None,
                                weight_kind: str = "elliptic") -> EllipticityReport:
    """Largest C with Re(-sigma_K) >= C * W(xi)^m over every frequency.

    W is the elliptic weight (1 + lambda)^{1/2} or its subelliptic diagonal
    analogue, raised to the symbol order m.  The strict verdict scans every
    representation; a rerun excluding low frequencies (<xi> < MIN_WEIGHT) is
    reported alongside, since the strict bound degenerates whenever the
    symbol vanishes on the trivial representation.  When the tail bound of
    this weight past the scan exceeds TOL the tail is "conclusive" and both
    constants are min(scanned, bound), which hold at every frequency; a
    strict constant <= TOL is a conclusive failure; otherwise the scanned
    minima are reported on a "scan-limited" tail.  The scan settles once
    the bound is at least both running minima (_scan).
    """
    m, base = sym.order, _weight_base(weight_kind)
    best, best_w, best_ex = math.inf, None, math.inf

    def visit(rep, t, nodes, eigs):
        nonlocal best, best_w, best_ex
        i = int(np.argmin(eigs))
        if eigs[i] < best:
            best = float(eigs[i])
            best_w = Witness(t, nodes[i], rep, best)
        # <xi> = (1 + lam)^{1/2}, the elliptic weight at rep
        if float(_bands(rep, "bessel", 1.0)[1, 0].real) >= MIN_WEIGHT:
            best_ex = min(best_ex, float(eigs[i]))

    scanned, b = _scan(sym, T, time_samples, scan_two_L, weight_kind, visit,
                       lambda b, lam: (b >= max(best, best_ex), best <= TOL or b > TOL),
                       lambda rep: _bands(rep, base, -m / 2.0)[1])
    tail = "conclusive" if best <= TOL or b > TOL else "scan-limited"
    if b > TOL:
        best, best_ex = min(best, b), min(best_ex, b)
    kind = "strongly_elliptic" if best > TOL else "failed"
    ex_kind = "strongly_elliptic" if best_ex > TOL else "failed"
    return EllipticityReport(kind, best, best_w, scanned, tail=tail,
                             excluded_constant=best_ex, excluded_kind=ex_kind,
                             min_weight=MIN_WEIGHT)


def garding_order_bound(rho: float, delta: float, kappa: int):
    """Sharp order window from positivity: (kappa_order, validity_flag).

    kappa_order = rho/kappa - (2 - 1/kappa) delta; the bound is usable only
    while delta < rho / (2 kappa - 1), flagged in the second slot.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if int(kappa) != kappa or kappa < 1:
        raise ValueError(f"kappa must be a positive integer, got {kappa}")
    kappa = int(kappa)
    kappa_order = rho / kappa - (2.0 - 1.0 / kappa) * delta
    valid = delta < rho / (2.0 * kappa - 1.0)
    return kappa_order, valid


def su2_drift_criterion(a, a3, m: float):
    """Closed-form positivity test for a L^{m/2} + a3 iX3 on SU(2).

    a and a3 are scalars or equally shaped sample arrays (values of the
    coefficients over any scan of (t, x)).  For m = 1 positivity holds iff
    |a3| + a <= 0 everywhere; for 0 <= m < 1 it holds iff a3 vanishes and
    a <= 0.  Returns (bool, witness) with the violating sample when false.
    """
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"m must lie in [0, 1], got {m}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a3 = np.atleast_1d(np.asarray(a3, dtype=float))
    a, a3 = np.broadcast_arrays(a, a3)
    if a.max() > 0.0:
        i = int(np.argmax(a))
        return False, {"index": i, "a": float(a.flat[i]), "a3": float(a3.flat[i]),
                       "value": float(a.flat[i])}
    if m == 1.0:
        v = np.abs(a3) + a
        i = int(np.argmax(v))
        if v.flat[i] <= 0.0:
            return True, None
        return False, {"index": i, "a": float(a.flat[i]), "a3": float(a3.flat[i]),
                       "value": float(v.flat[i])}
    i = int(np.argmax(np.abs(a3)))
    if abs(a3.flat[i]) > 1e-14:
        return False, {"index": i, "a": float(a.flat[i]), "a3": float(a3.flat[i]),
                       "value": float(abs(a3.flat[i]))}
    return True, None


@dataclass
class Classification:
    """Verdict of classify_problem, with the underlying reports attached."""

    case: str                       # "CaseI" | "CaseII" | "Unverified"
    order: float
    constant: float | None = None   # CaseI ellipticity constant
    kappa_order: float | None = None  # CaseII order window
    reason: str | None = None
    se_report: EllipticityReport | None = None
    positivity_report: EllipticityReport | None = None

    @property
    def verified(self) -> bool:
        return self.case in ("CaseI", "CaseII")

    def to_json_dict(self) -> dict:
        out = {"verdict": self.case, "order": self.order}
        if self.constant is not None:
            out["C"] = self.constant
        if self.kappa_order is not None:
            out["kappa_order"] = self.kappa_order
        if self.reason is not None:
            out["reason"] = self.reason
        if self.se_report is not None:
            out["strong_ellipticity"] = self.se_report.to_json_dict()
        if self.positivity_report is not None:
            out["positivity"] = self.positivity_report.to_json_dict()
        return out


def classify_problem(sym: Symbol, T: float = 1.0, weight_kind: str = "elliptic",
                     time_samples: int = 17, scan_two_L: int | None = None) -> Classification:
    """CaseI when strongly elliptic with positive order, else CaseII when
    positive inside the sharp-Garding order window, else Unverified."""
    se = strong_ellipticity_constant(sym, T, time_samples, scan_two_L, weight_kind)
    if se.kind == "strongly_elliptic" and sym.order > 0:
        return Classification("CaseI", sym.order, constant=se.constant,
                              se_report=se)
    pos = positivity_check(sym, T, time_samples, scan_two_L)
    try:
        kappa_order, valid = garding_order_bound(sym.rho, sym.delta, sym.kappa)
    except ValueError as exc:
        return Classification("Unverified", sym.order, reason=str(exc),
                              se_report=se, positivity_report=pos)
    if pos.kind == "positive" and valid and 0.0 <= sym.order <= kappa_order + 1e-12:
        return Classification("CaseII", sym.order, kappa_order=kappa_order,
                              se_report=se, positivity_report=pos)
    bits = [f"strong ellipticity gave C={se.constant:.3e}"]
    if pos.kind == "failed":
        w = pos.witness
        bits.append(f"positivity failed (eig={w.eig:.3e} at {w.rep})")
    elif not valid:
        bits.append(f"(rho,delta,kappa)=({sym.rho},{sym.delta},{sym.kappa}) "
                    "outside the sharp-Garding validity window")
    else:
        bits.append(f"order m={sym.order} exceeds the sharp-Garding window "
                    f"{kappa_order:.3g}")
    return Classification("Unverified", sym.order, reason="; ".join(bits),
                          se_report=se, positivity_report=pos)
