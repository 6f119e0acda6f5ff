"""Well-posedness checks: positivity, strong ellipticity, order bounds.

For an evolution dv/dt = K(t) v + f the checks inspect the symbol of K over
a sampled scan of (t, x, representation):

* positivity_check asks for sigma_{-Re K} >= 0 (via the Hermitian part);
* strong_ellipticity_constant asks for the stronger lower bound
  Re(-sigma_K) >= C * W(xi)^m against the elliptic or subelliptic weight;
* garding_order_bound gives the sharp order window kappa_order =
  rho/kappa - (2 - 1/kappa) delta available from positivity alone, valid
  while delta < rho / (2 kappa - 1);
* su2_drift_criterion is the closed form for a L^{m/2} + drift on SU(2);
* classify_problem combines them into CaseI (strongly elliptic), CaseII
  (positive within the order window) or Unverified.

Scans are finite, so a "positive" verdict is labelled "conclusive" only
when a structural tail argument covers all higher frequencies (constant
coefficient diffusion + iX3 drift families, or everything a nonpositive
multiple of a positive semidefinite base); otherwise it is "scan-limited".
A failure witness is always conclusive.  The witness reported on failure is
the first violating sample in scan order (lowest degree first), which names
the lowest frequency where the inequality breaks.

Each (representation, time) slice of a scan is assembled from the symbol's
terms at all sampled x-nodes in one batch, as (n_x, 3, d) bands (see the
symbol module).  The smallest eigenvalues are read off the
diagonal where the off-diagonals vanish, else from one batched eigvalsh of
the dense matrices.  Scan order (representation, then time, then x-node)
and the witness rules are those of a sample-by-sample loop: the witness of
the minimum is its first occurrence, the failure witness the first sample
below -TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .harmonic import SU2, TORUS1, RepIndex, dual_enumerate
from .symbol import (_DRIFT_BASES, _PSD_BASES, _SKEW_BASES, Symbol, _adjoint,
                     _assemble, _bands, _densify, _weight_base)

TOL = 1e-10                   # an eigenvalue below -TOL fails a scan
MAX_X_SAMPLES = 160           # x-nodes scanned, at most (every stride-th)
MIN_WEIGHT = math.sqrt(2.0)   # the excluded rerun keeps <xi> >= MIN_WEIGHT


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


def _coef_range(term, sym, i):
    """Interval bound for const * space(x) over the whole group; None for a
    complex constant or coefficient, and for a time profile, an opaque
    callable that cannot be bounded between its samples.

    space(x) = sum_xi d_xi Tr[xi(x) c_hat(xi)] with every xi(x) unitary, so
    |space(x) - c_hat(1)| <= sum_{xi != 1} d_xi ||c_hat(xi)||_* (nuclear
    norms; Ruzhansky & Turunen, Pseudo-Differential Operators and
    Symmetries, 2010).  The base-grid samples would miss a dip between the
    nodes.
    """
    if abs(term.const.imag) > 0 or term.profile is not None:
        return None  # no structural reasoning
    lo = hi = term.const.real
    if term.space is not None:
        s = sym.space_samples(i, sym.base_grid)
        if np.abs(s.imag).max() > 1e-10 * (1.0 + np.abs(s.real).max()):
            return None
        trivial = RepIndex(sym.group)     # k = 0 on the circle
        mean = float(term.space[trivial][0, 0].real)
        radius = sum(rep.dim * float(np.linalg.svd(c, compute_uv=False).sum())
                     for rep, c in term.space.items() if rep != trivial)
        cands = [lo * (mean - radius), lo * (mean + radius)]
        lo, hi = min(cands), max(cands)
    return lo, hi


def _structural_tail(sym: Symbol):
    """Tail analysis for structured symbols.

    Returns ("conclusive-positive", None), ("extend", needed_two_L) or
    ("none", None).  See the module docstring for the covered families.
    """
    psd, drift = [], []
    for i, term in enumerate(sym.terms):
        if term.base in _SKEW_BASES and abs(term.const.imag) == 0:
            continue  # skew-adjoint: no Hermitian part
        if term.base in _PSD_BASES:
            psd.append((i, term))
        elif term.base in _DRIFT_BASES:
            drift.append((i, term))
        else:
            return ("none", None)
    if not drift:
        for i, term in psd:
            rng = _coef_range(term, sym, i)
            if rng is None or rng[1] > 0.0:
                return ("none", None)
        return ("conclusive-positive", None)
    # drift present: closed forms for constant-coefficient a*laplace^q + a3*iX3
    if not (sym.x_independent and sym.t_independent):
        return ("none", None)
    if len(psd) != 1 or psd[0][1].base != "laplace":
        return ("none", None)
    a = psd[0][1].const
    if abs(a.imag) > 0:
        return ("none", None)
    a = a.real
    a3 = 0.0
    for _, term in drift:
        if abs(term.const.imag) > 0:
            return ("none", None)
        a3 += term.const.real
    m = 2.0 * psd[0][1].exponent
    A = -a
    if a3 == 0.0:
        return ("conclusive-positive", None) if A >= 0.0 else ("extend", 2)
    if A <= 0.0:
        return ("extend", 2)  # no diffusion to balance the drift
    c = abs(a3) / A
    if m == 1.0:
        if c <= 1.0:
            return ("conclusive-positive", None)
        ell_star = 1.0 / (c * c - 1.0)
        return ("extend", int(math.ceil(2.0 * ell_star)) + 2)
    if m < 1.0:
        ell_star = max(1.0, (A * 2.0 ** (m / 2.0) / abs(a3)) ** (1.0 / (1.0 - m)))
        return ("extend", int(math.ceil(2.0 * ell_star)) + 2)
    ell_dom = c ** (1.0 / (m - 1.0))
    return ("extend", int(math.ceil(2.0 * ell_dom)) + 2)


def _herm_diagonal_everywhere(sym: Symbol) -> bool:
    """Whether an x-independent symbol's Hermitian part is diagonal, probed
    at two_ell = 2 (k = 1 on the circle) and t = 0."""
    probe = RepIndex(SU2, two_ell=2) if sym.group == SU2 else RepIndex(TORUS1, k=1)
    H = hermitian_part(sym.evaluator(0.0, None, probe))
    return not np.any(H - np.diag(np.diagonal(H)))


def _scan_grid(sym: Symbol, T: float, time_samples: int, scan_two_L: int | None):
    """Time samples, x-nodes and scan depth shared by both scans.

    Times are Chebyshev-Lobatto points on [0, T] (endpoints included), the
    x-nodes every stride-th base-grid node (at most MAX_X_SAMPLES), and the
    default depth is two_ell <= 2 two_L for x-dependent symbols, else 100
    for diagonal Hermitian parts and 40 otherwise.  A negative depth or
    fewer than one time sample would scan nothing and report the vacuous
    minimum +inf, so both raise ValueError.
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
        if not sym.x_independent:
            scan_two_L = 2 * sym.two_L
        else:
            scan_two_L = 100 if _herm_diagonal_everywhere(sym) else 40
    return times, nodes, scan_two_L


def _term_coefficients(sym: Symbol, times: list[float], nodes: list) -> list:
    """Per time, each term's coefficient: a scalar, or an (n_x, 1, 1) column
    over the x-nodes for terms with a spatial factor.

    The products are taken one node at a time in the evaluator's order
    (const * profile(t) * space(x)); numpy's vectorised complex product may
    round differently.
    """
    rows = []
    for t in times:
        row = []
        for i, term in enumerate(sym.terms):
            c = term.at(t)
            if term.space is not None:
                s = sym.space_samples(i, sym.base_grid)
                c = np.array([c * s[node] for node in nodes])[:, None, None]
            row.append(c)
        rows.append(row)
    return rows


def _scan(sym: Symbol, times: list[float], nodes: list, scan_two_L: int,
          weight: Callable[[RepIndex], np.ndarray] | None = None):
    """Yield (rep, t, eigs) for every (representation, time) slice in scan
    order, eigs holding the smallest eigenvalue of -Herm(sigma(t, x, rep))
    at each x-node (of W (-Herm sigma) W with W = diag(weight(rep)) when
    given).

    The slice is assembled as (n_x, 3, d) bands with the evaluator's
    operation order; -Herm is -(0.5 (B + B^*)) band by band and the weight
    (w_r H_rc) w_c per entry, the operations of the dense -(M + M^*)/2 and
    W H W, so every entry is bit-identical to the dense slice's.  A slice
    with a NaN or infinite entry raises ValueError naming its first such
    x-node: eigvalsh would return NaN, which no tolerance test rejects, or
    fail with a bare LAPACK error.
    """
    coefs = _term_coefficients(sym, times, nodes)
    for rep in dual_enumerate(sym.group, scan_two_L):
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
            yield rep, t, eigs


def positivity_check(sym: Symbol, T: float = 1.0, time_samples: int = 17,
                     scan_two_L: int | None = None) -> EllipticityReport:
    """Scan sigma_{-Re K} over (t, x, xi) for positive semidefiniteness.

    The verdict is "positive" when the smallest Hermitian-part eigenvalue of
    -sigma stays above -TOL, otherwise "failed" with the first violating
    sample as witness.  The scan depth defaults to two_ell <= 100 for
    diagonal Hermitian parts (40 otherwise) and is extended automatically
    when the structural tail analysis asks for more.
    """
    times, nodes, scan_two_L = _scan_grid(sym, T, time_samples, scan_two_L)
    tail_kind, needed = _structural_tail(sym)
    if tail_kind == "extend":
        scan_two_L = max(scan_two_L, needed)

    best = math.inf
    best_w = None
    first_fail = None
    for rep, t, eigs in _scan(sym, times, nodes, scan_two_L):
        i = int(np.argmin(eigs))
        if eigs[i] < best:
            best = float(eigs[i])
            best_w = Witness(t, nodes[i], rep, best)
        if first_fail is None:
            bad = np.flatnonzero(eigs < -TOL)
            if bad.size:
                i = int(bad[0])
                first_fail = Witness(t, nodes[i], rep, float(eigs[i]))
    scanned = {"scan_two_L": scan_two_L, "time_samples": len(times),
               "x_samples": len(nodes)}
    if first_fail is not None:
        return EllipticityReport("failed", best, first_fail, scanned,
                                 tail="conclusive")
    if tail_kind == "conclusive-positive" or tail_kind == "extend":
        tail = "conclusive"
    else:
        tail = "scan-limited"
    return EllipticityReport("positive", best, best_w, scanned, tail=tail)


def strong_ellipticity_constant(sym: Symbol, T: float = 1.0,
                                time_samples: int = 17,
                                scan_two_L: int | None = None,
                                weight_kind: str = "elliptic") -> EllipticityReport:
    """Largest C with Re(-sigma_K) >= C * W(xi)^m over the scan.

    W is the elliptic weight (1 + lambda)^{1/2} or its subelliptic diagonal
    analogue, raised to the symbol order m.  The strict verdict scans every
    representation; a rerun excluding low frequencies (<xi> < MIN_WEIGHT) is
    reported alongside, since the strict bound degenerates whenever the
    symbol vanishes on the trivial representation.
    """
    times, nodes, scan_two_L = _scan_grid(sym, T, time_samples, scan_two_L)
    m, base = sym.order, _weight_base(weight_kind)
    best = math.inf
    best_w = None
    best_ex = math.inf
    for rep, t, eigs in _scan(sym, times, nodes, scan_two_L,
                              lambda rep: _bands(rep, base, -m / 2.0)[1]):
        i = int(np.argmin(eigs))
        if eigs[i] < best:
            best = float(eigs[i])
            best_w = Witness(t, nodes[i], rep, best)
        # <xi> = (1 + lam)^{1/2}, the elliptic weight at rep
        if float(_bands(rep, "bessel", 1.0)[1, 0].real) >= MIN_WEIGHT \
                and eigs[i] < best_ex:
            best_ex = float(eigs[i])
    scanned = {"scan_two_L": scan_two_L, "time_samples": len(times),
               "x_samples": len(nodes)}
    kind = "strongly_elliptic" if best > TOL else "failed"
    ex_kind = "strongly_elliptic" if best_ex > TOL else "failed"
    return EllipticityReport(kind, best, best_w, scanned, tail="scan-limited",
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
