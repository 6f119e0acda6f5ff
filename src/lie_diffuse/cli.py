"""Batch front end: JSON config in, reports and plot-ready CSV out.

Commands
--------
check               classify the operator (ellipticity / positivity reports)
evolve              integrate the problem, write trajectory.csv + report.json
reduce              solve an order-m problem via the companion reduction and
                    compare against an adaptive ODE reference
transform-selftest  Plancherel / round-trip / orthogonality summary

Exit codes: 0 success, 2 config error, 3 checker failure, 4 solver failure.
A problem whose classification is Unverified stops `evolve` with exit 3
unless --allow-unverified is given.

Operators are written as signed sums of coefficient*base terms, e.g.
"-1*laplace^1/2 + 1*iX3".  Bases: laplace^q, sublaplace^q (q >= 0),
bessel^s, sbessel^s (Bessel weights of order s, subelliptic variant),
d0, d+, d-, X1, X2, X3, iX3, id.  Exponents accept decimals or fractions
(1/2).  Initial data: "delta" (bandlimited delta), "xi TWO_ELL I J"
(single matrix coefficient; on the torus "xi K"), "random N" (seeded), or
a path to a JSON field file.

All outputs are byte-deterministic for a fixed config and seed: JSON is
dumped with sorted keys and fixed separators, CSV floats with %.17g.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harmonic import (
    SU2,
    TORUS1,
    RepIndex,
    SpectralField,
    dual_enumerate,
    fourier_forward,
    fourier_inverse,
    l2_inner,
    load_field,
    plancherel_norm,
    quadrature_grid,
    random_field,
    save_field,
)
from .symbol import OperatorSpec, OperatorTerm, build_operator_symbol
from .wellposed import classify_problem
from .evolve import EvolutionProblem, SolverError, evolve
from .reduce import HigherOrderProblem, extract_u, reduce_to_first_order, solve_reduced


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# ---------------------------------------------------------------- operator grammar

_FIRST_ORDER = ("d0", "d+", "d-", "X1", "X2", "X3", "iX3")
_DIFFUSION = ("laplace", "sublaplace")
_WEIGHTS = ("bessel", "sbessel")
_MANTISSA = re.compile(r"(\d+\.?\d*|\.\d+)[eE]")


def _split_terms(expr: str) -> list[str]:
    s = "".join(expr.split())
    if not s:
        raise ConfigError("empty operator expression")
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur:
            # the token being read: after the last operator, without its sign
            token = re.split(r"[*/^]", cur)[-1].lstrip("+-")
            if cur[-1] in "^*/" or _MANTISSA.fullmatch(token):
                cur += ch            # sign of an exponent, coefficient or 1e-3
            elif token == "d":
                cur += ch            # the ladder bases d+ / d-
            else:
                terms.append(cur)
                cur = ch
        else:
            cur += ch
    terms.append(cur)
    return terms


def _parse_number(text: str, what: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite {what} {text!r}")
    return value


def parse_operator(expr: str) -> list[OperatorTerm]:
    """Parse the signed-sum operator grammar into symbol terms."""
    terms = []
    for raw in _split_terms(expr):
        coef = 1.0
        body = raw
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            coef, body = -1.0, body[1:]
        if "*" in body:
            cstr, body = body.split("*", 1)
            coef *= _parse_number(cstr, "coefficient")
        if "^" in body:
            base, estr = body.split("^", 1)
            exponent = _parse_number(estr, "exponent")
        else:
            base, exponent = body, None
        if base in _DIFFUSION:
            q = 1.0 if exponent is None else exponent
            if q < 0.0:
                raise ConfigError(
                    f"exponent {q} out of range for {base} (needs q >= 0)")
            terms.append(OperatorTerm(base, exponent=q, const=coef))
        elif base in _WEIGHTS:
            s = 1.0 if exponent is None else exponent
            terms.append(OperatorTerm(base, exponent=s, const=coef))
        elif base in _FIRST_ORDER or base == "id":
            if exponent is not None:
                raise ConfigError(f"base {base!r} takes no exponent")
            terms.append(OperatorTerm(base, const=coef))
        else:
            raise ConfigError(f"unknown operator base {base!r}")
    return terms


# ---------------------------------------------------------------- field specs

def parse_field_spec(spec: str, group: str, two_L: int, seed: int) -> SpectralField:
    parts = spec.split()
    if not parts:
        raise ConfigError("empty field spec")
    name = parts[0]
    if name in ("xi", "random"):
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"bad {name} spec {spec!r}: arguments are integers") from exc
    if name == "delta":
        if len(parts) > 1:
            raise ConfigError(f"delta takes no arguments: {spec!r}")
        F = SpectralField.zeros(group, two_L)
        for rep in dual_enumerate(group, two_L):
            F.coeffs[rep] = np.eye(rep.dim, dtype=complex)
        return F
    if name == "xi":
        want = 3 if group == SU2 else 1
        if len(args) != want:
            raise ConfigError(f"xi takes {want} integer arguments on {group}: {spec!r}")
        if group == SU2:
            two_ell, i, j = args
            if two_ell < 0:
                raise ConfigError(f"xi spec {spec!r}: negative degree {two_ell}")
            rep = RepIndex(SU2, two_ell=two_ell)
            d = rep.dim
            if not (0 <= i < d and 0 <= j < d):
                raise ConfigError(f"coefficient indices {i},{j} outside 0..{d-1}")
            m = np.zeros((d, d), dtype=complex)
            m[j, i] = 1.0 / d
        else:
            rep = RepIndex(TORUS1, k=args[0])
            m = np.array([[1.0 + 0j]])
        try:
            return SpectralField(group, two_L, {rep: m})
        except ValueError as exc:
            raise ConfigError(f"xi spec {spec!r} above bandlimit {two_L}") from exc
    if name == "random":
        if len(args) > 1 or min(args, default=0) < 0:
            raise ConfigError(f"random takes one nonnegative integer seed: {spec!r}")
        return random_field(group, two_L, seed=args[0] if args else seed)
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"field file not found: {spec}")
    F = load_field(path)
    if F.group != group or F.two_L != two_L:
        raise ConfigError("field file group or bandlimit mismatch")
    return F


# ---------------------------------------------------------------- config

_DEFAULTS = {
    "group": SU2, "two_L": 16, "operator": None, "u0": "delta",
    "forcing": None, "T": 1.0, "dt": 1e-3, "scheme": "auto", "s": 0.0,
    "kind": "elliptic", "seed": 0, "scan_two_L": None, "time_samples": 17,
    "weight_kind": "elliptic", "min_weight": math.sqrt(2.0),
    "time_order": None, "coefficients": None, "data": None,
}


@dataclass
class RunConfig:
    group: str = SU2
    two_L: int = 16
    operator: str | None = None
    u0: str = "delta"
    forcing: str | None = None
    T: float = 1.0
    dt: float = 1e-3
    scheme: str = "auto"
    s: float = 0.0
    kind: str = "elliptic"
    seed: int = 0
    scan_two_L: int | None = None
    time_samples: int = 17
    weight_kind: str = "elliptic"
    min_weight: float = math.sqrt(2.0)
    time_order: int | None = None
    coefficients: list | None = None
    data: list | None = None


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Load the JSON config, apply CLI overrides, validate invariants."""
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    merged = dict(_DEFAULTS)
    merged.update(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**merged)
    if cfg.group not in (SU2, TORUS1):
        raise ConfigError(f"unknown group {cfg.group!r}")
    if cfg.two_L < 0:
        raise ConfigError("bandlimit must be nonnegative")
    if cfg.dt <= 0.0:
        raise ConfigError("dt must be positive")
    if cfg.T <= 0.0:
        raise ConfigError("horizon T must be positive")
    if cfg.scheme not in ("auto", "exact", "cn", "rk4"):
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if cfg.kind not in ("elliptic", "subelliptic") \
            or cfg.weight_kind not in ("elliptic", "subelliptic"):
        raise ConfigError("norm kind must be elliptic or subelliptic")
    return cfg


# ---------------------------------------------------------------- output helpers

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

CSV_HEADER = "# lie-diffuse v1\nt,l2_norm,hs_norm,identity_residual\n"


def _write_trajectory_csv(path: Path, report) -> None:
    rows = [CSV_HEADER]
    for t, l2, hs, res in zip(report.times, report.l2_norms,
                              report.hs_norms, report.identity_residuals):
        rows.append("%.17g,%.17g,%.17g,%.17g\n" % (t, l2, hs, res))
    path.write_text("".join(rows))


def _build_symbol(cfg: RunConfig):
    if cfg.operator is None:
        raise ConfigError("config needs an 'operator' expression")
    terms = parse_operator(cfg.operator)
    try:
        return build_operator_symbol(OperatorSpec(cfg.group, cfg.two_L, terms))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _classify(sym, cfg: RunConfig):
    """classify_problem; a symbol that overflows to inf is a config error."""
    try:
        return classify_problem(sym, T=cfg.T, weight_kind=cfg.weight_kind,
                                time_samples=cfg.time_samples,
                                scan_two_L=cfg.scan_two_L)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- commands

def _cmd_check(cfg: RunConfig, out: Path, allow_unverified: bool) -> int:
    sym = _build_symbol(cfg)
    cls = _classify(sym, cfg)
    _write_json(out / "report.json", {
        "command": "check", "group": cfg.group, "two_L": cfg.two_L,
        "operator": cfg.operator, "classification": cls.to_json_dict()})
    if cls.verified or allow_unverified:
        return 0
    return 3


def _cmd_evolve(cfg: RunConfig, out: Path, allow_unverified: bool) -> int:
    sym = _build_symbol(cfg)
    u0 = parse_field_spec(cfg.u0, cfg.group, cfg.two_L, cfg.seed)
    forcing = None
    if cfg.forcing is not None:
        forcing = parse_field_spec(cfg.forcing, cfg.group, cfg.two_L, cfg.seed + 1)
    cls = _classify(sym, cfg)
    if not cls.verified and not allow_unverified:
        _write_json(out / "report.json", {
            "command": "evolve", "ran": False,
            "classification": cls.to_json_dict()})
        return 3
    problem = EvolutionProblem(sym, u0, forcing=forcing, T=cfg.T,
                               s=cfg.s, kind=cfg.kind)
    trajectory, report = evolve(problem, scheme=cfg.scheme, dt=cfg.dt,
                                classification=cls)
    _write_trajectory_csv(out / "trajectory.csv", report)
    snaps = out / "snapshots"
    snaps.mkdir(exist_ok=True)
    save_field(snaps / "state_initial.json", trajectory[0])
    save_field(snaps / "state_final.json", trajectory[-1])
    _write_json(out / "report.json", {
        "command": "evolve", "ran": True, "operator": cfg.operator,
        "classification": cls.to_json_dict(),
        "energy": report.to_json_dict()})
    return 0


# Largest max_rep ||B||_2 * T the reference integrates: an explicit method's
# step count grows with it (RK45: about 4 s at 2.3e4, two_L=4).  The test
# suite's reduce runs stay below 3; the benchmark's wave-reduce job is at 9.4.
REFERENCE_STIFFNESS_CAP = 1e3


def _reduce_reference(sys, dt: float):
    """Independent check: integrate each per-mode block ODE on the dense
    block_matrix with explicit adaptive DOP853 (rtol 1e-10, atol 1e-12) and
    return the final stacked state per representation.  At these
    tolerances the 8th-order pair (Hairer, Norsett & Wanner, Solving ODEs I,
    II.10) needs about a fifth of RK45's right-hand-side evaluations.

    A system with ||B||_2 * T above REFERENCE_STIFFNESS_CAP = 1e3 at some
    representation (non-finite B counts as infinite) is refused with a
    SolverError naming the representation and the value, before any
    integration: the explicit reference would run for minutes or hours."""
    from scipy.integrate import solve_ivp

    blocks = {rep: sys.block_matrix(0.0, rep) for rep in sys.initial[0].coeffs}
    stiffness = {rep: float(np.linalg.norm(B, 2)) * sys.T if np.isfinite(B).all()
                 else math.inf for rep, B in blocks.items()}
    worst = max(stiffness, key=stiffness.get)
    if stiffness[worst] > REFERENCE_STIFFNESS_CAP:
        raise SolverError(
            f"reference integration refused at {worst}: ||B||_2 * T = "
            f"{stiffness[worst]:.3g} exceeds {REFERENCE_STIFFNESS_CAP:g}", math.nan)
    out = {}
    for rep, B in blocks.items():
        V0 = np.concatenate([F[rep] for F in sys.initial], axis=0)
        f = sys.forcing_at(0.0)
        Fb = None
        if f is not None:
            Fb = np.zeros_like(V0)
            Fb[-rep.dim:] = f[rep]
        shape = V0.shape
        n = V0.size

        def rhs(t, y):
            W = (y[:n] + 1j * y[n:]).reshape(shape)
            dW = B @ W
            if Fb is not None:
                dW = dW + Fb
            flat = dW.ravel()
            return np.concatenate([flat.real, flat.imag])

        y0 = np.concatenate([V0.ravel().real, V0.ravel().imag])
        sol = solve_ivp(rhs, (0.0, sys.T), y0, method="DOP853", rtol=1e-10,
                        atol=1e-12)
        if not sol.success:
            raise SolverError(f"reference integration failed at {rep}: "
                              f"{sol.message}", math.nan)
        out[rep] = (sol.y[:n, -1] + 1j * sol.y[n:, -1]).reshape(shape)
    return out


def _cmd_reduce(cfg: RunConfig, out: Path, allow_unverified: bool) -> int:
    if cfg.time_order is None or cfg.coefficients is None or cfg.data is None:
        raise ConfigError("reduce needs time_order, coefficients and data keys")
    m = int(cfg.time_order)
    if len(cfg.coefficients) != m or len(cfg.data) != m:
        raise ConfigError(f"need {m} coefficient and data entries")
    coeffs = []
    for expr in cfg.coefficients:
        if expr in (None, ""):
            coeffs.append(None)
        else:
            try:
                coeffs.append(build_operator_symbol(
                    OperatorSpec(cfg.group, cfg.two_L, parse_operator(expr))))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    data = [parse_field_spec(spec, cfg.group, cfg.two_L, cfg.seed + i)
            for i, spec in enumerate(cfg.data)]
    forcing = None
    if cfg.forcing is not None:
        forcing = parse_field_spec(cfg.forcing, cfg.group, cfg.two_L, cfg.seed - 1)
    try:
        prob = HigherOrderProblem(m, coeffs, data, forcing=forcing, T=cfg.T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys_ = reduce_to_first_order(prob)
    # first, so that a system too stiff for the reference fails before the
    # solve (RK4 substeps grow with the same norm)
    reference = _reduce_reference(sys_, cfg.dt)
    trajectory = solve_reduced(sys_, scheme=cfg.scheme, dt=cfg.dt)
    u_final = extract_u(sys_, trajectory[-1:])[0]
    # np.max, unlike max(), carries a NaN deviation through to a failed run
    dev = float(np.max([
        np.abs(np.concatenate([F[rep] for F in trajectory[-1]], axis=0) - V).max()
        for rep, V in reference.items()]))
    final_l2 = math.sqrt(plancherel_norm(u_final))
    passed = dev < 1e-4
    _write_json(out / "report.json", {
        "command": "reduce", "time_order": m, "scheme": cfg.scheme,
        "max_deviation_from_reference": dev, "final_l2": final_l2,
        "pass": passed})
    return 0 if passed else 3


def _cmd_selftest(cfg: RunConfig, out: Path, allow_unverified: bool) -> int:
    two_L = cfg.two_L
    grid = quadrature_grid(cfg.group, two_L)
    round_trip = plancherel = 0.0
    for k in range(5):
        F = random_field(cfg.group, two_L, seed=cfg.seed + k)
        f = fourier_inverse(F, grid)
        G = fourier_forward(f, two_L)
        num = max(np.abs(G[rep] - F[rep]).max() for rep in F.coeffs)
        den = max(np.abs(m).max() for m in F.coeffs.values())
        round_trip = max(round_trip, num / den)
        l2 = l2_inner(f, f).real
        plancherel = max(plancherel, abs(l2 - plancherel_norm(F))
                         / plancherel_norm(F))
    ortho = 0.0
    table_two_L = min(4, two_L)
    for rep in dual_enumerate(cfg.group, table_two_L):
        d = rep.dim
        for i in range(d):
            for j in range(d):
                F = SpectralField.zeros(cfg.group, two_L)
                mat = np.zeros((d, d), dtype=complex)
                mat[j, i] = 1.0 / d
                F.coeffs[rep] = mat
                G = fourier_forward(fourier_inverse(F, grid), two_L)
                for rep2 in G.coeffs:
                    expect = mat if rep2 == rep else 0.0
                    ortho = max(ortho, float(np.abs(G[rep2] - expect).max()))
    passed = round_trip < 1e-10 and plancherel < 1e-10 and ortho < 1e-10
    _write_json(out / "report.json", {
        "command": "transform-selftest", "group": cfg.group, "two_L": two_L,
        "round_trip_max_rel": round_trip, "plancherel_max_rel": plancherel,
        "orthogonality_max_err": ortho, "pass": passed})
    return 0 if passed else 3


_COMMANDS = {"check": _cmd_check, "evolve": _cmd_evolve, "reduce": _cmd_reduce,
             "transform-selftest": _cmd_selftest}


def run_command(cfg: RunConfig, command: str, out_dir: str,
                allow_unverified: bool = False) -> int:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[command](cfg, out, allow_unverified)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lie-diffuse",
        description="Spectral drift-diffusion solver on SU(2) and the circle")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--command", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--allow-unverified", action="store_true")
    parser.add_argument("--two-L", dest="two_L", type=int, default=None)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--scheme", choices=["auto", "exact", "cn", "rk4"],
                        default=None)
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "two_L": args.two_L, "dt": args.dt,
                 "scheme": args.scheme}
    try:
        cfg = parse_config(args.config, overrides)
        return run_command(cfg, args.command, args.out, args.allow_unverified)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
