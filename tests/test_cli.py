import math
import json
import re

import numpy as np
import pytest

from lie_diffuse.harmonic import SU2, TORUS1, RepIndex, random_field, save_field
from lie_diffuse.cli import (
    ConfigError,
    main,
    parse_config,
    parse_field_spec,
    parse_operator,
    run_command,
)


def write_config(tmp_path, name="cfg.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs))
    return str(path)


# ---------------------------------------------------------------- operator grammar

def test_parse_drift_expression():
    terms = parse_operator("-1*laplace^1/2 + 1*iX3")
    assert len(terms) == 2
    assert terms[0].base == "laplace"
    assert terms[0].exponent == 0.5
    assert terms[0].const == -1.0
    assert terms[1].base == "iX3" and terms[1].const == 1.0


def test_parse_bare_and_scaled_terms():
    (t,) = parse_operator("-laplace")
    assert t.const == -1.0 and t.exponent == 1.0
    (t,) = parse_operator("2.5*bessel^-2")
    assert t.const == 2.5 and t.exponent == -2.0
    (t,) = parse_operator("-1*sbessel^3")
    assert t.base == "sbessel" and t.exponent == 3.0


def test_parse_ladder_bases():
    a, b = parse_operator("0.5*d+ - d-")
    assert a.base == "d+" and a.const == 0.5
    assert b.base == "d-" and b.const == -1.0


def test_parse_splits_after_words_ending_in_e_or_d():
    """The e of laplace is no exponent marker, the d of id no ladder base."""
    a, b = parse_operator("-1*laplace + 1*iX3")
    assert (a.base, a.const, b.base, b.const) == ("laplace", -1.0, "iX3", 1.0)
    a, b = parse_operator("-1*sublaplace - 0.5*X1")
    assert (a.base, a.const, b.base, b.const) == ("sublaplace", -1.0, "X1", -0.5)
    a, b = parse_operator("1*id - 1*laplace")
    assert (a.base, a.const, b.base, b.const) == ("id", 1.0, "laplace", -1.0)


def test_parse_scientific_coefficients():
    (t,) = parse_operator("1e-3*laplace")
    assert t.const == 1e-3 and t.base == "laplace"
    a, b = parse_operator("-2.5E+1*bessel^2 + .5e-1*d+")
    assert (a.const, a.exponent, b.base, b.const) == (-25.0, 2.0, "d+", 0.05)


def test_parse_rejects_bad_expressions():
    with pytest.raises(ConfigError, match="range"):
        parse_operator("laplace^-1")
    with pytest.raises(ConfigError, match="unknown operator base"):
        parse_operator("grad")
    with pytest.raises(ConfigError, match="no exponent"):
        parse_operator("X1^2")
    with pytest.raises(ConfigError):
        parse_operator("")
    with pytest.raises(ConfigError, match="coefficient"):
        parse_operator("q*laplace")


# ---------------------------------------------------------------- config parsing

def test_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, operator="-laplace", u0="xi 1 0 0"))
    assert cfg.two_L == 16
    assert cfg.dt == 1e-3
    assert cfg.scheme == "auto"
    assert cfg.s == 0.0


def test_config_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, operator="-laplace", bandlimit=8)
    with pytest.raises(ConfigError, match="bandlimit"):
        parse_config(path)


def test_config_invariants(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        parse_config(write_config(tmp_path, operator="-laplace", dt=-1.0))
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(write_config(tmp_path, operator="-laplace", scheme="euler"))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(str(bad))


def test_config_overrides(tmp_path):
    path = write_config(tmp_path, operator="-laplace")
    cfg = parse_config(path, {"two_L": 4, "dt": 0.05, "seed": None})
    assert cfg.two_L == 4 and cfg.dt == 0.05


# ---------------------------------------------------------------- field specs

def test_field_spec_delta():
    F = parse_field_spec("delta", SU2, 4, seed=0)
    for rep, m in F.items():
        assert np.array_equal(m, np.eye(rep.dim))


def test_field_spec_xi():
    F = parse_field_spec("xi 1 0 0", SU2, 4, seed=0)
    rep = RepIndex(SU2, two_ell=1)
    assert F[rep][0, 0] == pytest.approx(0.5)
    assert all(np.abs(m).max() == 0.0 for r, m in F.items() if r != rep)
    G = parse_field_spec("xi -2", TORUS1, 4, seed=0)
    assert G[RepIndex(TORUS1, k=-2)][0, 0] == 1.0


def test_field_spec_random_and_file(tmp_path):
    F = parse_field_spec("random 7", SU2, 4, seed=0)
    G = parse_field_spec("random 7", SU2, 4, seed=99)
    for rep in F.coeffs:
        assert np.array_equal(F[rep], G[rep])
    path = tmp_path / "field.json"
    save_field(path, F)
    H = parse_field_spec(str(path), SU2, 4, seed=0)
    for rep in F.coeffs:
        assert np.allclose(H[rep], F[rep])


def test_field_spec_errors():
    with pytest.raises(ConfigError, match="not found"):
        parse_field_spec("nowhere.json", SU2, 4, seed=0)
    with pytest.raises(ConfigError, match="indices"):
        parse_field_spec("xi 1 5 0", SU2, 4, seed=0)
    with pytest.raises(ConfigError, match="bandlimit"):
        parse_field_spec("xi 9 0 0", SU2, 4, seed=0)


# ---------------------------------------------------------------- commands

HEAT = {"operator": "-1*bessel^2", "two_L": 6, "u0": "random 3", "dt": 0.01}
DRIFT = {"operator": "-1*laplace^1/2 + 1*iX3", "two_L": 6, "u0": "xi 1 0 0",
         "dt": 0.01}
BACKWARD = {"operator": "laplace", "two_L": 6, "u0": "delta", "dt": 0.01}


def run(tmp_path, conf, command, sub="out", allow=False, **extra):
    cfg = parse_config(write_config(tmp_path, name=f"{sub}.json",
                                    **{**conf, **extra}))
    code = run_command(cfg, command, str(tmp_path / sub), allow_unverified=allow)
    return code, tmp_path / sub


def test_check_exit_codes(tmp_path):
    assert run(tmp_path, HEAT, "check", "a")[0] == 0
    assert run(tmp_path, DRIFT, "check", "b")[0] == 0
    code, out = run(tmp_path, BACKWARD, "check", "c")
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    w = report["classification"]["positivity"]["witness"]
    assert w["two_ell"] == 1 and w["eig"] < 0.0
    assert run(tmp_path, BACKWARD, "check", "d", allow=True)[0] == 0


def test_evolve_artifacts(tmp_path):
    code, out = run(tmp_path, HEAT, "evolve", "heat")
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# lie-diffuse v1"
    assert lines[1] == "t,l2_norm,hs_norm,identity_residual"
    assert len(lines) == 2 + 101      # header + 100 steps + initial state
    assert (out / "snapshots" / "state_initial.json").exists()
    assert (out / "snapshots" / "state_final.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["ran"] is True
    assert report["classification"]["verdict"] == "CaseI"
    assert report["energy"]["C"] <= 1.0 + 1e-10


def test_evolve_drift_l2_nonincreasing(tmp_path):
    code, out = run(tmp_path, DRIFT, "evolve", "drift")
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[2:]
    l2 = [float(r.split(",")[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(l2, l2[1:]))


def test_evolve_unverified_gating(tmp_path):
    code, out = run(tmp_path, BACKWARD, "evolve", "bw")
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["ran"] is False
    code, out = run(tmp_path, BACKWARD, "evolve", "bw2", allow=True, dt=0.05,
                    T=0.2)
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[2:]
    l2 = [float(r.split(",")[1]) for r in rows]
    assert l2[-1] > l2[0]             # backward heat grows, as requested


def test_reduce_command(tmp_path):
    conf = {"time_order": 2, "coefficients": ["", "-1*laplace"],
            "data": ["xi 2 0 0", "xi 1 0 0"], "two_L": 4, "dt": 0.001}
    code, out = run(tmp_path, conf, "reduce", "wave")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["max_deviation_from_reference"] < 1e-6


def test_reduce_nan_solution_fails(tmp_path, monkeypatch):
    """A NaN in the reduced solution must fail the comparison, not vanish
    in the fold over representations."""
    import lie_diffuse.cli as cli

    real = cli.solve_reduced

    def poisoned(*args, **kwargs):
        trajectory = real(*args, **kwargs)
        last = trajectory[-1][-1]
        rep = list(last.coeffs)[-1]
        last.coeffs[rep] = np.full_like(last[rep], np.nan)
        return trajectory

    monkeypatch.setattr(cli, "solve_reduced", poisoned)
    conf = {"time_order": 2, "coefficients": ["", "-1*laplace"],
            "data": ["xi 2 0 0", "xi 1 0 0"], "two_L": 2, "dt": 0.01}
    code, out = run(tmp_path, conf, "reduce", "nan")
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert math.isnan(report["max_deviation_from_reference"])


def test_reduce_reference_failure_exits_4(tmp_path, monkeypatch, capsys):
    import types

    import scipy.integrate

    def failing(fun, t_span, y0, **kwargs):
        return types.SimpleNamespace(success=False, message="step size too small",
                                     y=np.array(y0)[:, None])

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failing)
    cfg = write_config(tmp_path, time_order=2, coefficients=["", "-1*laplace"],
                       data=["xi 2 0 0", "xi 1 0 0"], two_L=2, dt=0.01)
    code = main(["--config", cfg, "--command", "reduce",
                 "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "reference integration failed at RepIndex(group='su2', two_ell=0" in err
    assert "step size too small" in err


def test_reduce_needs_keys(tmp_path):
    cfg = parse_config(write_config(tmp_path, operator="-laplace"))
    with pytest.raises(ConfigError, match="time_order"):
        run_command(cfg, "reduce", str(tmp_path / "r"))


def test_selftest(tmp_path):
    code, out = run(tmp_path, {"two_L": 6}, "transform-selftest", "st",
                    operator=None)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["round_trip_max_rel"] < 1e-10


def test_determinism_byte_identical(tmp_path):
    _, out1 = run(tmp_path, HEAT, "evolve", "r1")
    _, out2 = run(tmp_path, HEAT, "evolve", "r2")
    for name in ("report.json", "trajectory.csv", "snapshots/state_final.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_exit_codes(tmp_path):
    missing = str(tmp_path / "none.json")
    assert main(["--config", missing, "--command", "check"]) == 2
    cfg = write_config(tmp_path, operator="laplace^-1", u0="delta", two_L=4)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "m1")]) == 2
    cfg = write_config(tmp_path, name="ok.json", operator="-1*bessel^2",
                       two_L=4, u0="xi 1 0 0", dt=0.05)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "m2")]) == 0


@pytest.mark.parametrize("operator", ["-1e400*laplace", "-1*laplace + 1e400*iX3",
                                      "nan*laplace", "-1*laplace^inf"])
def test_non_finite_numbers_exit_2(tmp_path, operator, capsys):
    with pytest.raises(ConfigError, match="non-finite"):
        parse_operator(operator)
    cfg = write_config(tmp_path, operator=operator, u0="delta", two_L=4)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_symbol_overflow_exits_2(tmp_path, capsys):
    # finite numbers whose symbol overflows to inf at two_ell = 2
    cfg = write_config(tmp_path, operator="-1e300*laplace^100", u0="delta", two_L=4)
    for command in ("check", "evolve"):
        assert main(["--config", cfg, "--command", command,
                     "--out", str(tmp_path / command)]) == 2
        assert "non-finite symbol" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["random abc", "random -1", "xi -2 0 0",
                                  "random 1 2 3", "delta extra"])
def test_malformed_field_spec_exits_2(tmp_path, spec, capsys):
    with pytest.raises(ConfigError, match=re.escape(repr(spec))):
        parse_field_spec(spec, SU2, 4, seed=0)
    cfg = write_config(tmp_path, operator="-1*bessel^2", u0=spec, two_L=4)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "out")]) == 2
    assert repr(spec) in capsys.readouterr().err


def test_reduce_reference_refuses_stiff_systems(tmp_path, monkeypatch, capsys):
    """-1e8*laplace puts ||B||_2 T near 2.3e8 at two_L=4: exit 4 naming the
    representation and the value, before any integration starts."""
    import scipy.integrate

    import lie_diffuse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("integration started")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", never)
    monkeypatch.setattr(cli, "solve_reduced", never)
    cfg = write_config(tmp_path, time_order=2,
                       coefficients=["-0.2*laplace^1/2", "-1e8*laplace"],
                       data=["random 1", "random 2"], two_L=4, dt=0.01)
    assert main(["--config", cfg, "--command", "reduce",
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "refused at RepIndex(group='su2', two_ell=4" in err
    assert "2.27e+08 exceeds 1000" in err
