import math
import json
import os
import re
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lie_diffuse.evolve import EvolutionProblem, evolve
from lie_diffuse.harmonic import (SU2, TORUS1, RepIndex, load_field, random_field,
                                  save_field)
from lie_diffuse.symbol import OperatorSpec, build_operator_symbol
from lie_diffuse.wellposed import MAX_SCAN_TWO_L
from lie_diffuse.cli import (
    ConfigError,
    RunConfig,
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


@pytest.mark.parametrize("key,value", [("T", math.nan), ("dt", math.nan),
                                       ("T", math.inf)])
def test_non_finite_horizon_or_step_exits_2(tmp_path, key, value, capsys):
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, **{key: value})
    with pytest.raises(ConfigError, match=f"must be positive and finite, got {value}"):
        parse_config(cfg)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"got {value}" in capsys.readouterr().err


def test_min_weight_is_no_config_key(tmp_path):
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, min_weight=5)
    with pytest.raises(ConfigError, match="unknown config keys: min_weight"):
        parse_config(cfg)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key,value", [("scan_two_L", -2), ("time_samples", 0),
                                       ("time_samples", -1)])
def test_empty_scan_exits_2(tmp_path, key, value, capsys):
    """A scan over no representation or no time reports the vacuous minimum
    +inf: check of the anti-diffusion 1*laplace^1/2 exited 0 with CaseI."""
    cfg = write_config(tmp_path, operator="1*laplace^1/2", two_L=4, **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be >= [01], got {value}"):
        parse_config(cfg)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command", [("seed", -1, "evolve"),
                                               ("time_order", 0, "check"),
                                               ("time_order", -1, "check")])
def test_negative_seed_or_time_order_exits_2(tmp_path, key, value, command, capsys):
    """seed -1 under a plain random u0 raised numpy's ValueError (exit 1);
    check accepted and ignored time_order 0 and -1."""
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, u0="random",
                       dt=0.1, **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be >= [01], got {value}"):
        parse_config(cfg)
    assert main(["--config", cfg, "--command", command,
                 "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_reduce_plain_random_forcing_takes_seed_plus_m(tmp_path):
    """A plain random reduce forcing took seed - 1, a traceback at the
    default seed 0; it now takes seed + m, here 0 + 2."""
    conf = {"time_order": 2, "coefficients": ["", "-1*laplace"],
            "data": ["xi 2 0 0", "xi 1 0 0"], "two_L": 2, "dt": 0.01}
    code, plain = run(tmp_path, {**conf, "forcing": "random"}, "reduce", "plain")
    assert code == 0
    _, seeded = run(tmp_path, {**conf, "forcing": "random 2"}, "reduce", "seeded")
    assert (plain / "report.json").read_bytes() == (seeded / "report.json").read_bytes()


@pytest.mark.parametrize("key,value", [("T", "1"), ("dt", "0.1"), ("operator", 5),
                                       ("two_L", 2.5), ("two_L", True)])
def test_mistyped_config_value_exits_2(tmp_path, key, value, capsys):
    """Strings for numbers and a number for the operator raised TypeError or
    AttributeError; a fractional or boolean two_L was accepted."""
    cfg = write_config(tmp_path, **{"operator": "-1*bessel^2", "two_L": 4,
                                    key: value})
    with pytest.raises(ConfigError, match=re.escape(f"{key!r} must be")):
        parse_config(cfg)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key!r} must be" in err and repr(value) in err


def test_config_number_types(tmp_path):
    """An integral float is an int, and an int is a float."""
    cfg = parse_config(write_config(tmp_path, operator="-laplace", two_L=4.0,
                                    time_samples=3.0, T=2, coefficients=["", None]))
    assert (cfg.two_L, cfg.time_samples, cfg.T) == (4, 3, 2)
    assert type(cfg.two_L) is int and type(cfg.time_samples) is int
    with pytest.raises(ConfigError, match="'data' must be"):
        parse_config(write_config(tmp_path, data=["delta", 3]))


@pytest.mark.parametrize("command", ["evolve", "reduce"])
def test_step_beyond_horizon_exits_2(tmp_path, command, capsys):
    """dt > T raised ValueError out of the stepping driver (exit 1)."""
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, time_order=2,
                       coefficients=["", "-1*laplace"], data=["delta", "delta"],
                       dt=2, T=1)
    assert main(["--config", cfg, "--command", command,
                 "--out", str(tmp_path / "out")]) == 2
    assert "dt = 2 exceeds the horizon T = 1" in capsys.readouterr().err


def test_check_takes_a_horizon_below_the_default_step(tmp_path):
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, T=5e-4)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 0


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


@pytest.mark.parametrize("name,text", [
    ("notes.md", "not JSON\n"),
    ("other.json", '{"command": ["python3"]}'),
    ("shape.json", '{"group": "su2", "two_L": 2, "coeffs": '
                   '[{"two_ell": 1, "re": [[1.0]], "im": [[0.0]]}]}'),
], ids=["not-json", "no-group-key", "wrong-block-shape"])
def test_field_file_that_is_not_a_field_exits_2(tmp_path, capsys, name, text):
    """A JSON decode, key or shape error from load_field once escaped main."""
    path = tmp_path / name
    path.write_text(text)
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2, u0=str(path),
                       T=0.1, dt=0.05)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"field file {path} is not a field snapshot" in capsys.readouterr().err


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


def _scaled_wave(tmp_path, scale):
    """The exact-scheme damped wave with both data fields scaled."""
    data = []
    for seed in (3, 4):
        path = tmp_path / f"data{seed}.json"
        save_field(path, scale * random_field(SU2, 6, seed))
        data.append(str(path))
    return {"time_order": 2, "coefficients": ["-0.2*laplace^1/2", "-1*laplace"],
            "data": data, "two_L": 6, "dt": 0.002, "scheme": "exact"}


def test_reduce_verdict_is_relative_to_the_data_scale(tmp_path):
    """Data x1e7 leaves the run as accurate as at unit scale: the
    deviation grows with the data, and the verdict follows the reference's
    size, as the reference's own tolerance does."""
    code, out = run(tmp_path, _scaled_wave(tmp_path, 1e7), "reduce", "big")
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and report["pass"] is True
    assert report["max_deviation_from_reference"] > 1e-4   # absolute, as reported


def test_reduce_relative_error_still_fails(tmp_path, monkeypatch):
    """A solution off by 1e-3 relative fails at the large scale too."""
    import lie_diffuse.cli as cli

    real = cli.solve_reduced

    def perturbed(*args, **kwargs):
        trajectory = real(*args, **kwargs)
        for F in trajectory[-1]:
            F.data *= 1.0 + 1e-3
        return trajectory

    monkeypatch.setattr(cli, "solve_reduced", perturbed)
    code, out = run(tmp_path, _scaled_wave(tmp_path, 1e7), "reduce", "off")
    assert code == 3
    assert json.loads((out / "report.json").read_text())["pass"] is False


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
    # finite numbers whose symbol overflows to inf at two_ell = 2; the error
    # is the one report, with no numpy RuntimeWarning before it
    cfg = write_config(tmp_path, operator="-1e300*laplace^100", u0="delta", two_L=4)
    for command in ("check", "evolve"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", cfg, "--command", command,
                         "--out", str(tmp_path / command)]) == 2
        assert "non-finite symbol" in capsys.readouterr().err


def test_check_deepens_an_exact_scan_only_to_the_cap(tmp_path):
    """-laplace^1/4 + 0.001*iX3 first fails near two_ell 2.8e6, where
    0.001 ell outgrows lam^{1/4}; the exact diagonal scan stops at
    MAX_SCAN_TWO_L with a scan-limited positivity tail."""
    cfg = write_config(tmp_path, operator="-1*laplace^1/4 + 0.001*iX3", two_L=4)
    assert main(["--config", cfg, "--command", "check",
                 "--out", str(tmp_path / "out")]) == 0
    pos = json.loads((tmp_path / "out" / "report.json").read_text())[
        "classification"]["positivity"]
    assert (pos["verdict"], pos["tail"]) == ("positive", "scan-limited")
    assert pos["scanned"]["scan_two_L"] == MAX_SCAN_TWO_L


@pytest.mark.parametrize("spec", ["random abc", "random -1", "xi -2 0 0",
                                  "random 1 2 3", "delta extra", "xi 1 0", " "])
def test_malformed_field_spec_exits_2(tmp_path, spec, capsys):
    with pytest.raises(ConfigError, match=re.escape(repr(spec))):
        parse_field_spec(spec, SU2, 4, seed=0)
    cfg = write_config(tmp_path, operator="-1*bessel^2", u0=spec, two_L=4)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "out")]) == 2
    assert repr(spec) in capsys.readouterr().err


@pytest.mark.parametrize("config,command,cause", [
    ([], "check", "config must be a JSON object"),
    ({"group": "so3", "operator": "-1*bessel^2"}, "check", "unknown group 'so3'"),
    ({"two_L": -1, "operator": "-1*bessel^2"}, "check",
     "bandlimit must be nonnegative"),
    ({"kind": "hyperbolic", "operator": "-1*bessel^2", "two_L": 2, "dt": 0.1},
     "evolve", "norm kind must be elliptic or subelliptic"),
    ({"time_order": 2, "coefficients": ["-1*laplace", "-1*laplace"],
      "data": ["random 1", "random 2"], "two_L": 2, "dt": 0.1}, "reduce",
     "coefficient a_1 declares order 2.0, which exceeds its slot order 1"),
])
def test_rejected_config_exits_2_naming_the_cause(tmp_path, config, command,
                                                   cause, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--command", command,
                 "--out", str(tmp_path / "out")]) == 2
    assert cause in capsys.readouterr().err


def test_snapshot_of_another_bandlimit_exits_2(tmp_path, capsys):
    snap = tmp_path / "u0.json"
    save_field(snap, random_field(SU2, 2, seed=1))
    cfg = write_config(tmp_path, operator="-1*bessel^2", u0=str(snap), two_L=4)
    assert main(["--config", cfg, "--command", "evolve",
                 "--out", str(tmp_path / "out")]) == 2
    assert "field file group or bandlimit mismatch" in capsys.readouterr().err


def test_unknown_command_is_a_config_error(tmp_path):
    """main's argument parser admits only known commands; run_command
    checks its own."""
    with pytest.raises(ConfigError, match="unknown command 'solve'"):
        run_command(RunConfig(), "solve", str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, operator="-1*bessel^2", two_L=2)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--config", cfg, "--command", "check", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("io error: ")


def test_evolve_forcing_takes_seed_plus_1(tmp_path):
    """A plain random forcing is drawn with seed + 1, u0 with seed: the CLI's
    final state is the library evolve's of those fields, bit for bit."""
    conf = {"operator": "-1*laplace^1/2 + 0.3*X1", "two_L": 2, "u0": "random",
            "forcing": "random", "seed": 7, "T": 0.1, "dt": 0.05}
    code, out = run(tmp_path, conf, "evolve")
    assert code == 0
    sym = build_operator_symbol(OperatorSpec(SU2, 2, parse_operator(conf["operator"])))
    problem = EvolutionProblem(sym, random_field(SU2, 2, seed=7),
                               forcing=random_field(SU2, 2, seed=8), T=0.1)
    trajectory, _ = evolve(problem, dt=0.05)
    final = load_field(out / "snapshots" / "state_final.json")
    assert all(np.array_equal(final[rep], trajectory[-1][rep])
               for rep in trajectory[-1].coeffs)


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


# ---------------------------------------------------------------- config property

# Tiny configs that run clean; the property changes one key of one of them.
TINY = {
    "check": {"operator": "-1*bessel^2", "two_L": 2},
    "evolve": {"operator": "-1*bessel^2", "two_L": 2, "u0": "random",
               "T": 0.1, "dt": 0.05},
    "reduce": {"time_order": 2, "coefficients": ["", "-1*laplace"],
               "data": ["random", "delta"], "two_L": 2, "T": 0.1, "dt": 0.05},
}
# Strings the keys take, next to arbitrary short text.
WORDS = ["delta", "random", "random 3", "xi 1 0 0", "xi 0", "", "-1*bessel^2",
         "-1*laplace^1/2 + 1*iX3", "laplace", "su2", "torus1", "subelliptic",
         "rk4", "cn", "exact"]
# Numbers stay small, so that no draw asks for a large bandlimit, scan depth
# or step count.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 8)
                | st.sampled_from([-1.5, -0.0, 0.03, 0.5, 2.5, math.nan, math.inf,
                                   -math.inf])
                | st.sampled_from(WORDS) | st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3),
                           max_leaves=4)


@given(command=st.sampled_from(sorted(TINY)),
       key=st.sampled_from([f.name for f in fields(RunConfig)]),
       value=JSON_VALUES)
@example(command="reduce", key="forcing", value="random")
@example(command="evolve", key="seed", value=-1)
@example(command="evolve", key="s", value=math.nan)
@example(command="evolve", key="T", value=1e308)
@settings(max_examples=100, deadline=None)
def test_one_bad_key_exits_with_a_documented_code(command, key, value):
    """Any JSON value for any key of a tiny config exits 0, 2, 3 or 4; an
    exception escaping main (a traceback, exit 1) fails.  The run works in
    a fresh directory, so no drawn text names an existing file."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with open("cfg.json", "w") as fh:
                json.dump({**TINY[command], key: value}, fh)
            code = main(["--config", "cfg.json", "--command", command,
                         "--out", "out"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
