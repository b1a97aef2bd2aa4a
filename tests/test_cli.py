"""Command-line orchestration: validation, dispatch, artifacts, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticefronts
from latticefronts import __version__
from latticefronts.cli import (
    COMMANDS,
    OPERATOR as OPERATOR_SCHEMA,
    SCHEMA,
    ConfigError,
    _g17,
    build_lattice,
    config_hash,
    main,
    run,
    validate,
    write_profile_csv,
)
from latticefronts.model import build_nagumo, find_two_periodic_equilibria
from latticefronts.sim import front_state, integrate, measure_speed


# --------------------------------------------------------------------------
# validation

def test_minimal_config_fills_defaults():
    cfg = validate({"model": {"kind": "nagumo"}, "grid": {}}, "solve-wave")
    assert cfg["grid"]["L"] == 40.0
    assert cfg["grid"]["h"] == 1.0
    assert cfg["solver"]["tol"] == 1e-10
    assert cfg["model"]["a"] == 0.3


def test_missing_required_block_listed():
    with pytest.raises(ConfigError) as info:
        validate({"model": {"kind": "nagumo"}}, "continue")
    assert any("continuation" in e for e in info.value.errors)


def test_all_violations_reported_not_first_failure():
    bad = {"model": {"kind": "mystery", "a": 2.0},
           "grid": {"h": -1.0},
           "solver": {"tol": -1e-10}}
    with pytest.raises(ConfigError) as info:
        validate(bad, "solve-wave")
    text = "\n".join(info.value.errors)
    assert "model.kind" in text
    assert "model.a" in text
    assert "grid.h" in text
    assert "solver.tol" in text


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError) as info:
        validate({"model": {"kind": "nagumo", "banana": 1}}, "equilibria")
    assert any("model.banana" in e for e in info.value.errors)


def test_config_hash_is_stable_and_order_free():
    a = validate({"model": {"kind": "nagumo", "a": 0.3}, "grid": {}},
                 "solve-wave")
    b = validate({"model": {"a": 0.3, "kind": "nagumo"}, "grid": {}},
                 "solve-wave")
    assert config_hash(a) == config_hash(b)
    c = validate({"model": {"kind": "nagumo", "a": 0.35}, "grid": {}},
                 "solve-wave")
    assert config_hash(a) != config_hash(c)


# --------------------------------------------------------------------------
# exit codes

def test_solve_wave_success(tmp_path, capsys):
    code = run("solve-wave", {"model": {"kind": "nagumo"}, "grid": {}},
               tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "c=" in out and "kernel_dim=1" in out
    assert (tmp_path / "solution.json").exists()
    assert (tmp_path / "profile.csv").exists()
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert abs(payload["c"] - 0.28) < 0.05
    assert payload["kernel_dim"] == 1
    assert payload["_meta"]["package"] == "latticefronts"


def test_missing_block_exits_4(tmp_path, capsys):
    code = run("solve-wave", {"model": {"kind": "nagumo"}}, tmp_path)
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_config"
    assert any("grid" in v for v in err["violations"])


def test_incommensurable_h_exits_4(tmp_path, capsys):
    code = run("solve-wave",
               {"model": {"kind": "nagumo"}, "grid": {"h": 0.3}}, tmp_path)
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert "0.3" in err["message"]


def test_gamma_degenerate_operator_exits_3(tmp_path, capsys):
    cfg = {"hyperbolic": {"operator": {"d_e": 0.5, "d_o": 0.5,
                                       "gamma1": 1.0, "gamma2": -0.5,
                                       "c": 1.0}}}
    code = run("check-hyperbolic", cfg, tmp_path)
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["verdict"]
    worst = min(report["entries"], key=lambda e: e["min_modulus"])
    assert worst["min_modulus"] <= 1e-8
    assert abs(worst["theta_at_min"]) <= 1e-4


OPERATOR = {"d_e": 0.05, "d_o": 0.05, "gamma1": 0.8, "gamma2": 0.7}


def test_check_hyperbolic_rejects_unknown_operator_key(tmp_path, capsys):
    cfg = {"hyperbolic": {"operator": dict(OPERATOR, gama1_plus=0.3, c=0.2)}}
    assert run("check-hyperbolic", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["violations"] == ["unknown field hyperbolic.operator.gama1_plus"]


def test_check_hyperbolic_reads_block_speed_with_operator(tmp_path, capsys):
    block = {"hyperbolic": {"c": 0.2, "operator": OPERATOR}}
    inner = {"hyperbolic": {"operator": dict(OPERATOR, c=0.2)}}
    assert run("check-hyperbolic", block, tmp_path / "block") == 0
    assert run("check-hyperbolic", inner, tmp_path / "inner") == 0
    reports = [json.loads((tmp_path / d / "report.json").read_text())
               for d in ("block", "inner")]
    assert reports[0]["entries"] == reports[1]["entries"]
    # Theta of the operator at c = 0.2; at c = 1 it would be 2.05
    assert abs(reports[0]["entries"][0]["Theta"] - 10.25) <= 1e-12


def test_check_hyperbolic_needs_exactly_one_speed(tmp_path, capsys):
    both = {"hyperbolic": {"c": 0.2, "operator": dict(OPERATOR, c=0.2)}}
    neither = {"hyperbolic": {"operator": OPERATOR}}
    missing = {"hyperbolic": {"operator": {"d_e": 0.05, "d_o": 0.05,
                                           "gamma2": 0.7, "c": 0.2}}}
    for cfg, violation in ((both, "hyperbolic.c"), (neither, "hyperbolic.c"),
                           (missing, "hyperbolic.operator.gamma1")):
        assert run("check-hyperbolic", cfg, tmp_path) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert len(err["violations"]) == 1 and violation in err["violations"][0]


def test_decoupled_four_site_exits_5(tmp_path, capsys):
    cfg = {"model": {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3},
           "grid": {}}
    code = run("solve-wave", cfg, tmp_path)
    assert code == 5
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["kernel_dim"] >= 2


# --------------------------------------------------------------------------
# other commands

def test_equilibria_command(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5, "period": 2}}
    assert run("equilibria", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "equilibria.json").read_text())
    assert len(payload["states"]) >= 5
    assert all(st["residual"] <= 1e-9 for st in payload["states"])
    assert payload["paths_tracked"] == 9 and payload["paths_lost"] == 0
    assert not any(st["degenerate"] for st in payload["states"])


def test_equilibria_command_period_four(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo", "d1": 0.0, "d2": 1.0, "a": 0.3,
                     "period": 4}}
    assert run("equilibria", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "equilibria.json").read_text())
    assert payload["period"] == 4
    assert len(payload["states"]) == 9
    assert payload["paths_tracked"] == 81 and payload["paths_lost"] == 0


def test_transform4_command(tmp_path, capsys):
    cfg = {"model": {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3}}
    assert run("transform4", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "model.json").read_text())
    # A1, A2, A3 with their reference parts, and the perturbation B2
    for part, shifts in ((payload, [-1.0, 0.0, 1.0]),
                         (payload["reference"], [-1.0, 0.0, 1.0]),
                         (payload["perturbation"], [0.0])):
        assert part["shifts"] == shifts
        assert np.shape(part["matrices"]) == (len(shifts), 4, 4)
    assert len(payload["cubics"]) == 4
    # the default pair is 0^4 -> 1^4, found exactly
    ends = payload["provenance"]
    assert ends["minus"] == [0.0, 0.0, 0.0, 0.0]
    assert ends["plus"] == [1.0, 1.0, 1.0, 1.0]


NAGUMO_CONTINUE = {"model": {"kind": "nagumo", "d1": 1.0, "a": 0.3}, "grid": {}}


def test_continue_in_model_parameter(tmp_path, capsys):
    cfg = dict(NAGUMO_CONTINUE,
               continuation={"parameter": "a", "target": 0.35})
    assert run("continue", cfg, tmp_path) == 0
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    assert lines[1] == "a,c,newton_iters,min_char_modulus,kernel_dim"
    steps = json.loads((tmp_path / "branch.json").read_text())["steps"]
    assert [s["a"] for s in steps] == [0.3, 0.35]
    assert abs(steps[0]["c"] - 0.28329) <= 1e-5
    assert abs(steps[1]["c"] - 0.21272) <= 1e-5
    assert all(s["kernel_dim"] == 1 and s["hyperbolic"] for s in steps)


@pytest.mark.parametrize("continuation, violation", [
    ({"parameter": "q", "target": 0.35}, "parameter = 'q' must be one of"),
    ({"parameter": "a"}, "continuation.target (with a parameter)"),
    ({"eps_to": None}, "continuation.eps_to is required")])
def test_continue_config_errors_exit_4(tmp_path, capsys, continuation, violation):
    cfg = dict(NAGUMO_CONTINUE, continuation=continuation)
    assert run("continue", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert violation in err["message"]
    # validate lists it with the other violations, before any solve
    cfg["grid"] = {"h": -1}
    assert run("continue", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert len(err["violations"]) == 2
    assert any(violation in v for v in err["violations"])
    assert any(v.startswith("grid.h = -1") for v in err["violations"])
    assert not (tmp_path / "branch.csv").exists()


# criterion 03's traveling two-site pair (0,0) -> (1,1), at eps = 0.05
TWO_SITE_FIXED_POINT = {
    "model": {"kind": "two_site", "d1": 1.0, "d2": -0.1, "a": 0.3, "eps": 0.05,
              "minus": [0.0, 0.0], "plus": [1.0, 1.0]},
    "grid": {}}


def test_fixed_point_command(tmp_path, capsys):
    names = ("history.csv", "state.json", "profile.csv")
    for run_dir in ("a", "b"):
        assert run("fixed-point", TWO_SITE_FIXED_POINT, tmp_path / run_dir) == 0
    state = json.loads((tmp_path / "a" / "state.json").read_text())
    assert state["contraction_ratio"] < 1.0
    assert abs(state["c"] - 0.14624) <= 1e-5
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_fixed_point_on_decoupled_four_site_exits_5(tmp_path, capsys):
    cfg = {"model": {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3},
           "grid": {}}
    assert run("fixed-point", cfg, tmp_path) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "kernel_obstruction"
    assert err["type"] == "KernelObstructionError"


def test_newton_budget_exhausted_exits_2(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo"}, "grid": {}, "solver": {"max_iter": 1}}
    assert run("solve-wave", cfg, tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "convergence_failure"
    assert err["type"] == "NewtonDivergenceError"
    assert not (tmp_path / "solution.json").exists()


def test_transform2_command(tmp_path, capsys):
    cfg = {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5}}
    assert run("transform2", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "model.json").read_text())
    # d_e and d_o, the first-neighbor weights A_-1[0, 1] and A_+1[1, 0]
    A_left, _, A_right = payload["reference"]["matrices"]
    assert abs(A_left[0][1] * A_right[1][0] - 0.05**2) <= 1e-12


@pytest.mark.parametrize("model, violation", [
    ({"minus_index": 0, "plus_index": 99}, "model.plus_index = 99 is out of range"),
    ({"minus_index": 99, "plus_index": 0}, "model.minus_index = 99 is out of range"),
    ({"minus_index": 0}, "model.minus_index and model.plus_index must be given together"),
    ({"plus_index": 2}, "model.minus_index and model.plus_index must be given together"),
    ({"minus": [0.0, 0.0]}, "model.minus and model.plus must be given together"),
    ({"plus": [1.0, 1.0]}, "model.minus and model.plus must be given together"),
    ({"minus_index": -1, "plus_index": 2},
     "model.minus_index = -1 must be a non-negative integer"),
    ({"minus_index": 0, "plus_index": 1.0},
     "model.plus_index = 1.0 must be a non-negative integer"),
    ({"minus": [0.1, 0.2], "plus": [1.0, 1.0]},
     "state [0.1, 0.2] not found among equilibria"),
    # at d1 = 1, a = 0.3 the period-2 states are the three homogeneous ones
    ({"d1": 1.0, "a": 0.3}, "no non-homogeneous equilibria to connect"),
])
def test_transform2_pair_selection_errors_exit_4(tmp_path, capsys, model, violation):
    cfg = {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5, **model}}
    assert run("transform2", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_config"
    assert any(v.startswith(violation) for v in err["violations"])
    assert not (tmp_path / "model.json").exists()


def test_transform2_indices_of_the_default_pair_write_the_default_model(tmp_path):
    model = {"kind": "two_site", "d1": -0.05, "a": 0.5}
    states = find_two_periodic_equilibria(model["d1"], model["a"])
    nontrivial = [i for i, st in enumerate(states) if max(st.values) - min(st.values) > 1e-9]
    written = []
    for given in (model, dict(model, minus_index=nontrivial[0], plus_index=nontrivial[-1])):
        out = tmp_path / f"run{len(written)}"
        assert run("transform2", {"model": given}, out) == 0
        payload = json.loads((out / "model.json").read_text())
        del payload["_meta"]
        written.append(payload)
    assert written[0] == written[1]


def test_transform2_index_error_names_the_equilibria_count(tmp_path, capsys):
    cfg = {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5,
                     "minus_index": 0, "plus_index": 99}}
    assert run("transform2", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["violations"] == [
        "model.plus_index = 99 is out of range: there are 9 equilibria"]


def test_tails_command_requires_speed(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo"}, "tails": {}}
    assert run("tails", cfg, tmp_path) == 4
    cfg["tails"]["c"] = 0.28
    assert run("tails", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "tails.json").read_text())
    assert payload["lambda0"] > 0.0
    assert payload["lambda1"] < 0.0


def test_sweep_command(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5},
           "sweep": {"parameter": "model.a", "values": [0.4, 0.5],
                     "command": "equilibria"}}
    assert run("sweep", cfg, tmp_path) == 0
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[1] == "index,value,exit_code"
    assert len(lines) == 4
    assert (tmp_path / "run_000" / "equilibria.json").exists()


# --------------------------------------------------------------------------
# main() plumbing

def test_main_with_config_file_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"model": {"kind": "nagumo", "a": 0.3}}))
    out = tmp_path / "out"
    code = main(["solve-wave", "--config", str(cfg_file),
                 "--output", str(out), "grid.L=30", "model.a=0.4"])
    assert code == 0
    payload = json.loads((out / "solution.json").read_text())
    # override wins over the file value: a = 0.4 slows the front
    assert payload["c"] < 0.2


# det Delta(0) of this operator is exactly 0 (min_modulus 0.000e+00)
SINGULAR_OPERATOR = {"d_e": 0.05, "d_o": 0.05, "gamma1": 0.0, "gamma2": 0.0,
                     "c": 0.3}


def test_singular_operator_is_not_hyperbolic(tmp_path, capsys):
    cfg = {"hyperbolic": {"operator": SINGULAR_OPERATOR}}
    assert run("check-hyperbolic", cfg, tmp_path) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert min(e["min_modulus"] for e in report["entries"]) == 0.0


@pytest.mark.parametrize("command, cfg, violation", [
    ("check-hyperbolic", {"hyperbolic": {"operator": SINGULAR_OPERATOR, "tol": -1}},
     "hyperbolic.tol = -1 must be positive"),
    ("continue", dict(NAGUMO_CONTINUE, continuation={"hyper_tol": -1}),
     "continuation.hyper_tol = -1 must be positive"),
    ("fixed-point", dict(TWO_SITE_FIXED_POINT, fixedpoint={"tol": 0.0}),
     "fixedpoint.tol = 0.0 must be positive")],
    ids=["hyperbolic.tol", "continuation.hyper_tol", "fixedpoint.tol"])
def test_nonpositive_tolerance_exits_4(tmp_path, capsys, command, cfg, violation):
    """A tolerance of 0 or below would certify a singular operator or stop
    no iteration; validate names the field before any computation."""
    assert run(command, cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_config"
    assert err["violations"] == [violation]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sim, field", [
    ({"M": 400.5}, "sim.M"), ({"stride": 2.5}, "sim.stride"),
    ({"M": True}, "sim.M"), ({"T": 0.001}, "sim.T"),
    ({"M": 60, "dt": 5e-324}, "sim.dt"), ({"dt": 1e-9}, "sim.dt")],
    ids=["M-fraction", "stride-fraction", "M-bool", "T-below-half-step",
         "dt-subnormal", "dt-snapshots-too-many"])
def test_simulate_config_errors_exit_4(tmp_path, capsys, sim, field):
    """M and stride are whole numbers, and T spans at least one and a
    finite number of RK4 steps (1 <= round(T / dt) < inf) whose snapshots
    fit the snapshot bound; otherwise validate names the field before any
    step runs."""
    cfg = {"model": {"kind": "nagumo"}, "sim": sim}
    assert run("simulate", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ConfigError"
    assert len(err["violations"]) == 1
    assert err["violations"][0].startswith(f"{field} = ")
    assert not (tmp_path / "trajectory.npy").exists()


@pytest.mark.parametrize("T, ok", [(999_998.0, True), (999_999.0, False),
                                   (1_000_000.0, False)])
def test_snapshot_bound_counts_every_snapshot(T, ok):
    """A run of round(T / dt) steps keeps the initial state, every stride-th
    step and the last step: with stride 2 and 100 sites, 999_998 steps keep
    500_000 snapshots, at the bound, and an odd last step one more."""
    from latticefronts.cli import _MAX_SNAPSHOT_VALUES
    assert _MAX_SNAPSHOT_VALUES == 50_000_000
    cfg = {"model": {"kind": "nagumo"}, "sim": {"M": 100, "stride": 2, "dt": 1.0, "T": T}}
    if ok:
        validate(cfg, "simulate")
    else:
        with pytest.raises(ConfigError, match="^sim.dt = 1.0 makes 50000100 snapshot"):
            validate(cfg, "simulate")


def test_main_bad_override_exits_4(tmp_path, capsys):
    assert main(["solve-wave", "not-a-path"]) == 4


@pytest.mark.parametrize("argv, needle", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["solve-wave", "--bogus-flag"], "unrecognized arguments: --bogus-flag")],
    ids=["unknown-command", "unknown-flag"])
def test_main_argument_errors_exit_4_with_json(capsys, argv, needle):
    """An argument error is a config error: exit 4 and one JSON object on
    stderr, not argparse's usage text and exit 2 (the convergence code)."""
    assert main(argv) == 4
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "invalid_config"
    assert len(payload["violations"]) == 1 and needle in payload["violations"][0]


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage: latticefronts" in capsys.readouterr().out


def test_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    cfg = {"model": {"kind": "nagumo"}, "grid": {"L": 30.0}}
    run("solve-wave", dict(cfg), tmp_path / "a")
    run("solve-wave", dict(cfg), tmp_path / "b")
    for name in ("solution.json", "profile.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


SMALL_SIM = {"model": {"kind": "nagumo"},
             "sim": {"M": 60, "T": 4.0, "stride": 3}}


def test_simulate_trajectory_matches_per_row_writer(tmp_path, capsys):
    """trajectory.npy is t and the sites of each snapshot of a direct
    integrate, bit for bit, in the bytes np.save gives that array."""
    assert run("simulate", SMALL_SIM, tmp_path) == 0
    sc = validate(SMALL_SIM, "simulate")["sim"]
    model = build_nagumo(1.0, 0.0, 0.3)
    init = front_state(sc["M"], sc["front_at"], width=sc["width"])
    traj = integrate(model, init, sc["dt"], sc["T"], stride=sc["stride"])
    want = np.column_stack([traj.times, traj.states])
    got = np.load(tmp_path / "trajectory.npy")
    # 40 steps: the last snapshot is not on a stride
    assert got.dtype == np.float64 and got.shape == (1 + 40 // 3 + 1, 61)
    assert got.tobytes() == want.tobytes()
    saved = io.BytesIO()
    np.save(saved, want)
    assert (tmp_path / "trajectory.npy").read_bytes() == saved.getvalue()


def per_value_profile_csv(xi, profile, h: str) -> bytes:
    """profile.csv written one value at a time through _g17."""
    header = "xi," + ",".join(f"u{i + 1}" for i in range(profile.shape[1]))
    lines = [f"# latticefronts {__version__} config={h}", header]
    lines.extend(",".join([_g17(x)] + [_g17(v) for v in row]) for x, row in zip(xi, profile))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("N", [1, 2, 4])
def test_profile_csv_is_the_per_value_text(tmp_path, N):
    """One %.17g template per row writes the bytes of _g17 per value: signed
    zeros, subnormals, +-1e300, negative and random values, on either side of
    the 256-row blocks the writer formats, and an empty profile."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
                -1.5, 0.1, 1.0, -7.0, 1e-17, 123456789.123456789]
    rng = np.random.default_rng(N)
    values = np.concatenate([np.array(specials * N),
                             rng.standard_normal(600 * N) * 10.0 ** rng.integers(-20, 20, 600 * N)])
    profile = values.reshape(-1, N)
    xi = np.concatenate([[-0.0, 5e-324, -1e300], rng.uniform(-40.0, 40.0, len(profile) - 3)])
    for rows in (len(profile), 257, 256, 1, 0):
        path = tmp_path / f"profile{rows}.csv"
        write_profile_csv(path, xi[:rows], profile[:rows], "abc")
        assert path.read_bytes() == per_value_profile_csv(xi[:rows], profile[:rows], "abc")


def old_trajectory_csv(path: Path, h: str) -> bytes:
    """trajectory.npy formatted as the text trajectory.csv it replaced: meta
    line, header, then one line t,site,value per site of each snapshot."""
    lines = [f"# latticefronts {__version__} config={h}", "t,site,value"]
    for row in np.load(path):
        t = _g17(row[0])
        lines.extend(f"{t},{n},{_g17(v)}" for n, v in enumerate(row[1:]))
    return ("\n".join(lines) + "\n").encode()


def simulated_speed(model, sim):
    cfg = validate({"model": model, "sim": sim}, "simulate")
    sc = cfg["sim"]
    init = front_state(sc["M"], sc["front_at"], width=sc["width"])
    traj = integrate(build_lattice(cfg["model"]), init, sc["dt"], sc["T"],
                     stride=sc["stride"])
    return measure_speed(traj, level=sc["level"]).c_measured


@pytest.mark.parametrize("model, sim", [
    ({"kind": "nagumo", "a": 0.25}, {}), ({"kind": "nagumo", "a": 0.4}, {}),
    ({"kind": "infinite_range", "a": 0.3, "eps": 0.1}, {"T": 15.0})],
    ids=["nagumo-a0.25", "nagumo-a0.4", "infinite-range"])
def test_default_step_measures_the_speed_of_a_five_times_smaller_step(model, sim):
    """The default step 0.1 with stride 2 records at the spacing 0.2 of step
    0.02 with stride 10, and the measured speed moves by less than 1e-6."""
    assert SCHEMA["sim"]["dt"][0] * SCHEMA["sim"]["stride"][0] == pytest.approx(0.2)
    fine = simulated_speed(model, dict(sim, dt=0.02, stride=10))
    assert abs(simulated_speed(model, sim) - fine) <= 1e-6


@pytest.mark.parametrize("cfg, h, digests", [
    ({"model": {"kind": "nagumo", "a": 0.35},
      "sim": {"M": 200, "T": 40.0, "dt": 0.02, "stride": 10}}, "9841987257573767",
     ("5490302fb343b0e9", "26419b8f082493a2", "0ce27e98f684d939")),
    ({"model": {"kind": "infinite_range", "a": 0.3, "eps": 0.1},
      "sim": {"M": 200, "T": 15.0, "dt": 0.02, "stride": 10}}, "4519e8cd6149b506",
     ("ca2a05ec48fed932", "3327960c6aec80b7", "ed3d67ccd8964844"))],
    ids=["nagumo", "infinite-range"])
def test_explicit_step_and_stride_keep_their_artifacts(tmp_path, capsys, cfg, h, digests):
    """A config that sets sim.dt 0.02 and sim.stride 10 keeps the hash and the
    trajectory.csv, profile.csv and speed.json bytes it had when those were
    the defaults (SHA-256 prefixes pinned then); the trajectory is rebuilt as
    text from trajectory.npy."""
    assert config_hash(validate(json.loads(json.dumps(cfg)), "simulate")) == h
    assert run("simulate", cfg, tmp_path) == 0
    texts = [old_trajectory_csv(tmp_path / "trajectory.npy", h),
             *((tmp_path / name).read_bytes() for name in ("profile.csv", "speed.json"))]
    assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in texts) == digests


def test_simulate_far_right_front_writes_nothing_to_stderr(tmp_path):
    """front_at 0.9 of 1600 sites puts exp past its float range at the left
    end; the run exits 0 with an empty stderr, warnings shown."""
    src = str(Path(latticefronts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run(
        [sys.executable, "-m", "latticefronts.cli", "simulate", "--output", str(tmp_path),
         "model.kind=nagumo", "sim.M=1600", "sim.front_at=0.9", "sim.T=20"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "speed.json").exists()


def test_simulate_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    assert run("simulate", dict(SMALL_SIM), tmp_path / "a") == 0
    assert run("simulate", dict(SMALL_SIM), tmp_path / "b") == 0
    for name in ("trajectory.npy", "profile.csv", "speed.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_simulate_runs_without_fork(tmp_path, capsys, monkeypatch):
    """simulate does not fork: with os.fork raising, it exits 0 and writes
    all three artifacts."""
    def no_fork():
        raise OSError("fork is unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    assert run("simulate", SMALL_SIM, tmp_path) == 0
    assert sorted(os.listdir(tmp_path)) == ["profile.csv", "speed.json", "trajectory.npy"]


@pytest.mark.parametrize("sim, code", [({"front_at": 3.0}, 2), ({"dt": 0.5}, 4)],
                         ids=["no-front-in-window", "dt-above-guard"])
def test_simulate_failure_publishes_nothing(tmp_path, capsys, sim, code):
    """Runs that fail after the lattice is built write no artifact: the front
    starts off the lattice (exit 2), dt exceeds the stability guard (exit 4)."""
    cfg = {"model": {"kind": "nagumo"}, "sim": dict(SMALL_SIM["sim"], **sim)}
    assert run("simulate", cfg, tmp_path) == code
    assert os.listdir(tmp_path) == []


def test_simulate_onto_a_trajectory_directory_raises(tmp_path, capsys):
    """The trajectory cannot be written over a directory: IsADirectoryError
    escapes as from a direct write, before any other artifact is written."""
    (tmp_path / "trajectory.npy").mkdir()
    with pytest.raises(IsADirectoryError):
        run("simulate", SMALL_SIM, tmp_path)
    assert os.listdir(tmp_path) == ["trajectory.npy"]
    assert os.listdir(tmp_path / "trajectory.npy") == []


# --------------------------------------------------------------------------
# the config contract: one schema, every violation exits 4

@pytest.mark.parametrize("command, cfg, path", [
    ("equilibria", {"model": {"kind": "nagumo", "period": 3}}, "model.period"),
    ("equilibria", {"model": {"kind": "nagumo", "period": 2.5}}, "model.period"),
    ("equilibria", {"model": {"kind": "nagumo", "d1": math.nan}}, "model.d1"),
    ("solve-wave", {"model": {"kind": "nagumo"}, "grid": {"h": True}}, "grid.h"),
    ("check-hyperbolic", {"hyperbolic": {"operator": SINGULAR_OPERATOR, "tol": True}},
     "hyperbolic.tol"),
    ("continue", dict(NAGUMO_CONTINUE, continuation={"stop_on_pinning": "no"}),
     "continuation.stop_on_pinning"),
    ("tails", {"model": {"kind": "nagumo"}, "tails": {"c": math.nan}}, "tails.c"),
    ("simulate", {"model": {"kind": "nagumo"}, "sim": {"front_at": math.nan}}, "sim.front_at")],
    ids=["period-3", "period-2.5", "d1-nan", "h-true", "tol-true", "stop-on-pinning-no",
         "tails-c-nan", "front-at-nan"])
def test_ill_typed_value_exits_4_naming_its_field(tmp_path, capsys, command, cfg, path):
    """Each of these would run as something else if it were accepted: period 3
    as the period-2 search, h = true as h = 1, and so on.  The invalid value
    leaves its default to the cross-field rules, so a missing tails.c is
    reported as well."""
    assert run(command, cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_config"
    assert err["violations"][0].startswith(f"{path} = ")
    assert all(v.startswith(path) for v in err["violations"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("top, overrides", [
    ([1, 2], []), ([1, 2], ["grid.h=1"]), ({}, ["grid=5", "grid.h=1"])],
    ids=["list-config", "list-config-override", "override-through-number"])
def test_main_rejects_a_config_that_is_not_an_object(tmp_path, capsys, top, overrides):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(top))
    out = tmp_path / "out"
    argv = ["solve-wave", "--config", str(cfg_file), "--output", str(out), *overrides]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_config"
    assert not out.exists()


@pytest.mark.parametrize("sweep, violation", [
    ({"parameter": "model.a.x", "values": [0.4]}, "sweep.parameter = 'model.a.x'"),
    ({"parameter": "model.a", "values": "ab"}, "sweep.values = 'ab'"),
    ({"parameter": "model.a", "values": []}, "sweep.values is required")],
    ids=["parameter-not-a-field", "values-a-string", "values-empty"])
def test_sweep_config_errors_exit_4(tmp_path, capsys, sweep, violation):
    cfg = {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5},
           "sweep": dict(sweep, command="equilibria")}
    assert run("sweep", cfg, tmp_path) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert [v for v in err["violations"] if v.startswith(violation)]
    assert not any(tmp_path.iterdir())


# one valid config per command that the property below perturbs; each runs in
# a few milliseconds
CHEAP_BASES = {
    "equilibria": {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5}},
    "transform2": {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5}},
    "transform4": {"model": {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3}},
    "check-hyperbolic": {"model": {"kind": "nagumo"}, "hyperbolic": {"c": 0.3}},
    "tails": {"model": {"kind": "nagumo"}, "tails": {"c": 0.28}},
}
FIELD_PATHS = ([f"{block}.{field}" for block, fields in SCHEMA.items() for field in fields]
               + [f"hyperbolic.operator.{key}" for key in OPERATOR_SCHEMA])
BAD_VALUES = ["x", "", None, [1], {}, True, math.nan, math.inf, -math.inf, -1, 0]


def _set_path(cfg: dict, path: str, value):
    """Set a field of the config; an operator key gets a valid operator to go into."""
    block, field, *key = path.split(".")
    node = cfg.setdefault(block, {})
    if key:
        if not isinstance(node.get(field), dict):
            node[field] = dict(OPERATOR)
        node, field = node[field], key[0]
    node[field] = value


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(CHEAP_BASES)),
       changes=st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(BAD_VALUES)),
                        min_size=1, max_size=2))
def test_every_config_exits_with_a_contract_code(command, changes):
    """Whatever one or two fields are set to, validate accepts the config or
    raises ConfigError, and run returns 0/2/3/4/5 without raising. A nonzero
    exit writes one JSON object to stderr, except a hyperbolicity verdict
    (exit 3), which writes its report instead."""
    cfg = json.loads(json.dumps(CHEAP_BASES[command]))
    for path, value in changes:
        _set_path(cfg, path, value)
    try:
        validate(json.loads(json.dumps(cfg)), command)
    except ConfigError:
        pass
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(command, cfg, d)
        verdict = code == 3 and (Path(d) / "report.json").exists()
    assert code in (0, 2, 3, 4, 5)
    lines = err.getvalue().splitlines()
    if code == 0 or verdict:
        assert lines == []
    else:
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


XM, XP = 0.5 * (1.0 - math.sqrt(1.8)), 0.5 * (1.0 + math.sqrt(1.8))


@pytest.mark.parametrize("command, cfg, digest", [
    ("equilibria", {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5, "period": 4}},
     "bb1be9531f979b59"),
    ("transform2", {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5,
                              "minus_index": 2, "plus_index": 6}}, "e0c6c21ba7421a0e"),
    ("transform4", {"model": {"kind": "four_site", "d1": 0, "d2": 1, "a": 0.3}},
     "8adfc256809602e1"),
    ("check-hyperbolic", {"hyperbolic": {"c": 0.2, "operator": dict(OPERATOR, gamma1_plus=0.6)}},
     "311b2d7a44579504"),
    ("solve-wave", {"model": {"kind": "nagumo", "a": 0.4}, "grid": {"L": 30, "h": 0.5},
                    "solver": {"c0": 0.2}}, "7c434821a131e089"),
    ("continue", {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5, "d2": 0.01,
                            "minus": [XM, XP], "plus": [XP, XM]},
                  "grid": {}, "solver": {"c0": 0}, "continuation": {"eps_to": 1}},
     "f950cf3eaa36d0ef"),
    ("fixed-point", {"model": {"kind": "two_site", "d1": 1.0, "d2": -0.1, "a": 0.3,
                               "eps": 0.05, "minus": [0, 0], "plus": [1, 1]}, "grid": {}},
     "0985ec3bd482a502"),
    ("simulate", {"model": {"kind": "infinite_range", "a": 0.3, "eps": 0.1},
                  "sim": {"M": 60, "T": 4, "stride": 3}}, "67fdaeaf5ef8f0b0"),
    ("tails", {"model": {"kind": "nagumo", "a": 0.25}, "tails": {"c": 0.28}},
     "24978ea585ee4396"),
    ("sweep", {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5},
               "sweep": {"parameter": "model.a", "values": [0.4, 0.5],
                         "command": "equilibria"},
               "output": {"dir": "sweep-out"}}, "11bba964512a912e")],
    ids=["equilibria", "transform2", "transform4", "check-hyperbolic", "solve-wave",
         "continue", "fixed-point", "simulate", "tails", "sweep"])
def test_config_hash_is_pinned(command, cfg, digest):
    """The normalized config keeps every value as given (ints in float fields
    included) and fills today's defaults, so artifacts stamped with its hash
    rerun byte-identical; a drifting default or a converted value moves it."""
    assert config_hash(validate(cfg, command)) == digest


def _readme_table(header: str) -> list[list[str]]:
    """Rows of the README table under ``header``, its cells without backticks."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "") for cell in line.strip("|").split(" | ")])
    return rows


def test_readme_config_reference_matches_the_schema():
    want = [[f"{block}.{field}", json.dumps(default), kind.what]
            for block, fields in SCHEMA.items() for field, (default, kind) in fields.items()]
    want += [[f"hyperbolic.operator.{key}",
              "required" if default is ... else json.dumps(default), kind.what]
             for key, (default, kind) in OPERATOR_SCHEMA.items()]
    assert _readme_table("| path | default | accepted values |") == want


def test_readme_command_table_matches_the_commands():
    want = [[command, ", ".join(blocks)] for command, (_, blocks) in COMMANDS.items()]
    assert _readme_table("| command | required blocks |") == want
