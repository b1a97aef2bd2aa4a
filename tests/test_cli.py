"""Command-line orchestration: validation, dispatch, artifacts, exit codes."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticefronts import __version__
from latticefronts.cli import (
    COMMANDS,
    OPERATOR as OPERATOR_SCHEMA,
    SCHEMA,
    ConfigError,
    config_hash,
    main,
    run,
    validate,
)
from latticefronts.model import build_nagumo, find_two_periodic_equilibria
from latticefronts.sim import front_state, integrate


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
    assert not (tmp_path / "trajectory.csv").exists()


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
    assert run("simulate", SMALL_SIM, tmp_path) == 0
    cfg = validate(SMALL_SIM, "simulate")
    sc = cfg["sim"]
    model = build_nagumo(1.0, 0.0, 0.3)
    init = front_state(sc["M"], sc["front_at"], width=sc["width"])
    traj = integrate(model, init, sc["dt"], sc["T"], stride=sc["stride"])
    # 200 steps: the last snapshot is not on a stride
    assert len(traj.times) == 1 + 200 // 3 + 1
    lines = [f"# latticefronts {__version__} config={config_hash(cfg)}",
             "t,site,value"]
    for t, snap in zip(traj.times, traj.states):
        lines.extend(f"{float(t):.17g},{n},{float(v):.17g}"
                     for n, v in enumerate(snap))
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "trajectory.csv").read_bytes() == want


def test_simulate_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    assert run("simulate", dict(SMALL_SIM), tmp_path / "a") == 0
    assert run("simulate", dict(SMALL_SIM), tmp_path / "b") == 0
    for name in ("trajectory.csv", "profile.csv", "speed.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sim, code", [({"front_at": 3.0}, 2), ({"dt": 0.5}, 4)],
                         ids=["no-front-in-window", "dt-above-guard"])
def test_simulate_failure_publishes_nothing_and_reaps_the_writer(tmp_path, capsys,
                                                                 sim, code):
    """Runs that fail after the trajectory writer is forked: the front starts
    off the lattice (exit 2), dt exceeds the stability guard (exit 4)."""
    cfg = {"model": {"kind": "nagumo"}, "sim": dict(SMALL_SIM["sim"], **sim)}
    assert run("simulate", cfg, tmp_path) == code
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


def test_simulate_onto_a_trajectory_directory_raises(tmp_path, capsys):
    """The finished trajectory cannot replace a directory: IsADirectoryError
    escapes as from a direct write, and the temporary file is gone."""
    (tmp_path / "trajectory.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        run("simulate", SMALL_SIM, tmp_path)
    assert os.listdir(tmp_path) == ["trajectory.csv"]
    assert os.listdir(tmp_path / "trajectory.csv") == []
    assert_no_child_left()


@pytest.mark.parametrize("drain", [True, False], ids=["after-every-snapshot", "at-once"])
def test_failing_trajectory_writer_raises_oserror_in_the_parent(tmp_path, capsys,
                                                                monkeypatch, drain):
    """A writer that fails exits in its own process, after reading every
    snapshot (the parent learns of it from its status) or before reading any
    (the parent also finds the pipe broken)."""
    pid = os.getpid()

    def failing_blocks(source, sites):
        if drain:
            source.read()
        raise RuntimeError("formatting failed")
        yield

    monkeypatch.setattr("latticefronts.cli._snapshot_blocks", failing_blocks)
    cfg = {"model": {"kind": "nagumo"}, "sim": dict(SMALL_SIM["sim"], M=300)}
    try:
        with pytest.raises(OSError, match="trajectory.csv exited with status 1"):
            run("simulate", cfg, tmp_path)
    finally:
        if os.getpid() != pid:          # an escaped writer must not go on testing
            os._exit(99)
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


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
     "79cb1e4bf8ca77b7"),
    ("transform2", {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5,
                              "minus_index": 2, "plus_index": 6}}, "67af7b002f632607"),
    ("transform4", {"model": {"kind": "four_site", "d1": 0, "d2": 1, "a": 0.3}},
     "d1bd755ae522603f"),
    ("check-hyperbolic", {"hyperbolic": {"c": 0.2, "operator": dict(OPERATOR, gamma1_plus=0.6)}},
     "9081ef6971146df6"),
    ("solve-wave", {"model": {"kind": "nagumo", "a": 0.4}, "grid": {"L": 30, "h": 0.5},
                    "solver": {"c0": 0.2}}, "4fd44818faf44a56"),
    ("continue", {"model": {"kind": "two_site", "d1": -0.05, "a": 0.5, "d2": 0.01,
                            "minus": [XM, XP], "plus": [XP, XM]},
                  "grid": {}, "solver": {"c0": 0}, "continuation": {"eps_to": 1}},
     "f8a55faf44a8e7c5"),
    ("fixed-point", {"model": {"kind": "two_site", "d1": 1.0, "d2": -0.1, "a": 0.3,
                               "eps": 0.05, "minus": [0, 0], "plus": [1, 1]}, "grid": {}},
     "0ac6c962c1dae43c"),
    ("simulate", {"model": {"kind": "infinite_range", "a": 0.3, "eps": 0.1},
                  "sim": {"M": 60, "T": 4, "stride": 3}}, "026c20431620072d"),
    ("tails", {"model": {"kind": "nagumo", "a": 0.25}, "tails": {"c": 0.28}},
     "1df2fc62ae4cf733"),
    ("sweep", {"model": {"kind": "nagumo", "d1": -0.05, "a": 0.5},
               "sweep": {"parameter": "model.a", "values": [0.4, 0.5],
                         "command": "equilibria"},
               "output": {"dir": "sweep-out"}}, "64820d4a845f3ced")])
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
