"""Command-line orchestration.

Single JSON config file plus dotted-path overrides; every command writes
deterministic CSV/JSON artifacts stamped with the config hash (simulate also
writes trajectory.npy, which carries no stamp).  Exit codes: 0 success,
2 convergence failure, 3 hyperbolicity violation, 4 invalid config,
5 kernel-dimension obstruction.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bvp import (DomainTooSmallError, NewtonDivergenceError, SingularSystemError,
                  WaveProblem, epsilon_scaled_problem, infinite_range_problem,
                  initial_guess, kernel_vectors, make_grid, nagumo_problem,
                  newton_solve, periodic_problem)
from .continuation import ContinuationOptions, continue_in_parameter
from .fixedpoint import (ContractionFailureError, KernelObstructionError,
                         StepRejectedError, iterate, make_context)
from .mfde import asymptotic_hyperbolicity, two_site_operator
from .model import (SPLIT_BONDS, PeriodicSystem, build_infinite_range,
                    build_nagumo, find_four_periodic_equilibria,
                    find_two_periodic_equilibria, periodic_transform)
from .sim import (BlowUpError, NoFrontError, check_monotonicity, extract_profile,
                  front_state, integrate, measure_speed)
from .tails import (NoRealRootError, TailFitError, periodic_decay_rate,
                    tail_report_constant)

__all__ = ["main", "run", "validate", "ConfigError"]

EXIT_OK = 0
EXIT_CONVERGENCE = 2
EXIT_HYPERBOLICITY = 3
EXIT_CONFIG = 4
EXIT_KERNEL = 5

# most site values a simulate run's snapshot array may hold (sim.M per
# snapshot): 400 MB of float64, and as much again in trajectory.npy
_MAX_SNAPSHOT_VALUES = 50_000_000
# rows of profile.csv whose values exist as Python floats at one time
_PROFILE_BLOCK_ROWS = 256


class Kind(NamedTuple):
    """The values a config field accepts: ``test`` tells whether it accepts
    one, and ``what`` names them in a violation."""
    what: str
    test: Callable[[object], bool]

    def or_null(self) -> Kind:
        return Kind(f"{self.what} or null", lambda v: v is None or self.test(v))


def _one_of(*options) -> Kind:
    return Kind(f"one of {options}",
                lambda v: any(type(v) is type(o) and v == o for o in options))


NUMBER = Kind("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
POSITIVE = Kind("positive", lambda v: NUMBER.test(v) and v > 0)
COUNT = Kind("a positive integer", lambda v: type(v) is int and v >= 1)
INDEX = Kind("a non-negative integer", lambda v: type(v) is int and v >= 0)
BOOL = Kind("a bool", lambda v: type(v) is bool)
STRING = Kind("a string", lambda v: type(v) is str)
NUMBERS = Kind("a list of finite numbers",
               lambda v: type(v) is list and all(map(NUMBER.test, v)))
OBJECT = Kind("an object", lambda v: type(v) is dict)


class ConfigError(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _checked(path: str, schema: dict, given: dict, errors: list) -> dict:
    """The schema's defaults, each replaced by the value ``given`` for it when
    that value is valid; unknown, missing and invalid ones go to ``errors``."""
    errors += [f"unknown field {path}.{k}" for k in given if k not in schema]
    filled = {}
    for field, (default, kind) in schema.items():
        value = given.get(field, default)
        if not kind.test(value):
            errors.append(f"{path}.{field} is required" if value is ... else
                          f"{path}.{field} = {value!r} must be {kind.what}")
            value = default
        filled[field] = value
    return filled


def validate(config: dict, command: str):
    """Normalized config with defaults filled, or the full list of violations.

    A valid value is kept as given (an int in a float field stays an int, so
    the config hash does not move); an invalid one is listed and leaves its
    default in place for the cross-field rules."""
    if not isinstance(config, dict):
        raise ConfigError([f"config = {config!r} must be an object"])
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}"])
    errors = [f"missing config block {block!r} required by {command}"
              for block in COMMANDS[command][1] if block not in config]
    blocks = _checked("config", {key: ({}, OBJECT) for key in SCHEMA}, config, errors)
    cfg = copy.deepcopy({key: _checked(key, SCHEMA[key], blocks[key], errors)
                         for key in SCHEMA})

    m, sim, hyp, cont = (cfg[k] for k in ("model", "sim", "hyperbolic", "continuation"))
    if m["kind"] != "infinite_range" and not 0.0 < m["a"] < 1.0:
        errors.append(f"model.a = {m['a']} outside (0, 1)")
    for a, b in (("minus_index", "plus_index"), ("minus", "plus")):
        if (m[a] is None) != (m[b] is None):
            errors.append(f"model.{a} and model.{b} must be given together")
    steps = sim["T"] / sim["dt"]            # the run takes round(steps) RK4 steps
    if steps <= 0.5:
        errors.append(f"sim.T = {sim['T']} makes no RK4 step of sim.dt = {sim['dt']}")
    elif steps == math.inf:
        errors.append(f"sim.dt = {sim['dt']} makes no finite number of RK4 steps "
                      f"in sim.T = {sim['T']}")
    else:
        # the initial state, every stride-th step and the last one
        values = (1 - (-round(steps) // sim["stride"])) * sim["M"]
        if values > _MAX_SNAPSHOT_VALUES:
            errors.append(f"sim.dt = {sim['dt']} makes {values} snapshot values in "
                          f"sim.T = {sim['T']} (sim.stride = {sim['stride']}, sim.M = "
                          f"{sim['M']}); at most {_MAX_SNAPSHOT_VALUES} are kept")
    op = None if hyp["operator"] is None else _checked(
        "hyperbolic.operator", OPERATOR, hyp["operator"], errors)
    speeds = [hyp["c"]] if op is None else [hyp["c"], op["c"]]
    if command == "check-hyperbolic" and sum(c is not None for c in speeds) != 1:
        errors.append("give the speed as exactly one of hyperbolic.operator.c and hyperbolic.c"
                      if op else "hyperbolic.c is required when no explicit operator is given")
    if command == "continue" and (
            cont["target"] if cont["parameter"] else cont["eps_to"]) is None:
        errors.append("continuation.target (with a parameter) or "
                      "continuation.eps_to is required")
    if command == "tails" and not cfg["tails"]["c"]:
        errors.append("tails.c must be a nonzero speed")
    if command == "sweep":
        sw = cfg["sweep"]
        block, _, field = (sw["parameter"] or "").partition(".")
        if field not in SCHEMA.get(block, {}):
            errors.append(f"sweep.parameter = {sw['parameter']!r} must name a block.field")
        errors += [f"sweep.{k} is required" for k in ("values", "command") if not sw[k]]
    if errors:
        raise ConfigError(errors)
    return cfg


def config_hash(normalized: dict) -> str:
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _meta_line(h: str) -> str:
    return f"# latticefronts {__version__} config={h}"


def write_csv(path: Path, header: str, rows, h: str):
    """Meta line, header, then each item of ``rows`` as one line."""
    with open(path, "w") as f:
        f.write(f"{_meta_line(h)}\n{header}\n")
        for row in rows:
            f.write(row)
            f.write("\n")


def write_json(path: Path, obj: dict, h: str):
    obj = dict(obj)
    obj["_meta"] = {"package": "latticefronts", "version": __version__,
                    "config_hash": h}
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_profile_csv(path: Path, xi, profile, h: str):
    """profile.csv: xi and the N components of each row as %.17g fields, the
    text _g17 gives each value."""
    N = profile.shape[1]
    header = "xi," + ",".join(f"u{i + 1}" for i in range(N))
    template = ",".join(["%.17g"] * (1 + N))
    B = _PROFILE_BLOCK_ROWS
    blocks = (zip(xi[i:i + B].tolist(), *profile[i:i + B].T.tolist())
              for i in range(0, len(xi), B))
    write_csv(path, header, (template % row for block in blocks for row in block), h)


# ---------------------------------------------------------------------------
# model construction

def _select_pair(states, m):
    nontrivial = [st for st in states
                  if max(st.values) - min(st.values) > 1e-9]
    if m["minus"] is not None:              # validate requires plus too
        def nearest(target):
            arr = np.asarray(target, dtype=float)
            best = min(states, key=lambda st: np.max(np.abs(st.as_array() - arr)))
            if np.max(np.abs(best.as_array() - arr)) > 1e-6:
                raise ConfigError([f"state {target} not found among equilibria"])
            return best
        return nearest(m["minus"]), nearest(m["plus"])
    if m["minus_index"] is not None:        # validate requires plus_index too
        errors = [f"model.{k} = {m[k]} is out of range: there are {len(states)} equilibria"
                  for k in ("minus_index", "plus_index") if m[k] >= len(states)]
        if errors:
            raise ConfigError(errors)
        return states[m["minus_index"]], states[m["plus_index"]]
    if not nontrivial:
        raise ConfigError(["no non-homogeneous equilibria to connect; give "
                           "model.minus/model.plus explicitly"])
    return nontrivial[0], nontrivial[-1]


def _equilibria(m: dict, period: int):
    if period == 4:
        return find_four_periodic_equilibria(m["d1"], m["d2"], m["a"])
    return find_two_periodic_equilibria(m["d1"], m["a"])


def _periodic_system(m: dict, period: int) -> PeriodicSystem:
    """Period-2 or period-4 transform of the selected pair; by default the
    outermost non-homogeneous pair for period 2 and 0^4 -> 1^4 for period 4."""
    states = _equilibria(m, period)
    if period == 4 and m["minus"] is None and m["minus_index"] is None:
        m = dict(m, minus=[0.0] * 4, plus=[1.0] * 4)
    minus, plus = _select_pair(states, m)
    return periodic_transform(m["d1"], m["d2"], m["a"], minus, plus, SPLIT_BONDS[period])


def build_problem(m: dict) -> WaveProblem:
    kind = m["kind"]
    if kind == "nagumo":
        return nagumo_problem(m["d1"], m["d2"], m["a"])
    if kind == "eps_scaled":
        return epsilon_scaled_problem(m["d1"], m["d2"], m["a"], m["eps"])
    if kind in ("two_site", "four_site"):
        period = 2 if kind == "two_site" else 4
        return periodic_problem(_periodic_system(m, period), m["eps"])
    if kind == "infinite_range":
        irm = build_infinite_range(m["a"], m["q"], m["scale"], m["k0"], m["k_num"])
        return infinite_range_problem(irm, eps=m["eps"])
    raise ConfigError([f"unsupported model.kind {kind!r}"])


def build_lattice(m: dict):
    if m["kind"] == "nagumo":
        return build_nagumo(m["d1"], m["d2"], m["a"])
    if m["kind"] == "infinite_range":
        irm = build_infinite_range(m["a"], m["q"], m["scale"], m["k0"], m["k_num"])
        return irm.full_model(m["eps"])
    raise ConfigError([f"model.kind {m['kind']!r} has no direct lattice form; "
                       "use nagumo or infinite_range for simulation"])


def _solve(cfg, problem: WaveProblem):
    g, s = cfg["grid"], cfg["solver"]
    grid = make_grid(g["L"], g["h"], problem.all_shifts)
    guess = initial_guess(grid, s["guess_width"], problem.dimension)
    sol = newton_solve(problem, grid, guess, s["c0"], tol=s["tol"],
                       max_iter=s["max_iter"])
    return grid, sol


# ---------------------------------------------------------------------------
# commands

def cmd_equilibria(cfg, out, h):
    m = cfg["model"]
    states = _equilibria(m, m["period"])
    write_json(out / "equilibria.json", {
        "period": m["period"], "paths_tracked": states.paths_tracked,
        "paths_lost": states.paths_lost,
        "states": [{"values": list(st.values), "residual": st.residual,
                    "degenerate": st.degenerate} for st in states]}, h)
    print(f"found {len(states)} periodic equilibria; "
          f"{states.paths_lost} of {states.paths_tracked} paths lost")
    return EXIT_OK


def _coupling_json(shifts, matrices) -> dict:
    return {"shifts": list(shifts), "matrices": [A.tolist() for A in matrices]}


def cmd_transform(period, cfg, out, h):
    """transform2 and transform4: the period-2 or period-4 system as its
    eps = 1 coupling, its reference and perturbation parts, and its cubics."""
    ps = _periodic_system(cfg["model"], period)
    write_json(out / "model.json", {
        **_coupling_json(*periodic_problem(ps, 1.0).effective_coupling()),
        "reference": _coupling_json(ps.shifts, ps.matrices),
        "perturbation": _coupling_json(ps.pert_shifts, ps.pert_matrices),
        "cubics": [{"k": c.k, "a": c.a} for c in ps.cubics],
        "provenance": {"minus": list(ps.minus.values),
                       "plus": list(ps.plus.values)}}, h)
    print(f"period-{period} transform written")
    return EXIT_OK


def cmd_check_hyperbolic(cfg, out, h):
    hc = cfg["hyperbolic"]
    if hc["operator"] is not None:
        o = _checked("hyperbolic.operator", OPERATOR, hc["operator"], [])
        op = two_site_operator(o["d_e"], o["d_o"], o["d2"], o["eps"],
                               (o["gamma1"], o["gamma2"]),
                               (o["gamma1"] if o["gamma1_plus"] is None else o["gamma1_plus"],
                                o["gamma2"] if o["gamma2_plus"] is None else o["gamma2_plus"]),
                               hc["c"] if o["c"] is None else o["c"])
    else:
        op = build_problem(cfg["model"]).operator(hc["c"])
    report = asymptotic_hyperbolicity(op, tol=hc["tol"])
    worst = report.worst_entry()
    write_json(out / "report.json", report.to_json(), h)
    print(f"hyperbolic={report.verdict} min_modulus={report.min_modulus:.3e} "
          f"theta={worst.theta_at_min:.6g}")
    return EXIT_OK if report.verdict else EXIT_HYPERBOLICITY


def cmd_solve_wave(cfg, out, h):
    problem = build_problem(cfg["model"])
    grid, sol = _solve(cfg, problem)
    kd = kernel_vectors(problem, grid, sol)
    payload = sol.to_json()
    payload["kernel_dim"] = kd.kernel_dim
    payload["smallest_singular_values"] = [float(v) for v in
                                           kd.smallest_singular_values[2::-1]]
    write_json(out / "solution.json", payload, h)
    write_profile_csv(out / "profile.csv", grid.xi, sol.profile, h)
    print(f"c={sol.c:.10g} residual={sol.residual_norm:.3e} "
          f"iters={sol.newton_iters} kernel_dim={kd.kernel_dim}")
    if kd.kernel_dim >= 2:
        return EXIT_KERNEL
    return EXIT_OK


STOP_EXIT = {"reached_target": EXIT_OK, "hyperbolicity_lost": EXIT_HYPERBOLICITY,
             "kernel_dimension_change": EXIT_KERNEL,
             "step_underflow": EXIT_CONVERGENCE,
             "pinning_suspected": EXIT_CONVERGENCE}


def cmd_continue(cfg, out, h):
    c = cfg["continuation"]
    problem = build_problem(cfg["model"])
    grid, ref = _solve(cfg, problem)
    opts = ContinuationOptions(step0=c["step0"], step_min=c["step_min"],
                               grow=c["grow"], tol=cfg["solver"]["tol"],
                               max_iter=cfg["solver"]["max_iter"],
                               hyper_tol=c["hyper_tol"],
                               stop_on_pinning=c["stop_on_pinning"])
    name = c["parameter"] or "eps"
    target = c["target"] if c["parameter"] else c["eps_to"]
    if name == "eps":
        problem_of, v0 = problem.with_eps, problem.eps
    else:
        def problem_of(v):
            return build_problem(dict(cfg["model"], **{name: v}))
        v0 = cfg["model"][name]
    branch = continue_in_parameter(name, problem_of, v0, target, grid, ref, opts)
    lines = branch.csv_lines()
    write_csv(out / "branch.csv", lines[0], lines[1:], h)
    write_json(out / "branch.json", branch.to_json(), h)
    write_profile_csv(out / "profile.csv", grid.xi,
                      branch.final.solution.profile, h)
    print(f"stop_reason={branch.stop_reason} steps={len(branch.steps)} "
          f"c={branch.final.solution.c:.10g}")
    return STOP_EXIT[branch.stop_reason]


def cmd_fixed_point(cfg, out, h):
    problem = build_problem(cfg["model"])
    grid, ref = _solve(cfg, problem.with_eps(0.0))
    ctx = make_context(problem, grid, ref)
    sol, state = iterate(ctx, tol=cfg["fixedpoint"]["tol"],
                         max_iter=cfg["fixedpoint"]["max_iter"])
    rows = [f"{i},{_g17(s)},{_g17(c)},{_g17(l)}"
            for i, (s, c, l) in enumerate(state.history)]
    write_csv(out / "history.csv", "iter,step_norm,c_k,lambda_hat", rows, h)
    write_json(out / "state.json", state.to_json(), h)
    write_profile_csv(out / "profile.csv", grid.xi, sol.profile, h)
    print(f"c={sol.c:.10g} iters={len(state.history)} "
          f"lambda_hat={state.contraction_ratio:.3f}")
    return EXIT_OK


def cmd_simulate(cfg, out, h):
    model = build_lattice(cfg["model"])
    sc = cfg["sim"]
    init = front_state(sc["M"], sc["front_at"], width=sc["width"])
    traj = integrate(model, init, sc["dt"], sc["T"], stride=sc["stride"])
    speed = measure_speed(traj, level=sc["level"])
    xi, prof, scatter, warn = extract_profile(traj, speed.c_measured)
    mono = check_monotonicity(prof)
    # every check above has passed: a failed run writes nothing
    # t, then the sites, of each snapshot: one float64 (S, 1 + M) array
    np.save(out / "trajectory.npy", traj.record)
    write_profile_csv(out / "profile.csv", xi, prof, h)
    write_json(out / "speed.json", {
        "c_measured": speed.c_measured, "fit_residual": speed.fit_residual,
        "window": list(speed.window), "level": speed.level,
        "profile_scatter": scatter, "traveling_wave_warning": warn,
        "monotone": mono.monotone}, h)
    print(f"c={speed.c_measured:.10g} scatter={scatter:.3e} "
          f"monotone={mono.monotone}")
    return EXIT_OK


def cmd_tails(cfg, out, h):
    m = cfg["model"]
    c = cfg["tails"]["c"]
    problem = build_problem(m)
    report = tail_report_constant(problem.operator(c))
    payload = report.to_json()
    try:
        model = build_lattice(m)
        mu0, v0 = periodic_decay_rate(model, -1, c)
        mu1, v1 = periodic_decay_rate(model, +1, c)
        payload["dispersion"] = {"mu_minus": mu0, "mu_plus": mu1,
                                 "eigvec_minus": [float(x) for x in v0],
                                 "eigvec_plus": [float(x) for x in v1]}
    except (ConfigError, NoRealRootError):
        pass
    write_json(out / "tails.json", payload, h)
    print(f"lambda0={report.lambda0:.6g} lambda1={report.lambda1:.6g}")
    return EXIT_OK


def _set_dotted(cfg: dict, path: str, value):
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError([f"override {path!r} crosses a value that is not an object"])
    node[keys[-1]] = value


def cmd_sweep(cfg, out, h):
    sw = cfg["sweep"]
    rows = []
    worst = EXIT_OK
    for i, value in enumerate(sw["values"]):
        sub = {k: copy.deepcopy(v) for k, v in cfg.items()
               if k not in ("sweep", "output")}
        _set_dotted(sub, sw["parameter"], value)
        subdir = out / f"run_{i:03d}"
        code = run(sw["command"], sub, subdir)
        rows.append(f"{i},{_g17(value)},{code}")
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    write_csv(out / "summary.csv", "index,value,exit_code", rows, h)
    return worst


# command -> (function, config blocks it requires)
COMMANDS = {
    "equilibria": (cmd_equilibria, ("model",)),
    "transform2": (functools.partial(cmd_transform, 2), ("model",)),
    "transform4": (functools.partial(cmd_transform, 4), ("model",)),
    "check-hyperbolic": (cmd_check_hyperbolic, ("hyperbolic",)),
    "solve-wave": (cmd_solve_wave, ("model", "grid")),
    "continue": (cmd_continue, ("model", "grid", "continuation")),
    "fixed-point": (cmd_fixed_point, ("model", "grid")),
    "simulate": (cmd_simulate, ("model", "sim")),
    "tails": (cmd_tails, ("model", "tails")),
    "sweep": (cmd_sweep, ("sweep",)),
}

# block -> field -> (default, kind)
SCHEMA = {
    "model": {"kind": ("nagumo", _one_of("nagumo", "eps_scaled", "two_site",
                                         "four_site", "infinite_range")),
              "d1": (1.0, NUMBER), "d2": (0.0, NUMBER), "a": (0.3, NUMBER),
              "eps": (0.0, NUMBER), "q": (0.5, NUMBER), "scale": (1.0, NUMBER),
              "k0": (1, COUNT), "k_num": (40, COUNT), "period": (2, _one_of(2, 4)),
              "minus_index": (None, INDEX.or_null()),
              "plus_index": (None, INDEX.or_null()),
              "minus": (None, NUMBERS.or_null()), "plus": (None, NUMBERS.or_null())},
    "grid": {"L": (40.0, POSITIVE), "h": (1.0, POSITIVE)},
    "solver": {"tol": (1e-10, POSITIVE), "max_iter": (50, COUNT), "c0": (0.1, NUMBER),
               "guess_width": (math.sqrt(2.0), POSITIVE)},
    "continuation": {"eps_to": (1.0, NUMBER.or_null()), "step0": (0.05, POSITIVE),
                     "step_min": (1e-5, POSITIVE), "grow": (1.5, POSITIVE),
                     "parameter": (None, _one_of("d1", "d2", "a", "eps").or_null()),
                     "target": (None, NUMBER.or_null()),
                     "stop_on_pinning": (False, BOOL), "hyper_tol": (1e-8, POSITIVE)},
    "fixedpoint": {"tol": (1e-10, POSITIVE), "max_iter": (200, COUNT)},
    "sim": {"M": (400, COUNT), "dt": (0.1, POSITIVE), "T": (200.0, POSITIVE),
            "stride": (2, COUNT), "front_at": (0.25, NUMBER), "level": (0.5, NUMBER),
            "width": (2.0, POSITIVE)},
    "hyperbolic": {"c": (None, NUMBER.or_null()), "tol": (1e-8, POSITIVE),
                   "operator": (None, OBJECT.or_null())},
    "tails": {"c": (None, NUMBER.or_null())},
    "output": {"dir": ("out", STRING)},
    "sweep": {"parameter": (None, STRING.or_null()), "values": ([], NUMBERS),
              "command": (None, _one_of(*[c for c in COMMANDS if c != "sweep"]).or_null())},
}

# key -> (default, kind) of an explicit two-site operator for check-hyperbolic:
# ... marks a required key, and a gamma*_plus of None repeats its gamma
OPERATOR = {"d_e": (..., NUMBER), "d_o": (..., NUMBER), "gamma1": (..., NUMBER),
            "gamma2": (..., NUMBER), "d2": (0.0, NUMBER), "eps": (0.0, NUMBER),
            "gamma1_plus": (None, NUMBER.or_null()),
            "gamma2_plus": (None, NUMBER.or_null()), "c": (None, NUMBER.or_null())}

DEFAULTS = {block: {field: default for field, (default, _) in fields.items()}
            for block, fields in SCHEMA.items()}

CONVERGENCE_ERRORS = (NewtonDivergenceError, DomainTooSmallError,
                      SingularSystemError, ContractionFailureError,
                      StepRejectedError, NoFrontError, BlowUpError,
                      NoRealRootError, TailFitError)
# ValueError covers ConfigError and every input error the package raises
CONFIG_ERRORS = (ValueError, KeyError)


def _emit_error(kind: str, exc: Exception):
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        payload["violations"] = exc.errors
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def run(command: str, config: dict, outdir=None) -> int:
    """Validate, dispatch, and write artifacts; returns the exit code."""
    try:
        cfg = validate(config, command)
    except ConfigError as exc:
        _emit_error("invalid_config", exc)
        return EXIT_CONFIG
    h = config_hash(cfg)
    out = Path(outdir) if outdir is not None else Path(cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[command][0](cfg, out, h)
    except KernelObstructionError as exc:
        _emit_error("kernel_obstruction", exc)
        return EXIT_KERNEL
    except CONVERGENCE_ERRORS as exc:
        _emit_error("convergence_failure", exc)
        return EXIT_CONVERGENCE
    except CONFIG_ERRORS as exc:
        _emit_error("invalid_config", exc)
        return EXIT_CONFIG


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError([f"override {text!r} is not of the form path=value"])
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError, so they exit 4 like a bad config."""

    @staticmethod
    def error(message):
        raise ConfigError([message])


def main(argv=None) -> int:
    parser = _Parser(
        prog="latticefronts",
        description="Traveling fronts of bistable lattice equations: "
                    "equilibria, transforms, hyperbolicity checks, wave "
                    "solving, continuation, fixed-point iteration, "
                    "simulation, tail rates.",
        epilog="Config precedence: command line overrides > config file > "
               "defaults. Overrides are dotted paths, e.g. grid.h=0.05. "
               f"Defaults: {json.dumps(DEFAULTS, default=str)}")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("overrides", nargs="*",
                        help="dotted-path overrides: block.field=value")
    try:
        args = parser.parse_intermixed_args(argv)
        try:
            config = json.loads(Path(args.config).read_text()) if args.config else {}
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([f"cannot read config: {exc}"]) from exc
        for text in args.overrides:
            _set_dotted(config, *_parse_override(text))
    except ConfigError as exc:
        _emit_error("invalid_config", exc)
        return EXIT_CONFIG
    return run(args.command, config, args.output)


if __name__ == "__main__":
    sys.exit(main())
