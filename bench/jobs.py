"""Seeded job lists, reference values and per-job oracles.

A job is one ``latticefronts.cli.run(command, config, outdir)`` call.  The
seed draws the configs (speeds, operator parameters, initial speed guesses)
and the job order; the program sees only the configs.  Repository fixtures
that pin a known answer (the criterion-08 two-site pair, the criterion-10
infinite-range kernel, the criterion-11 four-site system) keep their
operator parameters.  Every job is checked against an oracle computed here
or against a pinned expected value.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Per-batch job counts.  One batch is the user's list of configs; a run
# repeats batches drawn from the same seed.
BATCH = {
    "certify": {"nagumo-check": 3, "nagumo-tails": 3, "twosite-check-standing": 2,
                "twosite-check-moving": 2, "ir-check": 1, "ir-tails": 1,
                "continue": 1},
    "solve": {"nagumo-solve": 1, "eps-solve-h0.1": 1, "eps-solve-h0.05": 1,
              "ir-solve-k40": 1, "ir-solve-k80": 1, "four-site-solve": 1,
              "fixed-point": 1},
    "simulate": {"nagumo-sim": 2, "ir-sim": 1},
}

# A run makes round(--seconds / NOMINAL_BATCH_S) batches (a traced run splits
# them between its two passes), so job and count totals depend only on
# --seconds.  Close to one batch's wall time on a 2-vCPU x86 VM with one BLAS
# thread; simulate's is lower so that a 30 s run makes 12 jobs, enough that
# op_p50_s and op_tail_s are not its slowest job.
NOMINAL_BATCH_S = {"certify": 17.0, "solve": 5.0, "simulate": 7.5}

# Failures present when the benchmark was defined.  They stay in the
# workloads so that a fix shows as a rise of ok_frac; the match string must
# appear in the failure reason, so a different failure of the same job is
# still unexpected.
KNOWN_DEFECTS = {
    "eps-solve-h0.05": ("exit 5", "checkerboard mode of central differences "
                        "gives kernel_dim 2 at eps = 0.1, h = 0.05"),
    "ir-tails": ("OverflowError", "cmath.exp(lambda r) overflows at lambda = 20, "
                 "r = 40 in mfde.characteristic_matrix, reached from "
                 "tails.decay_rates_constant; escapes cli.run"),
    "ir-solve-k40": ("kernel_dim 0", "smallest singular value 2e-6 of the "
                     "largest, above the 1e-6 kernel threshold, so the "
                     "translation mode is not counted"),
    "ir-solve-k80": ("kernel_dim 0", "as ir-solve-k40"),
}

XM = 0.5 * (1.0 - math.sqrt(1.8))
XP = 0.5 * (1.0 + math.sqrt(1.8))
# Criterion-08 fixture: swapped pair of 2-periodic equilibria of the
# d1 = -0.05, a = 0.5 lattice with a weight-0.01 second-neighbor coupling.
TWO_SITE = {"kind": "two_site", "d1": -0.05, "a": 0.5, "d2": 0.01,
            "minus": [XM, XP], "plus": [XP, XM]}
# Criterion-10 fixture; its wave speed at eps = 0.1 does not depend on k_num
# beyond 40 (the truncated tail weighs 2e-12).
IR_FIXTURE = {"kind": "infinite_range", "a": 0.3, "q": 0.5, "scale": 1.0,
              "k0": 1, "eps": 0.1}
IR_FIXTURE_SPEED = 0.2613165766630871
# Criterion-11 fixture: decoupled sublattices, two translation modes.
FOUR_SITE = {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3}

PDE_TOL = 2e-2       # criterion 01
TAIL_TOL = 1e-10     # criterion 09
SIM_TOL = 1e-2       # criterion 02
FIXED_POINT_TOL = 1e-4   # criterion 03, speed part
MODULUS_TOL = 1e-9


@dataclass
class Job:
    kind: str
    command: str
    config: dict
    params: dict = field(default_factory=dict)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled, so
    every seed spreads the same cost range over a run."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _nagumo(a):
    return {"kind": "nagumo", "d1": 1.0, "d2": 0.0, "a": a}


def _infinite_range(a, eps, k_num=40):
    return {"kind": "infinite_range", "a": a, "q": 0.5, "scale": 1.0, "k0": 1,
            "k_num": k_num, "eps": eps}


def _two_site_operator(rng, c):
    u = rng.uniform
    return {"d_e": u(-0.1, 0.1), "d_o": u(-0.1, 0.1), "d2": u(0.0, 0.02),
            "eps": u(0.0, 1.0), "gamma1": u(0.5, 1.0), "gamma2": u(0.5, 1.0),
            "gamma1_plus": u(0.5, 1.0), "gamma2_plus": u(0.5, 1.0), "c": c}


def _make(kind: str, rng: random.Random, draws: dict) -> Job:
    d = draws
    if kind == "nagumo-check":
        a, c = d["a"], d["c"]
        return Job(kind, "check-hyperbolic",
                   {"model": _nagumo(a), "hyperbolic": {"c": c}}, {"a": a})
    if kind == "nagumo-tails":
        a, c = d["a"], d["c"]
        return Job(kind, "tails", {"model": _nagumo(a), "tails": {"c": c}},
                   {"a": a, "c": c})
    if kind.startswith("twosite-check"):
        op = _two_site_operator(rng, d["c"])
        route = "eig-realpart-certificate" if kind.endswith("standing") else "det-scan"
        return Job(kind, "check-hyperbolic", {"hyperbolic": {"operator": op}},
                   {"route": route})
    if kind == "ir-check":
        model = _infinite_range(d["a"], d["eps"])
        return Job(kind, "check-hyperbolic",
                   {"model": model, "hyperbolic": {"c": d["c"]}}, {"a": d["a"]})
    if kind == "ir-tails":
        return Job(kind, "tails", {"model": _infinite_range(d["a"], d["eps"]),
                                   "tails": {"c": d["c"]}})
    if kind == "continue":
        return Job(kind, "continue",
                   {"model": dict(TWO_SITE, eps=0.0), "grid": {},
                    "solver": {"c0": 0.0}, "continuation": {"eps_to": 1.0}})
    if kind == "nagumo-solve":
        return Job(kind, "solve-wave", {"model": _nagumo(d["a"]), "grid": {},
                                        "solver": {"c0": d["c0"]}}, {"a": d["a"]})
    if kind.startswith("eps-solve"):
        h = float(kind.rsplit("-h", 1)[1])
        model = {"kind": "eps_scaled", "d1": 1.0, "d2": 0.0, "a": d["a"], "eps": 0.1}
        return Job(kind, "solve-wave", {"model": model, "grid": {"L": 40.0, "h": h},
                                        "solver": {"c0": d["c0"]}}, {"a": d["a"]})
    if kind.startswith("ir-solve"):
        k_num = int(kind.rsplit("-k", 1)[1])
        return Job(kind, "solve-wave", {"model": dict(IR_FIXTURE, k_num=k_num),
                                        "grid": {}, "solver": {"c0": d["c0"]}})
    if kind == "four-site-solve":
        return Job(kind, "solve-wave", {"model": dict(FOUR_SITE), "grid": {},
                                        "solver": {"c0": d["c0"]}})
    if kind == "fixed-point":
        return Job(kind, "fixed-point", {"model": dict(TWO_SITE, eps=0.05),
                                         "grid": {}, "solver": {"c0": 0.0}},
                   {"reference": ["two_site", 0.05]})
    if kind == "nagumo-sim":
        return Job(kind, "simulate", {"model": _nagumo(d["a"]), "sim": {"M": 400}},
                   {"reference": ["nagumo", d["a"]]})
    if kind == "ir-sim":
        return Job(kind, "simulate",
                   {"model": _infinite_range(d["a"], d["eps"]),
                    "sim": {"M": 400, "T": 15.0}},
                   {"reference": ["infinite_range", d["a"], d["eps"]]})
    raise ValueError(f"unknown job kind {kind!r}")


# Seed-drawn ranges per job kind: name -> (lo, hi), stratified over a run.
RANGES = {
    "nagumo-check": {"a": (0.2, 0.4), "c": (0.05, 0.5)},
    "nagumo-tails": {"a": (0.2, 0.4), "c": (0.05, 0.5)},
    "twosite-check-standing": {"c": (1e-5, 5e-5)},
    "twosite-check-moving": {"c": (0.05, 0.5)},
    "ir-check": {"a": (0.2, 0.4), "eps": (0.05, 0.2), "c": (0.1, 0.5)},
    "ir-tails": {"a": (0.2, 0.4), "eps": (0.05, 0.2), "c": (0.1, 0.5)},
    "continue": {},
    "nagumo-solve": {"a": (0.2, 0.4), "c0": (0.1, 0.3)},
    "eps-solve-h0.1": {"a": (0.2, 0.4), "c0": (0.2, 0.35)},
    "eps-solve-h0.05": {"a": (0.2, 0.4), "c0": (0.2, 0.35)},
    "ir-solve-k40": {"c0": (0.2, 0.3)},
    "ir-solve-k80": {"c0": (0.2, 0.3)},
    "four-site-solve": {"c0": (0.1, 0.2)},
    "fixed-point": {},
    "nagumo-sim": {"a": (0.25, 0.4)},
    "ir-sim": {"a": (0.25, 0.35), "eps": (0.05, 0.15)},
}


def make_batches(workload: str, seed: int, batches: int) -> list[list[Job]]:
    """The run's job list: `batches` batches, each holding BATCH[workload]
    jobs in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    per_kind = {}
    for kind, count in BATCH[workload].items():
        n = count * batches
        cols = {name: _strata(rng, n, lo, hi) for name, (lo, hi) in RANGES[kind].items()}
        per_kind[kind] = [_make(kind, rng, {k: v[i] for k, v in cols.items()})
                          for i in range(n)]
    out = []
    for b in range(batches):
        batch = [job for kind, count in BATCH[workload].items()
                 for job in per_kind[kind][b * count:(b + 1) * count]]
        rng.shuffle(batch)
        out.append(batch)
    return out


def warmup_job(workload: str) -> Job:
    """Untimed job that loads lazily imported code before timing."""
    if workload == "certify":
        return Job("warmup", "check-hyperbolic",
                   {"model": _nagumo(0.3), "hyperbolic": {"c": 0.3}})
    if workload == "solve":
        return Job("warmup", "solve-wave", {"model": _nagumo(0.3), "grid": {}})
    return Job("warmup", "simulate", {"model": _nagumo(0.3),
                                      "sim": {"M": 400, "T": 20.0}})


# ---------------------------------------------------------------------------
# reference values

def reference_values(jobs: list[Job]) -> dict:
    """Wave speeds the oracles compare against, keyed by the job's
    ``reference`` param, from library Newton solves outside the CLI."""
    from latticefronts import (build_infinite_range, infinite_range_problem,
                               initial_guess, make_grid, nagumo_problem,
                               newton_solve)
    from latticefronts.cli import build_problem, validate

    refs = {}
    for job in jobs:
        ref = job.params.get("reference")
        key = json.dumps(ref)
        if ref is None or key in refs:
            continue
        if ref[0] == "nagumo":
            problem, c0 = nagumo_problem(1.0, 0.0, ref[1]), 0.1
        elif ref[0] == "infinite_range":
            problem = infinite_range_problem(build_infinite_range(ref[1], 0.5, 1.0, 1, 40), ref[2])
            c0 = 0.25
        else:
            # criterion 03: the Newton wave of the perturbed problem itself
            cfg = validate(json.loads(json.dumps(job.config)), job.command)
            problem, c0 = build_problem(cfg["model"]), 0.0
        grid = make_grid(40.0, 1.0, problem.all_shifts)
        guess = initial_guess(grid, components=problem.dimension)
        refs[key] = float(newton_solve(problem, grid, guess, c0).c)
    return refs


# ---------------------------------------------------------------------------
# oracles

def _dispersion_root(c: float, a: float, end: int) -> float:
    """Tail rate of the scalar d1 = 1 Nagumo lattice: the root of
    c mu - 2 (cosh mu - 1) + f'(u_end) = 0, positive at -inf, negative at
    +inf (one root of each sign, the left side being concave)."""
    from scipy.optimize import brentq
    gamma = a if end < 0 else 1.0 - a

    def g(mu):
        return c * mu - 2.0 * (math.cosh(mu) - 1.0) + gamma

    lo, hi = (1e-12, 20.0) if end < 0 else (-20.0, -1e-12)
    return brentq(g, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=200)


def _two_site_lower_bound(op: dict) -> float:
    """Gershgorin bound on |det Delta(i theta)| for the two-site operator.

    Row j of Delta(i theta) - i c theta I has real diagonal at least
    gamma_j - 2|d_j| and off-diagonal modulus at most 2|d_j|, so every
    eigenvalue has real part at least lb = min_j (gamma_j - 4|d_j|) at both
    ends; |det| >= lb^2 and the real-part certificate >= lb.
    """
    lb = min(op[g] - 4.0 * abs(op[d]) for g, d in
             (("gamma1", "d_e"), ("gamma2", "d_o"),
              ("gamma1_plus", "d_e"), ("gamma2_plus", "d_o")))
    return min(lb, lb * lb)


def _load(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def check(job: Job, code, outdir: Path, refs: dict) -> str | None:
    """None when the job's output passes its oracle, else the reason."""
    kind, cmd, p = job.kind, job.command, job.params
    if kind == "warmup":
        return None
    if kind == "four-site-solve":
        sol = _load(outdir, "solution.json")
        if code != 5 or sol["kernel_dim"] != 2:
            return f"exit {code}, kernel_dim {sol['kernel_dim']} (want exit 5, kernel_dim 2)"
        return None
    if code != 0:
        reason = f"exit {code} (want 0)"
        if (outdir / "solution.json").exists():
            reason += f", kernel_dim {_load(outdir, 'solution.json')['kernel_dim']}"
        return reason

    if cmd == "check-hyperbolic":
        rep = _load(outdir, "report.json")
        worst = min(e["min_modulus"] for e in rep["entries"])
        methods = sorted({e["method"] for e in rep["entries"]})
        want_route = p.get("route", "det-scan")
        if not rep["verdict"]:
            return "verdict false (want hyperbolic)"
        if methods != [want_route]:
            return f"methods {methods} (want {want_route})"
        if "a" in p:
            # nonnegative couplings: |det Delta(i theta)| is smallest at theta = 0
            want = min(p["a"], 1.0 - p["a"])
            if abs(worst - want) > MODULUS_TOL:
                return f"min_modulus {worst!r} (want min(a, 1 - a) = {want!r})"
        else:
            lb = _two_site_lower_bound(job.config["hyperbolic"]["operator"])
            if worst < lb - 1e-12:
                return f"min_modulus {worst!r} below the Gershgorin bound {lb!r}"
        return None

    if cmd == "tails":
        tails = _load(outdir, "tails.json")
        lam0, lam1 = tails["lambda0"], tails["lambda1"]
        if "dispersion" not in tails:
            return "no dispersion rate in tails.json"
        mu = tails["dispersion"]["mu_minus"]
        if abs(lam0 - mu) > TAIL_TOL:
            return f"|lambda0 - mu_minus| = {abs(lam0 - mu):.3e} (want <= {TAIL_TOL})"
        if kind == "nagumo-tails":
            for name, got, end in (("lambda0", lam0, -1), ("lambda1", lam1, 1)):
                want = _dispersion_root(p["c"], p["a"], end)
                if abs(got - want) > TAIL_TOL:
                    return f"{name} {got!r} (want dispersion root {want!r})"
        return None

    if cmd == "continue":
        branch = _load(outdir, "branch.json")
        last = branch["steps"][-1]
        if branch["stop_reason"] != "reached_target" or abs(last["eps"] - 1.0) > 1e-12:
            return f"stop {branch['stop_reason']} at eps {last['eps']} (want eps 1)"
        if not all(s["hyperbolic"] for s in branch["steps"]):
            return "a continuation step is not hyperbolic"
        return None

    if cmd == "solve-wave":
        sol = _load(outdir, "solution.json")
        if sol["kernel_dim"] != 1:
            return f"kernel_dim {sol['kernel_dim']} (want 1)"
        if kind.startswith("ir-solve"):
            want = IR_FIXTURE_SPEED
        else:
            want = math.sqrt(0.5) * (1.0 - 2.0 * p["a"])
        if abs(sol["c"] - want) > PDE_TOL:
            return f"c {sol['c']!r} (want {want!r} within {PDE_TOL})"
        return None

    if cmd == "fixed-point":
        c = _load(outdir, "state.json")["c"]
        want = refs[json.dumps(p["reference"])]
        if abs(c - want) > FIXED_POINT_TOL:
            return f"c {c!r} (want Newton speed {want!r} within {FIXED_POINT_TOL})"
        return None

    if cmd == "simulate":
        c = _load(outdir, "speed.json")["c_measured"]
        want = refs[json.dumps(p["reference"])]
        if abs(c - want) > SIM_TOL:
            return f"c_measured {c!r} (want BVP speed {want!r} within {SIM_TOL})"
        return None
    raise ValueError(f"no oracle for command {cmd!r}")


def known_defect(kind: str, reason: str) -> str | None:
    """The recorded defect when the failure is the one known for this kind."""
    known = KNOWN_DEFECTS.get(kind)
    return known[1] if known is not None and known[0] in reason else None
