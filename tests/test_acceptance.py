"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each criterion prints a single summary line (also mirrored to the real
stdout so it survives pytest capture) and then asserts.

Criteria 03 (fixed-point scheme) and 08 (continuation to eps = 1) run two
legs each and report both on their one line:

* the translational leg, on a traveling two-site wave (c != 0, kernel
  spanned by phi'), where the scheme's solvability condition and the
  one-dimensional kernel are demanded with the full thresholds;
* the pinned leg, on the swapped-pair two-site wave.  The lattice map
  u_n -> u_{1-n} sends a swapped pair to itself and c to -c, so that wave
  has c = 0 and an invertible linearization; the leg checks that the
  program keeps c = 0 and reports kernel dimension 0 there.
"""

import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

from latticefronts.bvp import (
    _deriv_matrix,
    coupling_operator,
    epsilon_scaled_problem,
    infinite_range_problem,
    initial_guess,
    inner,
    kernel_vectors,
    linearization_matrix,
    make_grid,
    newton_solve,
    trapezoid_weights,
)
from latticefronts.cli import run as cli_run
from latticefronts.continuation import continue_in_epsilon
from latticefronts.fixedpoint import (
    iterate,
    make_context,
    residual_R,
    apply_T,
    speed_update,
)
from latticefronts.mfde import characteristic_matrix, two_site_operator, upsilon_two_site
from latticefronts.model import (
    SPLIT_BONDS,
    build_infinite_range,
    build_nagumo,
    find_two_periodic_equilibria,
    periodic_transform,
)
from latticefronts.sim import (
    check_monotonicity,
    front_state,
    integrate,
    measure_speed,
    stability_dt_max,
)
from latticefronts.tails import (
    cutoff_principal_value,
    decay_rates_constant,
    fit_tail,
    periodic_decay_rate,
    tail_report_constant,
)

PDE_SPEED = math.sqrt(0.5) * (1.0 - 2.0 * 0.3)


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    try:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    except Exception:
        pass
    assert ok, line


# --------------------------------------------------------------------------
# 1. continuum-limit speed

def test_criterion_01_pde_limit_speed(pde_limit_front):
    t0 = time.monotonic()
    errs = {}
    for eps in (0.2, 0.1):
        problem = epsilon_scaled_problem(1.0, 0.0, 0.3, eps)
        grid = make_grid(40.0, 0.05, problem.all_shifts)
        sol = newton_solve(problem, grid, initial_guess(grid), 0.28)
        errs[eps] = abs(sol.c - PDE_SPEED)
    _, _, fine = pde_limit_front
    errs[0.05] = abs(fine.c - PDE_SPEED)
    elapsed = time.monotonic() - t0
    ok = (errs[0.05] <= 2e-2
          and errs[0.2] > errs[0.1] > errs[0.05]
          and elapsed <= 30.0)
    report(1, ok, f"|c-{PDE_SPEED:.7f}| = {errs[0.05]:.3e} (<= 2e-2), "
                  f"monotone errors {errs[0.2]:.3e} > {errs[0.1]:.3e} > "
                  f"{errs[0.05]:.3e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. solver cross-validation

def test_criterion_02_bvp_vs_simulation(nagumo_front):
    t0 = time.monotonic()
    problem, grid, sol = nagumo_front
    model = build_nagumo(1.0, 0.0, 0.3)
    init = front_state(200, front_at=0.7)
    # records every 1.0 time units, a spacing fixed here rather than one that
    # follows the step guard: at the guard's step with stride 5 (spacing
    # 0.974) the co-moving samples fall on about 11 phases of a cell and the
    # binned sup-distance below aliases up to 4.96e-3
    dt, stride = 0.1, 10
    assert dt <= stability_dt_max(model)
    traj = integrate(model, init, dt, 250.0, stride=stride)
    speed = measure_speed(traj)
    dc = abs(sol.c - speed.c_measured)

    # scattered co-moving samples (j + c t, u_j(t)) from the trailing
    # window, binned around each solver node -- no interpolation, which
    # would bias the comparison by ~phi''/12 at unit spacing
    n_keep = max(2, int(round(len(traj.times) * 0.3)))
    xs, us = [], []
    for t, snap in zip(traj.times[-n_keep:], traj.states[-n_keep:]):
        xs.append(np.arange(200, dtype=float) + sol.c * t)
        us.append(snap)
    xs = np.concatenate(xs)
    us = np.concatenate(us)

    # alignment: the data's mid-level crossing plays the role of xi = 0
    order = np.argsort(xs)
    xs_s, us_s = xs[order], us[order]
    above = us_s >= 0.5
    first = np.flatnonzero(above)[0]
    data_center = xs_s[first]

    def sup_distance(shift):
        worst, used = 0.0, 0
        for xi_i, phi_i in zip(grid.xi, sol.profile[:, 0]):
            m = np.abs(xs - (xi_i + shift)) <= 0.02
            if np.count_nonzero(m) < 3:
                continue
            used += 1
            worst = max(worst, abs(float(np.mean(us[m])) - phi_i))
        return worst if used >= 60 else np.inf

    coarse = data_center + np.linspace(-2.0, 2.0, 81)
    best = min(coarse, key=sup_distance)
    fine = best + np.linspace(-0.06, 0.06, 61)
    best = min(fine, key=sup_distance)
    sup = sup_distance(best)
    elapsed = time.monotonic() - t0
    ok = dc <= 1e-2 and sup <= 5e-3 and elapsed <= 60.0
    report(2, ok, f"|c_bvp-c_sim| = {dc:.3e} (<= 1e-2), aligned profile "
                  f"sup-distance = {sup:.3e} (<= 5e-3), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. fixed-point machinery

def fixed_point_run(front):
    """Fixed-point scheme at eps = 0.05 from a base wave, next to Newton."""
    problem, grid, ref = front
    perturbed = problem.with_eps(0.05)
    ctx = make_context(perturbed, grid, ref)
    sol, state = iterate(ctx)
    newton = newton_solve(perturbed, grid, ref.profile, ref.c)
    w = trapezoid_weights(grid)

    psi, ortho_worst = np.zeros_like(ref.profile), 0.0
    for _ in range(5):
        psi = apply_T(ctx, psi)
        ortho_worst = max(ortho_worst,
                          abs(inner(w, psi, ctx.kernel.psi_plus)))
    ok = (state.contraction_ratio < 1.0
          and abs(sol.c - newton.c) <= 1e-4
          and ortho_worst <= 1e-12)
    detail = (f"lambda_hat = {state.contraction_ratio:.3f} (< 1), "
              f"|c_fp-c_newton| = {abs(sol.c - newton.c):.2e} (<= 1e-4), "
              f"iterate orthogonality {ortho_worst:.2e} (<= 1e-12)")
    return ok, detail, ctx, sol, state, w


def test_criterion_03_fixed_point_mechanism(traveling_two_site_front,
                                            two_site_front):
    t0 = time.monotonic()
    # translational leg: the speed update enforces solvability
    ok_t, detail_t, ctx, _, state, w = fixed_point_run(
        traveling_two_site_front)
    c_final = speed_update(ctx, state.psi)
    R = residual_R(ctx, c_final, state.psi)
    Rnorm = math.sqrt(inner(w, R, R))
    pairing_rel = abs(inner(w, R, ctx.kernel.psi_minus)) / Rnorm
    ok_t = ok_t and ctx.kernel.kernel_dim == 1 and pairing_rel <= 1e-10

    # pinned leg: no cokernel, so the speed stays at c0 = 0
    ok_p, detail_p, ctx_p, sol_p, _, _ = fixed_point_run(two_site_front)
    ok_p = (ok_p and ctx_p.kernel.kernel_dim == 0
            and sol_p.c == ctx_p.c0 and abs(sol_p.c) <= 1e-10)

    elapsed = time.monotonic() - t0
    ok = ok_t and ok_p and elapsed <= 60.0
    report(3, ok,
           f"translational (c0 = {ctx.c0:.6f}, kernel_dim "
           f"{ctx.kernel.kernel_dim}): {detail_t}, adjoint pairing rel = "
           f"{pairing_rel:.3e} (<= 1e-10); pinned (kernel_dim "
           f"{ctx_p.kernel.kernel_dim}, want 0): {detail_p}, speed kept at "
           f"c0: |c_fp| = {abs(sol_p.c):.2e} (<= 1e-10); {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. kernel residual second-order consistency

def test_criterion_04_kernel_residual_halving():
    norms = {}
    for h in (0.1, 0.05):
        problem = epsilon_scaled_problem(1.0, 0.0, 0.3, 0.1)
        grid = make_grid(40.0, h, problem.all_shifts)
        sol = newton_solve(problem, grid, initial_guess(grid), 0.28)
        L = linearization_matrix(problem, grid, sol.profile, sol.c)
        D = _deriv_matrix(grid.n, grid.h)
        deriv = (D @ sol.profile).ravel()
        deriv /= np.max(np.abs(deriv))
        norms[h] = float(np.max(np.abs(L @ deriv)))
    ratio = norms[0.1] / norms[0.05]
    ok = 3.5 <= ratio <= 4.5
    report(4, ok, f"||L phi'||_inf drops by {ratio:.4f} when h halves "
                  f"(within [3.5, 4.5])")


# --------------------------------------------------------------------------
# 5. two-site spectral identities

def test_criterion_05_spectral_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)

    worst_det = 0.0
    for _ in range(100):
        d_e, d_o = rng.uniform(0.01, 2.0, 2)
        d2, g1, g2 = rng.uniform(-1.0, 1.0, 3)
        eps, c, theta = rng.uniform(0.0, 1.0), rng.uniform(-2, 2), rng.uniform(-8, 8)
        op = two_site_operator(d_e, d_o, d2, eps, (g1, g2), (g1, g2), c)
        det = np.linalg.det(characteristic_matrix(op, -1, 1j * theta))
        closed = upsilon_two_site(d_e, d_o, d2, eps, g1, g2, c, theta)
        worst_det = max(worst_det, abs(det - closed) / max(1.0, abs(det)))
    a_ok = worst_det <= 1e-12

    worst_zero, positive_ok = 0.0, True
    for _ in range(100):
        d_e, d_o, g1, g2 = rng.uniform(0.01, 2.0, 4)
        d2, eps, c = rng.uniform(-1, 1), rng.uniform(0, 1), rng.uniform(-2, 2)
        val = upsilon_two_site(d_e, d_o, d2, eps, g1, g2, c, 0.0)
        closed = 2 * d_e * g2 + 2 * d_o * g1 + g1 * g2
        worst_zero = max(worst_zero, abs(val - closed))
        positive_ok &= val.real > 0.0
    b_ok = worst_zero <= 1e-12 and positive_ok

    violations, roots_checked = 0, 0
    for _ in range(100):
        d1 = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.3, 3.0)
        d_e, d_o = d1 * t, d1 / t
        g1, g2 = rng.uniform(0.05, 1.0, 2)
        ed2 = -rng.uniform(0.3, 3.0)
        c = rng.uniform(0.1, 2.0)

        def im_factor(theta):
            return (4 * ed2 * (math.cos(theta) - 1)
                    - 2 * d_e - g1 - 2 * d_o - g2)

        thetas = np.linspace(1e-3, 2 * math.pi, 400)
        vals = np.array([im_factor(x) for x in thetas])
        for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
            lo, hi = thetas[i], thetas[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if im_factor(lo) * im_factor(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            theta0 = 0.5 * (lo + hi)
            val = upsilon_two_site(d_e, d_o, ed2, 1.0, g1, g2, c, theta0)
            roots_checked += 1
            if val.real >= 0.0:
                violations += 1
    c_ok = violations == 0 and roots_checked >= 50

    elapsed = time.monotonic() - t0
    ok = a_ok and b_ok and c_ok and elapsed <= 10.0
    report(5, ok, f"(a) det defect {worst_det:.2e} (<= 1e-12); "
                  f"(b) Upsilon(0) defect {worst_zero:.2e}, positive: "
                  f"{positive_ok}; (c) {roots_checked} Im-zeros, "
                  f"{violations} Re>=0 violations; {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. coupling/derivative orthogonality identity

def test_criterion_06_coupling_derivative_orthogonality():
    rng = np.random.default_rng(42)
    x = np.arange(-30.0, 30.0 + 1e-12, 0.01)
    wq = np.full(x.size, 0.01)
    wq[0] = wq[-1] = 0.005

    def smooth_decaying(rng):
        a = rng.uniform(-2, 2)
        s = rng.uniform(0.2, 0.8)
        x0 = rng.uniform(-3, 3)
        k = rng.uniform(0.3, 2.0)
        p = rng.uniform(0, 6)
        env = a * np.exp(-s * (x - x0) ** 2 / 4.0)
        f = env * np.sin(k * x + p)
        fp = env * (k * np.cos(k * x + p)
                    - 0.5 * s * (x - x0) * np.sin(k * x + p))
        return f, fp

    worst = 0.0
    for _ in range(20):
        # the transform maps any admissible equilibria pair to equal
        # even/odd diffusion weights, which the identity requires
        d = rng.uniform(0.02, 1.5)
        ed2 = rng.uniform(0.0, 1.0) * rng.uniform(-0.5, 0.5)
        v, vp = smooth_decaying(rng)
        w_, wp = smooth_decaying(rng)
        phi = np.column_stack([v, w_])
        phip = np.column_stack([vp, wp])
        A1 = np.array([[0.0, d], [0.0, 0.0]]) + ed2 * np.eye(2)
        A2 = np.array([[-2 * d, d], [d, -2 * d]]) - 2 * ed2 * np.eye(2)
        A3 = np.array([[0.0, 0.0], [d, 0.0]]) + ed2 * np.eye(2)
        C = coupling_operator((-1.0, 0.0, 1.0), (A1, A2, A3), len(phi), 2, 0.01).C
        Dphi = (C @ phi.ravel()).reshape(phi.shape)
        val = float(np.sum(wq[:, None] * Dphi * phip))
        nrm = (math.sqrt(float(np.sum(wq[:, None] * phi * phi)))
               * math.sqrt(float(np.sum(wq[:, None] * phip * phip))))
        worst = max(worst, abs(val) / nrm)
    ok = worst <= 1e-8
    report(6, ok, f"|<D phi, phi'>| worst relative = {worst:.2e} (<= 1e-8, "
                  f"20 random smooth decaying pairs)")


# --------------------------------------------------------------------------
# 7. equilibria oracle

def test_criterion_07_equilibria_and_transform():
    states = find_two_periodic_equilibria(-0.05, 0.5)
    x_minus = 0.5 * (1.0 - math.sqrt(1.8))
    x_plus = 0.5 * (1.0 + math.sqrt(1.8))

    def pick(target):
        return min(states, key=lambda s: np.max(np.abs(s.as_array()
                                                       - np.asarray(target))))

    minus = pick((x_minus, x_plus))
    plus = pick((x_plus, x_minus))
    eq_err = max(np.max(np.abs(minus.as_array() - (x_minus, x_plus))),
                 np.max(np.abs(plus.as_array() - (x_plus, x_minus))))
    ts = periodic_transform(-0.05, 0.0, 0.5, minus, plus, SPLIT_BONDS[2])
    # the first-neighbor weights of the even and odd rows, d_e and d_o
    A_left, _, A_right = ts.matrices
    prod_err = abs(A_left[0, 1] * A_right[1, 0] - 0.05 ** 2)
    root_err = max(abs(ts.cubics[0](0.0)), abs(ts.cubics[0](1.0)))
    ok = eq_err <= 1e-10 and prod_err <= 1e-12 and root_err <= 1e-12
    report(7, ok, f"equilibria vs (1+-sqrt(1.8))/2: {eq_err:.2e} (<= 1e-10); "
                  f"|A_-1[0,1] A_+1[1,0] - d1^2| = {prod_err:.2e}; f_e root defect = "
                  f"{root_err:.2e} (<= 1e-12)")


# --------------------------------------------------------------------------
# 8. continuation to eps = 1

def continuation_run(front):
    """Continue a base wave to eps = 1; summarize the branch."""
    problem, grid, ref = front
    branch = continue_in_epsilon(problem, grid, ref, 1.0)
    reached = branch.stop_reason == "reached_target" and \
        branch.final.value == pytest.approx(1.0)
    hyper = all(s.hyperbolicity.verdict for s in branch.steps)
    monotone = bool(np.all(np.diff(branch.values) > 0.0))
    kdims = sorted({s.kernel_dim for s in branch.steps})
    detail = (f"stop = {branch.stop_reason} at eps = "
              f"{branch.final.value:.3g} ({len(branch.steps)} steps), "
              f"hyperbolic throughout: {hyper}, eps monotone: {monotone}, "
              f"kernel dims seen = {kdims}")
    return reached and hyper and monotone, detail, branch, kdims


def test_criterion_08_continuation_to_unit_weight(traveling_two_site_front,
                                                  two_site_front):
    ok_t, detail_t, _, kdims_t = continuation_run(traveling_two_site_front)
    ok_p, detail_p, branch_p, kdims_p = continuation_run(two_site_front)
    c_worst = max(abs(s.solution.c) for s in branch_p.steps)
    ok = (ok_t and kdims_t == [1]
          and ok_p and kdims_p == [0] and c_worst <= 1e-10)
    report(8, ok,
           f"translational: {detail_t} (demand [1]); pinned: {detail_p} "
           f"(demand [0]), max |c| = {c_worst:.1e} (<= 1e-10)")


# --------------------------------------------------------------------------
# 9. tail rates

def test_criterion_09_tail_rates(nagumo_front):
    problem, grid, sol = nagumo_front
    rep = tail_report_constant(problem.operator(sol.c))
    rate_m, _, _ = fit_tail(grid.xi, sol.profile, -1)
    rate_p, _, _ = fit_tail(grid.xi, sol.profile, +1)
    fit_ok = (abs(rate_m - rep.lambda0) <= 0.05 * abs(rep.lambda0)
              and abs(rate_p - rep.lambda1) <= 0.05 * abs(rep.lambda1))

    model = build_nagumo(1.0, 0.0, 0.3)
    mu, _ = periodic_decay_rate(model, -1, sol.c)
    roots = [r for r in decay_rates_constant(problem.operator(sol.c), -1)
             if r > 1e-12]
    period1_err = abs(mu - min(roots))
    period1_ok = period1_err <= 1e-10

    irm = build_infinite_range(0.3, 0.5, 1.0, 1, 60)
    vals = [cutoff_principal_value(irm, 0.1, k0) for k0 in range(1, 31)]
    gap = abs(vals[-1] - vals[-2])
    cauchy_ok = bool(np.all(np.diff(vals) > 0.0)) and gap < 1e-6

    ok = fit_ok and period1_ok and cauchy_ok
    report(9, ok, f"fit vs roots: {abs(rate_m / rep.lambda0 - 1):.1%}/"
                  f"{abs(rate_p / rep.lambda1 - 1):.1%} (<= 5%); period-1 "
                  f"dispersion defect {period1_err:.2e} (<= 1e-10); "
                  f"cutoff limit monotone with gap {gap:.2e} at k0 = 30")


# --------------------------------------------------------------------------
# 10. monotonicity persistence, infinite-range kernel

def test_criterion_10_monotone_infinite_range():
    irm = build_infinite_range(0.3, 0.5, 1.0, 1, 40)
    speeds, monotone_ok, sign_ok = {}, True, True
    for eps in (0.05, 0.1):
        problem = infinite_range_problem(irm, eps)
        grid = make_grid(40.0, 1.0, problem.all_shifts)
        sol = newton_solve(problem, grid, initial_guess(grid), 0.25)
        speeds[eps] = sol.c
        monotone_ok &= check_monotonicity(sol.profile).monotone
        diffs = np.diff(sol.profile[:, 0])
        sign_ok &= bool(np.all(sol.c * diffs > 0.0))
    ok = monotone_ok and sign_ok and speeds[0.1] > speeds[0.05] > 0.0
    report(10, ok, f"c(0.05) = {speeds[0.05]:.6f}, c(0.1) = {speeds[0.1]:.6f}; "
                   f"strictly monotone: {monotone_ok}; c * (differences) "
                   f"uniform sign: {sign_ok}")


# --------------------------------------------------------------------------
# 11. obstruction honesty via the CLI

def test_criterion_11_obstruction_exit_codes(tmp_path, capsys):
    four = {"model": {"kind": "four_site", "d1": 0.0, "d2": 1.0, "a": 0.3},
            "grid": {}}
    code_kernel = cli_run("solve-wave", four, tmp_path / "kernel")
    payload = json.loads((tmp_path / "kernel" / "solution.json").read_text())
    kernel_ok = code_kernel == 5 and payload["kernel_dim"] == 2

    degen = {"hyperbolic": {"operator": {"d_e": 0.5, "d_o": 0.5,
                                         "gamma1": 1.0, "gamma2": -0.5,
                                         "c": 1.0}}}
    code_hyper = cli_run("check-hyperbolic", degen, tmp_path / "hyper")
    rep = json.loads((tmp_path / "hyper" / "report.json").read_text())
    worst = min(rep["entries"], key=lambda e: e["min_modulus"])
    hyper_ok = (code_hyper == 3 and worst["min_modulus"] <= 1e-8
                and abs(worst["theta_at_min"]) <= 1e-4)
    capsys.readouterr()

    ok = kernel_ok and hyper_ok
    report(11, ok, f"decoupling fixture: kernel_dim = "
                   f"{payload['kernel_dim']}, exit {code_kernel} (want 2, 5); "
                   f"degenerate-limit fixture: exit {code_hyper} with "
                   f"min modulus {worst['min_modulus']:.1e} at theta = "
                   f"{worst['theta_at_min']:.1e} (want 3, <= 1e-8, ~0)")


# --------------------------------------------------------------------------
# 12. determinism

def test_criterion_12_byte_identical_artifacts(tmp_path, capsys):
    configs = [
        ("solve-wave", {"model": {"kind": "nagumo"}, "grid": {}},
         ("solution.json", "profile.csv")),
        ("tails", {"model": {"kind": "nagumo"}, "tails": {"c": 0.28}},
         ("tails.json",)),
        ("check-hyperbolic", {"hyperbolic": {"c": 0.28},
                              "model": {"kind": "nagumo"}},
         ("report.json",)),
        ("equilibria", {"model": {"kind": "nagumo", "d1": -1.0, "d2": -0.5,
                                  "a": 0.2, "period": 4}},
         ("equilibria.json",)),
    ]
    identical = True
    for i, (cmd, cfg, names) in enumerate(configs):
        cli_run(cmd, json.loads(json.dumps(cfg)), tmp_path / f"a{i}")
        cli_run(cmd, json.loads(json.dumps(cfg)), tmp_path / f"b{i}")
        for name in names:
            identical &= ((tmp_path / f"a{i}" / name).read_bytes()
                          == (tmp_path / f"b{i}" / name).read_bytes())
    capsys.readouterr()
    report(12, identical,
           "re-running solve-wave/tails/check-hyperbolic/equilibria with identical "
           f"configs yields byte-identical artifacts: {identical}")
