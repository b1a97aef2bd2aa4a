"""Solve-and-project Picard iteration against the Newton solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from latticefronts import fixedpoint

from latticefronts.bvp import (
    _deriv_matrix,
    assemble_residual,
    inner,
    initial_guess,
    kernel_vectors,
    linearization_matrix,
    make_grid,
    nagumo_problem,
    newton_solve,
    trapezoid_weights,
)
from latticefronts.fixedpoint import (
    KernelObstructionError,
    _bordered_solver,
    apply_T,
    iterate,
    make_context,
    remainder_N,
    residual_R,
    speed_update,
)


@pytest.fixture(scope="module")
def perturbed_nagumo(nagumo_front):
    """Discrete Nagumo with the second-neighbor coupling attached as the
    scaled perturbation; the reference wave is translational (kernel dim 1)."""
    import dataclasses
    problem, grid, sol = nagumo_front
    d2 = 0.1
    eye = np.eye(1)
    pert = dataclasses.replace(
        problem,
        pert_shifts=(-2.0, 0.0, 2.0),
        pert_matrices=(d2 * eye, -2.0 * d2 * eye, d2 * eye),
        eps=0.05)
    return pert, grid, sol


# --------------------------------------------------------------------------
# context construction

def test_context_constants_translational(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    assert ctx.kernel.kernel_dim == 1
    assert ctx.delta_hat > 0.0
    assert ctx.C0_estimate > 0.0
    assert ctx.eps == 0.05


def test_context_constants_pinned(two_site_front):
    problem, grid, sol = two_site_front
    ctx = make_context(problem.with_eps(0.05), grid, sol)
    assert ctx.kernel.kernel_dim == 0
    # pinned reference: derivative pairs degenerately with the surrogate
    assert abs(ctx.delta_hat) <= 1e-10


def test_context_rejects_two_dimensional_kernel():
    # quarter-spacing grid: every coupling shift spans an even number of
    # cells, so a checkerboard near-kernel mode joins the translation mode
    problem = nagumo_problem(1.0, 0.0, 0.3)
    grid = make_grid(40.0, 0.25, problem.all_shifts)
    sol = newton_solve(problem, grid, initial_guess(grid), 0.25)
    with pytest.raises(KernelObstructionError) as info:
        make_context(problem.with_eps(0.01), grid, sol)
    assert info.value.kernel_dim == 2


# --------------------------------------------------------------------------
# residual algebra

def test_remainder_is_quadratic_in_psi(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(sol.profile.shape)
    direction /= np.max(np.abs(direction))
    n1 = np.max(np.abs(remainder_N(problem, sol.profile, 1e-3 * direction)))
    n2 = np.max(np.abs(remainder_N(problem, sol.profile, 2e-3 * direction)))
    assert n2 / n1 == pytest.approx(4.0, rel=0.05)


def test_residual_R_consistent_with_full_residual(perturbed_nagumo):
    # L0 psi - R(c, psi) equals the residual of the perturbed problem at
    # (phi0 + psi, c), up to the converged reference defect
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    rng = np.random.default_rng(2)
    psi = 1e-3 * rng.standard_normal(sol.profile.shape)
    c = sol.c + 2e-3
    L0 = linearization_matrix(problem.with_eps(0.0), grid, sol.profile, sol.c)
    lhs = (L0 @ psi.ravel()).reshape(psi.shape) - residual_R(ctx, c, psi)
    rhs = assemble_residual(problem, grid, sol.profile + psi, c)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --------------------------------------------------------------------------
# speed update

def test_speed_update_zeroes_adjoint_pairing(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    rng = np.random.default_rng(3)
    psi = 1e-4 * rng.standard_normal(sol.profile.shape)
    c = speed_update(ctx, psi)
    R = residual_R(ctx, c, psi)
    w = trapezoid_weights(grid)
    Rnorm = np.sqrt(inner(w, R, R))
    assert abs(inner(w, R, ctx.kernel.psi_minus)) <= 1e-10 * Rnorm


def test_speed_update_degenerate_pairing_returns_reference_speed(two_site_front):
    problem, grid, sol = two_site_front
    ctx = make_context(problem.with_eps(0.05), grid, sol)
    psi = np.zeros_like(sol.profile)
    assert speed_update(ctx, psi) == ctx.c0


def test_speed_update_at_zero_psi_without_perturbation(nagumo_front):
    problem, grid, sol = nagumo_front
    ctx = make_context(problem, grid, sol)
    assert speed_update(ctx, np.zeros_like(sol.profile)) == pytest.approx(sol.c)


# --------------------------------------------------------------------------
# iteration

def test_iteration_fixed_point_of_unperturbed_problem(nagumo_front):
    problem, grid, sol = nagumo_front
    ctx = make_context(problem, grid, sol)
    out, state = iterate(ctx)
    assert abs(out.c - sol.c) <= 1e-10
    assert state.max_psi_norm <= 1e-8


def test_iteration_matches_newton_translational(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    out, state = iterate(ctx)
    assert state.contraction_ratio < 1.0
    direct = newton_solve(problem, grid, sol.profile, sol.c)
    assert abs(out.c - direct.c) <= 1e-6
    assert out.residual_norm <= 1e-8


def test_contraction_ratio_leaves_out_the_closing_step(perturbed_nagumo):
    """The ratio of the step that meets tol sits at the rounding floor: it
    stays in history, and contraction_ratio is the largest of the others."""
    problem, grid, sol = perturbed_nagumo
    _, state = iterate(make_context(problem, grid, sol))
    ratios = [ratio for _, _, ratio in state.history]
    assert state.contraction_ratio == max(ratios[:-1])
    # here the closing ratio is the largest, so the two rules differ
    assert ratios[-1] > state.contraction_ratio


def test_iterates_stay_orthogonal_to_kernel_surrogate(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    w = trapezoid_weights(grid)
    psi = np.zeros_like(sol.profile)
    for _ in range(4):
        psi = apply_T(ctx, psi)
        val = inner(w, psi, ctx.kernel.psi_plus)
        assert abs(val) <= 1e-12


def test_state_serialization_roundtrip(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    ctx = make_context(problem, grid, sol)
    _, state = iterate(ctx)
    js = state.to_json()
    assert js["iterations"] == len(state.history)
    assert js["contraction_ratio"] == state.contraction_ratio
    assert len(js["history"]) == len(state.history)


def test_bordered_solver_matrix_matches_bmat_reference(traveling_two_site_front,
                                                       monkeypatch):
    """The matrix factored for the Picard solves, on criterion 03's pair at
    eps = 0.05: the same indptr, indices and data bits as sp.bmat of the
    reference linearization and the dense kernel-surrogate border."""
    problem, grid, sol = traveling_two_site_front
    ctx = make_context(problem.with_eps(0.05), grid, sol)
    factored = []
    monkeypatch.setattr(fixedpoint.spla, "splu", factored.append)
    _bordered_solver(ctx)
    L0 = linearization_matrix(problem, grid, ctx.phi0, ctx.c0)
    pp = ctx.kernel.psi_plus
    ref = sp.bmat([[L0, pp.reshape(-1, 1)],
                   [(trapezoid_weights(grid)[:, None] * pp).reshape(1, -1), None]],
                  format="csc")
    (M,) = factored
    assert M.format == "csc"
    np.testing.assert_array_equal(M.indptr, ref.indptr)
    np.testing.assert_array_equal(M.indices, ref.indices)
    assert M.data.tobytes() == ref.data.tobytes()
