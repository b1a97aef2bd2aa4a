"""Branch tracking in the perturbation weight and in model parameters."""

import dataclasses

import numpy as np
import pytest

from latticefronts.bvp import (initial_guess, make_grid, nagumo_problem,
                               newton_solve, periodic_problem)
from latticefronts.continuation import (
    BranchStep,
    ContinuationBranch,
    ContinuationOptions,
    continue_in_epsilon,
    continue_in_parameter,
)
from latticefronts.model import SPLIT_BONDS, periodic_transform


@pytest.fixture(scope="module")
def perturbed_nagumo(nagumo_front):
    problem, grid, sol = nagumo_front
    eye = np.eye(1)
    d2 = 0.1
    pert = dataclasses.replace(
        problem,
        pert_shifts=(-2.0, 0.0, 2.0),
        pert_matrices=(d2 * eye, -2.0 * d2 * eye, d2 * eye))
    return pert, grid, sol


def test_branch_reaches_target(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    branch = continue_in_epsilon(problem, grid, sol, 0.3)
    assert branch.stop_reason == "reached_target"
    assert branch.final.value == pytest.approx(0.3)
    assert np.all(np.diff(branch.values) > 0.0)
    # extra second-neighbor coupling speeds the front up
    assert np.all(np.diff(branch.speeds) > 0.0)
    for step in branch.steps:
        assert step.hyperbolicity.verdict
        assert step.kernel_dim == 1
        assert step.solution.residual_norm <= 1e-10


def test_branch_refuses_two_dimensional_reference_kernel():
    # on the quarter-spacing grid every coupling shift spans an even number
    # of cells and a checkerboard near-kernel mode joins the translation
    # mode; the branch must stop at the reference audit
    problem = nagumo_problem(1.0, 0.0, 0.3)
    grid = make_grid(40.0, 0.25, problem.all_shifts)
    sol = newton_solve(problem, grid, initial_guess(grid), 0.25)
    branch = continue_in_epsilon(problem, grid, sol, 0.5)
    assert branch.stop_reason == "kernel_dimension_change"
    assert len(branch.steps) == 1
    assert branch.final.kernel_dim >= 2


def test_branch_stops_on_step_underflow(two_site_system, two_site_front):
    # the swap symmetry keeps the wave pinned on the whole branch, but with
    # the stronger second-neighbor weight the standing branch folds before
    # eps reaches 1: with step0 = 0.02 the smallest singular value of L has
    # fallen to 1.2e-3 of s_max = 1.17 by eps = 0.785.  Newton fails at
    # the fold and the step collapses
    _, grid, sol = two_site_front
    strong = periodic_transform(-0.05, 0.05, 0.5, two_site_system.minus,
                                two_site_system.plus, SPLIT_BONDS[2])
    problem = periodic_problem(strong, 0.0)
    opts = ContinuationOptions(step0=0.2, step_min=0.05, max_iter=15)
    branch = continue_in_epsilon(problem, grid, sol, 1.0, opts)
    assert branch.stop_reason == "step_underflow"
    assert branch.final.value < 1.0
    for step in branch.steps:
        assert abs(step.solution.c) <= 1e-10
        assert step.kernel_dim == 0


def test_branch_stops_on_pinning_when_asked(two_site_system, two_site_front):
    _, grid, sol = two_site_front
    problem = periodic_problem(two_site_system, 0.0)
    opts = ContinuationOptions(stop_on_pinning=True)
    branch = continue_in_epsilon(problem, grid, sol, 0.2, opts)
    assert branch.stop_reason == "pinning_suspected"
    assert abs(branch.final.solution.c) <= 1e-6


def test_zero_length_branch(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    branch = continue_in_epsilon(problem, grid, sol, 0.0)
    assert branch.stop_reason == "reached_target"
    assert len(branch.steps) == 1


def test_branch_serialization(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    branch = continue_in_epsilon(problem, grid, sol, 0.1)
    lines = branch.csv_lines()
    assert lines[0] == "eps,c,newton_iters,min_char_modulus,kernel_dim"
    assert len(lines) == len(branch.steps) + 1
    first = lines[1].split(",")
    assert float(first[0]) == branch.steps[0].value
    assert int(first[4]) == branch.steps[0].kernel_dim
    js = branch.to_json()
    assert js["stop_reason"] == "reached_target"
    assert len(js["steps"]) == len(branch.steps)


def test_unknown_stop_reason_rejected(perturbed_nagumo):
    problem, grid, sol = perturbed_nagumo
    branch = continue_in_epsilon(problem, grid, sol, 0.0)
    with pytest.raises(ValueError):
        ContinuationBranch("eps", branch.steps, "gave_up")
