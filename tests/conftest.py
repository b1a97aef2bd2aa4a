"""Shared fixtures: converged reference waves reused across test modules.

Everything here is deterministic; session scope only avoids re-running
Newton solves that several test modules need.
"""

import numpy as np
import pytest

from latticefronts import (
    SPLIT_BONDS,
    build_infinite_range,
    find_four_periodic_equilibria,
    find_two_periodic_equilibria,
    infinite_range_problem,
    periodic_problem,
    periodic_transform,
    nagumo_problem,
    epsilon_scaled_problem,
    make_grid,
    initial_guess,
    newton_solve,
)


def solve_front(problem, L=40.0, h=1.0, c0=0.1, width=np.sqrt(2.0)):
    grid = make_grid(L, h, problem.all_shifts)
    guess = initial_guess(grid, width, problem.dimension)
    sol = newton_solve(problem, grid, guess, c0)
    return grid, sol


@pytest.fixture(scope="session")
def nagumo_front():
    """Discrete Nagumo front (d1=1, d2=0, a=0.3) on the unit lattice."""
    problem = nagumo_problem(1.0, 0.0, 0.3)
    grid, sol = solve_front(problem)
    return problem, grid, sol


@pytest.fixture(scope="session")
def pde_limit_front():
    """Fine-grid front of the eps-scaled operator at eps=0.05."""
    problem = epsilon_scaled_problem(1.0, 0.0, 0.3, 0.05)
    grid, sol = solve_front(problem, h=0.05, c0=0.28)
    return problem, grid, sol


def closest_state(states, target):
    """The computed period-2 state nearest to `target` in the sup norm."""
    return min(states,
               key=lambda st: np.max(np.abs(st.as_array() - np.asarray(target))))


@pytest.fixture(scope="session")
def two_site_system():
    """Two-site system from the d1=-0.05, a=0.5 lattice, connecting the
    swapped pair of genuinely 2-periodic equilibria, with a weight-0.01
    second-neighbor perturbation attached.

    The lattice map u_n -> u_{1-n} sends the pair (x-, x+) -> (x+, x-) to
    itself, leaves the second-neighbor term unchanged and turns a wave of
    speed c into one of speed -c.  The wave speed is unique, so every
    wave connecting a swapped pair is pinned (c = 0), for any a, d1 and
    eps, not only at the balanced a = 0.5.
    """
    states = find_two_periodic_equilibria(-0.05, 0.5)
    x_minus = 0.5 * (1.0 - np.sqrt(1.8))
    x_plus = 0.5 * (1.0 + np.sqrt(1.8))
    minus = closest_state(states, (x_minus, x_plus))
    plus = closest_state(states, (x_plus, x_minus))
    return periodic_transform(-0.05, 0.01, 0.5, minus, plus, SPLIT_BONDS[2])


@pytest.fixture(scope="session")
def two_site_front(two_site_system):
    """Base (eps=0) wave of the two-site fixture.

    Pinned by the swap symmetry described in `two_site_system`: c = 0 and
    the linearization is invertible (kernel_dim 0), so it exercises the
    pinned regime of the fixed-point scheme and of continuation.
    """
    problem = periodic_problem(two_site_system, 0.0)
    grid, sol = solve_front(problem, c0=0.0)
    return problem, grid, sol


@pytest.fixture(scope="session")
def traveling_two_site_system():
    """Two-site system from the d1=1, a=0.3 lattice through the homogeneous
    pair (0,0) -> (1,1), with a second-neighbor weight d2=-0.1 of the
    opposite sign to d1 (competing interactions)."""
    states = find_two_periodic_equilibria(1.0, 0.3)
    minus = closest_state(states, (0.0, 0.0))
    plus = closest_state(states, (1.0, 1.0))
    return periodic_transform(1.0, -0.1, 0.3, minus, plus, SPLIT_BONDS[2])


@pytest.fixture(scope="session")
def traveling_two_site_front(traveling_two_site_system):
    """Base (eps=0) wave of a two-site system in the translational regime.

    The system is `traveling_two_site_system`.  The reference wave has
    the hypotheses of the perturbation scheme: c != 0, a one-dimensional
    kernel spanned by phi' (kernel_dim 1) and delta_hat > 0.

    c = 0.1475 at grid spacing 1.  The two-site variable counts cells of
    two sites, so the speed is half a lattice speed: at grid spacing 0.5
    the solve gives 0.141645, half the unit-grid Nagumo speed 0.283290.

    The fixture uses d1 > 0 because no d1 < 0 connection is known to be a
    true traveling wave.  Swapped pairs are pinned (see `two_site_system`).
    At grid spacing 1, a scan of d1 in [-0.3, -0.02], a in [0.1, 0.5] and
    every ordered pair of stable 2-periodic states whose first-neighbor
    weights A_-1[0, 1] and A_+1[1, 0] are positive found
    no connection with kernel_dim 1.  The nonzero speeds of non-swapped
    pairs move with the grid spacing: (0,0) -> (1.171, -0.171) at
    d1 = -0.05, a = 0.5 gives c = 0.134 at h = 1 and c = -0.016 at
    h = 0.5.  Those speeds are discretization artifacts, not waves.
    """
    problem = periodic_problem(traveling_two_site_system, 0.0)
    grid, sol = solve_front(problem, c0=0.1)
    return problem, grid, sol


@pytest.fixture(scope="session")
def four_site_front():
    """Criterion-11 system (d1 = 0 decouples the sublattices): two
    translation modes, kernel_dim 2."""
    states = find_four_periodic_equilibria(0.0, 1.0, 0.3)
    fs = periodic_transform(0.0, 1.0, 0.3, closest_state(states, (0.0,) * 4),
                            closest_state(states, (1.0,) * 4), SPLIT_BONDS[4])
    problem = periodic_problem(fs, 0.0)
    grid, sol = solve_front(problem, c0=0.15)
    return problem, grid, sol


@pytest.fixture(scope="session")
def infinite_range_front():
    """Criterion-10 operator at k_num = 40: the translation mode sits at
    2e-6 of the largest singular value, above the 1e-6 kernel threshold."""
    problem = infinite_range_problem(build_infinite_range(0.3, 0.5, 1.0, 1, 40), 0.1)
    grid, sol = solve_front(problem, c0=0.25)
    return problem, grid, sol


@pytest.fixture(scope="session")
def eps_scaled_front():
    """The eps = 0.1 scaled operator on grid spacing 0.1 (n = 801)."""
    problem = epsilon_scaled_problem(1.0, 0.0, 0.3, 0.1)
    grid, sol = solve_front(problem, h=0.1, c0=0.28)
    return problem, grid, sol
