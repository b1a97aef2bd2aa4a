"""Traveling-wave boundary value solver: residual assembly, Jacobian
consistency, Newton convergence, kernel diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from latticefronts import SPLIT_BONDS, find_two_periodic_equilibria, periodic_transform
from latticefronts.bvp import (
    DomainTooSmallError,
    IncommensurableShiftError,
    WaveProblem,
    WaveSolution,
    assemble_jacobian,
    assemble_residual,
    coupling_operator,
    discretize,
    epsilon_scaled_problem,
    initial_guess,
    kernel_vectors,
    linearization_matrix,
    make_grid,
    nagumo_problem,
    newton_solve,
    periodic_problem,
    shifted_profile,
    trapezoid_weights,
    _deriv_matrix,
    inner,
)
from latticefronts.cli import DEFAULTS, build_problem
from latticefronts.model import CubicNonlinearity

PDE_SPEED = math.sqrt(0.5) * (1.0 - 2.0 * 0.3)   # continuum front speed, a = 0.3


# --------------------------------------------------------------------------
# grids and guesses

def test_make_grid_counts_and_axis():
    grid = make_grid(40.0, 1.0, (-2.0, -1.0, 0.0, 1.0, 2.0))
    assert grid.n == 81
    assert grid.xi[0] == -40.0
    assert grid.xi[-1] == 40.0
    assert grid.xi[grid.half_steps] == 0.0


def test_make_grid_rejects_incommensurable_shift():
    with pytest.raises(IncommensurableShiftError):
        make_grid(40.0, 0.3, (-1.0, 0.0, 1.0))


def test_make_grid_rejects_tiny_domain():
    with pytest.raises(ValueError):
        make_grid(5.0, 1.0, (0.0,))
    with pytest.raises(ValueError, match="only 21 nodes"):
        make_grid(10.0, 1.0, (0.0,))


def test_initial_guess_connects_the_equilibria():
    grid = make_grid(40.0, 1.0, (0.0,))
    g = initial_guess(grid, components=2)
    assert g.shape == (grid.n, 2)
    assert np.max(np.abs(g[0])) <= 1e-10
    assert np.max(np.abs(g[-1] - 1.0)) <= 1e-10
    assert np.all(np.diff(g[:, 0]) >= 0.0)
    with pytest.raises(ValueError, match="width must be positive"):
        initial_guess(grid, 0.0)


# --------------------------------------------------------------------------
# residual and Jacobian consistency

def test_jacobian_matches_directional_difference():
    problem = nagumo_problem(1.0, 0.2, 0.3)
    grid = make_grid(30.0, 1.0, problem.all_shifts)
    rng = np.random.default_rng(0)
    profile = initial_guess(grid) + 0.01 * rng.standard_normal((grid.n, 1))
    c = 0.2
    D = _deriv_matrix(grid.n, grid.h)
    ref_deriv = D @ profile
    J = assemble_jacobian(problem, grid, profile, c, ref_deriv)
    v = rng.standard_normal(grid.n * 1 + 1)
    t = 1e-6
    dp, dc = v[:-1].reshape(grid.n, 1), v[-1]

    def full_residual(p, cc):
        res = assemble_residual(problem, grid, p, cc)
        w = trapezoid_weights(grid)
        phase = inner(w, p - profile, ref_deriv)
        return np.concatenate([res.ravel(), [phase]])

    fd = (full_residual(profile + t * dp, c + t * dc)
          - full_residual(profile - t * dp, c - t * dc)) / (2.0 * t)
    assert np.max(np.abs(J @ v - fd)) <= 1e-6


def test_equilibrium_profiles_have_zero_interior_residual():
    # flat equilibria annihilate the residual away from the clamped ends
    # (the boundary rows see the other equilibrium through the clamp)
    problem = nagumo_problem(1.0, 0.0, 0.3)
    grid = make_grid(30.0, 1.0, problem.all_shifts)
    res0 = assemble_residual(problem, grid, np.zeros((grid.n, 1)), 0.37)
    res1 = assemble_residual(problem, grid, np.ones((grid.n, 1)), 0.37)
    assert np.max(np.abs(res0[:-4])) <= 1e-14
    assert np.max(np.abs(res1[4:])) <= 1e-14
    # and the clamped rows do see the mismatch
    assert np.max(np.abs(res0[-4:])) > 0.1


def test_shifted_profile_clamps_to_equilibria():
    p = np.linspace(0.0, 1.0, 11)[:, None]
    right = shifted_profile(p, 3)
    assert np.array_equal(right[:8], p[3:])
    assert np.all(right[8:] == 1.0)
    left = shifted_profile(p, -2)
    assert np.all(left[:2] == 0.0)
    assert np.array_equal(left[2:], p[:-2])


# --------------------------------------------------------------------------
# Newton solve

def test_newton_solves_discrete_nagumo(nagumo_front):
    problem, grid, sol = nagumo_front
    assert sol.residual_norm <= 1e-10
    assert 0.2 < sol.c < 0.35
    assert abs(sol.phase_location) <= grid.h
    assert np.all(np.diff(sol.profile[:, 0]) > -1e-12)
    assert not sol.pinning_suspected
    with pytest.raises(ValueError, match="does not match the grid"):
        newton_solve(problem, grid, sol.profile[1:], sol.c)


def test_newton_solution_satisfies_residual_independently(nagumo_front):
    problem, grid, sol = nagumo_front
    res = assemble_residual(problem, grid, sol.profile, sol.c)
    assert np.max(np.abs(res)) <= 1e-10


def test_newton_speed_is_grid_translation_invariant(nagumo_front):
    problem, grid, sol = nagumo_front
    shifted = shifted_profile(sol.profile, 4)
    again = newton_solve(problem, grid, shifted, sol.c)
    assert abs(again.c - sol.c) <= 1e-10
    # phase alignment brings the front back to the origin
    assert abs(again.phase_location - sol.phase_location) <= 1e-6


def test_pde_limit_speed(pde_limit_front):
    _, _, sol = pde_limit_front
    assert abs(sol.c - PDE_SPEED) <= 2e-2


def test_domain_too_small_raises():
    problem = nagumo_problem(1.0, 0.0, 0.3)
    grid = make_grid(25.0, 1.0, problem.all_shifts)
    guess = initial_guess(grid)
    with pytest.raises(DomainTooSmallError):
        newton_solve(problem, grid, guess, 0.25, tail_tol=1e-8)


def test_pinned_two_site_wave(two_site_front):
    problem, grid, sol = two_site_front
    assert sol.residual_norm <= 1e-10
    assert abs(sol.c) <= 1e-10
    assert sol.pinning_suspected


@pytest.mark.parametrize("c0", [0.1, -0.1])
def test_swapped_pair_wave_is_pinned_off_balance(c0):
    # u_n -> u_{1-n} maps the swapped pair (x-, x+) -> (x+, x-) to itself
    # and c to -c, so the wave is pinned at the unbalanced a = 0.3 as well
    states = find_two_periodic_equilibria(-0.05, 0.3)
    minus = min(states, key=lambda st: st.values[0])
    plus = max(states, key=lambda st: st.values[0])
    assert plus.values == pytest.approx(minus.values[::-1], abs=1e-12)
    system = periodic_transform(-0.05, 0.01, 0.3, minus, plus, SPLIT_BONDS[2])
    problem = periodic_problem(system, 0.0)
    grid = make_grid(40.0, 1.0, problem.all_shifts)
    guess = initial_guess(grid, components=problem.dimension)
    sol = newton_solve(problem, grid, guess, c0)
    assert sol.residual_norm <= 1e-10
    assert abs(sol.c) <= 1e-10
    assert kernel_vectors(problem, grid, sol).kernel_dim == 0


@pytest.mark.parametrize("case", ["pinned_two_site", "nagumo_quarter_grid"])
def test_newton_needs_levenberg_marquardt_fallback(case):
    # damped Newton alone fails on both (NewtonDivergenceError): a pinned
    # two-site wave (c = 7.9e-15 after 7 iterations, sigma_min 0.286) and a
    # Nagumo front on the quarter grid, where every shift spans an even
    # number of cells (c = 0.11131, against 0.11393 at h = 1)
    if case == "pinned_two_site":
        problem, h = build_problem(dict(DEFAULTS["model"], kind="two_site",
                                        d1=-0.05, a=0.5, d2=-0.1, eps=0.5)), 1.0
    else:
        problem, h = nagumo_problem(1.0, -0.1, 0.4), 0.25
    grid = make_grid(40.0, h, problem.all_shifts)
    sol = newton_solve(problem, grid,
                       initial_guess(grid, components=problem.dimension), 0.1)
    assert sol.residual_norm <= 1e-10
    kd = kernel_vectors(problem, grid, sol)
    if case == "pinned_two_site":
        assert abs(sol.c) <= 1e-10
        assert kd.kernel_dim == 0
    else:
        assert abs(sol.c - 0.11131) <= 1e-5
        assert kd.kernel_dim == 1


# --------------------------------------------------------------------------
# kernel diagnostics

def test_kernel_of_traveling_front_is_one_dimensional(nagumo_front):
    problem, grid, sol = nagumo_front
    kd = kernel_vectors(problem, grid, sol)
    assert kd.kernel_dim == 1
    # the kernel surrogate is the profile derivative, up to normalization
    D = _deriv_matrix(grid.n, grid.h)
    deriv = (D @ sol.profile).ravel()
    deriv /= np.linalg.norm(deriv)
    overlap = abs(float(deriv @ kd.psi_plus.ravel()))
    norm = np.linalg.norm(kd.psi_plus.ravel())
    assert overlap / norm >= 0.999


@pytest.mark.xfail(strict=True, reason=(
    "known kernel miss: sigma_min 6.8e-6 against s_max 4.59 is a ratio of "
    "1.5e-6, above the 1e-6 threshold, while sigma_2 is 0.363; the h = 1 "
    "stencil's error lifts the translation mode (ROADMAP items 1 and 2)"))
def test_kernel_counts_translation_mode_of_competing_nagumo_front():
    problem = nagumo_problem(1.0, -0.1, 0.4)
    grid = make_grid(40.0, 1.0, problem.all_shifts)
    sol = newton_solve(problem, grid, initial_guess(grid), 0.1)
    assert abs(sol.c - 0.113930) <= 1e-6
    assert kernel_vectors(problem, grid, sol).kernel_dim == 1


def test_kernel_vectors_annihilated_by_linearization(nagumo_front):
    problem, grid, sol = nagumo_front
    kd = kernel_vectors(problem, grid, sol)
    L = linearization_matrix(problem, grid, sol.profile, sol.c)
    # psi_plus is the discrete profile derivative, a kernel element only up
    # to the O(h^2) differentiation error; psi_minus is an exact singular
    # vector of the discrete adjoint
    assert np.linalg.norm(L @ kd.psi_plus.ravel()) <= 0.05
    assert np.linalg.norm(L.T @ kd.psi_minus.ravel()) <= 1e-4


def test_pinned_wave_has_trivial_kernel(two_site_front):
    problem, grid, sol = two_site_front
    kd = kernel_vectors(problem, grid, sol)
    assert kd.kernel_dim == 0
    assert kd.smallest_singular_values[0] > 0.1


# --------------------------------------------------------------------------
# eps-scaled operator

def test_eps_scaled_matches_continuum_second_difference():
    problem = epsilon_scaled_problem(1.0, 0.25, 0.3, 0.1)
    shifts, mats = problem.effective_coupling()
    assert shifts == (-0.2, -0.1, 0.0, 0.1, 0.2)
    # applied to a smooth function the stencil approximates (d1 + 4 d2) u''
    x0 = 0.3

    def u(x):
        return math.sin(1.7 * x)

    val = sum(float(A[0, 0]) * u(x0 + r) for r, A in zip(shifts, mats))
    exact = (1.0 + 4.0 * 0.25) * (-1.7**2) * u(x0)
    assert abs(val - exact) <= 5e-2


# --------------------------------------------------------------------------
# sparse operator assembly against per-shift references

def _dense_deriv(n, h):
    D = np.zeros((n, n))
    for i in range(1, n - 1):
        D[i, i - 1], D[i, i + 1] = -0.5 / h, 0.5 / h
    D[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    D[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return D


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 4), h=st.sampled_from([1.0, 0.5]),
       data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_linearization_matches_per_shift_kron_reference(N, h, data, seed):
    grid = make_grid(30.0 * h, h, (0.0,))
    n = grid.n
    steps = data.draw(st.lists(st.integers(-n, n), min_size=1, max_size=6,
                               unique=True))
    rng = np.random.default_rng(seed)
    shifts = tuple(h * m for m in sorted(steps))
    mats = tuple(rng.uniform(-1.0, 1.0, (N, N)) for _ in shifts)
    cubics = tuple(CubicNonlinearity(rng.uniform(0.5, 1.0), rng.uniform(0.1, 0.9))
                   for _ in range(N))
    problem = WaveProblem(shifts=shifts, matrices=mats, cubics=cubics)
    profile = rng.uniform(-0.5, 1.5, (n, N))
    c = rng.uniform(-1.0, 1.0)

    ref = c * sp.kron(_dense_deriv(n, h), sp.eye(N))
    for r, A in zip(shifts, mats):
        ref = ref - sp.kron(sp.eye(n, n, k=round(r / h)), A)
    ref = ref + sp.diags(problem.Fprime(profile).ravel())
    L = linearization_matrix(problem, grid, profile, c)
    assert np.max(np.abs((L - ref).toarray())) <= 1e-14

    # the affine coupling C p + b against clamped shifted copies
    clamped = sum(shifted_profile(profile, round(r / h)) @ A.T
                  for r, A in zip(shifts, mats))
    got = coupling_operator(shifts, mats, n, N, h).apply(profile)
    assert np.max(np.abs(got - clamped)) <= 1e-13


def bmat_bordered(L, column, row):
    """Reference bordered system [[L, column], [row, 0]]: sp.bmat of the
    sparse L and the dense border, which leaves out the border's exact zeros
    and keeps the stored zeros of L."""
    return sp.bmat([[L, column.reshape(-1, 1)], [row.reshape(1, -1), None]],
                   format="csc")


def assert_same_csc(got, ref):
    assert got.format == "csc" and got.shape == ref.shape
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 4), h=st.sampled_from([1.0, 0.5]), c_zero=st.booleans(),
       zero_frac=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
       data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_bordered_system_matches_bmat_reference(N, h, c_zero, zero_frac, data, seed):
    """Same indptr, indices and data bits as the sp.bmat reference, with
    exact zeros (of either sign) injected into the border vectors and
    stored zeros in L at c = 0."""
    grid = make_grid(30.0 * h, h, (0.0,))
    n = grid.n
    steps = data.draw(st.lists(st.integers(-n, n), min_size=1, max_size=6,
                               unique=True))
    rng = np.random.default_rng(seed)
    shifts = tuple(h * m for m in sorted(steps))
    mats = tuple(rng.uniform(-1.0, 1.0, (N, N)) * (rng.random((N, N)) < 0.7)
                 for _ in shifts)
    cubics = tuple(CubicNonlinearity(rng.uniform(0.5, 1.0), rng.uniform(0.1, 0.9))
                   for _ in range(N))
    problem = WaveProblem(shifts=shifts, matrices=mats, cubics=cubics)
    fprime = problem.Fprime(rng.uniform(-0.5, 1.5, (n, N)))
    c = 0.0 if c_zero else rng.uniform(-1.0, 1.0)
    column, row = rng.standard_normal((2, n, N))
    for v in (column, row):
        zero = rng.random((n, N)) < zero_frac
        v[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))

    disc = discretize(problem, grid)
    L = disc.linearization(fprime, c)
    assert_same_csc(disc.bordered(fprime, c, column, row), bmat_bordered(L, column, row))
    # L stores every position of D (x) I, C and the diagonal, zero or not
    pattern = (abs(sp.kron(disc.D, sp.eye(N))) + abs(disc.coupling.C)
               + sp.eye(n * N)).tocsr()
    pattern.eliminate_zeros()       # the zeros of kron's dense identity blocks
    pattern.sort_indices()
    np.testing.assert_array_equal(L.indptr, pattern.indptr)
    np.testing.assert_array_equal(L.indices, pattern.indices)


def test_jacobian_of_pinned_two_site_wave_matches_bmat_reference(two_site_front):
    """The pinned wave's derivative has exact zeros in its flat tails."""
    problem, grid, sol = two_site_front
    deriv = _deriv_matrix(grid.n, grid.h) @ sol.profile
    assert np.count_nonzero(deriv == 0.0) > 0
    J = assemble_jacobian(problem, grid, sol.profile, sol.c, deriv)
    L = linearization_matrix(problem, grid, sol.profile, sol.c)
    assert_same_csc(J, bmat_bordered(L, deriv, trapezoid_weights(grid)[:, None] * deriv))


def test_coupling_merged_once_and_discretization_shared(two_site_front):
    base, grid, _ = two_site_front
    problem = base.with_eps(0.3)          # base and perturbation merged
    shifts, mats = problem.effective_coupling()
    again = problem.effective_coupling()
    assert again[0] is shifts and again[1] is mats
    assert not mats.flags.writeable
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 1.0
    assert discretize(problem, grid) is discretize(problem, grid)


# --------------------------------------------------------------------------
# sparse kernel extraction against a dense SVD

def dense_kernel_reference(problem, grid, sol, rel_tol=1e-6):
    """Descending singular values of the dense linearization, its kernel
    dimension and the left singular vector at the smallest value."""
    L = linearization_matrix(problem, grid, sol.profile, sol.c).toarray()
    U, s, _ = np.linalg.svd(L)
    return s, int(np.sum(s < rel_tol * s[0])), U[:, -1]


@pytest.fixture(scope="module")
def decoupled_nagumo_copies(nagumo_front):
    """Four uncoupled copies of the Nagumo front: four translation modes, so
    every value of the first three-value pass lies below the threshold."""
    problem, grid, sol = nagumo_front
    eye = np.eye(4)
    copies = WaveProblem(shifts=problem.shifts,
                         matrices=tuple(A[0, 0] * eye for A in problem.matrices),
                         cubics=problem.cubics * 4)
    return copies, grid, dataclasses.replace(sol, profile=np.tile(sol.profile, (1, 4)))


@pytest.mark.parametrize("fixture, dim", [
    ("nagumo_front", 1), ("traveling_two_site_front", 1), ("two_site_front", 0),
    ("four_site_front", 2), ("infinite_range_front", 0), ("eps_scaled_front", 1),
    ("decoupled_nagumo_copies", 4)])
def test_kernel_matches_dense_svd(request, fixture, dim):
    problem, grid, sol = request.getfixturevalue(fixture)
    kd = kernel_vectors(problem, grid, sol)
    s, ref_dim, ref_psi = dense_kernel_reference(problem, grid, sol)
    assert kd.kernel_dim == ref_dim == dim
    assert abs(kd.s_max - s[0]) <= 1e-12 * s[0]
    got = kd.smallest_singular_values
    assert len(got) >= 3 and np.all(np.diff(got) >= 0.0)
    ref = s[::-1][:len(got)]
    resolved = ref >= 1e-11 * s[0]
    assert np.all(np.abs(got - ref)[resolved] <= 1e-6 * ref[resolved])
    if s[-2] >= 2.0 * s[-1]:
        psi = kd.psi_minus.ravel()
        cos = abs(float(psi @ ref_psi)) / np.linalg.norm(psi)
        assert cos >= 1.0 - 1e-8


def test_kernel_of_exactly_singular_linearization():
    # no coupling and no reaction: L = D, whose constant kernel leaves
    # SuperLU an exactly zero pivot at h = 1, so the shifted retry runs
    problem = WaveProblem(shifts=(0.0,), matrices=(np.zeros((1, 1)),),
                          cubics=(CubicNonlinearity(0.0, 0.3),))
    grid = make_grid(40.0, 1.0, problem.all_shifts)
    sol = WaveSolution(grid=grid, c=1.0, profile=initial_guess(grid),
                       residual_norm=0.0, newton_iters=0, phase_location=0.0,
                       pinning_suspected=False)
    L = linearization_matrix(problem, grid, sol.profile, sol.c)
    with pytest.raises(RuntimeError, match="exactly singular"):
        spla.splu(L.tocsc())
    kd = kernel_vectors(problem, grid, sol)
    s, ref_dim, _ = dense_kernel_reference(problem, grid, sol)
    assert kd.kernel_dim == ref_dim == 1
    assert kd.smallest_singular_values[0] <= 1e-14 * kd.s_max
    assert kd.smallest_singular_values[1:3] == pytest.approx(s[::-1][1:3], rel=1e-6)
    # psi_minus spans the cokernel of D
    assert np.linalg.norm(L.T @ kd.psi_minus.ravel()) <= 1e-12
