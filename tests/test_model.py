"""Model construction: the equilibria search, periodic-to-system transforms,
geometric-kernel truncation."""

import functools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefronts.bvp import periodic_problem
from latticefronts.model import (
    SPLIT_BONDS,
    CubicNonlinearity,
    LatticeModel,
    PeriodicState,
    TransformError,
    _refine_roots,
    build_infinite_range,
    build_nagumo,
    find_four_periodic_equilibria,
    find_two_periodic_equilibria,
    periodic_transform,
)

X_MINUS = 0.5 * (1.0 - math.sqrt(1.8))
X_PLUS = 0.5 * (1.0 + math.sqrt(1.8))


# --------------------------------------------------------------------------
# cubic nonlinearity

@given(st.floats(0.05, 0.95), st.floats(0.1, 5.0),
       st.floats(-2.0, 3.0))
def test_cubic_roots_and_derivative(a, k, u):
    f = CubicNonlinearity(k, a)
    assert f(0.0) == 0.0
    assert f(1.0) == 0.0
    assert abs(f(a)) <= 1e-12 * k
    eps = 1e-6
    fd = (f(u + eps) - f(u - eps)) / (2.0 * eps)
    assert abs(f.deriv(u) - fd) <= 1e-5 * (1.0 + abs(fd))


def test_cubic_bistable_sign_pattern():
    f = CubicNonlinearity(1.0, 0.3)
    assert f.deriv(0.0) > 0.0
    assert f.deriv(1.0) > 0.0
    assert f.deriv(0.3) < 0.0


# --------------------------------------------------------------------------
# root refinement of the tail rates

@settings(max_examples=200, deadline=None)
@given(root=st.floats(-1e3, 1e3), a3=st.floats(0.01, 100.0),
       a1=st.floats(0.01, 100.0), skew=st.floats(-0.99, 0.99),
       sign=st.sampled_from([1.0, -1.0]),
       left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0),
       reverse=st.booleans(), tol=st.sampled_from([1e-15, 1e-12, 1e-8]))
def test_bisect_finds_root_of_monotone_cubic(root, a3, a1, skew, sign, left,
                                             right, reverse, tol):
    # g = sign t (a3 t^2 + a2 t + a1), t = x - root, with a2^2 < 3 a3 a1:
    # strictly monotone, and the sign of g is that of sign * t in floats
    a2 = skew * math.sqrt(3.0 * a3 * a1)

    def g(x):
        t = x - root
        return sign * t * ((a3 * t + a2) * t + a1)

    lo, hi = root - left, root + right
    if reverse:
        lo, hi = hi, lo
    assert g(lo) * g(hi) < 0.0
    x = _refine_roots(g, [lo], [hi], tol)[0]
    assert abs(x - root) <= tol * max(1.0, abs(root))


def _bisect_reference(g, lo, hi, tol):
    """Scalar bisection, one call of g per step, with the refiner's stop rule."""
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or abs(hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=100, deadline=None)
@given(brackets=st.lists(st.tuples(st.integers(-20, 20), st.floats(1e-3, 1.5),
                                   st.floats(1e-3, 1.5), st.booleans()),
                         min_size=1, max_size=6),
       tol=st.sampled_from([1e-15, 1e-12, 1e-8]))
def test_refining_brackets_together_equals_refining_each_alone(brackets, tol):
    # sin changes sign once in [k pi - left, k pi + right], at k pi
    lo = [k * math.pi + (right if rev else -left) for k, left, right, rev in brackets]
    hi = [k * math.pi + (-left if rev else right) for k, left, right, rev in brackets]
    together = _refine_roots(np.sin, lo, hi, tol)
    for x, a, b, (k, *_) in zip(together, lo, hi, brackets):
        assert x == _refine_roots(np.sin, [a], [b], tol)[0]
        assert x == _bisect_reference(np.sin, a, b, tol)
        assert abs(x - k * math.pi) <= tol * max(1.0, abs(k * math.pi)) + 1e-14


# --------------------------------------------------------------------------
# 2-periodic equilibria

def test_two_periodic_equilibria_closed_form():
    states = find_two_periodic_equilibria(-0.05, 0.5)
    arrays = [st.as_array() for st in states]
    # homogeneous states 0, a, 1 are always present
    for hom in (0.0, 0.5, 1.0):
        assert min(np.max(np.abs(arr - hom)) for arr in arrays) <= 1e-10
    # for d1 = -0.05, a = 0.5 the swapped genuinely-2-periodic pair
    # (x, 1-x) solves -2*d1*(x - (1-x)) = f(x) = x(x-1/2)(x-1), which
    # reduces to x^2 - x - 0.2 = 0, giving x = (1 +- sqrt(1.8))/2
    target = np.array([X_MINUS, X_PLUS])
    err = min(np.max(np.abs(arr - target)) for arr in arrays)
    assert err <= 1e-10
    for state in states:
        assert state.residual <= 1e-9


@pytest.mark.parametrize("d1, a", [(1.0, 0.3), (-0.05, 0.5), (-0.3, 0.2)])
def test_two_periodic_homogeneous_states_are_exact(d1, a):
    # a path can end at a round-off neighbor such as -3.6e-16 or
    # 0.29999999999999993; the exact states represent their groups
    values = [st.values for st in find_two_periodic_equilibria(d1, a)]
    for hom in (0.0, a, 1.0):
        assert (hom, hom) in values
        assert not any(0.0 < max(abs(x - hom), abs(y - hom)) <= 1e-9
                       for x, y in values)
    assert values == sorted(values)


def test_two_periodic_equilibria_come_in_swapped_pairs():
    states = find_two_periodic_equilibria(-0.05, 0.5)
    arrays = [st.as_array() for st in states]
    for arr in arrays:
        swapped = arr[::-1]
        assert min(np.max(np.abs(a - swapped)) for a in arrays) <= 1e-9


def test_two_periodic_swapped_pair_of_a_strongly_repelling_lattice():
    # at d1 = -2 the swapped pair x = (1 -+ sqrt(1 - 16 d1)) / 2 lies far
    # outside [0, 1], beyond any fixed scan interval such as (-2, 3)
    values = [st.values for st in find_two_periodic_equilibria(-2.0, 0.5)]
    root = math.sqrt(33.0)
    for pair in [((1.0 - root) / 2, (1.0 + root) / 2), ((1.0 + root) / 2, (1.0 - root) / 2)]:
        assert min(np.max(np.abs(np.subtract(v, pair))) for v in values) <= 1e-12
    assert min(abs(v[0] + 2.3723) for v in values) <= 1e-4


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.2, -0.01), st.floats(0.2, 0.8))
def test_two_periodic_residual_property(d1, a):
    for state in find_two_periodic_equilibria(d1, a):
        x, y = state.values
        f = CubicNonlinearity(1.0, a)
        assert abs(2.0 * d1 * (y - x) - f(x)) <= 1e-8
        assert abs(2.0 * d1 * (x - y) - f(y)) <= 1e-8


# --------------------------------------------------------------------------
# period-2 transform

@pytest.fixture(scope="module")
def swapped_pair():
    states = find_two_periodic_equilibria(-0.05, 0.5)

    def pick(target):
        return min(states, key=lambda s: np.max(np.abs(s.as_array()
                                                       - np.asarray(target))))

    return pick((X_MINUS, X_PLUS)), pick((X_PLUS, X_MINUS))


def _two_site_weights(system):
    """The first-neighbor weights d_e = A_-1[0, 1] and d_o = A_+1[1, 0]."""
    A_left, _, A_right = system.matrices
    return A_left[0, 1], A_right[1, 0]


def test_transform_diffusion_product(swapped_pair):
    minus, plus = swapped_pair
    ts = periodic_transform(-0.05, 0.0, 0.5, minus, plus, SPLIT_BONDS[2])
    d_e, d_o = _two_site_weights(ts)
    assert abs(d_e * d_o - 0.05**2) <= 1e-12
    # swapped pair: y_+ - y_- = -(x_+ - x_-), so both weights equal -d1
    assert abs(d_e - 0.05) <= 1e-12
    assert abs(d_o - 0.05) <= 1e-12


def test_transform_nonlinearities_are_bistable(swapped_pair):
    minus, plus = swapped_pair
    ts = periodic_transform(-0.05, 0.0, 0.5, minus, plus, SPLIT_BONDS[2])
    f_e, f_o = ts.cubics
    for f in (f_e, f_o):
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0
        assert 0.0 < f.a < 1.0
        assert f.k > 0.0
    # this fixture is symmetric under the even/odd swap
    assert abs(f_e.k - f_o.k) <= 1e-12
    assert abs(f_e.a - f_o.a) <= 1e-12


def test_transform_middle_root_formula_flag(swapped_pair):
    # the closed-form middle-root shortcut -f''(x-)/(x+ - x-) - 1 disagrees
    # with the direct substitution on this fixture
    minus, plus = swapped_pair
    ts = periodic_transform(-0.05, 0.0, 0.5, minus, plus, SPLIT_BONDS[2])
    f = CubicNonlinearity(1.0, 0.5)
    d = plus.as_array() - minus.as_array()
    printed = -f.second_deriv(minus.as_array()) / d - 1.0
    assert max(abs(g.a - p) for g, p in zip(ts.cubics, printed)) > 1e-9


def test_transform_of_homogeneous_states_gives_the_exact_cubic():
    # from 0^4 to 1^4 the change of variables is the identity, so each
    # component keeps f_a itself: k = d_i^2 = 1 and k a = f'(0) = a
    states = find_four_periodic_equilibria(0.0, 1.0, 0.3)
    zero, one = (next(st for st in states if st.values == (v,) * 4) for v in (0.0, 1.0))
    ts = periodic_transform(0.0, 1.0, 0.3, zero, one, SPLIT_BONDS[4])
    assert ts.cubics == (CubicNonlinearity(1.0, 0.3),) * 4


def test_transform_rejects_non_equilibria():
    states = find_two_periodic_equilibria(-0.05, 0.5)
    bogus = states[0].__class__(period=2, values=(0.123, 0.456), residual=1.0,
                                degenerate=False)
    good = max(states, key=lambda s: max(s.values) - min(s.values))
    with pytest.raises(TransformError):
        periodic_transform(-0.05, 0.0, 0.5, bogus, good, SPLIT_BONDS[2])


def test_transform_names_the_state_whose_defect_it_refuses(swapped_pair):
    # x+ moved by 1e-10 leaves a defect of 1e-10 in component 0, which
    # divided by |d_0| = 1.34 keeps the cubic of component 0 from vanishing at 1
    minus, plus = swapped_pair
    moved = PeriodicState(2, (plus.values[0] + 1e-10, plus.values[1]), 1e-10, False)
    with pytest.raises(TransformError, match=r"input state .* component 0 "):
        periodic_transform(-0.05, 0.0, 0.5, minus, moved, SPLIT_BONDS[2])
    periodic_transform(-0.05, 0.0, 0.5, minus, plus, SPLIT_BONDS[2])


# --------------------------------------------------------------------------
# 4-periodic equilibria and transform

def test_four_periodic_contains_homogeneous():
    states = find_four_periodic_equilibria(0.0, 1.0, 0.3)
    arrays = [st.as_array() for st in states]
    for hom in (0.0, 0.3, 1.0):
        assert min(np.max(np.abs(arr - hom)) for arr in arrays) <= 1e-9


@pytest.mark.parametrize("d1, d2, a", [(0.0, 1.0, 0.3), (1.0, 0.0, 0.3)])
def test_four_periodic_homogeneous_states_are_exact(d1, d2, a):
    # a path can end within 1e-12 of 0^4; the exact state represents its group
    states = find_four_periodic_equilibria(d1, d2, a)
    values = [st.values for st in states]
    for hom in (0.0, a, 1.0):
        k = values.index((hom,) * 4)
        assert states[k].residual == 0.0
        assert not any(0.0 < np.max(np.abs(np.subtract(v, hom))) <= 1e-8
                       for v in values)


def reference_four_periodic_sweep(d1, d2, a):
    """One Newton loop per seed of a 7^4 grid, as the period-4 sweep was
    first written."""
    f = CubicNonlinearity(1.0, a)

    def rhs(u):
        w, x, y, z = u
        return np.array([d1 * (z - 2.0 * w + x) + 2.0 * d2 * (y - w) - f(w),
                         d1 * (w - 2.0 * x + y) + 2.0 * d2 * (z - x) - f(x),
                         d1 * (x - 2.0 * y + z) + 2.0 * d2 * (w - y) - f(y),
                         d1 * (y - 2.0 * z + w) + 2.0 * d2 * (x - z) - f(z)])

    found = [np.full(4, v) for v in (0.0, a, 1.0)]
    seeds = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
    for seed in np.array(np.meshgrid(seeds, seeds, seeds, seeds)).reshape(4, -1).T:
        u = seed.astype(float).copy()
        ok = False
        for _ in range(50):
            r = rhs(u)
            if np.max(np.abs(r)) <= 1e-13:
                ok = True
                break
            w, x, y, z = -2.0 * d1 - 2.0 * d2, d1, 2.0 * d2, d1
            J = np.array([[w, x, y, z], [z, w, x, y], [y, z, w, x], [x, y, z, w]])
            try:
                step = np.linalg.solve(J - np.diag(f.deriv(u)), -r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 10.0:
                break
            u = u + step
        if ok and np.max(np.abs(rhs(u))) <= 1e-12:
            found.append(u)
    # first of each cluster in lexicographic order, but an exact homogeneous
    # state represents the cluster it falls in
    exact = {(0.0,) * 4, (a,) * 4, (1.0,) * 4}
    firsts, reps = [], []
    for u in sorted(found, key=lambda v: tuple(v)):
        near = [k for k, v in enumerate(firsts) if np.max(np.abs(u - v)) <= 1e-8]
        if not near:
            firsts.append(u)
            reps.append(tuple(float(c) for c in u))
        elif tuple(u) in exact:
            reps[near[0]] = tuple(float(c) for c in u)
    return reps


@pytest.mark.parametrize("d1, d2, a", [(0.0, 1.0, 0.3), (-0.05, 0.01, 0.5)])
def test_four_periodic_sweep_matches_per_seed_loop(d1, d2, a):
    # the search lists every state the seed sweep finds
    values = np.array([st.values for st in find_four_periodic_equilibria(d1, d2, a)])
    for u in reference_four_periodic_sweep(d1, d2, a):
        assert np.min(np.max(np.abs(values - u), axis=1)) <= 1e-12


def test_four_periodic_state_of_a_strongly_repelling_lattice():
    # a nondegenerate state with components outside [-0.5, 1.5], the box of
    # the seeds of reference_four_periodic_sweep, which misses it
    states = find_four_periodic_equilibria(-1.0, -0.5, 0.2)
    target = (-1.40372, -1.40372, -0.05459, 2.65831)
    best = min(states, key=lambda st: np.max(np.abs(st.as_array() - target)))
    assert np.max(np.abs(best.as_array() - target)) <= 1e-5
    assert not best.degenerate and best.residual <= 1e-12


@pytest.mark.parametrize("period, search", [
    (2, lambda: find_two_periodic_equilibria(-0.2, 0.2)),
    (4, lambda: find_four_periodic_equilibria(-1.0, 0.3, 0.2))])
def test_degenerate_state_listed_once(period, search):
    # the summed coupling has the eigenvalue 0.8 = f'(1) (-4 d1 at period 2),
    # so the state 1 is a multiple root at the end of several homotopy paths
    states = search()
    ones = [st for st in states if np.max(np.abs(st.as_array() - 1.0)) <= 1e-3]
    assert [st.values for st in ones] == [(1.0,) * period]
    assert ones[0].degenerate
    assert len(states) <= 3 ** period
    assert states.paths_tracked == 3 ** period and states.paths_lost == 0


@settings(max_examples=60, deadline=None)
@given(d1=st.floats(-1.0, 1.0), d2=st.floats(-1.0, 1.0), a=st.floats(0.1, 0.9),
       period=st.sampled_from([2, 4]))
def test_equilibria_search_property(d1, d2, a, period):
    """Every nondegenerate state solves the equilibrium equations to 1e-12,
    no more than the Bezout number 3^P of states are listed, and the list is
    invariant under the lattice shift u_i -> u_{i+1}."""
    if period == 2:
        states = find_two_periodic_equilibria(d1, a)
    else:
        states = find_four_periodic_equilibria(d1, d2, a)
    assert states.paths_tracked == 3 ** period and states.paths_lost == 0
    assert len(states) <= 3 ** period
    for state in states:
        assert state.degenerate or state.residual <= 1e-12
    values = np.array([s.values for s in states])
    for v in values:
        assert np.min(np.max(np.abs(values - np.roll(v, -1)), axis=1)) <= 1e-9


def _summed_coupling(system):
    """The eps = 1 coupling of a transformed system, summed over its shifts."""
    return np.sum(periodic_problem(system, 1.0).effective_coupling()[1], axis=0)


def test_four_site_transform_decoupled_chains():
    # d1 = 0 splits the lattice into two interleaved distance-2 chains;
    # the transform must reflect that in an exactly block-decoupled system
    states = find_four_periodic_equilibria(0.0, 1.0, 0.3)

    def pick(target):
        return min(states, key=lambda s: np.max(np.abs(s.as_array()
                                                       - np.asarray(target))))

    fs = periodic_transform(0.0, 1.0, 0.3, pick((0.0,) * 4), pick((1.0,) * 4),
                            SPLIT_BONDS[4])
    full = _summed_coupling(fs)
    even, odd = [0, 2], [1, 3]
    assert np.max(np.abs(full[np.ix_(even, odd)])) == 0.0
    assert np.max(np.abs(full[np.ix_(odd, even)])) == 0.0


def test_four_site_coupling_rows_sum_to_zero():
    states = find_four_periodic_equilibria(-0.05, 0.01, 0.5)

    def pick(target):
        return min(states, key=lambda s: np.max(np.abs(s.as_array()
                                                       - np.asarray(target))))

    fs = periodic_transform(-0.05, 0.01, 0.5, pick((0.0,) * 4), pick((1.0,) * 4),
                            SPLIT_BONDS[4])
    rows = _summed_coupling(fs).sum(axis=1)
    assert np.max(np.abs(rows)) <= 1e-12


# competing (d1 < 0 < d2, d1 > 0 > d2) and cooperative first/second neighbors
FOUR_SITE_CASES = [(-0.05, 0.01, 0.5), (0.3, -0.1, 0.45), (1.0, 0.2, 0.3)]


def _transforms(d1, d2, a, states, split):
    """The transform of every ordered pair of the states that has one (all
    components differ and the cubics match).  A pair whose components all
    move by more than 0.1 must have one: only a smaller move lets the states'
    defects, divided by it, keep a cubic from vanishing at 1."""
    systems = []
    for minus in states:
        for plus in states:
            try:
                systems.append(periodic_transform(d1, d2, a, minus, plus, split))
            except TransformError:
                if np.min(np.abs(plus.as_array() - minus.as_array())) > 0.1:
                    raise
    return systems


@functools.lru_cache(maxsize=None)
def _four_site_systems(d1, d2, a):
    return _transforms(d1, d2, a, find_four_periodic_equilibria(d1, d2, a), SPLIT_BONDS[4])


@pytest.mark.parametrize("d1, d2, a", FOUR_SITE_CASES)
def test_four_site_split_leaves_exact_zeros_on_the_split_bonds(d1, d2, a):
    """B2 carries A2's w-x and x-y bonds whole, so the reference A2_ref
    has exact zeros there, and B2 has nothing off those bonds and the
    diagonal of the rows w, x, y.  A2 is the zero-shift matrix of the
    unsplit transform."""
    bonds = ([0, 1, 1, 2], [1, 0, 2, 1])
    off = np.ones((4, 4), bool)
    off[bonds] = False
    off[[0, 1, 2], [0, 1, 2]] = False
    systems = _four_site_systems(d1, d2, a)
    assert systems
    for fs in systems:
        A2_ref, (B2,) = fs.matrices[1], fs.pert_matrices
        unsplit = periodic_transform(d1, d2, a, fs.minus, fs.plus, frozenset())
        assert unsplit.shifts == fs.shifts
        A2 = unsplit.matrices[1]
        assert np.all(A2_ref[bonds] == 0.0)
        assert np.all(B2[bonds] == A2[bonds])
        assert np.all(B2[off] == 0.0)
        assert np.max(np.abs((A2_ref + B2) - A2)) <= 1e-14 * np.max(np.abs(A2))


def _periodic_rhs(u, d1, d2, f):
    """du_n/dt of the first/second neighbor lattice, u periodic."""
    lap1 = np.roll(u, 1) - 2.0 * u + np.roll(u, -1)
    lap2 = np.roll(u, 2) - 2.0 * u + np.roll(u, -2)
    return d1 * lap1 + d2 * lap2 - f(u)


def _period_three_states(d1, d2, a):
    """Equilibria of the period-3 lattice, polished by scipy.optimize.root from
    the 27 states of {0, a, 1}^3, the uncoupled lattice's equilibria."""
    f = CubicNonlinearity(1.0, a)
    states = {}
    for seed in np.array(np.meshgrid(*[(0.0, a, 1.0)] * 3)).reshape(3, -1).T:
        sol = scipy.optimize.root(_periodic_rhs, seed, args=(d1, d2, f), tol=1e-14)
        defect = float(np.max(np.abs(_periodic_rhs(sol.x, d1, d2, f))))
        if sol.success and defect <= 1e-12:
            states.setdefault(tuple(np.round(sol.x, 8)),
                              PeriodicState(3, tuple(sol.x), defect, False))
    return list(states.values())


def _periodic_systems(P, d1, d2, a):
    """Period-P transforms: the four-site systems for P = 4, the period-2
    ones for P = 2, the period-2 states tiled three times with their second
    neighbors split off for P = 6, and the period-3 states without a split
    for P = 3."""
    if P == 4:
        return _four_site_systems(d1, d2, a)
    if P == 3:
        return _transforms(d1, d2, a, _period_three_states(d1, d2, a), frozenset())
    pairs = find_two_periodic_equilibria(d1, a)
    if P == 6:
        pairs = [PeriodicState(6, st.values * 3, st.residual, st.degenerate) for st in pairs]
    split = frozenset((n, k) for n in range(P) for k in (-2, 2))
    return _transforms(d1, d2, a, pairs, split)


# (P, d1, d2, a): the four-site cases and competing and cooperative couplings
# at the periods 2, 3 and 6
PERIODIC_CASES = ([(4, *case) for case in FOUR_SITE_CASES]
                  + [(2, -0.05, 0.01, 0.5), (2, 1.0, -0.1, 0.3), (3, -0.05, 0.01, 0.4),
                     (3, 0.3, -0.1, 0.45), (6, -0.05, 0.01, 0.5), (6, 0.3, 0.2, 0.3)])


@functools.lru_cache(maxsize=None)
def _periodic_stacks(P, d1, d2, a):
    """x_-, d = x_+ - x_-, the eps = 1 couplings of the shifts -1, 0, 1 and
    the cubics' k and a of every system, stacked."""
    systems = _periodic_systems(P, d1, d2, a)
    assert systems
    minus = np.array([fs.minus.as_array() for fs in systems])
    d = np.array([fs.plus.as_array() for fs in systems]) - minus
    mats = []
    for fs in systems:
        shifts, merged = periodic_problem(fs, 1.0).effective_coupling()
        assert shifts == (-1.0, 0.0, 1.0)
        mats.append(merged)
    ks = np.array([[g.k for g in fs.cubics] for fs in systems])
    roots = np.array([[g.a for g in fs.cubics] for fs in systems])
    return minus, d, np.array(mats), CubicNonlinearity(ks[:, None, :], roots[:, None, :])


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(PERIODIC_CASES),
       v=st.lists(st.floats(-1.5, 2.5), min_size=12, max_size=12))
def test_four_site_change_of_variables_commutes_with_the_lattice(case, v):
    """u = x_- + d o v on 12 sites, whole periods of P in {2, 3, 4, 6}: the
    lattice's right-hand side at u is d o (the transformed system's
    right-hand side at v), for every system of the case, with the eps = 1
    coupling and the transformed cubics.  Checks the matrices, the split and
    the cubics without their formulas."""
    P, d1, d2, a = case
    minus, d, mats, cubics = _periodic_stacks(*case)
    V = np.reshape(v, (12 // P, P))
    u = minus[:, None, :] + d[:, None, :] * V                        # (S, 12/P, P)
    lattice = np.array([_periodic_rhs(w.ravel(), d1, d2, CubicNonlinearity(1.0, a))
                        for w in u]).reshape(u.shape)
    shifted = np.array([np.roll(V, -r, axis=0) for r in (-1, 0, 1)])  # V_{m + r}
    system = np.einsum("srij,rmj->smi", mats, shifted) - cubics(V)
    scale = 1.0 + np.max(np.abs(u), axis=(1, 2)) ** 3 + np.max(np.abs(d), axis=1)
    err = np.max(np.abs(lattice - d[:, None, :] * system), axis=(1, 2))
    assert np.all(err <= 1e-10 * scale)


# --------------------------------------------------------------------------
# scalar lattice models

def test_nagumo_couplings_zero_row_sum():
    model = build_nagumo(1.0, 0.25, 0.3)
    assert abs(sum(model.couplings.values())) <= 1e-15
    assert model.k_max == 2
    assert model.couplings[(0, 1)] == 1.0
    assert model.couplings[(0, 2)] == 0.25


def test_nagumo_rejects_degenerate_middle_root():
    with pytest.raises(ValueError):
        build_nagumo(1.0, 0.0, 0.0)


def test_decoupled_lattice_lists_the_uncoupled_states():
    # at d1 = 0 the sites decouple and the equilibria are {0, a, 1}^2
    states = find_two_periodic_equilibria(0.0, 0.3)
    levels = (0.0, 0.3, 1.0)
    assert [st.values for st in states] == [(x, y) for x in levels for y in levels]
    assert not any(st.degenerate for st in states)


def test_lattice_model_validates_period():
    f = CubicNonlinearity(1.0, 0.3)
    with pytest.raises(ValueError):
        LatticeModel(2, {(0, 1): 1.0}, (f,))
    with pytest.raises(ValueError, match="positive integer"):
        LatticeModel(0, {}, ())
    with pytest.raises(ValueError, match="site index 1 outside"):
        LatticeModel(1, {(1, 0): 1.0}, (f,))


def test_periodic_state_validates_length():
    with pytest.raises(ValueError, match="length must equal period"):
        PeriodicState(2, (0.0, 1.0, 0.0), 0.0, False)


# --------------------------------------------------------------------------
# geometric infinite-range kernel

def test_infinite_range_weights_and_tail_bound():
    irm = build_infinite_range(0.3, 0.5, 1.0, 2, 10)
    assert irm.base.couplings[(0, 1)] == 0.5
    assert irm.base.couplings[(0, -2)] == 0.25
    assert irm.tail.couplings[(0, 3)] == 0.125
    assert (0, 2) not in irm.tail.couplings
    assert irm.tail.k_max == 10
    # both lattices close their rows with the zero bond
    for lattice in (irm.base, irm.tail):
        assert abs(sum(lattice.couplings.values())) <= 1e-15
    with pytest.raises(ValueError, match="geometric ratio"):
        build_infinite_range(0.3, 1.5, 1.0, 1, 40)
    with pytest.raises(ValueError, match="0 < k0 < k_num"):
        build_infinite_range(0.3, 0.5, 1.0, 10, 10)
