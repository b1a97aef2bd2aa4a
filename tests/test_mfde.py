"""Characteristic matrices and asymptotic hyperbolicity checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefronts import (SPLIT_BONDS, CubicNonlinearity, PeriodicState, build_infinite_range,
                           infinite_range_problem, periodic_problem, periodic_transform)
from latticefronts import mfde
from latticefronts.mfde import (
    MFDEOperator,
    StandingWaveError,
    _zoom_refine,
    adjoint,
    asymptotic_hyperbolicity,
    characteristic_matrices,
    characteristic_matrix,
    is_hyperbolic,
    two_site_operator,
    upsilon_two_site,
)


def nagumo_operator(d1, d2, a, c):
    """Scalar operator with first/second-neighbor coupling and gamma = f'."""
    A = [np.array([[v]]) for v in (d2, d1, -2.0 * d1 - 2.0 * d2, d1, d2)]
    gm = np.array([a])            # f'(0) = a for f = u(u-a)(u-1)
    gp = np.array([1.0 - a])      # f'(1) = 1 - a
    return MFDEOperator(shifts=(-2.0, -1.0, 0.0, 1.0, 2.0),
                        matrices=tuple(A), c=c, gamma_minus=gm, gamma_plus=gp)


# --------------------------------------------------------------------------
# characteristic matrix basics

def test_characteristic_matrix_scalar_closed_form():
    op = nagumo_operator(1.0, 0.0, 0.3, 0.5)
    for theta in (0.0, 0.7, 2.0):
        val = characteristic_matrix(op, -1, 1j * theta)[0, 0]
        expect = 0.5j * theta - 2.0 * (math.cos(theta) - 1.0) + 0.3
        assert abs(val - expect) <= 1e-14


def test_characteristic_matrix_uses_requested_end():
    op = nagumo_operator(1.0, 0.0, 0.3, 0.5)
    dm = characteristic_matrix(op, -1, 0.0)[0, 0]
    dp = characteristic_matrix(op, +1, 0.0)[0, 0]
    assert abs(dm - 0.3) <= 1e-14
    assert abs(dp - 0.7) <= 1e-14


def test_operator_requires_zero_shift():
    with pytest.raises(ValueError):
        MFDEOperator(shifts=(-1.0, 1.0),
                     matrices=(np.eye(1), np.eye(1)),
                     c=1.0, gamma_minus=np.array([1.0]),
                     gamma_plus=np.array([1.0]))
    for shifts, count, message in (((0.0, 1.0, 1.0), 3, "pairwise distinct"),
                                   ((-1.0, 0.0, 1.0), 2, "one coefficient matrix")):
        with pytest.raises(ValueError, match=message):
            MFDEOperator(shifts=shifts, matrices=(np.eye(1),) * count, c=1.0,
                         gamma_minus=np.array([1.0]), gamma_plus=np.array([1.0]))


def per_point_delta(op, end, s):
    """Reference: Delta(s) = c s I - sum_j A_j e^{s r_j} + diag(gamma), one
    point at a time with scalar exponentials."""
    out = op.c * s * np.eye(op.dimension, dtype=complex) + np.diag(op.gamma(end))
    for r, A in zip(op.shifts, op.matrices):
        out = out - A * cmath.exp(s * r)
    return out


@st.composite
def random_operators(draw):
    n = draw(st.integers(1, 4))
    nonzero = draw(st.lists(st.floats(-3.0, 3.0).filter(lambda r: abs(r) > 1e-3),
                            min_size=0, max_size=5, unique=True))
    shifts = (0.0, *nonzero)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = tuple(rng.normal(size=(n, n)) for _ in shifts)
    return MFDEOperator(shifts=shifts, matrices=mats, c=draw(st.floats(-2.0, 2.0)),
                        gamma_minus=rng.normal(size=n), gamma_plus=rng.normal(size=n))


def random_points(seed, count):
    """Complex points with |Re s| <= 2, enough of them to cross block edges."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, count) + 1j * rng.uniform(-10.0, 10.0, count)


def per_shift_loop(op, end, s):
    """Reference: the stack's sum as a plain loop over the shifts in increasing
    order, each term over all points at once."""
    fixed = np.diag(op.gamma(end)).astype(complex)
    out = (op.c * s)[:, None, None] * np.eye(op.dimension) + fixed
    for r, A in sorted(zip(op.shifts, op.matrices), key=lambda term: term[0]):
        out = out - np.exp(s * r)[:, None, None] * A
    return out


@settings(max_examples=60, deadline=None)
@given(random_operators(), st.integers(0, 2**32 - 1), st.integers(1, 1200),
       st.sampled_from([-1, 1]))
def test_stack_rounds_as_a_per_shift_loop(op, seed, count, end):
    # the scans' flat minima sit in the last bits: the stack keeps the loop's
    # rounding exactly, block edges included
    s = random_points(seed, count)
    assert np.array_equal(characteristic_matrices(op, end, s), per_shift_loop(op, end, s))


@settings(max_examples=60, deadline=None)
@given(random_operators(), st.integers(0, 2**32 - 1), st.integers(1, 1200),
       st.sampled_from([-1, 1]))
def test_stack_matches_per_point_formula(op, seed, count, end):
    s = random_points(seed, count)
    stack = characteristic_matrices(op, end, s)
    assert stack.shape == (count, op.dimension, op.dimension)
    for k in np.unique(np.linspace(0, count - 1, 12).astype(int)):
        ref = per_point_delta(op, end, s[k])
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(stack[k] - ref)) <= 1e-13 * scale
        assert np.array_equal(characteristic_matrix(op, end, s[k]), stack[k])


@settings(max_examples=60, deadline=None)
@given(random_operators(), st.integers(0, 2**32 - 1), st.sampled_from([-1, 1]))
def test_adjoint_identity_on_stacks(op, seed, end):
    # Delta_adj(s) = Delta(-s)^T, checked on a whole stack at once
    s = random_points(seed, 700)
    lhs = characteristic_matrices(adjoint(op), end, s)
    rhs = characteristic_matrices(op, end, -s).transpose(0, 2, 1)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


def test_stack_overflow_raises():
    op = nagumo_operator(1.0, 0.5, 0.3, 0.5)
    with pytest.raises(FloatingPointError):
        characteristic_matrices(op, -1, np.array([0.0, 400.0]))


def test_golden_refine_brackets_are_independent():
    # cos has its minima at odd multiples of pi; one bracket around each
    minima = np.array([-math.pi, math.pi, 3.0 * math.pi])
    x, v = _zoom_refine(np.cos, minima - 0.5, minima + 0.7)
    assert np.all(np.abs(x - minima) <= 1e-7)
    for k in range(3):
        xk, vk = _zoom_refine(np.cos, minima[k:k + 1] - 0.5, minima[k:k + 1] + 0.7)
        assert xk[0] == x[k] and vk[0] == v[k]



@settings(max_examples=200, deadline=None)
@given(st.floats(-100.0, 100.0), st.floats(1e-3, 10.0), st.floats(0.0, 1.0))
def test_zoom_refine_is_as_fine_as_golden_section(lo, width, t):
    # 60 golden-section steps leave a bracket of 0.618^60 of the start; the
    # zoom's final bracket is no wider and holds the minimizer of a unimodal
    # function, so its midpoint lies within half that width of it
    golden = ((math.sqrt(5.0) - 1.0) / 2.0) ** 60
    assert (2.0 / (mfde._ZOOM_POINTS - 1)) ** mfde._ZOOM_ROUNDS <= golden
    m = lo + t * width
    x, v = _zoom_refine(lambda y: (y - m) ** 2, [lo], [lo + width])
    assert abs(x[0] - m) <= 0.5 * golden * width + 4.0 * math.ulp(abs(lo) + width)
    assert np.array_equal(v, (x - m) ** 2)


def test_eig_certificate_calls_the_stack_once_per_round(monkeypatch):
    calls = []
    stack = mfde.characteristic_matrices
    monkeypatch.setattr(mfde, "characteristic_matrices",
                        lambda op, end, s: calls.append(len(s)) or stack(op, end, s))
    op = two_site_operator(0.05, 0.05, 0.0, 0.0, (0.9, 0.9), (0.9, 0.9), 0.0)
    theta, value = mfde._eig_realpart_certificate(op, -1, 2.0 * math.pi, mfde._SCAN_POINTS)
    # the scan, one call per zoom round, and the refined midpoint
    assert len(calls) <= 1 + mfde._ZOOM_ROUNDS + 1
    assert calls[0] == (mfde._SCAN_POINTS + 1) // 2
    assert value > 0.0 and 0.0 <= theta <= math.pi


def test_eig_certificate_finds_a_zero_narrower_than_its_grid():
    # min |Re lambda| is 1/32 on 690 of the 2048 half-grid points, tied up to
    # rounding, and falls to zero in a spike narrower than dtheta = 1.5e-3:
    # the least grid point alone does not lead to the zero, but the number of
    # eigenvalues in the right half plane changes across the spike's cell
    op = MFDEOperator(shifts=(-1.0, 0.0, 1.0),
                      matrices=(np.array([[0.0, 1.375], [0.0, 0.0]]),
                                np.array([[-2.75, 1.375], [-1.5625, 3.125]]),
                                np.array([[0.0, 0.0], [-1.5625, 0.0]])),
                      c=0.0, gamma_minus=np.zeros(2), gamma_plus=np.array([-0.25, 0.5625]))
    # Delta(i theta) is singular to rounding at theta = 1.057663400424644:
    # an eigenvalue of 8.0e-14 and |det| = 3.0e-15
    delta = characteristic_matrix(op, 1, 1j * 1.057663400424644)
    assert np.min(np.abs(np.linalg.eigvals(delta))) <= 1e-12
    assert not is_hyperbolic(adjoint(op), 1).verdict
    assert not is_hyperbolic(op, 1).verdict


# --------------------------------------------------------------------------
# adjoint

def test_adjoint_characteristic_matrix_is_transpose_at_reflected_s():
    op = two_site_operator(0.3, 0.7, 0.2, 0.5, (0.4, 0.6), (0.5, 0.5), 0.8)
    adj = adjoint(op)
    for theta in (0.0, 0.9, 3.1):
        lhs = characteristic_matrix(adj, -1, 1j * theta)
        rhs = characteristic_matrix(op, -1, -1j * theta).T
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_adjoint_is_involutive():
    op = two_site_operator(0.3, 0.7, 0.2, 0.5, (0.4, 0.6), (0.5, 0.5), 0.8)
    back = adjoint(adjoint(op))
    assert back.shifts == op.shifts
    assert back.c == op.c
    for A, B in zip(back.matrices, op.matrices):
        assert np.array_equal(A, B)


# --------------------------------------------------------------------------
# closed-form two-site determinant

@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(-1.0, 1.0),
       st.floats(0.0, 1.0), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0),
       st.floats(-2.0, 2.0), st.floats(-8.0, 8.0))
def test_upsilon_matches_determinant(d_e, d_o, d2, eps, g1, g2, c, theta):
    op = two_site_operator(d_e, d_o, d2, eps, (g1, g2), (g1, g2), c)
    thetas = np.append(np.linspace(-8.0, 8.0, 1001), theta)
    dets = np.linalg.det(characteristic_matrices(op, -1, 1j * thetas))
    closed = np.array([upsilon_two_site(d_e, d_o, d2, eps, g1, g2, c, t)
                       for t in thetas])
    assert np.all(np.abs(dets - closed) <= 1e-12 * np.maximum(1.0, np.abs(dets)))


def test_upsilon_at_zero_closed_form():
    d_e, d_o, g1, g2 = 0.4, 0.9, 0.6, 0.3
    val = upsilon_two_site(d_e, d_o, 0.7, 0.5, g1, g2, 1.3, 0.0)
    assert abs(val.imag) == 0.0
    assert abs(val.real - (2 * d_e * g2 + 2 * d_o * g1 + g1 * g2)) <= 1e-14


def test_upsilon_im_zero_at_nonzero_theta_forces_negative_re():
    # with d_e d_o = d1^2, any nonzero theta annihilating the imaginary
    # part leaves Re = -theta^2 - (d_o - d_e - g1/2 + g2/2)^2
    #               - 2 d1^2 (1 + cos theta) < 0
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(200):
        d1 = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.3, 3.0)
        d_e, d_o = d1 * t, d1 / t
        g1, g2 = rng.uniform(0.05, 1.0, size=2)
        ed2 = -rng.uniform(0.3, 3.0)   # eps*d2 < 0 so Im can vanish
        c = rng.uniform(0.1, 2.0)

        def im_factor(theta):
            return 4 * ed2 * (math.cos(theta) - 1) - 2 * d_e - g1 - 2 * d_o - g2

        thetas = np.linspace(1e-3, 2 * math.pi, 400)
        vals = np.array([im_factor(t_) for t_ in thetas])
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
            assert abs(val.imag) <= 1e-8 * (1 + abs(val))
            assert val.real < 0.0
            found += 1
    assert found >= 50


# --------------------------------------------------------------------------
# hyperbolicity verdicts

def test_nagumo_operator_is_hyperbolic():
    report = asymptotic_hyperbolicity(nagumo_operator(1.0, 0.0, 0.3, 0.27))
    assert report.verdict
    assert report.min_modulus > 1e-2
    assert len(report.entries) == 4
    ends = {(e.end, e.adjoint) for e in report.entries}
    assert ends == {(-1, False), (-1, True), (1, False), (1, True)}


def test_gamma_degenerate_two_site_fails_at_theta_zero():
    # 2 d_e g2 + 2 d_o g1 + g1 g2 = 0 for d_e = d_o = 0.5, g1 = 1, g2 = -0.5
    op = two_site_operator(0.5, 0.5, 0.0, 0.0, (1.0, -0.5), (1.0, -0.5), 1.0)
    entry = is_hyperbolic(op, -1)
    assert not entry.verdict
    assert entry.min_modulus <= 1e-8
    assert abs(entry.theta_at_min) <= 1e-4


def test_standing_wave_uses_periodic_certificate():
    # commensurable shifts at c = 0 fall back to the eigenvalue certificate
    op = two_site_operator(0.05, 0.05, 0.0, 0.0, (0.9, 0.9), (0.9, 0.9), 0.0)
    entry = is_hyperbolic(op, -1)
    assert entry.method == "eig-realpart-certificate"
    assert entry.verdict


def _relisted(op, perm):
    return MFDEOperator(shifts=tuple(op.shifts[i] for i in perm),
                        matrices=tuple(op.matrices[i] for i in perm),
                        c=op.c, gamma_minus=op.gamma_minus, gamma_plus=op.gamma_plus)


@pytest.mark.parametrize("params", [
    # interior minima at theta = 0.746 and 2 pi - 0.746 (= 5.537)
    (0.01542058972349973, -0.020663905069843974, 0.0195251021118584,
     0.04658268061775628, (0.9292342295243398, 0.6448046431658381),
     (0.5721275416787188, 0.5588961190391841), 2.2339272964077378e-05),
    # a flat minimum near theta = 2.0, placed by the last bits of Delta
    (-0.049861542394898956, 0.03432858478081985, 0.009258779777411597,
     0.8166796676840568, (0.8237184720994463, 0.8988129733375111),
     (0.67394225401385, 0.8220315364956179), 3.951309410855627e-05)])
def test_certificate_entry_independent_of_shift_listing(params):
    op = two_site_operator(*params)
    entry = is_hyperbolic(op, -1)
    assert entry.method == "eig-realpart-certificate"
    # of each mirror pair theta, 2 pi - theta the one in [0, pi] is reported
    assert 0.0 <= entry.theta_at_min <= math.pi
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        other = is_hyperbolic(_relisted(op, perm), -1)
        assert abs(other.theta_at_min - entry.theta_at_min) <= 1e-9
        assert abs(other.min_modulus - entry.min_modulus) <= 1e-14 * entry.min_modulus


def test_theta_bound_sums_per_shift_spectral_norms():
    problem = infinite_range_problem(build_infinite_range(0.3, 0.5, 1.0, 1, 80), 0.1)
    op = problem.operator(0.26)
    for end in (-1, 1):
        total = 0
        for A in op.matrices:
            total += float(np.linalg.norm(A, 2))
        want = (total + float(np.max(np.abs(op.gamma(end)))) + 1.0) / abs(op.c)
        assert is_hyperbolic(op, end).theta_bound == want


def test_standing_wave_incommensurable_shifts_unsupported():
    A = np.array([[0.2]])
    Z = np.array([[-0.4]])
    op = MFDEOperator(shifts=(-1.0, 0.0, math.sqrt(2.0)),
                      matrices=(A, Z, A),
                      c=0.0, gamma_minus=np.array([0.5]),
                      gamma_plus=np.array([0.5]))
    with pytest.raises(StandingWaveError):
        is_hyperbolic(op, -1)


def test_det_scan_resolves_every_shift_period_near_the_cap():
    # operator norms 0.5 + max|gamma| 0.9, so Theta = 2.4 / c = 9e3: the
    # default 4096 points would leave fewer than 3 per period 2 pi
    op = two_site_operator(0.1, 0.1, 0.0, 0.0, (0.9, 0.9), (0.9, 0.9), 2.4 / 9.0e3)
    entry = is_hyperbolic(op, -1)
    assert entry.method == "det-scan"
    assert abs(entry.theta_bound - 9.0e3) <= 1e-6
    assert entry.dtheta <= 2.0 * math.pi / 32.0      # shift base 1
    assert entry.verdict


def test_report_entries_state_their_resolution():
    for op in (nagumo_operator(1.0, 0.0, 0.3, 0.27),
               two_site_operator(0.05, 0.05, 0.0, 0.0, (0.9, 0.9), (0.9, 0.9), 0.0)):
        for entry in asymptotic_hyperbolicity(op).entries:
            span = (entry.theta_bound if entry.method == "det-scan"
                    else 2.0 * math.pi)
            assert 0.0 < entry.dtheta <= span / 4095
            assert entry.to_json()["dtheta"] == entry.dtheta


# --------------------------------------------------------------------------
# adjoint entries from the symbol identity Delta*(i theta) = Delta(i theta)^H

@st.composite
def two_site_operators(draw, speeds):
    """Two-site limit operators with independent gammas at the two ends."""
    d_e, d_o = draw(st.floats(0.01, 2.0)), draw(st.floats(-2.0, 2.0))
    d2, eps = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 1.0))
    g1, g2, g1p, g2p = (draw(st.floats(-1.0, 2.0)) for _ in range(4))
    return two_site_operator(d_e, d_o, d2, eps, (g1, g2), (g1p, g2p), draw(speeds))


def assert_adjoint_entries_match_adjoint_scans(op, method):
    """Each adjoint entry of the report agrees with a scan of adjoint(op)."""
    adj = adjoint(op)
    report = asymptotic_hyperbolicity(op)
    assert [(e.end, e.adjoint) for e in report.entries] == [
        (-1, False), (-1, True), (1, False), (1, True)]
    for entry in report.entries[1::2]:
        ref = is_hyperbolic(adj, entry.end)
        assert entry.method == ref.method == method
        assert entry.verdict == ref.verdict
        # at a zero of det (say gamma = 0 in the two-site family) both values
        # are rounding noise with no relative precision; the verdicts agree
        if ref.verdict:
            assert (abs(entry.min_modulus - ref.min_modulus)
                    <= 1e-6 * max(entry.min_modulus, ref.min_modulus))
        assert (entry.theta_bound == ref.theta_bound
                or abs(entry.theta_bound - ref.theta_bound) <= 1e-12 * ref.theta_bound)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_operators().filter(lambda op: abs(op.c) >= 0.05),
                 two_site_operators(st.floats(0.05, 2.0))))
def test_adjoint_entries_match_adjoint_det_scans(op):
    assert_adjoint_entries_match_adjoint_scans(op, "det-scan")


@settings(max_examples=40, deadline=None)
@given(two_site_operators(st.just(0.0)))
def test_adjoint_entries_match_adjoint_eig_certificates(op):
    assert_adjoint_entries_match_adjoint_scans(op, "eig-realpart-certificate")


def test_report_scans_each_end_once(monkeypatch):
    calls = []
    scan = mfde.is_hyperbolic
    monkeypatch.setattr(mfde, "is_hyperbolic",
                        lambda op, end, tol: calls.append(end) or scan(op, end, tol))
    monkeypatch.setattr(mfde, "adjoint", lambda op: pytest.fail("adjoint built"))
    for op in (nagumo_operator(1.0, 0.0, 0.3, 0.27),
               two_site_operator(0.05, 0.05, 0.0, 0.0, (0.9, 0.9), (0.9, 0.9), 0.0)):
        calls.clear()
        assert len(asymptotic_hyperbolicity(op).entries) == 4
        assert calls == [-1, 1]


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.floats(0.01, 2.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-2.0, 2.0))
def test_two_site_problem_and_operator_share_matrices(swapped, w, d2, eps, c):
    """bvp.periodic_problem of a period-2 transform and mfde.two_site_operator
    write out the same shift matrices: the limit operators agree entry for
    entry.  The pairs are those of the two fixtures, at a drawn first-neighbor
    weight: the swapped pair x+- = (1 +- sqrt(1 - 16 d1)) / 2 of the a = 0.5
    lattice at d1 = -w, and (0, 0) -> (1, 1) of the a = 0.3 lattice at d1 = w."""
    if swapped:
        d1, a = -w, 0.5
        root = math.sqrt(1.0 - 16.0 * d1)
        x_minus, x_plus = 0.5 * (1.0 - root), 0.5 * (1.0 + root)
        ends = ((x_minus, x_plus), (x_plus, x_minus))
    else:
        d1, a = w, 0.3
        ends = ((0.0, 0.0), (1.0, 1.0))
    f = CubicNonlinearity(1.0, a)
    minus, plus = (PeriodicState(2, (x, y), max(abs(2.0 * d1 * (y - x) - f(x)),
                                               abs(2.0 * d1 * (x - y) - f(y))), False)
                   for x, y in ends)
    system = periodic_transform(d1, d2, a, minus, plus, SPLIT_BONDS[2])
    got = periodic_problem(system, eps).operator(c)
    dx, dy = plus.as_array() - minus.as_array()
    f_e, f_o = system.cubics
    want = two_site_operator(d1 * dy / dx, d1 * dx / dy, d2, eps,
                             (f_e.deriv(0.0), f_o.deriv(0.0)),
                             (f_e.deriv(1.0), f_o.deriv(1.0)), c)
    assert got.shifts == want.shifts and got.c == want.c
    for A, B in zip(got.matrices, want.matrices):
        assert np.array_equal(A, B)
    assert np.array_equal(got.gamma_minus, want.gamma_minus)
    assert np.array_equal(got.gamma_plus, want.gamma_plus)


def test_report_worst_entry_consistent():
    report = asymptotic_hyperbolicity(nagumo_operator(1.0, 0.2, 0.3, 0.4))
    worst = report.worst_entry()
    assert worst.min_modulus == report.min_modulus
    js = report.to_json()
    assert js["verdict"] == report.verdict
    assert len(js["entries"]) == 4
