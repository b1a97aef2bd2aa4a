"""Lattice ODE integration as an independent speed/profile oracle."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import latticefronts.sim
from latticefronts.model import (CubicNonlinearity, LatticeModel, build_infinite_range,
                                 build_nagumo)
from latticefronts.sim import (
    _lattice_rhs,
    BlowUpError,
    NoFrontError,
    SimState,
    check_monotonicity,
    extract_profile,
    front_state,
    integrate,
    measure_speed,
    stability_dt_max,
)


@pytest.fixture(scope="module")
def nagumo_model():
    return build_nagumo(1.0, 0.0, 0.3)


@pytest.fixture(scope="module")
def nagumo_traj(nagumo_model):
    init = front_state(200, front_at=0.7)
    dt = stability_dt_max(nagumo_model)
    return integrate(nagumo_model, init, dt, 150.0, stride=5)


# --------------------------------------------------------------------------
# setup and stepping

def test_stability_guard_value(nagumo_model):
    # half of RK4's real interval 2.785 over the stencil magnitude 4 plus
    # the worst cubic slope 3.15 on [-1/2, 3/2]
    dt_max = stability_dt_max(nagumo_model)
    assert 0.19 < dt_max < 0.2
    init = front_state(100)
    with pytest.raises(ValueError):
        integrate(nagumo_model, init, 2.0 * dt_max, 1.0)


def rk4_amplification(z):
    """|R(z)| of classical RK4 on the test equation u' = lambda u, z = dt lambda."""
    return np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)


def gershgorin_sum(model):
    """Largest per-site coupling magnitude plus the largest |F'| on
    [-1/2, 3/2]; F' is a quadratic, so that maximum is at an end or the vertex."""
    per_site = [sum(abs(a) for (n, _k), a in model.couplings.items() if n == site)
                for site in range(model.period)]
    slope = max(float(np.max(np.abs(c.deriv(np.array([-0.5, 1.5, (1.0 + c.a) / 3.0])))))
                for c in model.cubics)
    return max(per_site) + slope


def test_rk4_real_stability_interval():
    """R(z) = 1 has its one negative real root at -2.7853, so |R| <= 1 on
    [-2.785, 0] and not beyond."""
    roots = np.roots([1 / 24, 1 / 6, 1 / 2, 1.0])     # (R(z) - 1) / z
    (edge,) = roots[np.abs(roots.imag) < 1e-12].real
    assert -2.786 < edge < -2.785
    assert rk4_amplification(np.linspace(-2.785, 0.0, 10001)).max() <= 1.0
    assert rk4_amplification(-2.786) > 1.0


def drawn_lattices():
    weight, slope_k, root = st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(-0.5, 1.5)
    nagumo = st.builds(build_nagumo, st.floats(0.0, 3.0), st.floats(-1.0, 1.0),
                       st.floats(0.01, 0.99))
    infinite = st.builds(
        lambda a, q, scale, k0, extra, eps:
            build_infinite_range(a, q, scale, k0, k0 + extra).full_model(eps),
        st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 3.0),
        st.integers(1, 3), st.integers(1, 40), st.floats(0.0, 1.0))

    def periodic(P):
        return st.builds(
            lambda ws, cubics: LatticeModel(
                P, {(n, k): w for (n, k), w in zip(
                    [(n, k) for n in range(P) for k in range(-2, 3)], ws)},
                tuple(CubicNonlinearity(k, a) for k, a in cubics)),
            st.lists(weight, min_size=5 * P, max_size=5 * P),
            st.lists(st.tuples(slope_k, root), min_size=P, max_size=P))
    return st.one_of(nagumo, infinite, periodic(2), periodic(4))


@settings(max_examples=60, deadline=None)
@given(model=drawn_lattices(), seed=st.integers(0, 2**32 - 1))
def test_stability_guard_keeps_rk4_stable_on_the_gershgorin_interval(model, seed):
    """At the guard's step, RK4 damps every z on dt [-rho, 0], and rho bounds
    every eigenvalue of the lattice's Jacobian at a state inside [-1/2, 3/2]."""
    rho = gershgorin_sum(model)
    dt = stability_dt_max(model)
    assert dt * rho <= 0.5 * 2.785 * (1.0 + 1e-12)
    assert rk4_amplification(np.linspace(-dt * rho, 0.0, 2001)).max() <= 1.0
    M = 2 * max(model.k_max, 1) + 4 * model.period
    u = np.random.default_rng(seed).uniform(-0.5, 1.5, M)
    rhs, h = _lattice_rhs(model, M), 1e-7
    base = rhs(u).copy()
    jac = np.column_stack([(rhs(u + h * e) - base) / h for e in np.eye(M)])
    assert np.max(np.abs(np.linalg.eigvals(jac))) <= rho * (1.0 + 1e-5) + 1e-5


@pytest.mark.parametrize("M, front_at, width", [
    (60, 0.25, 2.0), (400, 0.7, 2.0), (1600, 0.9, 2.0), (3001, 0.95, 0.5)])
def test_front_state_matches_the_logistic_formula(M, front_at, width):
    """Bit for bit the logistic step, also where exp overflows to inf, and
    without a floating-point warning."""
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-(np.arange(M) - front_at * M) / width))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = front_state(M, front_at, width).sites
    assert np.array_equal(got, want)


def test_front_state_shape():
    init = front_state(120, front_at=0.4)
    assert init.sites.shape == (120,)
    assert init.sites[0] <= 1e-6
    assert init.sites[-1] >= 1.0 - 1e-6
    assert np.all(np.diff(init.sites) >= 0.0)
    cross = np.flatnonzero(init.sites >= 0.5)[0]
    assert abs(cross - 0.4 * 120) <= 2


def test_integrate_snapshot_layout(nagumo_model, nagumo_traj):
    assert nagumo_traj.states.shape[1] == 200
    assert nagumo_traj.times[0] == 0.0
    dts = np.diff(nagumo_traj.times[:-1])
    assert np.allclose(dts, dts[0])
    assert np.all(np.isfinite(nagumo_traj.states))


def test_front_stays_monotone_under_integration(nagumo_traj):
    last = nagumo_traj.states[-1]
    report = check_monotonicity(last)
    assert report.monotone
    assert report.direction == 1


def reference_rhs(model, u, left_v, right_v):
    """Per-coupling loop over the sites padded with the boundary pattern."""
    M, p = len(u), model.k_max
    idx = np.arange(-p, M + p)
    padded = np.empty(M + 2 * p)
    padded[p: p + M] = u
    padded[:p] = left_v[idx[:p] % model.period]
    padded[p + M:] = right_v[idx[p + M:] % model.period]
    out = np.zeros(M)
    for (n, k), a in model.couplings.items():
        sel = np.arange(n, M, model.period)
        out[sel] += a * padded[sel + k + p]
    for n in range(model.period):
        sel = np.arange(n, M, model.period)
        out[sel] -= model.cubics[n](u[sel])
    pinned = max(p, 1)
    out[:pinned] = 0.0
    out[-pinned:] = 0.0
    return out


def test_private_dia_matvec_adds_into_its_output():
    """sim's RK4 step calls scipy's private DIA kernel as dia_matvec(n_row,
    n_col, n_diags, L, offsets, diags, x, y), with y a contiguous slice of a
    preallocated output, and relies on it adding A x to what y holds, where
    A[r, r + offsets[d]] = diags[d, r + offsets[d]].  n_row, n_col and L all
    differ, and the entries are exact in binary, so the summation order
    cannot change the result."""
    from scipy.sparse._sparsetools import dia_matvec
    offsets = np.array([0, 1, 2], dtype=np.int32)
    # rows of length L = 5; the last column lies past n_col and is never read
    diags = np.array([[2.0, -1.0, 0.5, 8.0, 64.0],
                      [0.0, 3.0, 0.25, 4.0, 64.0],
                      [1.0, 2.0, -4.0, 0.125, 64.0]])
    A = np.array([[2.0, 3.0, -4.0, 0.0],
                  [0.0, -1.0, 0.25, 0.125]])
    x = np.array([1.0, 2.0, 4.0, 0.5])
    out = np.ones(4)
    dia_matvec(2, 4, 3, 5, offsets, diags, x, out[1:3])
    assert np.array_equal(out, [1.0, *(1.0 + A @ x), 1.0])
    assert np.array_equal(out, [1.0, -7.0, 0.0625, 1.0])


def test_sim_imports_no_scipy_at_module_level():
    """scipy is imported where the right-hand side is built, not on import."""
    tree = ast.parse(Path(latticefronts.sim.__file__).read_text())
    top = [alias.name for node in tree.body if isinstance(node, ast.Import)
           for alias in node.names]
    top += [node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in top if name.split(".")[0] == "scipy"]


def csr_lattice_rhs(model, M):
    """The right-hand side as a CSR matrix built through COO, which sums each
    row in ascending column order, and the same reaction term."""
    from scipy.sparse._sparsetools import csr_matvec
    pinned = max(model.k_max, 1)
    site = np.arange(M)
    rows, cols, vals = [], [], []
    for (n, k), a in model.couplings.items():
        sel = site[(site % model.period == n) & (site >= pinned) & (site < M - pinned)]
        rows.append(sel)
        cols.append(sel + k)
        vals.append(np.full(len(sel), a))
    C = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(M, M))
    k_free = np.array([f.k for f in model.cubics])[site % model.period]
    k_free[:pinned] = 0.0
    k_free[M - pinned:] = 0.0
    a_site = np.array([f.a for f in model.cubics])[site % model.period]

    def rhs(u):
        out = np.zeros(M)
        csr_matvec(M, M, C.indptr, C.indices, C.data, u, out)
        return out - k_free * u * (u - a_site) * (u - 1.0)
    return rhs


@st.composite
def gapped_lattices(draw):
    """Period 1-4 and k_max 0-6; each site takes its own subset of a drawn
    shift set, so the shifts have gaps and a shift of one site is missing
    at another.  Weights include 0.0, -0.0 and 1e-13."""
    P, k_max = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    shifts = sorted(draw(st.sets(st.integers(-k_max, k_max), min_size=1)))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13]), st.floats(-3.0, 3.0))
    couplings = {(n, k): draw(weight)
                 for n in range(P)
                 for k in draw(st.lists(st.sampled_from(shifts), unique=True))}
    if not couplings:
        couplings[(draw(st.integers(0, P - 1)), draw(st.sampled_from(shifts)))] = draw(weight)
    cubics = tuple(CubicNonlinearity(draw(st.floats(0.0, 3.0)), draw(st.floats(-0.5, 1.5)))
                   for _ in range(P))
    return LatticeModel(P, couplings, cubics)


@settings(max_examples=300, deadline=None)
@given(model=gapped_lattices(), data=st.data())
def test_rhs_is_the_csr_rhs_byte_for_byte(model, data):
    """The DIA right-hand side adds each row in the CSR row's order, so it
    equals the CSR one in every bit, signed zeros included."""
    M = data.draw(st.integers(2 * max(model.k_max, 1) + 1, 120))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    u = np.array(data.draw(st.lists(value, min_size=M, max_size=M)))
    assert _lattice_rhs(model, M)(u).tobytes() == csr_lattice_rhs(model, M)(u).tobytes()


@pytest.mark.parametrize("name", ["nagumo", "ir-k40"])
def test_rhs_is_the_csr_rhs_byte_for_byte_on_the_bench_models(name):
    model = RK4_MODELS[name]
    u = front_state(400).sites + 0.01 * np.random.default_rng(5).standard_normal(400)
    u[::7] = 0.0
    rhs, out = _lattice_rhs(model, 400), np.full(400, np.nan)
    assert rhs(u, out=out) is out
    assert out.tobytes() == csr_lattice_rhs(model, 400)(u).tobytes()


@pytest.mark.parametrize("model, exact", [
    (build_nagumo(1.0, 0.0, 0.3), True),
    (build_infinite_range(0.3, 0.5, 1.0, 1, 40).full_model(0.1), False)])
def test_rhs_matches_per_coupling_loop(model, exact):
    init = front_state(400)
    u = init.sites + 0.01 * np.random.default_rng(4).standard_normal(400)
    got = _lattice_rhs(model, 400)(u)
    want = reference_rhs(model, u, np.zeros(model.period), np.ones(model.period))
    if exact:
        # three couplings per site, summed in the loop's order
        assert np.array_equal(got, want)
    else:
        # 81 couplings per site, summed in column order instead
        assert np.max(np.abs(got - want)) <= 1e-14


def reference_integrate(model, init, dt, T, stride):
    """Allocating RK4 loop: a fresh array per stage, snapshots in a list."""
    u = np.array(init.sites, dtype=float)
    rhs = _lattice_rhs(model, len(u))
    steps = int(round(T / dt))
    times, states = [init.t], [u.copy()]
    for step in range(1, steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise BlowUpError("non-finite state", time=init.t + step * dt)
        if step % stride == 0 or step == steps:
            times.append(init.t + step * dt)
            states.append(u.copy())
    return np.array(times), np.array(states)


RK4_MODELS = {
    "nagumo": build_nagumo(1.0, 0.0, 0.3),
    "nagumo-d2": build_nagumo(1.0, -0.2, 0.35),
    "ir-k40": build_infinite_range(0.3, 0.5, 1.0, 1, 40).full_model(0.1),
}


@pytest.mark.parametrize("name", sorted(RK4_MODELS))
def test_integrate_matches_allocating_rk4(name):
    model = RK4_MODELS[name]
    init = dataclasses.replace(front_state(400), t=1.5)
    dt = 0.9 * stability_dt_max(model)
    # 26, 34 and 34 steps: the last one is not on a stride
    traj = integrate(model, init, dt, 6.0, stride=7)
    times, states = reference_integrate(model, init, dt, 6.0, 7)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    # the initial state, every 7th step and the off-stride last one, from t = 1.5
    steps = int(round(6.0 / dt))
    assert steps % 7 != 0
    assert np.array_equal(traj.times, [1.5 + s * dt for s in [*range(0, steps, 7), steps]])


@settings(max_examples=30, deadline=None)
@given(T=st.floats(0.0, 3.0), dt_frac=st.floats(0.2, 1.0),
       stride=st.integers(1, 40), start=st.floats(-5.0, 5.0))
def test_integrate_matches_allocating_rk4_property(T, dt_frac, stride, start):
    """Any T, dt and stride, whether or not the stride divides the steps."""
    model = RK4_MODELS["nagumo-d2"]
    init = dataclasses.replace(front_state(60, front_at=0.4), t=start)
    dt = dt_frac * stability_dt_max(model)
    traj = integrate(model, init, dt, T, stride=stride)
    times, states = reference_integrate(model, init, dt, T, stride)
    steps = int(round(T / dt))
    assert len(traj.times) == 1 + steps // stride + (steps % stride != 0)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


def test_blow_up_time_matches_allocating_rk4(nagumo_model):
    init = front_state(80)
    seeded = dataclasses.replace(init, sites=init.sites.copy())
    seeded.sites[40] = 1e200
    dt = stability_dt_max(nagumo_model)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as got:
            integrate(nagumo_model, seeded, dt, 5.0, stride=10)
        with pytest.raises(BlowUpError) as want:
            reference_integrate(nagumo_model, seeded, dt, 5.0, 1)
    assert got.value.time is not None
    assert got.value.time == want.value.time


def test_integrate_rejects_nonpositive_stride(nagumo_model):
    with pytest.raises(ValueError):
        integrate(nagumo_model, front_state(60), 0.02, 1.0, stride=0)


# --------------------------------------------------------------------------
# speed measurement

def test_measured_speed_sign_and_fit(nagumo_traj):
    speed = measure_speed(nagumo_traj)
    # u_n(t) = phi(n + c t): positive speed means leftward crossing drift
    assert 0.2 < speed.c_measured < 0.35
    # the crossing wobbles within a cell as the front hops sites
    assert speed.fit_residual <= 1e-2
    assert speed.window[1] == nagumo_traj.times[-1]


def reference_measure_speed(traj, level):
    """The crossing search one snapshot at a time: (c, fit residual), or
    None when some snapshot of the fit window has no crossing."""
    sel = np.arange(0, traj.sites, traj.model.period)
    positions = sel.astype(float)
    n_keep = max(2, int(round(len(traj.times) * 0.5)))
    times, found = traj.times[-n_keep:], []
    for snap in traj.states[-n_keep:]:
        chain = snap[sel]
        above = chain >= level
        idx = np.flatnonzero(above[:-1] != above[1:])
        if len(idx) == 0:
            return None
        i = idx[0]
        v0, v1 = chain[i], chain[i + 1]
        found.append(float(positions[i] + (level - v0) / (v1 - v0)
                           * (positions[i + 1] - positions[i])))
    found = np.array(found)
    slope, intercept = np.polyfit(times, found, 1)
    return float(-slope), float(np.sqrt(np.mean((found - (slope * times + intercept)) ** 2)))


@pytest.mark.parametrize("name, level, stride", [
    ("nagumo", 0.5, 5), ("nagumo", 0.1, 3), ("nagumo", 0.97, 10),
    ("nagumo", 1.2, 5), ("ir-k40", 0.5, 4), ("ir-k40", 0.8, 7),
    ("two-periodic", 0.5, 4), ("two-periodic", 0.3, 4),
    ("nagumo-plateau", 0.5, 5), ("nagumo-plateau", 0.2, 6)])
def test_measure_speed_matches_per_snapshot_loop(name, level, stride):
    """The vectorized crossing search gives the loop's speed and residual bit
    for bit, and raises where the loop finds no crossing."""
    if name == "two-periodic":
        traj = two_periodic_traj()
    elif name == "nagumo-plateau":      # two crossings per snapshot: the first counts
        rise = front_state(200, front_at=0.3).sites
        init = SimState(sites=np.minimum(rise, rise[::-1]), t=0.0)
        traj = integrate(RK4_MODELS["nagumo"], init, 0.03, 30.0, stride=stride)
    else:
        model = RK4_MODELS[name]
        traj = integrate(model, front_state(200, front_at=0.7),
                         0.9 * stability_dt_max(model), 40.0, stride=stride)
    want = reference_measure_speed(traj, level)
    if want is None:
        with pytest.raises(NoFrontError, match=f"does not span level {level} "):
            measure_speed(traj, level=level)
        return
    got = measure_speed(traj, level=level)
    assert (got.c_measured, got.fit_residual) == want


def test_no_front_error_on_flat_state(nagumo_model):
    flat = SimState(sites=np.full(80, 0.9), t=0.0)
    traj = integrate(nagumo_model, flat, 0.03, 5.0)
    with pytest.raises(NoFrontError):
        measure_speed(traj)


# --------------------------------------------------------------------------
# co-moving profile

def test_extract_profile_is_a_clean_traveling_wave(nagumo_traj):
    speed = measure_speed(nagumo_traj)
    xi, prof, scatter, warn = extract_profile(nagumo_traj, speed.c_measured)
    assert not warn
    assert scatter <= 0.01
    assert prof.shape == (len(xi), 1)
    assert check_monotonicity(prof).monotone
    # profile connects the equilibria inside the window
    assert prof[0, 0] <= 0.02
    assert prof[-1, 0] >= 0.98


def reference_extract_profile(traj, c, window=0.5, h_out=0.1, margin=2.0):
    """Every resampled snapshot in one stack; mean and deviations over it."""
    N = traj.model.period
    n_keep = max(2, int(round(len(traj.times) * window)))
    times, snaps = traj.times[-n_keep:], traj.states[-n_keep:]
    j_idx = np.arange(traj.sites // N, dtype=float)
    lo = max(j_idx[0] + c * t for t in times) + margin
    hi = min(j_idx[-1] + c * t for t in times) - margin
    xi = np.arange(lo, hi, h_out)
    stacks = np.empty((len(snaps), len(xi), N))
    for s, (t, snap) in enumerate(zip(times, snaps)):
        for i in range(N):
            vals = snap[np.arange(i, traj.sites, N)]
            stacks[s, :, i] = np.interp(xi, j_idx[: len(vals)] + c * t, vals)
    mean = stacks.mean(axis=0)
    return xi, mean, float(np.max(np.abs(stacks - mean[None])))


def two_periodic_traj():
    model = LatticeModel(2, {(0, -1): 1.0, (0, 0): -2.0, (0, 1): 1.0,
                             (1, -1): 1.0, (1, 0): -2.0, (1, 1): 1.0},
                         (CubicNonlinearity(1.0, 0.3), CubicNonlinearity(1.5, 0.35)))
    init = front_state(200, front_at=0.6)
    return integrate(model, init, stability_dt_max(model), 60.0, stride=4)


@pytest.mark.parametrize("case", ["measured", "wrong-speed", "two-periodic"])
def test_extract_profile_matches_stacked_reference(nagumo_traj, case):
    traj = two_periodic_traj() if case == "two-periodic" else nagumo_traj
    c = -0.4 if case == "wrong-speed" else measure_speed(traj).c_measured
    xi, mean, scatter, _ = extract_profile(traj, c)
    want_xi, want_mean, want_scatter = reference_extract_profile(traj, c)
    assert mean.shape[1] == traj.model.period
    assert np.array_equal(xi, want_xi)
    assert np.array_equal(mean, want_mean)
    assert scatter == want_scatter


def test_extract_profile_wrong_speed_scatters(nagumo_traj):
    _, _, scatter, warn = extract_profile(nagumo_traj, -0.4)
    assert warn
    assert scatter > 0.05


# --------------------------------------------------------------------------
# monotonicity report

def test_check_monotonicity_flags_violation():
    v = np.linspace(0.0, 1.0, 50)
    v[20] += 0.1
    report = check_monotonicity(v)
    assert not report.monotone
    assert report.direction == 1
    assert report.worst_index in (20, 21)
    assert report.worst_violation >= 0.05


def test_check_monotonicity_decreasing_direction():
    report = check_monotonicity(np.linspace(1.0, 0.0, 30))
    assert report.monotone
    assert report.direction == -1
    assert report.worst_violation == 0.0
