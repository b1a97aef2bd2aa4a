"""Lattice ODE integration as an independent speed/profile oracle."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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
    # stencil magnitude 4 plus the worst cubic slope on [-1/2, 3/2]
    dt_max = stability_dt_max(nagumo_model)
    assert 0.02 < dt_max < 0.06
    init = front_state(100)
    with pytest.raises(ValueError):
        integrate(nagumo_model, init, 2.0 * dt_max, 1.0)


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


def test_private_csr_matvec_adds_into_its_output():
    # sim's RK4 step calls scipy's private kernel with a preallocated output
    # and relies on it adding A x to what the output holds; the entries are
    # exact in binary, so the summation order cannot change the result
    from scipy.sparse._sparsetools import csr_matvec
    A = sp.csr_matrix(np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.5, 3.0, 0.0]]))
    x = np.array([1.0, 2.0, 4.0])
    out = np.ones(3)
    csr_matvec(3, 3, A.indptr, A.indices, A.data, x, out)
    assert np.array_equal(out, 1.0 + A @ x)


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
    init = front_state(400)
    dt = 0.9 * stability_dt_max(model)
    # 191, 188 and 143 steps: the last one is not on a stride
    traj = integrate(model, init, dt, 6.0, stride=7)
    times, states = reference_integrate(model, init, dt, 6.0, 7)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


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


def test_snapshot_callback_sees_every_recorded_snapshot(nagumo_model):
    """(t, u) copies taken in the callback are the trajectory's times and
    rows, the initial state and an off-stride last step included."""
    seen = []
    init = dataclasses.replace(front_state(90), t=1.5)
    # 250 steps: the last one is not on a stride of 7
    traj = integrate(nagumo_model, init, 0.02, 5.0, stride=7,
                     snapshot=lambda t, u: seen.append((t, u.copy())))
    assert len(seen) == len(traj.times) == 1 + 250 // 7 + 1
    assert np.array_equal([t for t, _ in seen], traj.times)
    assert np.array_equal(np.array([u for _, u in seen]), traj.states)


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
