"""Direct time integration of lattice ODEs.

Independent oracle for the boundary-value solver: fixed-step RK4
trajectories, level-crossing speed measurement, co-moving profile
extraction, and monotonicity checks.  Speed sign follows the wave
ansatz u_n(t) = phi(n + c t) used by the rest of the package, so the
reported c is minus the drift slope of a level crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LatticeModel

__all__ = [
    "SimState",
    "Trajectory",
    "SpeedMeasurement",
    "MonotonicityReport",
    "BlowUpError",
    "NoFrontError",
    "stability_dt_max",
    "front_state",
    "integrate",
    "measure_speed",
    "extract_profile",
    "check_monotonicity",
]

_WINDOW = 0.5           # trailing share of the snapshots the speed fit and profile use
_PROFILE_STEP = 0.1     # xi spacing of the co-moving profile
_PROFILE_MARGIN = 2.0   # its distance from the chain ends
_MONOTONE_TOL = 1e-8    # largest backward step check_monotonicity ignores
_SLOPE_RANGE = (-0.5, 1.5)  # u-interval of the reaction slope in the Gershgorin sum
_RK4_REAL_BOUND = 2.785     # classical RK4 is stable on [-2.785, 0] of the real axis
_RK4_SAFETY = 0.5           # share of that interval the step guard admits


class BlowUpError(RuntimeError):
    def __init__(self, msg, time=None):
        super().__init__(msg)
        self.time = time


class NoFrontError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimState:
    sites: np.ndarray        # shape (M,)
    t: float


@dataclass(frozen=True)
class Trajectory:
    model: LatticeModel
    record: np.ndarray       # shape (num_snapshots, 1 + M): t, then the M sites

    @property
    def times(self) -> np.ndarray:
        return self.record[:, 0]

    @property
    def states(self) -> np.ndarray:
        return self.record[:, 1:]

    @property
    def sites(self) -> int:
        return self.record.shape[1] - 1


@dataclass(frozen=True)
class SpeedMeasurement:
    c_measured: float
    fit_residual: float
    window: tuple[float, float]
    level: float


@dataclass(frozen=True)
class MonotonicityReport:
    monotone: bool
    direction: int
    worst_violation: float
    worst_index: int


def _max_reaction_slope(model: LatticeModel) -> float:
    u = np.linspace(*_SLOPE_RANGE, 257)
    return max(float(np.max(np.abs(c.deriv(u)))) for c in model.cubics)


def stability_dt_max(model: LatticeModel) -> float:
    """Largest RK4 step _RK4_SAFETY * _RK4_REAL_BOUND / rho, where the
    Gershgorin sum rho (stencil magnitude plus reaction slope) bounds the
    spectral radius of the lattice's Jacobian."""
    per_site = np.zeros(model.period)
    for (n, _k), a in model.couplings.items():
        per_site[n] += abs(a)
    rho = float(np.max(per_site)) + _max_reaction_slope(model)
    return _RK4_SAFETY * _RK4_REAL_BOUND / rho


def front_state(M: int, front_at: float = 0.25, width: float = 2.0) -> SimState:
    """Logistic step from the equilibrium 0 on the left to 1 on the right."""
    # far left of the step the exponential overflows to inf, which gives 0 exactly
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-(np.arange(M) - front_at * M) / width))
    return SimState(sites=s, t=0.0)


def _lattice_rhs(model: LatticeModel, M: int):
    """Right-hand side u -> C u - F(u) of M sites, zero on the pinned cells.

    max(k_max, 1) cells are pinned at each end, so every coupling that
    reaches past an end starts from a pinned cell: C holds only on-chain
    couplings of the free cells, and the boundary values never enter.  The
    reaction coefficient is zero on the pinned cells.

    C is one diagonal per distinct shift k, in ascending k, over the free
    rows.  A row adds its diagonals in that order, which is the column order
    a CSR row sums in; a diagonal's zero entry, where site n has no coupling
    of shift k, adds +-0.0 to a sum that starts at +0.0 and so changes no bit
    while the state is finite.

    The returned ``rhs(u, out=None)`` writes into ``out`` when one is given.
    It keeps its scratch vectors between calls, so one ``rhs`` serves one
    integration at a time.
    """
    # the kernel behind dia_matrix @ vector, here called with a preallocated output
    from scipy.sparse._sparsetools import dia_matvec

    pinned = max(model.k_max, 1)
    free = max(M - 2 * pinned, 0)
    residue = np.arange(M) % model.period
    shifts = sorted({k for _n, k in model.couplings})
    row_of = {k: d for d, k in enumerate(shifts)}
    # diags[d, j] multiplies u[j] in the row of site j - k, k = shifts[d]
    diags = np.zeros((len(shifts), M))
    for (n, k), a in model.couplings.items():
        diags[row_of[k], residue == (n + k) % model.period] = a
    # row r of the block is site r + pinned
    offsets = np.array(shifts, dtype=np.int32) + np.int32(pinned)
    k_free = np.array([f.k for f in model.cubics])[residue]
    k_free[:pinned] = 0.0
    k_free[M - pinned:] = 0.0
    a_site = np.array([f.a for f in model.cubics])[residue]
    reaction, diff = np.empty(M), np.empty(M)

    def rhs(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(M)
        out.fill(0.0)
        # out[free rows] += C u
        dia_matvec(free, M, len(offsets), M, offsets, diags, u, out[pinned:pinned + free])
        # k u (u - a) (u - 1), multiplied left to right
        np.multiply(k_free, u, out=reaction)
        np.subtract(u, a_site, out=diff)
        np.multiply(reaction, diff, out=reaction)
        np.subtract(u, 1.0, out=diff)
        np.multiply(reaction, diff, out=reaction)
        return np.subtract(out, reaction, out=out)
    return rhs


def integrate(model: LatticeModel, init: SimState, dt: float, T: float,
              stride: int = 1) -> Trajectory:
    """Classical RK4 with fixed step; the end cells keep their initial values.

    Records the initial state, every ``stride``-th step and the last step,
    each as one row t, u of the trajectory's record.  The stages run in
    preallocated buffers, in the operation order of
    u + (dt/6) (k1 + 2 k2 + 2 k3 + k4) with k2 = f(u + (dt/2) k1) etc.
    """
    dt_max = stability_dt_max(model)
    if dt > dt_max:
        raise ValueError(f"dt={dt} exceeds the stability guard dt_max={dt_max:.6g}")
    if stride < 1:
        raise ValueError(f"stride={stride} must be a positive integer")
    u = np.array(init.sites, dtype=float)
    M = len(u)
    rhs = _lattice_rhs(model, M)
    steps = int(round(T / dt))
    record = np.empty((1 + steps // stride + (steps % stride != 0), 1 + M))
    record[0, 0], record[0, 1:] = init.t, u
    rows = 1
    k1, k2, k3, k4, w = (np.empty(M) for _ in range(5))
    finite = np.empty(M, dtype=bool)
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(1, steps + 1):
        rhs(u, out=k1)
        np.add(u, np.multiply(half, k1, out=w), out=w)
        rhs(w, out=k2)
        np.add(u, np.multiply(half, k2, out=w), out=w)
        rhs(w, out=k3)
        np.add(u, np.multiply(dt, k3, out=w), out=w)
        rhs(w, out=k4)
        np.add(k1, np.multiply(2.0, k2, out=w), out=w)
        np.add(w, np.multiply(2.0, k3, out=k3), out=w)
        np.add(w, k4, out=w)
        np.add(u, np.multiply(sixth, w, out=w), out=u)
        if not np.isfinite(u, out=finite).all():
            raise BlowUpError(f"non-finite state at t={init.t + step * dt:.6g}",
                              time=init.t + step * dt)
        if step % stride == 0 or step == steps:
            record[rows, 0], record[rows, 1:] = init.t + step * dt, u
            rows += 1
    return Trajectory(model=model, record=record)


def _trailing(traj: Trajectory):
    """Times and snapshots of the trajectory's trailing _WINDOW share, at least two."""
    n_keep = max(2, int(round(len(traj.times) * _WINDOW)))
    return traj.times[-n_keep:], traj.states[-n_keep:]


def measure_speed(traj: Trajectory, level: float = 0.5) -> SpeedMeasurement:
    """Least-squares drift of the first component's level crossing over the
    trailing window.

    Returns c in the phi(n + c t) convention (minus the crossing slope).
    """
    N = traj.model.period
    times, snaps = _trailing(traj)
    chains = snaps[:, ::N]      # component 0, sites 0, N, 2N, ...: a view, not a copy
    flips = np.diff(chains >= level, axis=1)
    if not flips.any(axis=1).all():
        raise NoFrontError(f"component 0 does not span level {level} in the fit window")
    # each snapshot's first crossing, interpolated between sites N i and N (i + 1)
    i, rows = flips.argmax(axis=1), np.arange(len(chains))
    v0, v1 = chains[rows, i], chains[rows, i + 1]
    positions = N * i + (level - v0) / (v1 - v0) * N
    slope, intercept = np.polyfit(times, positions, 1)
    rms = float(np.sqrt(np.mean((positions - (slope * times + intercept)) ** 2)))
    return SpeedMeasurement(c_measured=float(-slope), fit_residual=rms,
                            window=(float(times[0]), float(times[-1])),
                            level=level)


def extract_profile(traj: Trajectory, c: float):
    """Resample the trajectory onto the co-moving coordinate xi = j + c t.

    Returns (xi grid, mean profile (len(xi), N), scatter, warning flag);
    scatter is the max deviation of any snapshot from the mean, and the
    flag is set when scatter exceeds 0.05 (not a clean traveling wave).
    """
    N = traj.model.period
    times, snaps = _trailing(traj)
    j_idx = np.arange(traj.sites // N, dtype=float)
    lo = max(j_idx[0] + c * t for t in times) + _PROFILE_MARGIN
    hi = min(j_idx[-1] + c * t for t in times) - _PROFILE_MARGIN
    if hi - lo < 10 * _PROFILE_STEP:
        raise NoFrontError("co-moving windows of the snapshots barely overlap; "
                           "shorten T or enlarge the lattice")
    xi = np.arange(lo, hi, _PROFILE_STEP)

    def resampled(t, snap):
        out = np.empty((len(xi), N))
        for i in range(N):
            vals = snap[np.arange(i, traj.sites, N)]
            out[:, i] = np.interp(xi, j_idx[: len(vals)] + c * t, vals)
        return out

    # Running sum, max and min instead of a stack of all snapshots: the sum
    # adds them in order, as numpy's mean over a stacked first axis does, and
    # since rounding is monotone the largest |v - mean| is at the largest or
    # the smallest v, so mean and scatter equal the stacked ones bit for bit.
    first = resampled(times[0], snaps[0])
    total, top, bottom = first.copy(), first.copy(), first
    for t, snap in zip(times[1:], snaps[1:]):
        prof = resampled(t, snap)
        total += prof
        np.maximum(top, prof, out=top)
        np.minimum(bottom, prof, out=bottom)
    mean = total / len(snaps)
    scatter = float(max(np.max(top - mean), np.max(mean - bottom)))
    return xi, mean, scatter, bool(scatter > 0.05)


def check_monotonicity(values: np.ndarray) -> MonotonicityReport:
    """Uniform sign of successive differences, per component, up to
    _MONOTONE_TOL."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    d = np.diff(v, axis=0)
    direction = 1 if float(np.sum(d)) >= 0.0 else -1
    signed = direction * d
    worst = float(np.min(signed))
    flat_index = int(np.argmin(signed))
    return MonotonicityReport(monotone=bool(worst >= -_MONOTONE_TOL),
                              direction=direction,
                              worst_violation=max(0.0, -worst),
                              worst_index=flat_index // v.shape[1])
