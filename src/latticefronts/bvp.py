"""Traveling-wave boundary value solver.

Discretizes  c phi' - sum_j A_j phi(. + r_j) + F(phi) = 0,
phi(-inf) = 0, phi(+inf) = 1  on a truncated uniform grid, with the
speed as an extra unknown and an integral phase condition closing the
bordered Newton system.  Off-grid shift arguments clamp to the boundary
equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mfde import MFDEOperator
from .model import (CubicNonlinearity, FourSiteSystem, InfiniteRangeModel,
                    LatticeModel, TwoSiteSystem)

__all__ = [
    "Grid",
    "WaveProblem",
    "WaveSolution",
    "KernelData",
    "IncommensurableShiftError",
    "NewtonDivergenceError",
    "SingularSystemError",
    "DomainTooSmallError",
    "make_grid",
    "initial_guess",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "kernel_vectors",
    "nagumo_problem",
    "epsilon_scaled_problem",
    "two_site_problem",
    "four_site_problem",
    "lattice_problem",
    "infinite_range_problem",
]


class IncommensurableShiftError(ValueError):
    pass


class NewtonDivergenceError(RuntimeError):
    def __init__(self, msg, last_residual=None):
        super().__init__(msg)
        self.last_residual = last_residual


class SingularSystemError(RuntimeError):
    """Linear solve failed; suggests checking the kernel dimension."""


class DomainTooSmallError(RuntimeError):
    def __init__(self, msg, tail_values=None):
        super().__init__(msg)
        self.tail_values = tail_values


@dataclass(frozen=True)
class Grid:
    L: float
    h: float

    @property
    def half_steps(self) -> int:
        return int(math.floor(self.L / self.h + 1e-12))

    @property
    def n(self) -> int:
        return 2 * self.half_steps + 1

    @property
    def xi(self) -> np.ndarray:
        m = self.half_steps
        return (np.arange(self.n) - m) * self.h


def make_grid(L: float, h: float, shifts) -> Grid:
    if L < 10.0 * h:
        raise ValueError(f"half-length L={L} must be at least 10 h = {10 * h}")
    for r in shifts:
        steps = r / h
        if abs(steps - round(steps)) > 1e-12 * max(1.0, abs(steps)):
            raise IncommensurableShiftError(
                f"shift r={r} is not an integer multiple of the grid spacing h={h}")
    grid = Grid(L=L, h=h)
    if grid.n < 51:
        raise ValueError(f"grid has only {grid.n} nodes; need at least 51")
    return grid


@dataclass(frozen=True)
class WaveProblem:
    """Shift-coupled wave problem with an optional scaled perturbation term."""

    shifts: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]
    cubics: tuple[CubicNonlinearity, ...]
    pert_shifts: tuple[float, ...] = ()
    pert_matrices: tuple[np.ndarray, ...] = ()
    eps: float = 0.0
    label: str = ""

    @property
    def dimension(self) -> int:
        return len(self.cubics)

    @property
    def all_shifts(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.shifts) | set(self.pert_shifts)))

    def effective_coupling(self):
        """Base plus eps-scaled perturbation, merged per shift."""
        merged: dict[float, np.ndarray] = {}
        for r, A in zip(self.shifts, self.matrices):
            merged[r] = merged.get(r, 0.0) + A
        if self.eps != 0.0:
            for r, A in zip(self.pert_shifts, self.pert_matrices):
                merged[r] = merged.get(r, 0.0) + self.eps * A
        shifts = tuple(sorted(merged))
        return shifts, tuple(merged[r] for r in shifts)

    def with_eps(self, eps: float) -> "WaveProblem":
        return replace(self, eps=eps)

    def F(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        for j, cubic in enumerate(self.cubics):
            out[:, j] = cubic(values[:, j])
        return out

    def Fprime(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        for j, cubic in enumerate(self.cubics):
            out[:, j] = cubic.deriv(values[:, j])
        return out

    def gamma_at(self, value: float) -> np.ndarray:
        return np.array([c.deriv(value) for c in self.cubics])

    def operator(self, c: float) -> MFDEOperator:
        shifts, mats = self.effective_coupling()
        if 0.0 not in shifts:
            shifts = shifts + (0.0,)
            mats = mats + (np.zeros((self.dimension,) * 2),)
        return MFDEOperator(shifts=shifts, limits_minus=mats, limits_plus=mats,
                            c=c, gamma_minus=self.gamma_at(0.0),
                            gamma_plus=self.gamma_at(1.0))


def shifted_profile(profile: np.ndarray, steps: int, left: float = 0.0,
                    right: float = 1.0) -> np.ndarray:
    """Profile translated by `steps` grid cells; off-grid values clamp to
    the boundary equilibria (`left` at -inf, `right` at +inf)."""
    n, N = profile.shape
    if steps == 0:
        return profile
    out = np.empty_like(profile)
    if steps > 0:
        out[: n - steps] = profile[steps:]
        out[n - steps:] = right
    else:
        out[-steps:] = profile[:steps]
        out[: -steps] = left
    return out


def apply_coupling(shifts, matrices, profile: np.ndarray, h: float,
                   left: float = 0.0, right: float = 1.0) -> np.ndarray:
    out = np.zeros_like(profile)
    for r, A in zip(shifts, matrices):
        out += shifted_profile(profile, round(r / h), left, right) @ A.T
    return out


def _deriv_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order first-derivative matrix (one-sided at the end nodes)."""
    D = sp.lil_matrix((n, n))
    inv2h = 1.0 / (2.0 * h)
    for i in range(1, n - 1):
        D[i, i - 1] = -inv2h
        D[i, i + 1] = inv2h
    D[0, 0], D[0, 1], D[0, 2] = -3.0 * inv2h, 4.0 * inv2h, -inv2h
    D[n - 1, n - 1], D[n - 1, n - 2], D[n - 1, n - 3] = 3.0 * inv2h, -4.0 * inv2h, inv2h
    return D.tocsr()


def initial_guess(grid: Grid, width: float = math.sqrt(2.0), components: int = 1) -> np.ndarray:
    if width <= 0.0:
        raise ValueError("front width must be positive")
    front = 1.0 / (1.0 + np.exp(-grid.xi / width))
    return np.tile(front[:, None], (1, components))


def assemble_residual(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                      c: float) -> np.ndarray:
    shifts, mats = problem.effective_coupling()
    D = _deriv_matrix(grid.n, grid.h)
    return c * (D @ profile) - apply_coupling(shifts, mats, profile, grid.h) \
        + problem.F(profile)


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def inner(weights: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Trapezoid-rule L^2 pairing, summed over components."""
    return float(np.sum(weights[:, None] * u * v))


def linearization_matrix(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                         c: float) -> sp.csr_matrix:
    """Discrete  v -> c v' - sum_j A_j v(. + r_j) + F'(phi) v  (n N square)."""
    n, N = profile.shape
    D = _deriv_matrix(grid.n, grid.h)
    J = c * sp.kron(D, sp.eye(N), format="lil")
    shifts, mats = problem.effective_coupling()
    for r, A in zip(shifts, mats):
        m = round(r / grid.h)
        if abs(m) >= n:
            continue
        S = sp.eye(n, n, k=m)
        J -= sp.kron(S, sp.csr_matrix(A))
    J += sp.diags(problem.Fprime(profile).ravel())
    return J.tocsr()


def assemble_jacobian(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                      c: float, phase_ref_deriv: np.ndarray) -> sp.csr_matrix:
    """Bordered Jacobian: linearization, speed column, phase-condition row."""
    D = _deriv_matrix(grid.n, grid.h)
    J = linearization_matrix(problem, grid, profile, c)
    dc = (D @ profile).reshape(-1, 1)
    w = trapezoid_weights(grid)
    phase_row = (w[:, None] * phase_ref_deriv).reshape(1, -1)
    return sp.bmat([[J, dc], [phase_row, None]], format="csc")


@dataclass(frozen=True)
class WaveSolution:
    grid: Grid
    c: float
    profile: np.ndarray
    residual_norm: float
    newton_iters: int
    phase_component: int
    phase_level: float
    phase_location: float
    pinning_suspected: bool

    @property
    def dimension(self) -> int:
        return self.profile.shape[1]

    def to_json(self) -> dict:
        return {
            "c": self.c,
            "residual_norm": self.residual_norm,
            "newton_iters": self.newton_iters,
            "L": self.grid.L,
            "h": self.grid.h,
            "phase": {"component": self.phase_component,
                      "level": self.phase_level,
                      "location": self.phase_location},
            "pinning_suspected": self.pinning_suspected,
        }


def _crossing_location(grid: Grid, values: np.ndarray, level: float) -> float:
    above = values >= level
    idx = np.flatnonzero(~above[:-1] & above[1:])
    if len(idx) == 0:
        return 0.0
    i = idx[0]
    x0, x1 = grid.xi[i], grid.xi[i + 1]
    v0, v1 = values[i], values[i + 1]
    return float(x0 + (level - v0) / (v1 - v0) * (x1 - x0))


def newton_solve(problem: WaveProblem, grid: Grid, profile0: np.ndarray,
                 c0: float, tol: float = 1e-10, max_iter: int = 50,
                 max_damping: int = 8, tail_tol: float = 1e-3,
                 phase_level: float = 0.5) -> WaveSolution:
    """Damped Newton on the bordered system; phase-aligns the result so
    component 1 crosses `phase_level` nearest to xi = 0."""
    profile = np.array(profile0, dtype=float)
    if profile.ndim == 1:
        profile = profile[:, None]
    n, N = profile.shape
    if n != grid.n:
        raise ValueError("profile does not match the grid")
    for r in problem.all_shifts:
        if abs(r / grid.h - round(r / grid.h)) > 1e-12 * max(1.0, abs(r / grid.h)):
            raise IncommensurableShiftError(
                f"shift r={r} incommensurable with grid spacing h={grid.h}")

    D = _deriv_matrix(grid.n, grid.h)
    phase_ref = profile.copy()
    phase_ref_deriv = D @ phase_ref
    w = trapezoid_weights(grid)
    c = float(c0)

    def phase_value(p):
        return inner(w, p - phase_ref, phase_ref_deriv)

    res = assemble_residual(problem, grid, profile, c)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    while res_norm > tol:
        if iters >= max_iter:
            raise NewtonDivergenceError(
                f"no convergence in {max_iter} Newton iterations "
                f"(last residual {res_norm:.3e})", last_residual=res_norm)
        J = assemble_jacobian(problem, grid, profile, c, phase_ref_deriv)
        rhs = -np.concatenate([res.ravel(), [phase_value(profile)]])
        try:
            delta = spla.spsolve(J, rhs)
        except Exception as exc:  # umfpack/superlu signal singularity differently
            raise SingularSystemError(
                "bordered Newton matrix is singular; check the kernel "
                "dimension of the linearization") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError(
                "bordered Newton solve returned non-finite values; check the "
                "kernel dimension of the linearization")
        dp = delta[:-1].reshape(n, N)
        dc = delta[-1]
        step = 1.0
        for _ in range(max_damping + 1):
            trial_p = profile + step * dp
            trial_c = c + step * dc
            trial_res = assemble_residual(problem, grid, trial_p, trial_c)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < res_norm or res_norm <= tol:
                break
            step *= 0.5
        else:
            # Grid-resonant soft modes can leave the bordered matrix ill
            # conditioned even though the wave is well determined (central
            # differences have zero symbol at the Nyquist frequency, and
            # when every coupling shift spans an even number of cells the
            # zero-row-sum coupling cancels there too, leaving a
            # checkerboard mode weighted only by F').  The raw Newton step
            # then carries a large soft-mode component and the residual
            # bounces.  A Levenberg-Marquardt step caps that amplification
            # while keeping a descent direction.
            JtJ = (J.T @ J).tocsc()
            g = J.T @ rhs
            eye = sp.identity(JtJ.shape[0], format="csc")
            scale = float(np.max(JtJ.diagonal()))
            best = None
            for k in range(12):
                lam = scale * 10.0 ** (-12 + k)
                try:
                    delta = spla.spsolve(JtJ + lam * eye, g)
                except Exception:
                    continue
                cand_p = profile + delta[:-1].reshape(n, N)
                cand_c = c + delta[-1]
                cand_res = assemble_residual(problem, grid, cand_p, cand_c)
                cand_norm = float(np.max(np.abs(cand_res)))
                if np.isfinite(cand_norm) and (best is None or cand_norm < best[0]):
                    best = (cand_norm, cand_p, cand_c, cand_res)
            if best is None or best[0] >= res_norm:
                raise NewtonDivergenceError(
                    f"damping failed to reduce the residual below "
                    f"{res_norm:.3e}", last_residual=res_norm)
            trial_norm, trial_p, trial_c, trial_res = best
        profile, c = trial_p, trial_c
        res, res_norm = trial_res, trial_norm
        iters += 1

    tails = (float(np.max(np.abs(profile[0]))),
             float(np.max(np.abs(profile[-1] - 1.0))))
    if max(tails) > tail_tol:
        raise DomainTooSmallError(
            f"boundary proximity violated (|phi(-L)|={tails[0]:.2e}, "
            f"|phi(L)-1|={tails[1]:.2e}); enlarge L — tails decay at the "
            "rates reported by the tails module", tail_values=tails)

    # align by a whole number of cells (exact translation), record the
    # interpolated sub-grid crossing as the phase datum
    loc = _crossing_location(grid, profile[:, 0], phase_level)
    cells = int(round(loc / grid.h))
    if cells != 0:
        profile = shifted_profile(profile, cells)
        res = assemble_residual(problem, grid, profile, c)
        res_norm = float(np.max(np.abs(res)))
        loc = _crossing_location(grid, profile[:, 0], phase_level)

    return WaveSolution(grid=grid, c=c, profile=profile, residual_norm=res_norm,
                        newton_iters=iters, phase_component=0,
                        phase_level=phase_level, phase_location=loc,
                        pinning_suspected=bool(abs(c) < 1e-6))


@dataclass(frozen=True)
class KernelData:
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    kernel_dim: int
    singular_values: np.ndarray


def kernel_vectors(problem: WaveProblem, grid: Grid, solution: WaveSolution,
                   rel_tol: float = 1e-6) -> KernelData:
    """Approximate kernel elements of the linearization and its adjoint.

    psi_plus is the normalized discrete profile derivative; psi_minus the
    left singular vector of the discretized linearization at the smallest
    singular value.  The kernel dimension estimate counts singular values
    below rel_tol times the largest.
    """
    n, N = solution.profile.shape
    D = _deriv_matrix(grid.n, grid.h)
    w = trapezoid_weights(grid)
    psi_plus = D @ solution.profile
    psi_plus = psi_plus / math.sqrt(inner(w, psi_plus, psi_plus))

    Lmat = linearization_matrix(problem, grid, solution.profile, solution.c).toarray()
    U, s, _Vt = np.linalg.svd(Lmat)
    kernel_dim = int(np.sum(s < rel_tol * s[0]))
    psi_minus = U[:, -1].reshape(n, N)
    if inner(w, psi_plus, psi_minus) < 0.0:
        psi_minus = -psi_minus
    psi_minus = psi_minus / math.sqrt(inner(w, psi_minus, psi_minus))
    return KernelData(psi_plus=psi_plus, psi_minus=psi_minus,
                      kernel_dim=kernel_dim, singular_values=s)


# ---------------------------------------------------------------------------
# problem constructors

def _fold_model(model: LatticeModel):
    """Fold periodic couplings into block-shift matrices (block = one period)."""
    N = model.period
    blocks: dict[int, np.ndarray] = {}
    for (n, k), a in model.couplings.items():
        j, comp = divmod(n + k, N)
        blocks.setdefault(j, np.zeros((N, N)))[n, comp] += a
    shifts = tuple(sorted(blocks))
    return tuple(float(j) for j in shifts), tuple(blocks[j] for j in shifts)


def lattice_problem(model: LatticeModel) -> WaveProblem:
    shifts, mats = _fold_model(model)
    return WaveProblem(shifts=shifts, matrices=mats, cubics=model.cubics,
                       label=model.metadata or "lattice")


def nagumo_problem(d1: float, d2: float, a: float) -> WaveProblem:
    from .model import build_nagumo
    return lattice_problem(build_nagumo(d1, d2, a))


def epsilon_scaled_problem(d1: float, d2: float, a: float, eps: float) -> WaveProblem:
    """Couplings rescaled onto shifts {0, ±eps, ±2 eps}; converges to the
    continuum second derivative with weight d1 + 4 d2 as eps -> 0."""
    s = 1.0 / (eps * eps)
    shifts = (-2.0 * eps, -eps, 0.0, eps, 2.0 * eps)
    mats = tuple(np.array([[v]]) for v in
                 (d2 * s, d1 * s, (-2.0 * d1 - 2.0 * d2) * s, d1 * s, d2 * s))
    return WaveProblem(shifts=shifts, matrices=mats,
                       cubics=(CubicNonlinearity(1.0, a),),
                       label=f"eps-scaled(d1={d1}, d2={d2}, a={a}, eps={eps})")


def two_site_problem(system: TwoSiteSystem, eps: float = 0.0,
                     h: float = 1.0) -> WaveProblem:
    """Reference even/odd system with the second-neighbor coupling as the
    eps-scaled perturbation.

    h is the lattice shift: the xi-distance between neighboring two-site
    cells, so the couplings act on phi(xi -+ h).  It is not the grid
    spacing of `make_grid`.  Any h > 0 describes the same lattice in
    another xi unit, and the wave speed c scales with it: the wave of
    h = 0.5, solved on a grid, domain and guess halved with it, has half
    the speed of the h = 1 wave.  Passing the grid's spacing as h
    rescales the lattice instead of refining the grid.
    """
    d_e, d_o, d2 = system.d_e, system.d_o, system.d2
    base = (
        np.array([[0.0, d_e], [0.0, 0.0]]),
        np.array([[-2.0 * d_e, d_e], [d_o, -2.0 * d_o]]),
        np.array([[0.0, 0.0], [d_o, 0.0]]),
    )
    eye2 = np.eye(2)
    pert = (d2 * eye2, -2.0 * d2 * eye2, d2 * eye2)
    return WaveProblem(shifts=(-h, 0.0, h), matrices=base,
                       cubics=(system.f_e, system.f_o),
                       pert_shifts=(-h, 0.0, h), pert_matrices=pert, eps=eps,
                       label="two-site")


def four_site_problem(system: FourSiteSystem, eps: float = 0.0,
                      h: float = 1.0) -> WaveProblem:
    """Reference 4-component system with B2 as the eps-scaled perturbation."""
    base = (system.A1_ref, system.A2_ref, system.A3_ref)
    return WaveProblem(shifts=(-h, 0.0, h), matrices=base,
                       cubics=system.cubics,
                       pert_shifts=(0.0,), pert_matrices=(system.B2,), eps=eps,
                       label="four-site")


def infinite_range_problem(model: InfiniteRangeModel, eps: float = 0.0) -> WaveProblem:
    base = lattice_problem(model.base)
    N = model.base.period
    tail_blocks: dict[int, np.ndarray] = {}
    for (n, k), a in model.tail.items():
        j, comp = divmod(n + k, N)
        tail_blocks.setdefault(j, np.zeros((N, N)))[n, comp] += a
        tail_blocks.setdefault(0, np.zeros((N, N)))[n, n] -= a
    shifts = tuple(sorted(tail_blocks))
    return WaveProblem(shifts=base.shifts, matrices=base.matrices,
                       cubics=base.cubics,
                       pert_shifts=tuple(float(j) for j in shifts),
                       pert_matrices=tuple(tail_blocks[j] for j in shifts),
                       eps=eps, label="infinite-range")
