"""Traveling-wave boundary value solver.

Discretizes  c phi' - sum_j A_j phi(. + r_j) + F(phi) = 0,
phi(-inf) = 0, phi(+inf) = 1  on a truncated uniform grid, with the
speed as an extra unknown and an integral phase condition closing the
bordered Newton system.  Off-grid shift arguments clamp to the boundary
equilibria.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mfde import MFDEOperator
from .model import (CubicNonlinearity, InfiniteRangeModel, LatticeModel,
                    PeriodicSystem, build_nagumo)

__all__ = [
    "Grid",
    "WaveProblem",
    "WaveSolution",
    "KernelData",
    "Coupling",
    "Discretization",
    "IncommensurableShiftError",
    "NewtonDivergenceError",
    "SingularSystemError",
    "DomainTooSmallError",
    "make_grid",
    "discretize",
    "initial_guess",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "kernel_vectors",
    "nagumo_problem",
    "epsilon_scaled_problem",
    "periodic_problem",
    "lattice_problem",
    "infinite_range_problem",
]

_PHASE_LEVEL = 0.5      # component 1 of a solved wave crosses it nearest xi = 0
_MAX_DAMPING = 8        # Newton step halvings before the Levenberg-Marquardt step
_KERNEL_REL_TOL = 1e-6  # kernel singular values lie below this fraction of s_max


class IncommensurableShiftError(ValueError):
    pass


class NewtonDivergenceError(RuntimeError):
    pass


class SingularSystemError(RuntimeError):
    """Linear solve failed; suggests checking the kernel dimension."""


class DomainTooSmallError(RuntimeError):
    pass


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


def _grid_steps(shifts, h: float) -> tuple[int, ...]:
    """Shifts in whole grid cells; raises if one is off the grid."""
    m = np.asarray(shifts, dtype=float) / h
    cells = np.rint(m)
    off = np.abs(m - cells) > 1e-12 * np.maximum(1.0, np.abs(m))
    if off.any():
        raise IncommensurableShiftError(
            f"shift r={shifts[off.argmax()]} is not an integer multiple of the grid spacing h={h}")
    return tuple(cells.astype(np.int64).tolist())


def make_grid(L: float, h: float, shifts) -> Grid:
    if L < 10.0 * h:
        raise ValueError(f"half-length L={L} must be at least 10 h = {10 * h}")
    _grid_steps(shifts, h)
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

    @property
    def dimension(self) -> int:
        return len(self.cubics)

    @property
    def all_shifts(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.shifts) | set(self.pert_shifts)))

    def effective_coupling(self):
        """Base plus eps-scaled perturbation, merged once per problem: the shifts
        in increasing order and their matrices as one read-only (S, N, N) stack."""
        return self._merged

    @functools.cached_property
    def _merged(self):
        merged: dict[float, np.ndarray] = {}
        for r, A in zip(self.shifts, self.matrices):
            merged[r] = merged.get(r, 0.0) + A
        if self.eps != 0.0:
            for r, A in zip(self.pert_shifts, self.pert_matrices):
                merged[r] = merged.get(r, 0.0) + self.eps * A
        shifts = tuple(sorted(merged))
        mats = np.array([merged[r] for r in shifts], dtype=float).reshape(
            len(shifts), self.dimension, self.dimension)
        _read_only(mats)
        return shifts, mats

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
        return MFDEOperator(shifts=shifts, matrices=tuple(mats), c=c,
                            gamma_minus=self.gamma_at(0.0),
                            gamma_plus=self.gamma_at(1.0))


def shifted_profile(profile: np.ndarray, steps: int) -> np.ndarray:
    """Profile translated by `steps` grid cells; off-grid values clamp to
    the boundary equilibria, 0 at -inf and 1 at +inf."""
    n, N = profile.shape
    if steps == 0:
        return profile
    out = np.empty_like(profile)
    if steps > 0:
        out[: n - steps] = profile[steps:]
        out[n - steps:] = 1.0
    else:
        out[-steps:] = profile[:steps]
        out[: -steps] = 0.0
    return out


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Coupling:
    """v -> sum_j A_j v(. + r_j) on an n-node grid, as C @ v + b: C (nN x nN,
    on node-major vectors) holds the on-grid arguments and b (n, N) what the
    constant 1 beyond the right end contributes, so off-grid arguments clamp
    to 0 on the left and 1 on the right."""

    C: sp.csr_matrix
    b: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self.C @ values.ravel()).reshape(values.shape) + self.b


def coupling_operator(shifts, matrices, n: int, N: int, h: float) -> Coupling:
    """Sparse coupling of the shift/matrix pairs on n nodes of spacing h."""
    steps = np.array(_grid_steps(shifts, h), dtype=np.int64).reshape(-1)
    A = np.asarray(matrices, dtype=float).reshape(len(steps), N, N)
    # one column per nonzero A_j[a, b]: row i*N + a takes it at column
    # (i + m_j)*N + b wherever node i + m_j lies on the grid
    j, a, b = np.nonzero(A)
    node = np.arange(n)[:, None]
    target = node + steps[j]
    inside = (target >= 0) & (target < n)
    rows = (node * N + a)[inside]
    cols = (target * N + b)[inside]
    vals = np.broadcast_to(A[j, a, b], inside.shape)[inside]
    C = sp.csr_matrix((vals, (rows, cols)), shape=(n * N, n * N))
    b = (node + steps >= n).astype(float) @ A.sum(axis=2)
    _read_only(C.data, b)
    return Coupling(C=C, b=b)


def _deriv_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second-order first-derivative matrix (one-sided at the end nodes)."""
    inv2h = 1.0 / (2.0 * h)
    inner_rows = np.arange(1, n - 1)
    rows = np.concatenate([inner_rows, inner_rows, [0, 0, 0, n - 1, n - 1, n - 1]])
    cols = np.concatenate([inner_rows - 1, inner_rows + 1, [0, 1, 2, n - 1, n - 2, n - 3]])
    vals = np.concatenate([np.full(n - 2, -inv2h), np.full(n - 2, inv2h),
                           inv2h * np.array([-3.0, 4.0, -1.0, 3.0, -4.0, 1.0])])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def inner(weights: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Trapezoid-rule L^2 pairing, summed over components."""
    return float(np.sum(weights[:, None] * u * v))


@dataclass(frozen=True, eq=False)
class Discretization:
    """The grid operators of one (problem, grid), built once and shared by
    the residual, the Jacobian, kernel extraction and the fixed-point scheme.

    D is the n x n first-derivative matrix, weights the trapezoid weights and
    coupling the problem's effective coupling.  The linearization
    L = c (D (x) I) - C + diag(F'(phi)) and the bordered system [[L, column],
    [row, 0]] of Newton and the fixed-point scheme fill one fixed CSC pattern:
    `slots` maps the concatenated entries of c (D (x) I), -C, the diagonal,
    the column and the row to their positions, and `in_L` marks L's.
    """

    D: sp.csr_matrix
    weights: np.ndarray
    coupling: Coupling
    kron_vals: np.ndarray     # values of D (x) I, in pattern-entry order
    slots: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    in_L: np.ndarray

    def _fill(self, fprime: np.ndarray, c: float, *border) -> np.ndarray:
        vals = np.concatenate([c * self.kron_vals, -self.coupling.C.data,
                               fprime.ravel(), *(v.ravel() for v in border)])
        return np.bincount(self.slots[:len(vals)], weights=vals,
                           minlength=len(self.indices))

    def linearization(self, fprime: np.ndarray, c: float) -> sp.csr_matrix:
        """c (D (x) I) - C + diag(fprime), from F'(phi) of shape (n, N)."""
        size = len(self.indptr) - 2
        # columns 0..j-1 each hold one border-row entry before column j
        indptr = self.indptr[:-1] - np.arange(size + 1)
        return sp.csc_matrix((self._fill(fprime, c)[self.in_L], self.indices[self.in_L],
                              indptr), shape=(size, size)).tocsr()

    def bordered(self, fprime: np.ndarray, c: float, column: np.ndarray,
                 row: np.ndarray) -> sp.csc_matrix:
        """[[L, column], [row, 0]], L = linearization(fprime, c), with border
        vectors of shape (n, N).  As in a block assembly of L and the dense
        border, the exact zeros of the border are left out and the stored
        zeros of L kept: the pattern sets SuperLU's column ordering."""
        data = self._fill(fprime, c, column, row)
        keep = self.in_L | (data != 0.0)
        indptr = np.append(0, np.cumsum(keep))[self.indptr]
        return sp.csc_matrix((data[keep], self.indices[keep], indptr),
                             shape=(len(indptr) - 1,) * 2)


@functools.lru_cache(maxsize=16)
def _discretization(grid: Grid, N: int, shifts: tuple[float, ...],
                    mats: bytes) -> Discretization:
    n, size = grid.n, grid.n * N
    D = _deriv_matrix(n, grid.h)
    coupling = coupling_operator(shifts, np.frombuffer(mats), n, N, grid.h)
    Dc = D.tocoo()
    comp = np.arange(N)
    Cc = coupling.C.tocoo()
    diag = np.arange(size)
    edge = np.full(size, size)      # the border column and row
    rows = np.concatenate([(Dc.row[:, None] * N + comp).ravel(), Cc.row, diag, diag, edge])
    cols = np.concatenate([(Dc.col[:, None] * N + comp).ravel(), Cc.col, diag, edge, diag])
    keys, slots = np.unique(cols.astype(np.int64) * (size + 1) + rows, return_inverse=True)
    per_column = np.bincount(keys // (size + 1), minlength=size + 1)
    indptr = np.append(0, np.cumsum(per_column)).astype(np.int32)
    indices = (keys % (size + 1)).astype(np.int32)
    in_L = np.zeros(len(keys), dtype=bool)
    in_L[slots[:-2 * size]] = True
    kron_vals = np.repeat(Dc.data, N)
    weights = trapezoid_weights(grid)
    _read_only(D.data, weights, kron_vals, slots, indices, indptr, in_L)
    return Discretization(D=D, weights=weights, coupling=coupling, kron_vals=kron_vals,
                          slots=slots, indices=indices, indptr=indptr, in_L=in_L)


def discretize(problem: WaveProblem, grid: Grid) -> Discretization:
    """The cached discretization of the problem's effective coupling on grid;
    raises IncommensurableShiftError when a shift is off the grid."""
    shifts, mats = problem.effective_coupling()
    return _discretization(grid, problem.dimension, shifts, mats.tobytes())


def initial_guess(grid: Grid, width: float = math.sqrt(2.0), components: int = 1) -> np.ndarray:
    if width <= 0.0:
        raise ValueError("front width must be positive")
    front = 1.0 / (1.0 + np.exp(-grid.xi / width))
    return np.tile(front[:, None], (1, components))


def assemble_residual(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                      c: float) -> np.ndarray:
    disc = discretize(problem, grid)
    return c * (disc.D @ profile) - disc.coupling.apply(profile) + problem.F(profile)


def linearization_matrix(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                         c: float) -> sp.csr_matrix:
    """Discrete  v -> c v' - sum_j A_j v(. + r_j) + F'(phi) v  (n N square)."""
    return discretize(problem, grid).linearization(problem.Fprime(profile), c)


def assemble_jacobian(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                      c: float, phase_ref_deriv: np.ndarray) -> sp.csc_matrix:
    """Bordered Jacobian [[L, D phi], [w D phi_ref, 0]] (linearization, speed
    column, phase-condition row), filled into the cached bordered pattern."""
    disc = discretize(problem, grid)
    return disc.bordered(problem.Fprime(profile), c, disc.D @ profile,
                         disc.weights[:, None] * phase_ref_deriv)


@dataclass(frozen=True)
class WaveSolution:
    grid: Grid
    c: float
    profile: np.ndarray
    residual_norm: float
    newton_iters: int
    phase_location: float       # where component 1 crosses _PHASE_LEVEL
    pinning_suspected: bool

    def to_json(self) -> dict:
        return {
            "c": self.c,
            "residual_norm": self.residual_norm,
            "newton_iters": self.newton_iters,
            "L": self.grid.L,
            "h": self.grid.h,
            "phase": {"component": 0, "level": _PHASE_LEVEL,
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


def align_phase(problem: WaveProblem, grid: Grid, profile: np.ndarray,
                c: float, res: np.ndarray, iters: int) -> WaveSolution:
    """The wave (profile, c) as a WaveSolution, translated by whole cells
    (exact on the grid) so that component 1 crosses _PHASE_LEVEL nearest to
    xi = 0; `res`, the residual of the unshifted profile, is reassembled
    only if the profile moved.  The phase location is the sub-grid crossing.
    """
    loc = _crossing_location(grid, profile[:, 0], _PHASE_LEVEL)
    cells = int(round(loc / grid.h))
    if cells != 0:
        profile = shifted_profile(profile, cells)
        res = assemble_residual(problem, grid, profile, c)
        loc = _crossing_location(grid, profile[:, 0], _PHASE_LEVEL)
    return WaveSolution(grid=grid, c=c, profile=profile,
                        residual_norm=float(np.max(np.abs(res))),
                        newton_iters=iters, phase_location=loc,
                        pinning_suspected=bool(abs(c) < 1e-6))


def newton_solve(problem: WaveProblem, grid: Grid, profile0: np.ndarray,
                 c0: float, tol: float = 1e-10, max_iter: int = 50,
                 tail_tol: float = 1e-3) -> WaveSolution:
    """Damped Newton on the bordered system; phase-aligns the result so
    component 1 crosses _PHASE_LEVEL nearest to xi = 0."""
    profile = np.array(profile0, dtype=float)
    if profile.ndim == 1:
        profile = profile[:, None]
    n, N = profile.shape
    if n != grid.n:
        raise ValueError("profile does not match the grid")

    disc = discretize(problem, grid)
    phase_ref = profile.copy()
    phase_ref_deriv = disc.D @ phase_ref
    w = disc.weights
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
                f"(last residual {res_norm:.3e})")
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
        for _ in range(_MAX_DAMPING + 1):
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
                    f"{res_norm:.3e}")
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
            "rates reported by the tails module")

    return align_phase(problem, grid, profile, c, res, iters)


@dataclass(frozen=True)
class KernelData:
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    kernel_dim: int
    s_max: float                          # largest singular value
    smallest_singular_values: np.ndarray  # ascending, at least three


def _largest_singular_value(L: sp.csr_matrix) -> float:
    """sqrt of the top eigenvalue of the banded symmetric L^T L."""
    G = (L.T @ L).tocoo()
    upper = G.row <= G.col
    row, col = G.row[upper], G.col[upper]
    u = int(np.max(col - row))
    band = np.zeros((u + 1, G.shape[0]))
    band[u + row - col, col] = G.data[upper]
    top = G.shape[0] - 1
    lam = sla.eig_banded(band, eigvals_only=True, select="i",
                         select_range=(top, top))
    return math.sqrt(max(float(lam[0]), 0.0))


def _factor(L: sp.csr_matrix, s_max: float):
    """splu of L; when SuperLU finds an exactly zero pivot, splu of
    L + delta I with delta = machine eps * s_max.  That shift is a backward
    error of one rounding unit, far below the _KERNEL_REL_TOL * s_max
    threshold, so the exact kernel keeps singular values of order delta or
    below."""
    A = L.tocsc()
    try:
        return spla.splu(A)
    except RuntimeError:
        delta = np.finfo(float).eps * s_max
        shifted = (A + delta * sp.identity(A.shape[0], format="csc")).tocsc()
        try:
            return spla.splu(shifted)
        except RuntimeError as exc:
            raise SingularSystemError(
                "linearization stays exactly singular after a shift by "
                f"{delta:.3e}") from exc


def _deflated_inverse(lu, left: np.ndarray, right: np.ndarray):
    """L^-1 from its LU factors, with the known left singular vectors of L
    (columns of `left`) projected out of its input and the matching right
    ones out of its output; the transpose the other way round."""

    def solve(x, vin, vout, trans):
        x = x - vin @ (vin.T @ x)
        y = lu.solve(np.ascontiguousarray(x), trans=trans)
        return y - vout @ (vout.T @ y)

    return spla.LinearOperator(
        lu.shape, dtype=float,
        matvec=lambda x: solve(x, left, right, "N"),
        rmatvec=lambda x: solve(x, right, left, "T"))


def _smallest_singular(lu, threshold: float):
    """Smallest singular values of L, ascending, with their left singular
    vectors as rows, until one value is at least `threshold`.

    Each pass takes the three largest singular values of L^-1 from svds on
    the LU factors, with the vectors found so far deflated on both sides.  A
    pass that finds values below the threshold deflates them and runs
    again: svds on L^-1 resolves values only to about eps / sigma_min
    relative to sigma_min^-1, which would swamp sigma_2, sigma_3 when
    sigma_min is orders of magnitude smaller.
    """
    size = lu.shape[0]
    left = np.empty((size, 0))
    right = np.empty((size, 0))
    sigma = np.empty(0)
    v0 = np.random.default_rng(0).standard_normal(size)
    while left.shape[1] < size - 1:
        k = min(3, size - 1 - left.shape[1])
        # left singular vectors of L^-1 are right ones of L, and vice versa
        r, s_inv, lh = spla.svds(_deflated_inverse(lu, left, right), k=k, v0=v0)
        order = np.argsort(-s_inv)
        new = 1.0 / s_inv[order]
        below = new < threshold
        if not below.any() or left.shape[1] + k == size - 1:
            return (np.concatenate([sigma, new]),
                    np.concatenate([left.T, lh[order]]))
        keep = order[below]
        sigma = np.concatenate([sigma, new[below]])
        left = np.column_stack([left, lh[keep].T])
        right = np.column_stack([right, r[:, keep]])
    return sigma, left.T


def kernel_vectors(problem: WaveProblem, grid: Grid,
                   solution: WaveSolution) -> KernelData:
    """Approximate kernel elements of the linearization and its adjoint.

    psi_plus is the normalized discrete profile derivative; psi_minus the
    left singular vector of the discretized linearization L at its smallest
    singular value.  The smallest singular values come from svds on one
    sparse LU factorization of L and s_max from the banded L^T L.  The
    kernel dimension counts singular values below _KERNEL_REL_TOL * s_max; the
    values are computed until one is not below.
    """
    n, N = solution.profile.shape
    disc = discretize(problem, grid)
    w = disc.weights
    psi_plus = disc.D @ solution.profile
    psi_plus = psi_plus / math.sqrt(inner(w, psi_plus, psi_plus))

    L = disc.linearization(problem.Fprime(solution.profile), solution.c)
    s_max = _largest_singular_value(L)
    threshold = _KERNEL_REL_TOL * s_max
    smallest, left = _smallest_singular(_factor(L, s_max), threshold)
    psi_minus = left[0].reshape(n, N)
    if inner(w, psi_plus, psi_minus) < 0.0:
        psi_minus = -psi_minus
    psi_minus = psi_minus / math.sqrt(inner(w, psi_minus, psi_minus))
    return KernelData(psi_plus=psi_plus, psi_minus=psi_minus,
                      kernel_dim=int(np.sum(smallest < threshold)), s_max=s_max,
                      smallest_singular_values=smallest)


# ---------------------------------------------------------------------------
# problem constructors

def lattice_problem(model: LatticeModel) -> WaveProblem:
    shifts, mats = model.blocks()
    return WaveProblem(shifts=shifts, matrices=mats, cubics=model.cubics)


def nagumo_problem(d1: float, d2: float, a: float) -> WaveProblem:
    return lattice_problem(build_nagumo(d1, d2, a))


def epsilon_scaled_problem(d1: float, d2: float, a: float, eps: float) -> WaveProblem:
    """The Nagumo lattice's blocks over eps^2 on shifts {0, ±eps, ±2 eps};
    converges to the continuum second derivative with weight d1 + 4 d2 as
    eps -> 0."""
    model = build_nagumo(d1, d2, a)
    shifts, mats = model.blocks()
    s = 1.0 / (eps * eps)
    return WaveProblem(shifts=tuple(r * eps for r in shifts),
                       matrices=tuple(B * s for B in mats), cubics=model.cubics)


def periodic_problem(system: PeriodicSystem, eps: float) -> WaveProblem:
    """Reference system of a periodic transform with its split bonds as the
    eps-scaled perturbation."""
    return WaveProblem(shifts=system.shifts, matrices=system.matrices,
                       cubics=system.cubics, pert_shifts=system.pert_shifts,
                       pert_matrices=system.pert_matrices, eps=eps)


def infinite_range_problem(model: InfiniteRangeModel, eps: float = 0.0) -> WaveProblem:
    """Base lattice as the reference and the tail lattice as the eps-scaled
    perturbation, both folded."""
    shifts, mats = model.base.blocks()
    pert_shifts, pert_mats = model.tail.blocks()
    return WaveProblem(shifts=shifts, matrices=mats, cubics=model.base.cubics,
                       pert_shifts=pert_shifts, pert_matrices=pert_mats, eps=eps)
