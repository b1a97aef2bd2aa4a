"""Lattice models with cubic bistable reactions and periodic couplings.

Site dynamics follow

    du_n/dt = sum_k a_{n,k} u_{n+k} - f_n(u_n),

with coefficients a_{n,k} periodic in n and f_n a cubic with stable zeros
0 and 1.  The module also carries the period-P change of variables that
turns a connection between period-P equilibria into a P-component system
connecting the constant states 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CubicNonlinearity",
    "LatticeModel",
    "PeriodicState",
    "PeriodicSystem",
    "InfiniteRangeModel",
    "DecoupledLatticeError",
    "TransformError",
    "SPLIT_BONDS",
    "build_nagumo",
    "find_two_periodic_equilibria",
    "find_four_periodic_equilibria",
    "periodic_transform",
    "build_infinite_range",
]

_TWO_SITE_SCAN = (-2.0, 3.0)     # x-interval of the period-2 scan
_TWO_SITE_SCAN_POINTS = 10_000
_FOUR_SITE_SEEDS = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)  # per axis of the seed grid
_FOUR_SITE_NEWTON_ITERS = 50
_ROOT_LEVELS = 5                 # bisection steps per round of a root refinement
_ROOT_ROUNDS = 40                # most rounds of a root refinement (200 steps)
_EQUILIBRIUM_TOL = 1e-9          # largest input defect the transform accepts
_CUBIC_MATCH_TOL = 1e-12         # largest relative f(0), f(1) of a matched cubic

# the bonds (n, k) that periodic_transform moves to the perturbation: the
# second neighbours of the period-2 lattice, and the w-x and x-y bonds of the
# period-4 lattice
SPLIT_BONDS = {
    2: frozenset((n, k) for n in range(2) for k in (-2, 2)),
    4: frozenset({(0, 1), (1, -1), (1, 1), (2, -1)}),
}


class DecoupledLatticeError(ValueError):
    """Raised when a formula divides by a vanishing coupling constant."""


class TransformError(ValueError):
    """Raised when a change of variables is not well defined."""


@dataclass(frozen=True)
class CubicNonlinearity:
    """f(u) = k * u * (u - a) * (u - 1); roots 0 and 1 by construction."""

    k: float
    a: float

    def __call__(self, u):
        return self.k * u * (u - self.a) * (u - 1.0)

    def deriv(self, u):
        return self.k * (3.0 * u * u - 2.0 * (1.0 + self.a) * u + self.a)

    def second_deriv(self, u):
        return self.k * (6.0 * u - 2.0 * (1.0 + self.a))


@dataclass(frozen=True)
class LatticeModel:
    """Periodic-media lattice model.

    couplings maps (n, k) -> a_{n,k} with n in 0..period-1 and finite
    offset support; absent entries are zero.  cubics has one entry per
    site in the period.
    """

    period: int
    couplings: dict[tuple[int, int], float]
    cubics: tuple[CubicNonlinearity, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        if len(self.cubics) != self.period:
            raise ValueError("need one cubic nonlinearity per site in the period")
        for (n, _k) in self.couplings:
            if not 0 <= n < self.period:
                raise ValueError(f"site index {n} outside 0..{self.period - 1}")

    @property
    def k_max(self) -> int:
        return max((abs(k) for (_n, k) in self.couplings), default=0)

    def coupling(self, n: int, k: int) -> float:
        return self.couplings.get((n % self.period, k), 0.0)

    def blocks(self) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
        """The lattice folded with its period N into a vector lattice: block
        j holds a_{n,k} at (n, m) where n + k = jN + m.  Returns the block
        shifts j in increasing order, as floats, and the N x N blocks."""
        N = self.period
        blocks: dict[int, np.ndarray] = {}
        for (n, k), a in self.couplings.items():
            j, m = divmod(n + k, N)
            blocks.setdefault(j, np.zeros((N, N)))[n, m] += a
        shifts = tuple(sorted(blocks))
        return tuple(float(j) for j in shifts), tuple(blocks[j] for j in shifts)


@dataclass(frozen=True)
class PeriodicState:
    period: int
    values: tuple[float, ...]
    residual: float

    def __post_init__(self):
        if len(self.values) != self.period:
            raise ValueError("values length must equal period")

    def as_array(self) -> np.ndarray:
        return np.array(self.values)


@dataclass(frozen=True)
class PeriodicSystem:
    """A period-P lattice in the variables v = (u - minus) / (plus - minus):
    a P-component lattice connecting 0 to 1, whose coupling is a reference
    (shifts, matrices) plus a perturbation (pert_shifts, pert_matrices)."""

    shifts: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]
    pert_shifts: tuple[float, ...]
    pert_matrices: tuple[np.ndarray, ...]
    cubics: tuple[CubicNonlinearity, ...]
    minus: PeriodicState
    plus: PeriodicState


@dataclass(frozen=True)
class InfiniteRangeModel:
    base: LatticeModel
    tail: dict[tuple[int, int], float]
    tail_bound: float
    k_num: int

    def summability(self, lam: float) -> float:
        """sum_k |a_{n,k}| e^{|k| lam} on the numerical support, worst site,
        plus the declared remainder bound scaled by the largest stored weight."""
        per_site = np.zeros(self.base.period)
        for (n, k), a in list(self.base.couplings.items()) + list(self.tail.items()):
            per_site[n] += abs(a) * math.exp(abs(k) * lam)
        return float(np.max(per_site)) + self.tail_bound * math.exp(self.k_num * lam)

    def full_model(self, eps: float = 1.0) -> LatticeModel:
        """Base model plus eps times the tail (in difference form)."""
        couplings = dict(self.base.couplings)
        for (n, k), a in self.tail.items():
            couplings[(n, k)] = couplings.get((n, k), 0.0) + eps * a
            couplings[(n, 0)] = couplings.get((n, 0), 0.0) - eps * a
        return LatticeModel(self.base.period, couplings, self.base.cubics)


def _neighbor_lattice(d1: float, d2: float, f: CubicNonlinearity,
                      period: int) -> LatticeModel:
    """First/second neighbor diffusion and reaction f, written with `period` sites."""
    weights = {-2: d2, -1: d1, 0: -2.0 * d1 - 2.0 * d2, 1: d1, 2: d2}
    couplings = {(n, k): w for n in range(period) for k, w in weights.items()}
    return LatticeModel(period, couplings, (f,) * period)


def build_nagumo(d1: float, d2: float, a: float) -> LatticeModel:
    """Scalar lattice with first/second neighbor diffusion and cubic f_a."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"middle root a={a} must lie in (0, 1)")
    return _neighbor_lattice(d1, d2, CubicNonlinearity(1.0, a), 1)


def _refine_roots(g, lo, hi, tol: float) -> np.ndarray:
    """Roots of g by bisection of every sign-change bracket [lo_k, hi_k],
    either order, to an exact zero or to |hi - lo| < tol * max(1, |mid|),
    capped at _ROOT_ROUNDS calls of g.  Each call takes the lo of every open
    bracket and the midpoints, rounded as bisection rounds them, that its
    next _ROOT_LEVELS steps may visit."""
    n = 2 ** _ROOT_LEVELS
    brackets = np.stack([lo, hi], axis=1).astype(float).tolist()
    roots = [None] * len(brackets)
    for _ in range(_ROOT_ROUNDS):
        todo = [i for i, r in enumerate(roots) if r is None]
        if not todo:
            break
        x = np.empty((len(todo), n + 1))
        x[:, [0, n]] = [brackets[i] for i in todo]
        for h in n >> np.arange(1, _ROOT_LEVELS + 1):
            x[:, h::2 * h] = 0.5 * (x[:, :-h:2 * h] + x[:, 2 * h::2 * h])
        values = g(x[:, :-1].ravel()).reshape(len(todo), n).tolist()
        for i, xs, v in zip(todo, x.tolist(), values):
            il, ih = 0, n
            while roots[i] is None and ih - il > 1:
                im = (il + ih) // 2
                if v[im] == 0.0 or abs(xs[ih] - xs[il]) < tol * max(1.0, abs(xs[im])):
                    roots[i] = xs[im]
                else:
                    il, ih = (im, ih) if (v[im] < 0.0) == (v[0] < 0.0) else (il, im)
            brackets[i] = [xs[il], xs[ih]]
    return np.array([0.5 * (a + b) if r is None else r for r, (a, b) in zip(roots, brackets)])


def _clusters(exact, points, tol):
    """One row per cluster of the rows of exact and points: in lexicographic
    order, a row farther than tol (max norm) from each cluster's first row
    starts a cluster.  An exact row, else the first, represents its cluster."""
    rows = np.unique(np.concatenate([exact, points]), axis=0)
    exact = set(exact)
    first, out, m = np.empty_like(rows), np.empty_like(rows), 0
    for v in rows:
        near = np.flatnonzero(np.max(np.abs(first[:m] - v), axis=1) <= tol)
        if len(near) == 0:
            first[m] = out[m] = v
            m += 1
        elif tuple(v) in exact:
            out[near[0]] = v
    return out[:m]


def find_two_periodic_equilibria(d1: float, a: float) -> list[PeriodicState]:
    """Period-2 equilibria (x, y) with y on the branch y = x + f_a(x)/(2 d1).

    Scans g(x) = f_a(x) + f_a(x + f_a(x)/(2 d1)) for sign changes on
    _TWO_SITE_SCAN and refines the roots.  The homogeneous states (0,0), (a,a),
    (1,1) are always included, exactly, in place of nearby round-off roots.
    """
    if d1 == 0.0:
        raise DecoupledLatticeError(
            "d1 = 0 decouples the sublattices; the period-2 branch formula "
            "y = x + f(x)/(2 d1) is undefined — treat each sublattice separately")
    f = CubicNonlinearity(1.0, a)

    def branch_y(x):
        return x + f(x) / (2.0 * d1)

    def g(x):
        return f(x) + f(branch_y(x))

    xs = np.linspace(*_TWO_SITE_SCAN, _TWO_SITE_SCAN_POINTS)
    gs = g(xs)
    sign_change = np.flatnonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)
    roots = _refine_roots(g, xs[sign_change], xs[sign_change + 1], 1e-15)
    roots = roots[np.abs(g(roots)) <= 1e-12]
    roots = _clusters([(0.0,), (a,), (1.0,)], np.reshape(roots, (-1, 1)), 1e-9)[:, 0]

    states = []
    for x in roots:
        y = branch_y(x)
        # even-site defect is zero by the branch formula; the odd one is |g|
        residual = max(abs(2.0 * d1 * (y - x) - f(x)), abs(2.0 * d1 * (x - y) - f(y)))
        states.append(PeriodicState(2, (float(x), float(y)), float(residual)))
    return states


def _match_cubic(samples_v: np.ndarray, samples_f: np.ndarray) -> CubicNonlinearity:
    """Fit f(v) = k v (v - a)(v - 1) through exact cubic samples."""
    coeffs = np.polynomial.polynomial.polyfit(samples_v, samples_f, 3)
    c0, c1, c2, c3 = coeffs
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if abs(c0) > _CUBIC_MATCH_TOL * scale:
        raise TransformError(f"transformed nonlinearity has f(0) = {c0:.3e} != 0")
    if abs(c3 + c2 + c1 + c0) > _CUBIC_MATCH_TOL * scale:
        raise TransformError("transformed nonlinearity does not vanish at 1")
    k = float(c3)
    if k == 0.0:
        raise TransformError("transformed nonlinearity degenerated to sub-cubic")
    return CubicNonlinearity(k, float(c1 / c3))


def _four_site_rhs(u, d1, d2, f):
    """Period-4 equilibrium residual of one state (4,) or a stack (K, 4)."""
    w, x, y, z = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    return np.stack([
        d1 * (z - 2.0 * w + x) + 2.0 * d2 * (y - w) - f(w),
        d1 * (w - 2.0 * x + y) + 2.0 * d2 * (z - x) - f(x),
        d1 * (x - 2.0 * y + z) + 2.0 * d2 * (w - y) - f(y),
        d1 * (y - 2.0 * z + w) + 2.0 * d2 * (x - z) - f(z),
    ], axis=-1)


def _solve_stack(J, rhs):
    """Solutions of J_k x = rhs_k and a mask of the solvable systems; a
    singular J_k leaves its row of x undefined and its mask entry False."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), bool)
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
        solved = np.zeros(len(J), bool)
        for k in range(len(J)):
            try:
                x[k] = np.linalg.solve(J[k], rhs[k])
                solved[k] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def find_four_periodic_equilibria(d1: float, d2: float, a: float) -> list[PeriodicState]:
    """Newton sweep over a seed grid for the period-4 equilibrium system.

    All seeds iterate together.  A seed stops as converged once its residual
    is at most 1e-13, and as failed on a singular Jacobian, a non-finite
    step or a step longer than 10.  The homogeneous states 0, a and 1 are
    always included, exactly, in place of nearby converged seeds.
    """
    f = CubicNonlinearity(1.0, a)
    # the Jacobian's coupling part: the period-4 lattice's blocks, summed
    coupling = np.sum(_neighbor_lattice(d1, d2, f, 4).blocks()[1], axis=0)
    diag = np.arange(4)
    u = np.array(np.meshgrid(*[_FOUR_SITE_SEEDS] * 4)).reshape(4, -1).T.astype(float)
    active = np.ones(len(u), bool)
    ok = np.zeros(len(u), bool)
    for _ in range(_FOUR_SITE_NEWTON_ITERS):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        r = _four_site_rhs(u[idx], d1, d2, f)
        done = np.max(np.abs(r), axis=1) <= 1e-13
        ok[idx[done]] = True
        active[idx[done]] = False
        idx, r = idx[~done], r[~done]
        jac = np.repeat(coupling[None], len(idx), axis=0)
        jac[:, diag, diag] -= f.deriv(u[idx])
        step, solved = _solve_stack(jac, -r)
        good = (solved & np.all(np.isfinite(step), axis=1)
                & (np.max(np.abs(step), axis=1) <= 10.0))
        active[idx[~good]] = False
        u[idx[good]] += step[good]
    conv = u[ok]
    conv = conv[np.max(np.abs(_four_site_rhs(conv, d1, d2, f)), axis=1) <= 1e-12]
    uniq = _clusters([(v,) * 4 for v in (0.0, a, 1.0)], conv, 1e-8)
    return [
        PeriodicState(4, tuple(float(c) for c in u),
                      float(np.max(np.abs(_four_site_rhs(u, d1, d2, f)))))
        for u in uniq
    ]


def _conjugated(model: LatticeModel, d: np.ndarray) -> dict[float, np.ndarray]:
    """The model's blocks B_j by shift, each as diag(d)^-1 B_j diag(d) off its
    diagonal and as B_j on it, which the conjugation leaves unchanged in exact
    arithmetic."""
    out = {}
    for r, B in zip(*model.blocks()):
        out[r] = B * d / d[:, None]
        np.fill_diagonal(out[r], np.diagonal(B))
    return out


def periodic_transform(d1: float, d2: float, a: float, minus: PeriodicState,
                       plus: PeriodicState, split) -> PeriodicSystem:
    """The first/second neighbor lattice written with period P = minus.period,
    in the variables v = (u - minus) / d, d = plus - minus, which send the
    pair to the constant states 0 and 1 of a P-component lattice.

    The bonds (n, k) in `split` make up the perturbation and the others the
    reference.  Each part is folded by LatticeModel.blocks(), each block
    conjugated by diag(d), and the zero-shift diagonal then closes the part's
    row sums to zero.  What the closing takes out of the coupling goes into
    the cubics: with C the summed lattice blocks and A the summed conjugated
    ones, component i gets (f(x_i + d_i v) - f(x_i)) / d_i + s_i v, where s_i
    is row i's off-diagonal sum of C minus that of A."""
    P = minus.period
    if plus.period != P:
        raise TransformError("minus and plus must have the same period")
    for st in (minus, plus):
        if st.residual > _EQUILIBRIUM_TOL:
            raise TransformError(
                f"input state {st.values} has equilibrium defect {st.residual:.3e}")
    x = minus.as_array()
    d = plus.as_array() - x
    if np.any(d == 0.0):
        raise TransformError("all component differences must be nonzero")
    f = CubicNonlinearity(1.0, a)
    lattice = _neighbor_lattice(d1, d2, f, P)
    parts = []
    for in_split in (False, True):
        bonds = {b: w for b, w in lattice.couplings.items() if (b in split) == in_split}
        blocks = _conjugated(replace(lattice, couplings=bonds), d)
        zero = blocks.setdefault(0.0, np.zeros((P, P)))
        np.fill_diagonal(zero, 0.0)
        np.fill_diagonal(zero, -np.sum(np.sum(list(blocks.values()), axis=0), axis=1))
        shifts = tuple(sorted(blocks))
        parts.append((shifts, tuple(blocks[r] for r in shifts)))

    # the diagonals of C and A agree, so only off-diagonal entries add up to s
    C = np.sum(lattice.blocks()[1], axis=0)
    s = np.sum(C - np.sum(list(_conjugated(lattice, d).values()), axis=0), axis=1)
    v = np.array([0.0, 1.0, 2.0, -1.0])
    cubics = tuple(_match_cubic(v, (f(x[i] + d[i] * v) - f(x[i])) / d[i] + s[i] * v)
                   for i in range(P))
    (shifts, matrices), (pert_shifts, pert_matrices) = parts
    return PeriodicSystem(shifts=shifts, matrices=matrices, pert_shifts=pert_shifts,
                          pert_matrices=pert_matrices, cubics=cubics,
                          minus=minus, plus=plus)


def build_infinite_range(a: float, q: float, scale: float,
                         k0: int, k_num: int) -> InfiniteRangeModel:
    """Geometric-kernel model a_k = scale * q^|k|, truncated reference at k0
    and numerical tail support up to k_num."""
    if not 0.0 < q < 1.0:
        raise ValueError("geometric ratio q must lie in (0, 1)")
    if not 0 < k0 < k_num:
        raise ValueError("need 0 < k0 < k_num")
    couplings: dict[tuple[int, int], float] = {}
    for k in range(1, k0 + 1):
        couplings[(0, k)] = couplings[(0, -k)] = scale * q**k
    couplings[(0, 0)] = -sum(v for (n, k), v in couplings.items() if k != 0)
    base = LatticeModel(1, couplings, (CubicNonlinearity(1.0, a),))
    tail = {}
    for k in range(k0 + 1, k_num + 1):
        tail[(0, k)] = tail[(0, -k)] = scale * q**k
    bound = 2.0 * scale * q ** (k_num + 1) / (1.0 - q)
    return InfiniteRangeModel(base=base, tail=tail, tail_bound=bound, k_num=k_num)


def tail_sum(model: InfiniteRangeModel) -> float:
    """sum over |k| > k0 of stored tail weights (the smallness input Pi(k0))."""
    return float(sum(model.tail.values())) + model.tail_bound
