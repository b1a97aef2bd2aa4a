"""Lattice models with cubic bistable reactions and periodic couplings.

Site dynamics follow

    du_n/dt = sum_k a_{n,k} u_{n+k} - f_n(u_n),

with coefficients a_{n,k} periodic in n and f_n a cubic with stable zeros
0 and 1.  The module also carries the period-P change of variables that
turns a connection between period-P equilibria into a P-component system
connecting the constant states 0 and 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CubicNonlinearity",
    "LatticeModel",
    "PeriodicState",
    "PeriodicSystem",
    "Equilibria",
    "InfiniteRangeModel",
    "TransformError",
    "SPLIT_BONDS",
    "build_nagumo",
    "find_two_periodic_equilibria",
    "find_four_periodic_equilibria",
    "periodic_transform",
    "build_infinite_range",
]

_GAMMA = 0.6129 + 0.7902j        # the homotopy's generic complex constant
_TRACK_TOL = 1e-6                # last corrector step of an accepted step, relative
_STEP_MIN = 1e-11                # a path whose step in t falls below this stalls
_ENDGAME_T = 0.99                # paths past this t are finished by Newton at t = 1
_NEWTON_ITERS = 50               # most Newton steps at t = 1
_ENDPOINT_TOL = 1e-8             # largest defect of a real endpoint, over (1 + |u|)^3
_SAME_STATE = 1e-4               # relative distance of one state's endpoints and
                                 # largest relative imaginary part of a real one
_ROOT_LEVELS = 5                 # bisection steps per round of a root refinement
_ROOT_ROUNDS = 40                # most rounds of a root refinement (200 steps)
_CUBIC_MATCH_TOL = 1e-12         # largest defect of a transformed state, over |d_i|

# the bonds (n, k) that periodic_transform moves to the perturbation: the
# second neighbours of the period-2 lattice, and the w-x and x-y bonds of the
# period-4 lattice
SPLIT_BONDS = {
    2: frozenset((n, k) for n in range(2) for k in (-2, 2)),
    4: frozenset({(0, 1), (1, -1), (1, 1), (2, -1)}),
}


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
    """A period-P equilibrium: its values on one period, its defect and
    whether it is degenerate (its Jacobian is singular)."""

    period: int
    values: tuple[float, ...]
    residual: float
    degenerate: bool

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


class Equilibria(list):
    """The PeriodicStates a search lists, with the number of homotopy paths
    it followed and the number it lost (stalled before t = _ENDGAME_T or
    diverged), whose states the list may miss."""

    def __init__(self, states, paths_tracked: int, paths_lost: int):
        super().__init__(states)
        self.paths_tracked = paths_tracked
        self.paths_lost = paths_lost


@dataclass(frozen=True)
class InfiniteRangeModel:
    """A long-range lattice cut into two lattices, each closed to zero row
    sums by its zero bond: base holds the bonds with |k| <= k0 and tail the
    bonds beyond, up to the numerical support k_num."""

    base: LatticeModel
    tail: LatticeModel

    def full_model(self, eps: float = 1.0) -> LatticeModel:
        """Base model plus eps times the tail (in difference form)."""
        couplings = dict(self.base.couplings)
        for (n, k), a in self.tail.couplings.items():
            if k == 0:
                continue
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


def _defects(C: np.ndarray, f: CubicNonlinearity, u: np.ndarray) -> np.ndarray:
    """sum_j C_ij (u_j - u_i) - f(u_i), the equilibrium defect of each row u
    of a stack; in difference form, so exactly zero at homogeneous states."""
    return np.einsum("ij,kij->ki", C, u[:, None, :] - u[:, :, None]) - f(u)


def _clusters(exact, points, weights, tol):
    """The rows of exact and points grouped by chains of rows within
    tol * (1 + max|row|) of each other (max norm), which a shift of the
    components carries along.  Returns one row per group, an exact row if
    the group has one and else the mean of its rows, and the summed weights
    of each group's points.  The groups are in the lexicographic order of
    their rows rounded to 9 decimals, so rounding does not order two states
    whose leading values agree."""
    rows = np.concatenate([exact, points])
    size = 1.0 + np.max(np.abs(rows), axis=1)
    chain = 1.0 * (np.max(np.abs(rows[:, None] - rows[None]), axis=2)
                   <= tol * np.maximum.outer(size, size))
    for _ in range(len(rows).bit_length()):
        chain = 1.0 * (chain @ chain > 0.0)
    first = np.unique(np.argmax(chain, axis=1))
    reps = np.where((first < len(exact))[:, None], rows[first],
                    chain[first] @ rows / np.sum(chain[first], axis=1)[:, None])
    order = np.lexsort(np.round(reps, 9).T[::-1])
    return reps[order], (chain[first] @ np.concatenate([np.zeros(len(exact)), weights]))[order]


def _periodic_equilibria(d1: float, d2: float, a: float, period: int) -> Equilibria:
    """Every period-P equilibrium of the first/second neighbor lattice, by a
    homotopy from the anti-continuum limit (MacKay and Aubry 1994).

    H(u, t) = t L u - ((1 - t) gamma + t) f(u), L the summed blocks of the
    period-P lattice with their row sums on the diagonal, has the 3^P roots
    {0, a, 1}^P at t = 0 and the equilibria L u = f(u) at t = 1.  For a
    generic complex gamma the paths stay regular and bounded for t < 1, and
    a root of multiplicity m ends m paths (the gamma trick; Sommese and
    Wampler 2005), so a state at the end of more than one path is listed
    once, as degenerate.  The lattice shift maps paths to paths, so one path
    per orbit of start points is tracked.
    """
    f = CubicNonlinearity(1.0, a)
    C = np.sum(_neighbor_lattice(d1, d2, f, period).blocks()[1], axis=0)
    np.fill_diagonal(C, 0.0)
    L = C - np.diag(np.sum(C, axis=1))
    diag = np.arange(period)

    def solve(u, t, s, r):
        # H_u x = r for a stack; a singular H_u gets its least-squares x
        J = (t[:, None, None] * L).astype(complex)
        J[:, diag, diag] -= s[:, None] * f.deriv(u)
        try:
            return np.linalg.solve(J, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            J = np.nan_to_num(J, nan=0.0, posinf=0.0, neginf=0.0)
            return (np.linalg.pinv(J) @ r[..., None])[..., 0]

    def newton(u, t, s):
        return solve(u, t, s, s[:, None] * f(u) - t[:, None] * (u @ L.T))

    starts = [s for s in itertools.product(range(3), repeat=period)
              if s == min(s[k:] + s[:k] for k in range(period))]
    orbit = np.array([len({s[k:] + s[:k] for k in range(period)}) for s in starts])
    u = np.array([0.0, a, 1.0])[np.array(starts)].astype(complex)
    t, h = np.zeros(len(u)), np.full(len(u), 0.1)
    active = np.ones(len(u), bool)
    with np.errstate(all="ignore"):
        while np.any(active):
            i = np.flatnonzero(active)
            t1 = np.minimum(t[i] + h[i], 1.0)
            s0, s1 = (1.0 - t[i]) * _GAMMA + t[i], (1.0 - t1) * _GAMMA + t1
            # dH/dt = L u - (1 - gamma) f(u)
            v = u[i] + (t1 - t[i])[:, None] * solve(u[i], t[i], s0, (1.0 - _GAMMA) * f(u[i])
                                                    - u[i] @ L.T)
            steps = []
            for _ in range(3):
                dv = newton(v, t1, s1)
                v += dv
                steps.append(np.max(np.abs(dv), axis=1))
            scale = 1.0 + np.max(np.abs(u[i]), axis=1)
            ok = ((steps[0] <= 0.1 * scale) & (steps[2] <= _TRACK_TOL * scale)
                  & np.all(np.isfinite(v), axis=1))
            u[i[ok]], t[i[ok]] = v[ok], t1[ok]
            h[i] *= np.where(ok, 2.0, 0.5)
            active[i] = (t[i] < 1.0) & (h[i] >= _STEP_MIN)
        # Newton at t = 1, each path until its step stops shrinking
        i, last = np.flatnonzero(t >= _ENDGAME_T), np.inf
        for _ in range(_NEWTON_ITERS):
            du = np.nan_to_num(newton(u[i], np.ones(len(i)), np.ones(len(i))))
            u[i] += du
            step = np.max(np.abs(du), axis=1)
            go = (step > 1e-15 * (1.0 + np.max(np.abs(u[i]), axis=1))) & (step < last)
            i, last = i[go], step[go]
            if len(i) == 0:
                break
        lost = (t < _ENDGAME_T) | ~np.all(np.isfinite(u), axis=1)
        x, scale = u.real, 1.0 + np.max(np.abs(u), axis=1)
        real = ~lost & (np.max(np.abs(u.imag), axis=1) <= _SAME_STATE * scale)
        real[real] = (np.max(np.abs(_defects(C, f, x[real])), axis=1)
                      <= _ENDPOINT_TOL * scale[real] ** 3)
    # every shift of every real endpoint: a start of period p gives each of
    # its shifts period / p times, so each counts as p / period of a path
    rot = (np.arange(period) + np.arange(period)[:, None]) % period
    reps, paths = _clusters(np.outer([0.0, a, 1.0], np.ones(period)),
                            np.reshape(x[real][:, rot], (-1, period)),
                            np.repeat(orbit[real] / period, period), _SAME_STATE)
    defects = np.max(np.abs(_defects(C, f, reps)), axis=1)
    states = [PeriodicState(period, tuple(map(float, v)), float(r), bool(n > 1.5))
              for v, r, n in zip(reps, defects, paths)]
    return Equilibria(states, 3 ** period, int(np.sum(orbit[lost])))


def find_two_periodic_equilibria(d1: float, a: float) -> Equilibria:
    """Period-2 equilibria; the second neighbors cancel at period 2."""
    return _periodic_equilibria(d1, 0.0, a, 2)


def find_four_periodic_equilibria(d1: float, d2: float, a: float) -> Equilibria:
    """Period-4 equilibria of the first/second neighbor lattice."""
    return _periodic_equilibria(d1, d2, a, 4)


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
    is row i's off-diagonal sum of C minus that of A.  Its Taylor coefficients
    at 0 give the cubic: leading coefficient k = f.k d_i^2 and slope
    k a = f'(x_i) + s_i; it vanishes at 1 because both states are
    equilibria."""
    P = minus.period
    if plus.period != P:
        raise TransformError("minus and plus must have the same period")
    x = minus.as_array()
    d = plus.as_array() - x
    if np.any(d == 0.0):
        raise TransformError("all component differences must be nonzero")
    f = CubicNonlinearity(1.0, a)
    lattice = _neighbor_lattice(d1, d2, f, P)
    C = np.sum(lattice.blocks()[1], axis=0)
    # component i's cubic at 1 is the states' defect difference over d_i
    for st in (minus, plus):
        over = np.abs(_defects(C, f, st.as_array()[None])[0] / d)
        i = int(np.argmax(over))
        if over[i] > _CUBIC_MATCH_TOL:
            raise TransformError(
                f"input state {st.values}: the equilibrium defect of component {i} "
                f"is {over[i]:.3e} of |d_{i}|, above {_CUBIC_MATCH_TOL:g}")
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
    s = np.sum(C - np.sum(list(_conjugated(lattice, d).values()), axis=0), axis=1)
    k = f.k * d * d
    cubics = tuple(CubicNonlinearity(float(k[i]), float((f.deriv(x[i]) + s[i]) / k[i]))
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
    f = CubicNonlinearity(1.0, a)

    def lattice(ks) -> LatticeModel:
        bonds = {}
        for k in ks:
            bonds[(0, k)] = bonds[(0, -k)] = scale * q**k
        return LatticeModel(1, {**bonds, (0, 0): -sum(bonds.values())}, (f,))

    return InfiniteRangeModel(base=lattice(range(1, k0 + 1)),
                              tail=lattice(range(k0 + 1, k_num + 1)))
