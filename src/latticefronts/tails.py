"""Exponential tail rates of traveling fronts.

Rates come from real roots of the characteristic determinant (constant
media) or from a principal-eigenvalue dispersion relation (periodic
media, long-range kernels); fitted rates on computed profiles close the
loop.  Rates size the truncation domain of the boundary-value solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .mfde import MFDEOperator, characteristic_matrices, characteristic_matrix
from .model import InfiniteRangeModel, LatticeModel, _refine_roots

__all__ = [
    "TailReport",
    "NoRealRootError",
    "ReducibleMatrixError",
    "TailFitError",
    "decay_rates_constant",
    "principal_eigenpair",
    "folded_weight_matrix",
    "dispersion_value",
    "periodic_decay_rate",
    "cutoff_principal_value",
    "fit_tail",
    "tail_report_constant",
]

_LAM_MAX = 20.0           # the root scan covers |lambda| <= _LAM_MAX
_ROOT_SCAN_POINTS = 8000
_ROOT_TOL = 1e-12         # relative bracket width of the tail-rate root refinements
_FIT_WINDOW = 0.5         # fit_tail's share of the grid at each end
_FIT_FLOOR = 1e-12        # fit_tail's amplitude range
_FIT_CEILING = 1e-2


class NoRealRootError(RuntimeError):
    """No real characteristic root of the required sign at the given end."""


class ReducibleMatrixError(ValueError):
    pass


class TailFitError(RuntimeError):
    pass


@dataclass(frozen=True)
class TailReport:
    lambda0: float            # rate at -inf, positive
    lambda1: float            # rate at +inf, negative
    eigvec0: np.ndarray       # null vector of Delta(lambda0) at -inf
    eigvec1: np.ndarray       # null vector of Delta(lambda1) at +inf
    method: str

    def to_json(self) -> dict:
        return {"lambda0": self.lambda0, "lambda1": self.lambda1,
                "method": self.method,
                "eigvec0": list(map(float, self.eigvec0)),
                "eigvec1": list(map(float, self.eigvec1))}


def decay_rates_constant(op: MFDEOperator, end: int) -> list[float]:
    """Real roots of det Delta(lambda) = 0 at one end, sorted ascending.

    The caller picks the smallest positive root at -inf or the largest
    negative root at +inf as the front's decay rate.  The scan covers
    |lambda| <= _LAM_MAX, narrowed to |lambda| <= 700 / max|r_j| so that
    every e^{lambda r_j} stays inside the float range.  All sign changes
    are refined at once, to brackets below _ROOT_TOL * max(1, |lambda|).
    """
    if op.c == 0.0:
        raise ValueError("tail roots need a nonzero speed")
    r_max = max(abs(r) for r in op.shifts)
    lam_max = min(_LAM_MAX, 700.0 / r_max) if r_max > 0.0 else _LAM_MAX

    def real_det(lam):
        return np.real(np.linalg.det(characteristic_matrices(op, end, lam)))

    lams = np.linspace(-lam_max, lam_max, _ROOT_SCAN_POINTS)
    vals = real_det(lams)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = _refine_roots(real_det, lams[change], lams[change + 1], _ROOT_TOL).tolist()
    exact_zeros = lams[vals == 0.0]
    roots.extend(float(z) for z in exact_zeros if abs(z) > _ROOT_TOL)
    return sorted(roots)


def principal_eigenpair(matrix: np.ndarray):
    """Rightmost eigenvalue with positive eigenvector of an irreducible
    matrix with nonnegative off-diagonal entries.

    By Perron-Frobenius that eigenvalue is real and simple, every other
    eigenvalue has a smaller real part, and its eigenvector has entries of
    one sign; the vector is scaled so that its largest entry is +1.
    """
    B = np.asarray(matrix, dtype=float)
    n = B.shape[0]
    off = B - np.diag(np.diag(B))
    if np.any(off < 0.0):
        raise ValueError("off-diagonal entries must be nonnegative")
    if n > 1:
        ncomp, labels = connected_components(sp.csr_matrix(off != 0.0),
                                             directed=True, connection="strong")
        if ncomp > 1:
            raise ReducibleMatrixError(
                f"matrix is reducible into {ncomp} strongly connected blocks "
                f"(labels {labels.tolist()})")
    w, V = np.linalg.eig(B)
    i = int(np.argmax(w.real))
    v = V[:, i].real
    return float(w[i].real), v / v[np.argmax(np.abs(v))]


def folded_weight_matrix(model: LatticeModel, mu) -> np.ndarray:
    """N x N matrix with entries sum_k a_{n,k} e^{k mu} folded to the period,
    added in the order of model.couplings; one per entry of an array mu."""
    N, (n, k) = model.period, np.array(list(model.couplings)).T
    with np.errstate(over="raise"):
        terms = np.exp(np.multiply.outer(mu, k)) * list(model.couplings.values())
    M = np.zeros(np.shape(mu) + (N * N,))
    np.add.at(M, (..., n * N + (n + k) % N), terms)
    return M.reshape(np.shape(mu) + (N, N))


def dispersion_value(model: LatticeModel, gammas: np.ndarray, c: float, mu):
    """c mu - lambda_principal(M(mu) - diag(gamma)) for a number or an array
    mu; zero at a tail rate.  The conditions of principal_eigenpair, which
    depend on the sign pattern alone, are the caller's to check."""
    Q = folded_weight_matrix(model, mu) - np.diag(gammas)
    return c * mu - np.max(np.linalg.eigvals(Q).real, axis=-1)


def periodic_decay_rate(model: LatticeModel, end: int, c: float):
    """Tail rate mu and positive per-site weights for periodic media.

    Solves c mu = lambda_principal(M(mu) - diag(gamma)), with mu > 0 at the
    -inf end and mu < 0 at +inf, and checks Perron-Frobenius at the root.
    gamma holds the cubic slopes at the equilibrium of that end (0 or 1).
    """
    if c == 0.0:
        raise ValueError("dispersion relation needs a nonzero speed")
    u = 0.0 if end < 0 else 1.0
    gammas = np.array([cub.deriv(u) for cub in model.cubics])

    def g(mu):
        return dispersion_value(model, gammas, c, mu)

    for far in (10.0, 20.0, 40.0, 80.0):
        a, b = -end * 1e-12, -end * far
        if np.prod(g(np.array([a, b]))) < 0:
            break
    else:
        raise NoRealRootError(
            f"no bracketing interval for the tail rate at end {end:+d}; "
            "the front may not decay exponentially there")
    mu = float(_refine_roots(g, [a], [b], _ROOT_TOL)[0])
    _lam, v = principal_eigenpair(folded_weight_matrix(model, mu) - np.diag(gammas))
    return mu, v


def cutoff_principal_value(model: InfiniteRangeModel, mu: float, k0: int) -> float:
    """Principal value lambda(k0) of the weighted coupling operator
    truncated at cutoff k0, at fixed tail exponent mu, with the reaction
    slopes of the -inf end."""
    full = model.full_model(eps=1.0)
    truncated = {key: v for key, v in full.couplings.items() if abs(key[1]) <= k0}
    for n in range(full.period):
        truncated[(n, 0)] = -sum(v for (m, k), v in truncated.items()
                                 if m == n and k != 0)
    sub = LatticeModel(full.period, truncated, full.cubics)
    gammas = np.array([cub.deriv(0.0) for cub in sub.cubics])
    lam, _v = principal_eigenpair(folded_weight_matrix(sub, mu) - np.diag(gammas))
    return lam


def fit_tail(xi: np.ndarray, profile: np.ndarray, end: int):
    """Log-linear tail rate of a front profile's first component at one end.

    Fits log|phi| (at -inf) or log|1 - phi| (at +inf) against xi over the
    end's _FIT_WINDOW fraction, restricted to amplitudes in
    (_FIT_FLOOR, _FIT_CEILING).  Returns (rate, r_squared, points_used).
    """
    values = np.asarray(profile, dtype=float)
    if values.ndim > 1:
        values = values[:, 0]
    dev = np.abs(values) if end < 0 else np.abs(1.0 - values)
    n = len(xi)
    cut = int(round(n * _FIT_WINDOW))
    mask = np.zeros(n, dtype=bool)
    if end < 0:
        mask[:cut] = True
    else:
        mask[n - cut:] = True
    mask &= (dev > _FIT_FLOOR) & (dev < _FIT_CEILING)
    if int(mask.sum()) < 8:
        raise TailFitError(
            f"only {int(mask.sum())} usable tail points at end {end:+d}; "
            "enlarge the domain")
    x = np.asarray(xi)[mask]
    y = np.log(dev[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2, int(mask.sum())


def tail_report_constant(op: MFDEOperator) -> TailReport:
    """Smallest positive rate at -inf and largest negative rate at +inf."""
    roots_m = [r for r in decay_rates_constant(op, -1) if r > 1e-12]
    roots_p = [r for r in decay_rates_constant(op, +1) if r < -1e-12]
    if not roots_m:
        raise NoRealRootError("no positive real characteristic root at -inf")
    if not roots_p:
        raise NoRealRootError("no negative real characteristic root at +inf")
    lam0, lam1 = min(roots_m), max(roots_p)
    return TailReport(lambda0=lam0, lambda1=lam1,
                      eigvec0=_null_vector(op, -1, lam0),
                      eigvec1=_null_vector(op, +1, lam1),
                      method="characteristic_root")


def _null_vector(op: MFDEOperator, end: int, lam: float) -> np.ndarray:
    """Right singular vector of the real matrix Delta(lam) for its smallest
    singular value, scaled so that its largest-modulus entry is +1."""
    v = np.linalg.svd(characteristic_matrix(op, end, complex(lam)).real)[2][-1]
    return v / v[np.argmax(np.abs(v))]
