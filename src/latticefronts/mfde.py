"""Linear mixed-type operators of the traveling-wave equation.

An operator represents  L phi = c phi' - sum_j A_j phi(. + r_j) + gamma phi;
its limits at the two spatial ends share the A_j and differ in the diagonal
gamma.  The characteristic matrix at an end is

    Delta(s) = c s I - sum_j A_j e^{s r_j} + diag(gamma),

and (asymptotic) hyperbolicity means det Delta(i theta) != 0 on the real
axis, at both ends, for the operator and its formal adjoint L*.  With real
A_j, c and gamma, L* has the symbol Delta(-i theta)^T = Delta(i theta)^H:
|det| and the real parts of the eigenvalues are those of L, so L* is
hyperbolic exactly when L is, and one scan per end certifies both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MFDEOperator",
    "HyperbolicityEntry",
    "HyperbolicityReport",
    "StandingWaveError",
    "characteristic_matrix",
    "characteristic_matrices",
    "is_hyperbolic",
    "asymptotic_hyperbolicity",
    "adjoint",
    "upsilon_two_site",
    "two_site_operator",
]


class StandingWaveError(ValueError):
    """Hyperbolicity scan unsupported: c = 0 with incommensurable shifts."""


@dataclass(frozen=True)
class MFDEOperator:
    """Constant-limit mixed-type operator; shifts contain r = 0."""

    shifts: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]  # A_j, shared by both limits
    c: float
    gamma_minus: np.ndarray   # diagonal entries, shape (N,)
    gamma_plus: np.ndarray

    def __post_init__(self):
        if len(set(self.shifts)) != len(self.shifts):
            raise ValueError("shifts must be pairwise distinct")
        if 0.0 not in self.shifts:
            raise ValueError("the zero shift must be present")
        if len(self.shifts) != len(self.matrices):
            raise ValueError("one coefficient matrix per shift required")

    @property
    def dimension(self) -> int:
        return len(self.gamma_minus)

    def gamma(self, end: int) -> np.ndarray:
        return self.gamma_plus if end > 0 else self.gamma_minus

    @functools.cached_property
    def _sorted_terms(self):
        """The shifts in increasing order, as an array, and the matrices in
        that order, as an (S, N, N) array; built on first use."""
        order = np.argsort(self.shifts, kind="stable")
        return np.array(self.shifts)[order], np.array(self.matrices, dtype=float)[order]


# Points per block of a characteristic-matrix stack: the (shifts, block)
# exponential table stays small whatever the scan length and shift count.
_BLOCK = 512


def characteristic_matrices(op: MFDEOperator, end: int, s) -> np.ndarray:
    """Delta(s_k) for every point of the 1-d array s, as a (len(s), N, N) stack.

    Delta(s) = c s I - sum_j A_j e^{s r_j} + diag(gamma) at the given end.
    An exponent beyond the float range raises FloatingPointError instead of
    returning inf or nan.
    """
    s = np.asarray(s, dtype=complex)
    n = op.dimension
    shifts, mats = op._sorted_terms
    fixed = np.diag(op.gamma(end)).astype(complex)
    eye = np.eye(n)
    out = np.empty((len(s), n, n), dtype=complex)
    terms = np.empty((len(shifts) + 1, min(len(s), _BLOCK), n, n), dtype=complex)
    for k in range(0, len(s), _BLOCK):
        blk = s[k:k + _BLOCK]
        t = terms[:, :len(blk)]
        with np.errstate(over="raise"):
            np.multiply(np.exp(np.multiply.outer(shifts, blk))[:, :, None, None],
                        mats[:, None], out=t[1:])
        t[0] = (op.c * blk)[:, None, None] * eye + fixed
        # (c s I + diag(gamma)) - A_1 e^{s r_1} - A_2 e^{s r_2} - ..., in
        # increasing shift order, one (block, N, N) slice per shift: the scans'
        # flat minima are located in the last bits, so the sum keeps the
        # rounding of a plain per-shift loop, not a matrix product's, and does
        # not depend on the order in which the operator lists its shifts
        np.subtract.reduce(t, axis=0, out=out[k:k + _BLOCK])
    return out


def characteristic_matrix(op: MFDEOperator, end: int, s: complex) -> np.ndarray:
    """Delta(s) = c s I - sum_j A_j e^{s r_j} + diag(gamma) at the given end."""
    return characteristic_matrices(op, end, [s])[0]


@dataclass(frozen=True)
class HyperbolicityEntry:
    end: int
    adjoint: bool
    verdict: bool
    min_modulus: float
    theta_at_min: float
    theta_bound: float
    dtheta: float             # spacing of the sampling grid before refinement
    tol: float
    method: str

    def to_json(self) -> dict:
        return {
            "end": "+inf" if self.end > 0 else "-inf",
            "adjoint": self.adjoint,
            "verdict": self.verdict,
            "min_modulus": self.min_modulus,
            "theta_at_min": self.theta_at_min,
            "Theta": self.theta_bound,
            "dtheta": self.dtheta,
            "tol": self.tol,
            "method": self.method,
        }


@dataclass(frozen=True)
class HyperbolicityReport:
    entries: tuple[HyperbolicityEntry, ...]

    @property
    def verdict(self) -> bool:
        return all(e.verdict for e in self.entries)

    @property
    def min_modulus(self) -> float:
        return min(e.min_modulus for e in self.entries)

    def worst_entry(self) -> HyperbolicityEntry:
        return min(self.entries, key=lambda e: e.min_modulus)

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "entries": [e.to_json() for e in self.entries]}


def _operator_norms(op: MFDEOperator, end: int) -> float:
    norms = np.linalg.norm(np.array(op.matrices, dtype=float), 2, axis=(1, 2))
    # a left-to-right float sum, so theta_bound rounds as a per-shift loop's
    return sum(norms.tolist()) + float(np.max(np.abs(op.gamma(end))))


def _zoom_refine(func, lo, hi):
    """Minimize func, which maps an array of points to their values, on every
    bracket [lo_k, hi_k] at once.  Each of _ZOOM_ROUNDS calls takes _ZOOM_POINTS
    equally spaced points of every bracket and keeps the two cells around the
    least value; returns the final midpoints and their values."""
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    k, u = np.arange(len(a)), np.linspace(0.0, 1.0, _ZOOM_POINTS)
    for _ in range(_ZOOM_ROUNDS):
        x = a[:, None] + (b - a)[:, None] * u
        i = np.argmin(func(x.ravel()).reshape(x.shape), axis=1)
        a, b = x[k, np.maximum(i - 1, 0)], x[k, np.minimum(i + 1, _ZOOM_POINTS - 1)]
    x = 0.5 * (a + b)
    return x, func(x)


def _shift_base(shifts) -> float | None:
    """Approximate positive gcd of the nonzero shifts, or None."""
    nz = [abs(s) for s in shifts if s != 0.0]
    if not nz:
        return None
    g = nz[0]
    for s in nz[1:]:
        # float gcd by remainder reduction
        a, b = max(g, s), min(g, s)
        while b > 1e-9 * a:
            a, b = b, a - b * math.floor(a / b)
        g = a
    if g < 1e-6 * min(nz):
        # the reduction collapsed: no usable common base (irrational ratio)
        return None
    for s in nz:
        if abs(s / g - round(s / g)) > 1e-9:
            return None
    return g


def _scan_detmin(op, end, theta_max, grid_points):
    thetas = np.linspace(0.0, theta_max, grid_points)

    def f(t):
        return np.abs(np.linalg.det(characteristic_matrices(op, end, 1j * t)))

    dets = f(thetas)
    interior = np.flatnonzero((dets[1:-1] <= dets[:-2]) & (dets[1:-1] <= dets[2:])) + 1
    candidates = np.union1d(interior, [0, len(thetas) - 1])
    t, v = _zoom_refine(f, thetas[np.maximum(candidates - 1, 0)],
                        thetas[np.minimum(candidates + 1, len(thetas) - 1)])
    k = int(np.argmin(v))
    if v[k] < dets[0]:
        return float(t[k]), float(v[k])
    return 0.0, float(dets[0])


def _eig_realpart_certificate(op, end, period, grid_points):
    """Min over one period of min_i |Re lambda_i(Delta(i theta) - i c theta I)|.

    The c-free part of the symbol is periodic in theta for commensurable
    shifts; a zero of det Delta(i theta) at any theta requires one of its
    eigenvalues to be purely imaginary, so a positive lower bound on the
    real parts certifies hyperbolicity for every theta and every speed.

    With real A_j, the c-free symbol at period - theta is the complex
    conjugate of the one at theta, so the certificate is symmetric about
    period / 2 and its minima come in mirror pairs.  Only the grid points in
    [0, period / 2] are scanned and the minimizer is reported in that half,
    whatever rounding the evaluation order leaves.
    """
    thetas = np.linspace(0.0, period, grid_points)
    eye = np.eye(op.dimension)

    def realparts(t):
        q = characteristic_matrices(op, end, 1j * t) - (1j * op.c * t)[:, None, None] * eye
        return np.real(np.linalg.eigvals(q))

    re = realparts(thetas[: (grid_points + 1) // 2])
    vals = np.min(np.abs(re), axis=-1)
    i = int(np.argmin(vals))
    # the count in the right half plane changes where an eigenvalue crosses
    # the axis, also in a spike the grid steps over: refine those cells too
    cross = np.flatnonzero(np.diff(np.count_nonzero(re > 0.0, axis=-1)))
    t, v = _zoom_refine(lambda s: np.min(np.abs(realparts(s)), axis=-1),
                        thetas[np.append(max(i - 1, 0), cross)],
                        thetas[np.append(min(i + 1, len(thetas) - 1), cross + 1)])
    k = int(np.argmin(v))
    t, v = float(t[k]), float(v[k])
    if vals[i] < v:
        t, v = float(thetas[i]), float(vals[i])
    # a bracket around the last point of the half may refine past the middle
    return min(t, period - t), v


_SCAN_POINTS = 4096   # fewest points of a hyperbolicity scan
_THETA_CAP = 1e4      # largest bound Theta the det scan covers directly
_ZOOM_POINTS = 17     # a zoom round keeps 2 of 16 cells of a bracket, and
_ZOOM_ROUNDS = 14     # 8^-14 = 2.3e-13 < 0.618^60, the share 60 golden steps keep


def is_hyperbolic(op: MFDEOperator, end: int, tol: float = 1e-8) -> HyperbolicityEntry:
    """Decide det Delta(i theta) != 0 at one end.

    For |c| large enough that the a-priori bound Theta is moderate, scans
    |theta| <= Theta directly, on at least _SCAN_POINTS points and at least
    32 per period 2 pi / base of the shifts' common base.  Near-standing
    waves (Theta beyond _THETA_CAP) fall back to the periodic eigenvalue
    certificate, which needs commensurable shifts.  The entry records the
    grid spacing as dtheta.
    """
    norms = _operator_norms(op, end)
    theta_bound = (norms + 1.0) / abs(op.c) if op.c != 0.0 else math.inf
    base = _shift_base(op.shifts)

    if theta_bound <= _THETA_CAP:
        span, points = theta_bound, _SCAN_POINTS
        if base is not None:
            # at least 32 grid intervals per period 2 pi / base
            per_period = 32.0 * base / (2.0 * math.pi)
            points = max(points, math.ceil(per_period * theta_bound) + 1)
        t, v = _scan_detmin(op, end, span, points)
        method = "det-scan"
    else:
        if base is None:
            raise StandingWaveError(
                "speed too close to zero for the det scan and shifts are "
                "incommensurable; standing waves are unsupported here")
        span, points = 2.0 * math.pi / base, _SCAN_POINTS
        t, v = _eig_realpart_certificate(op, end, span, points)
        method = "eig-realpart-certificate"
        # report |det| at the certificate minimizer for diagnostics
        v = min(v, abs(np.linalg.det(characteristic_matrix(op, end, 1j * t))))

    return HyperbolicityEntry(end=end, adjoint=False, verdict=bool(v > tol),
                              min_modulus=float(v), theta_at_min=float(t),
                              theta_bound=float(theta_bound),
                              dtheta=span / (points - 1), tol=tol, method=method)


def adjoint(op: MFDEOperator) -> MFDEOperator:
    """Formal L^2 adjoint: speed negated, shifts reflected, matrices transposed."""
    return MFDEOperator(
        shifts=tuple(-r for r in op.shifts),
        matrices=tuple(A.T.copy() for A in op.matrices),
        c=-op.c,
        gamma_minus=op.gamma_minus.copy(),
        gamma_plus=op.gamma_plus.copy(),
    )


def asymptotic_hyperbolicity(op: MFDEOperator, tol: float = 1e-8) -> HyperbolicityReport:
    """Hyperbolicity at both ends; each adjoint entry repeats the operator's
    (one scan per end, see the module docstring)."""
    scans = [is_hyperbolic(op, end, tol) for end in (-1, 1)]
    return HyperbolicityReport(
        tuple(e for s in scans for e in (s, replace(s, adjoint=True))))


def upsilon_two_site(d_e: float, d_o: float, d2: float, eps: float,
                     gamma1: float, gamma2: float, c: float,
                     theta: float) -> complex:
    """Closed-form determinant of the 2-site characteristic matrix at s = i theta.

    Independent oracle for det(characteristic_matrix) on the 2-site family,
    with the speed factor carried explicitly on the theta terms.
    """
    m1 = 2.0 * eps * d2 * (math.cos(theta) - 1.0) - 2.0 * d_e - gamma1
    m2 = 2.0 * eps * d2 * (math.cos(theta) - 1.0) - 2.0 * d_o - gamma2
    re = -(c * theta) ** 2 + m1 * m2 - 2.0 * d_e * d_o * (1.0 + math.cos(theta))
    im = -c * theta * (m1 + m2)
    return complex(re, im)


def two_site_operator(d_e: float, d_o: float, d2: float, eps: float,
                      gamma_minus: tuple[float, float],
                      gamma_plus: tuple[float, float],
                      c: float) -> MFDEOperator:
    """Constant-limit operator of the transformed even/odd system."""
    ed2 = eps * d2
    A_m = np.array([[ed2, d_e], [0.0, ed2]])            # shift -1
    A_0 = np.array([[-2.0 * d_e - 2.0 * ed2, d_e],
                    [d_o, -2.0 * d_o - 2.0 * ed2]])
    A_p = np.array([[ed2, 0.0], [d_o, ed2]])            # shift +1
    return MFDEOperator(shifts=(-1.0, 0.0, 1.0), matrices=(A_m, A_0, A_p), c=c,
                        gamma_minus=np.array(gamma_minus, dtype=float),
                        gamma_plus=np.array(gamma_plus, dtype=float))
