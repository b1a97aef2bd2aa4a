"""Constructive perturbation scheme for the wave equation.

Starting from a converged reference wave (c0, phi0) of the base system,
solves the eps-perturbed wave equation by Picard iteration of
psi -> S^{-1} R(c(psi), psi), where R collects the speed mismatch, the
perturbation term, and the quadratic reaction remainder, c(psi) is the
unique speed making R orthogonal to the adjoint kernel surrogate, and S
is the reference linearization bordered with its kernel surrogate.  The
scheme doubles as an independent solver at small eps and a mechanism
check for the Newton solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .bvp import (Coupling, Discretization, Grid, KernelData, WaveProblem,
                  WaveSolution, align_phase, assemble_residual,
                  coupling_operator, discretize, inner, kernel_vectors)

__all__ = [
    "FixedPointContext",
    "FixedPointState",
    "StepRejectedError",
    "ContractionFailureError",
    "KernelObstructionError",
    "make_context",
    "remainder_N",
    "residual_R",
    "speed_update",
    "apply_T",
    "iterate",
]

_ORTHOGONALITY_TOL = 1e-10   # largest relative adjoint part of R after a speed update


class StepRejectedError(RuntimeError):
    """Speed-update denominator fell to the delta-hat guard; shrink psi or eps."""


class ContractionFailureError(RuntimeError):
    """Empirical contraction ratio stayed at or above 1; the perturbation is
    too large for the solve-and-project map to contract (the quadratic
    remainder bound must stay below the inverse linearization bound)."""


class KernelObstructionError(RuntimeError):
    def __init__(self, msg, kernel_dim=None):
        super().__init__(msg)
        self.kernel_dim = kernel_dim


@dataclass(frozen=True)
class FixedPointContext:
    problem: WaveProblem          # carries the perturbation and its eps
    grid: Grid
    phi0: np.ndarray
    c0: float
    kernel: KernelData
    delta_hat: float
    C0_estimate: float
    disc: Discretization          # of the base (eps = 0) problem
    perturbation: Coupling        # B, the coupling eps scales

    @property
    def eps(self) -> float:
        return self.problem.eps


@dataclass(frozen=True)
class FixedPointState:
    psi: np.ndarray
    c_current: float
    history: tuple[tuple[float, float, float], ...]   # (step_norm, c_k, lambda_hat)
    contraction_ratio: float    # largest lambda_hat of history but the closing step's
    delta_hat: float
    C0_estimate: float
    max_psi_norm: float

    def to_json(self) -> dict:
        return {
            "c": self.c_current,
            "iterations": len(self.history),
            "contraction_ratio": self.contraction_ratio,
            "delta_hat": self.delta_hat,
            "C0_estimate": self.C0_estimate,
            "max_psi_norm": self.max_psi_norm,
            "history": [{"step_norm": s, "c": c, "lambda_hat": l}
                        for s, c, l in self.history],
        }


def make_context(problem: WaveProblem, grid: Grid,
                 reference: WaveSolution) -> FixedPointContext:
    """Kernel surrogates and constants from a converged base-system wave.

    The reference must solve the problem at eps = 0; kernel dimension 2 or
    higher blocks the scheme (decoupled-system regime).  Dimension 0 marks
    a pinned reference: the bordered solve is still well posed and the
    scheme proceeds with the smallest-singular-vector surrogate.
    """
    base = problem.with_eps(0.0)
    kernel = kernel_vectors(base, grid, reference)
    if kernel.kernel_dim >= 2:
        raise KernelObstructionError(
            f"reference linearization has numerical kernel dimension "
            f"{kernel.kernel_dim}; the one-dimensional solve-and-project "
            "construction does not apply", kernel_dim=kernel.kernel_dim)
    disc = discretize(base, grid)
    delta_hat = 0.5 * inner(disc.weights, disc.D @ reference.profile,
                            kernel.psi_minus)
    if kernel.kernel_dim >= 1 and delta_hat <= 0.0:
        # the positivity hypothesis belongs to the translational-kernel
        # regime; a pinned reference (kernel_dim 0) pairs degenerately by
        # construction and the speed update handles that case separately
        raise KernelObstructionError(
            f"delta_hat = {delta_hat:.3e} is not positive; the adjoint kernel "
            "surrogate pairs degenerately with the profile derivative")
    # inverse of the smallest singular value off the kernel
    C0 = 1.0 / kernel.smallest_singular_values[min(kernel.kernel_dim, 1)]
    perturbation = coupling_operator(problem.pert_shifts, problem.pert_matrices,
                                     grid.n, problem.dimension, grid.h)
    return FixedPointContext(problem=problem, grid=grid,
                             phi0=reference.profile, c0=reference.c,
                             kernel=kernel, delta_hat=float(delta_hat),
                             C0_estimate=float(C0), disc=disc,
                             perturbation=perturbation)


def remainder_N(problem: WaveProblem, phi0: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """F(phi0 + psi) - F(phi0) - F'(phi0) psi, evaluated pointwise."""
    return problem.F(phi0 + psi) - problem.F(phi0) - problem.Fprime(phi0) * psi


def residual_R(ctx: FixedPointContext, c: float, psi: np.ndarray) -> np.ndarray:
    """(c0 - c)(phi0' + psi') + eps B(phi0 + psi) - N(phi0, psi)."""
    out = (ctx.c0 - c) * (ctx.disc.D @ (ctx.phi0 + psi))
    if ctx.eps != 0.0:
        out += ctx.eps * ctx.perturbation.apply(ctx.phi0 + psi)
    out -= remainder_N(ctx.problem, ctx.phi0, psi)
    return out


def speed_update(ctx: FixedPointContext, psi: np.ndarray) -> float:
    """Unique speed making R(c, psi) orthogonal to the adjoint surrogate."""
    w, D = ctx.disc.weights, ctx.disc.D
    pm = ctx.kernel.psi_minus
    deriv = D @ (ctx.phi0 + psi)
    den = inner(w, D @ ctx.phi0, pm) + inner(w, D @ psi, pm)
    Nval = remainder_N(ctx.problem, ctx.phi0, psi)
    num = -inner(w, Nval, pm)
    num_scale = math.sqrt(inner(w, Nval, Nval))
    if ctx.eps != 0.0:
        b0 = ctx.perturbation.apply(ctx.phi0)
        b1 = (ctx.perturbation.C @ psi.ravel()).reshape(psi.shape)
        num += ctx.eps * (inner(w, b0, pm) + inner(w, b1, pm))
        num_scale += abs(ctx.eps) * (math.sqrt(inner(w, b0, b0))
                                     + math.sqrt(inner(w, b1, b1)))
    den_scale = math.sqrt(inner(w, deriv, deriv))
    if abs(den) <= 1e-9 * den_scale:
        # Degenerate pairing: the adjoint surrogate is orthogonal to the
        # profile derivative, which happens when the reference wave is
        # pinned and its linearization invertible.  No speed choice can
        # move the residual along the surrogate, and none needs to: the
        # solvability condition is vacuous without a cokernel.  The speed
        # stays c0 and the orthogonality postcondition is not enforced.
        return float(ctx.c0)
    if den <= ctx.delta_hat:
        raise StepRejectedError(
            f"speed-update denominator {den:.3e} fell to the guard "
            f"delta_hat = {ctx.delta_hat:.3e}; shrink psi or eps")
    c = ctx.c0 + num / den
    R = residual_R(ctx, c, psi)
    Rnorm = math.sqrt(inner(w, R, R))
    if Rnorm > 0.0 and abs(inner(w, R, pm)) > _ORTHOGONALITY_TOL * Rnorm:
        raise StepRejectedError(
            "orthogonality postcondition failed: residual retains an adjoint "
            f"component {inner(w, R, pm):.3e} at norm {Rnorm:.3e}")
    return float(c)


def _bordered_solver(ctx: FixedPointContext):
    pp = ctx.kernel.psi_plus
    return spla.splu(ctx.disc.bordered(ctx.problem.Fprime(ctx.phi0), ctx.c0,
                                       pp, ctx.disc.weights[:, None] * pp))


def apply_T(ctx: FixedPointContext, psi: np.ndarray, c: float = None,
            solver=None) -> np.ndarray:
    """Solve-and-project map: bordered solve of L0 v = R(c(psi), psi) with
    <v, psi_plus> = 0 enforced through the border."""
    if c is None:
        c = speed_update(ctx, psi)
    if solver is None:
        solver = _bordered_solver(ctx)
    R = residual_R(ctx, c, psi)
    rhs = np.concatenate([R.ravel(), [0.0]])
    sol = solver.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise KernelObstructionError(
            "bordered reference solve returned non-finite values; the kernel "
            "surrogate no longer borders the linearization invertibly")
    return sol[:-1].reshape(ctx.phi0.shape)


def iterate(ctx: FixedPointContext, tol: float = 1e-10, max_iter: int = 200):
    """Picard iteration from psi = 0; returns the wave and the iteration state."""
    solver = _bordered_solver(ctx)
    psi = np.zeros_like(ctx.phi0)
    history = []
    c = ctx.c0
    prev_step = None
    lam_hat = 0.0
    bad_streak = 0
    max_psi = 0.0
    for _ in range(max_iter):
        c = speed_update(ctx, psi)
        psi_next = apply_T(ctx, psi, c=c, solver=solver)
        step = float(np.max(np.abs(psi_next - psi)))
        ratio = step / prev_step if (prev_step and prev_step > 0.0) else 0.0
        history.append((step, c, ratio))
        bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
        if bad_streak >= 3:
            raise ContractionFailureError(
                f"contraction ratio held at {ratio:.3f} >= 1 for 3 steps; "
                "the perturbation violates the contraction budget "
                "(quadratic-remainder constant must stay below 1/C0 = "
                f"{1.0 / ctx.C0_estimate:.3e})")
        psi = psi_next
        max_psi = max(max_psi, float(np.max(np.abs(psi))))
        prev_step = step
        if step <= tol:
            break
        # the closing step's ratio sits at the rounding floor: history only
        lam_hat = max(lam_hat, ratio)
    else:
        raise ContractionFailureError(
            f"no convergence within {max_iter} Picard iterations "
            f"(last step {prev_step:.3e})")

    c = speed_update(ctx, psi)
    profile = ctx.phi0 + psi
    res = assemble_residual(ctx.problem, ctx.grid, profile, c)
    solution = align_phase(ctx.problem, ctx.grid, profile, c, res, len(history))
    state = FixedPointState(psi=psi, c_current=c, history=tuple(history),
                            contraction_ratio=lam_hat, delta_hat=ctx.delta_hat,
                            C0_estimate=ctx.C0_estimate, max_psi_norm=max_psi)
    return solution, state
