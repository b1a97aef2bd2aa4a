"""Natural-parameter homotopy of traveling waves.

Traces (value, c, profile) from a converged reference toward a target
value of the homotopy variable (the perturbation weight eps, or a model
parameter), re-validating asymptotic hyperbolicity and the kernel
dimension at every accepted step.  Stops honestly with a machine-readable
reason instead of pushing past an obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import (DomainTooSmallError, Grid, NewtonDivergenceError,
                  SingularSystemError, WaveProblem, WaveSolution,
                  kernel_vectors, newton_solve)
from .mfde import HyperbolicityReport, asymptotic_hyperbolicity

__all__ = [
    "ContinuationOptions",
    "BranchStep",
    "ContinuationBranch",
    "continue_in_epsilon",
    "continue_in_parameter",
]

STOP_REASONS = ("reached_target", "hyperbolicity_lost", "step_underflow",
                "kernel_dimension_change", "pinning_suspected")


@dataclass(frozen=True)
class ContinuationOptions:
    step0: float = 0.05
    step_min: float = 1e-5
    grow: float = 1.5
    tol: float = 1e-10
    max_iter: int = 50
    hyper_tol: float = 1e-8
    stop_on_pinning: bool = False


@dataclass(frozen=True)
class BranchStep:
    value: float
    solution: WaveSolution
    hyperbolicity: HyperbolicityReport
    kernel_dim: int

    @property
    def min_char_modulus(self) -> float:
        return self.hyperbolicity.min_modulus

    def csv_row(self) -> str:
        return (f"{self.value:.17g},{self.solution.c:.17g},"
                f"{self.solution.newton_iters},{self.min_char_modulus:.17g},"
                f"{self.kernel_dim}")


@dataclass(frozen=True)
class ContinuationBranch:
    parameter: str                 # name of the continued value
    steps: tuple[BranchStep, ...]
    stop_reason: str

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.steps])

    @property
    def speeds(self) -> np.ndarray:
        return np.array([s.solution.c for s in self.steps])

    @property
    def final(self) -> BranchStep:
        return self.steps[-1]

    def csv_lines(self) -> list[str]:
        header = f"{self.parameter},c,newton_iters,min_char_modulus,kernel_dim"
        return [header] + [s.csv_row() for s in self.steps]

    def to_json(self) -> dict:
        return {
            "stop_reason": self.stop_reason,
            "steps": [{self.parameter: s.value, "c": s.solution.c,
                       "newton_iters": s.solution.newton_iters,
                       "min_char_modulus": s.min_char_modulus,
                       "kernel_dim": s.kernel_dim,
                       "hyperbolic": s.hyperbolicity.verdict}
                      for s in self.steps],
        }


def _audit(problem: WaveProblem, grid: Grid, solution: WaveSolution,
           value: float, opts: ContinuationOptions) -> BranchStep:
    report = asymptotic_hyperbolicity(problem.operator(solution.c),
                                      tol=opts.hyper_tol)
    kd = kernel_vectors(problem, grid, solution).kernel_dim
    return BranchStep(value=value, solution=solution, hyperbolicity=report,
                      kernel_dim=kd)


def continue_in_parameter(name: str, problem_of, v0: float, v1: float,
                          grid: Grid, reference: WaveSolution,
                          opts: ContinuationOptions = ContinuationOptions()
                          ) -> ContinuationBranch:
    """Homotopy from v0 to v1 with the problem rebuilt per step by
    problem_of(value); `name` labels the values in the branch's CSV and JSON."""
    steps: list[BranchStep] = []

    def stop(reason: str) -> ContinuationBranch:
        return ContinuationBranch(name, tuple(steps), reason)

    first = _audit(problem_of(v0), grid, reference, v0, opts)
    steps.append(first)
    if first.kernel_dim >= 2:
        return stop("kernel_dimension_change")
    if not first.hyperbolicity.verdict:
        return stop("hyperbolicity_lost")
    if v1 == v0:
        return stop("reached_target")
    ref_kernel_dim = first.kernel_dim

    direction = 1.0 if v1 > v0 else -1.0
    step = opts.step0
    v = v0
    prev: BranchStep | None = None
    while direction * (v1 - v) > 0.0:
        v_next = v + direction * step
        if direction * (v_next - v1) > 0.0:
            v_next = v1
        last = steps[-1]
        guess_p = last.solution.profile
        guess_c = last.solution.c
        if prev is not None and prev.value != last.value:
            ratio = (v_next - last.value) / (last.value - prev.value)
            guess_p = last.solution.profile + ratio * (last.solution.profile
                                                       - prev.solution.profile)
            guess_c = last.solution.c + ratio * (last.solution.c - prev.solution.c)
        try:
            sol = newton_solve(problem_of(v_next), grid, guess_p, guess_c,
                               tol=opts.tol, max_iter=opts.max_iter)
        except (NewtonDivergenceError, SingularSystemError, DomainTooSmallError):
            step *= 0.5
            if step < opts.step_min:
                return stop("step_underflow")
            continue
        rec = _audit(problem_of(v_next), grid, sol, v_next, opts)
        steps.append(rec)
        prev, v = last, v_next
        if not rec.hyperbolicity.verdict:
            return stop("hyperbolicity_lost")
        if rec.kernel_dim >= 2 or rec.kernel_dim != ref_kernel_dim:
            return stop("kernel_dimension_change")
        if opts.stop_on_pinning and sol.pinning_suspected:
            return stop("pinning_suspected")
        step *= opts.grow
    return stop("reached_target")


def continue_in_epsilon(problem: WaveProblem, grid: Grid,
                        reference: WaveSolution, eps_target: float,
                        opts: ContinuationOptions = ContinuationOptions()
                        ) -> ContinuationBranch:
    """Homotopy in the perturbation weight from the problem's current eps."""
    return continue_in_parameter("eps", problem.with_eps, problem.eps, eps_target,
                                 grid, reference, opts)
