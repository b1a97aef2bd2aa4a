"""Traveling fronts of bistable lattice differential equations.

Numerical workbench for waveforms and wavespeeds of lattice systems with
competing first/second-neighbor couplings, periodic media, and
infinite-range kernels, with spectral hyperbolicity checks and a
constructive perturbation scheme validating the continuation structure.
"""

__version__ = "0.1.0"

from .model import (CubicNonlinearity, LatticeModel, PeriodicState,
                    PeriodicSystem, InfiniteRangeModel, SPLIT_BONDS,
                    build_nagumo, find_two_periodic_equilibria,
                    find_four_periodic_equilibria, periodic_transform,
                    build_infinite_range)
from .mfde import (MFDEOperator, HyperbolicityReport, characteristic_matrix,
                   characteristic_matrices, is_hyperbolic,
                   asymptotic_hyperbolicity, adjoint, upsilon_two_site,
                   two_site_operator)
from .bvp import (Grid, WaveProblem, WaveSolution, make_grid, initial_guess,
                  assemble_residual, assemble_jacobian, newton_solve,
                  kernel_vectors, nagumo_problem, epsilon_scaled_problem,
                  periodic_problem, infinite_range_problem)
from .fixedpoint import (FixedPointContext, FixedPointState, make_context,
                         remainder_N, residual_R, speed_update, apply_T,
                         iterate)
from .continuation import (ContinuationOptions, ContinuationBranch,
                           continue_in_epsilon, continue_in_parameter)
from .sim import (SimState, Trajectory, integrate, measure_speed,
                  extract_profile, check_monotonicity, front_state)
from .tails import (TailReport, decay_rates_constant, principal_eigenpair,
                    periodic_decay_rate, fit_tail, tail_report_constant)
