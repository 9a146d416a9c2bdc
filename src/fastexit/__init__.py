"""fastexit: a numerical laboratory for fast-transport stochastic
reaction-diffusion dynamics with interior and boundary noise.

The package simulates the full multiscale system, computes its averaged and
deterministic limits, evaluates and minimizes the path-space action
functional, computes quasi-potentials, and verifies the exponential
exit-time law by Monte Carlo.
"""

import os

# Ensembles parallelise over shares of paths; a second BLAS thread on their small
# products only spins.  Set before numpy loads OpenBLAS; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .coefficients import (
    AveragedModel,
    CoefficientSet,
    check_nondegeneracy,
    make_coefficient,
    make_coefficient_set,
)
from .errors import (
    ConfigError,
    DivergenceError,
    FastexitError,
    NondegeneracyError,
    NotApplicableError,
    OptimizationError,
)
from .exit_times import (
    DomainSpec,
    ExitStats,
    build_domain,
    check_exit_hypotheses,
    exit_time_mc,
    membership_values,
)
from .ldp import (
    ControlPath,
    action_I,
    control_cost,
    minimize_path_action,
    minimizing_control,
    quasi_potential_explicit,
    quasi_potential_variational,
    v_bar,
)
from .noise import (
    RngStream,
    make_b_spectrum,
    make_q_spectrum,
)
from .operator import (
    SpectralOperator,
    build_neumann_laplacian_1d,
    invariant_average,
)
from .solver import (
    FieldTrajectory,
    MultiscaleParams,
    ScalarPath,
    averaging_error_ensemble,
    solve_limit_ode,
    solve_spde,
)

__version__ = "0.1.0"
