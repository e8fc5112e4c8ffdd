"""Sensitivity analysis toolkit for muscle activation dynamics ODEs.

Forward local first- and second-order sensitivities (the initial conditions
count as parameters), variance-based global sensitivity indices, and an
optimal-CE-length shift fitting pipeline, with the two classic activation
models built in.
"""

from .errors import (
    ActsensError,
    ConfigError,
    DomainViolation,
    IntegrationError,
    InvalidBounds,
    MaxIterationsExceeded,
    MissingDerivative,
    NoInteriorMaximum,
    NonFiniteState,
    ParameterOutOfRange,
    PoleViolation,
    SamplingError,
    StepBudgetExceeded,
    StepSizeUnderflow,
)
from .globalsens import (
    FamilyEvaluation,
    GlobalResult,
    ParameterCuboid,
    SampleMatrices,
    analyze_global,
    build_sample_matrices,
    evaluate_family,
    vbs_tsi,
)
from .localsens import (
    SensitivityResult,
    analyze,
    fd_first_order,
    fd_initial_condition,
    normalize,
    second_order_fd,
)
from .models import (
    ForceLengthRelation,
    HatzeParams,
    ModelSpec,
    ZajacParams,
    force_length,
    force_length_relative,
    hatze_gamma_of_q,
    hatze_model,
    hatze_partials,
    hatze_q_of_gamma,
    hatze_rho,
    hatze_rhs,
    hatze_steady_state,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    simplified_zajac_solution,
    zajac_model,
    zajac_partials,
    zajac_rhs,
    zajac_steady_state,
)
from . import presets
from .odecore import OdeProblem, Tolerances, Trajectory, integrate, make_grid
from .optimize import (
    FitProblem,
    FitResult,
    ShiftTargets,
    TableCell,
    fit_error,
    fit_shift_parameters,
    isometric_force,
    load_shift_targets,
    optimal_length_shift,
    run_table,
    synthesize_targets,
)

__version__ = "0.1.0"
