"""Built-in experiment presets: scenario grids, parameter bounds, evaluators.

The scenario grid spans four (initial activity, stimulation) rows at two
model variants each: the linear model at two deactivation boosts, the
nonlinear model at the two published (nu, rho_c) pairings; the simplified
linear model takes each row's linear panel. Scenarios are read by name, and
each panel is its model's parameter object (``ZajacParams``,
``HatzeParams``): what a panel does not set comes from the class defaults.
``BUILTIN_MODELS`` declares each model of the global analysis once: its
ModelSpec factory (canonical order, parameter map, and through that its
parameter class), its bounds keyed by canonical name in canonical order, and
its batched rhs; its cuboid's validity is the domain its parameter class
declares. The CLI offers its keys to ``global-sens``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import IntegrationError
from .globalsens import ParameterCuboid
from .models import (
    HatzeParams,
    ModelSpec,
    ZajacParams,
    hatze_model,
    hatze_rhs,  # looked up by name, see _Builtin.rhs
    in_domain,
    simplified_zajac_model,
    zajac_model,
    zajac_rhs,  # looked up by name, see _Builtin.rhs
)
from .odecore import OdeProblem, Tolerances, integrate

__all__ = [
    "SCENARIO_ROWS",
    "NU_RHO_C_PAIRING",
    "FIG1_PARAMS",
    "BUILTIN_MODELS",
    "zajac_scenario",
    "hatze_scenario",
    "simplified_zajac_scenario",
    "builtin_cuboid",
    "family_evaluator",
    "GLOBAL_TOLERANCES",
]

#: Basic activity q0 of every scenario panel.
BASIC_ACTIVITY = 0.005

#: Scenario rows (i)-(iv): increasing initial activity and stimulation. Row
#: (i) starts at the basic activity, whatever q0 a panel is given.
SCENARIO_ROWS = {
    "i": (BASIC_ACTIVITY, 0.01),
    "ii": (0.05, 0.1),
    "iii": (0.2, 0.4),
    "iv": (0.5, 1.0),
}

#: Published pairing of the saturation exponent with the calcium scale.
NU_RHO_C_PAIRING = {2.0: 9.10, 3.0: 7.24}

#: Closed-form oracle configuration: a simplified linear-model point (q_Z0, sigma, tau).
FIG1_PARAMS = simplified_zajac_model().params_of(0.05, 1.0, 0.025)
FIG1_T_END = 0.2

#: Strictly-interior start offset used where a scenario row pins the initial
#: activity to the basic activity; keeps the nonlinear model inside its
#: open domain while staying far below curve resolution.
HATZE_START_OFFSET = 1e-5

#: Integration tolerances for ensemble evaluation; Monte-Carlo noise
#: dominates well before this level.
GLOBAL_TOLERANCES = Tolerances(rel_tol=1e-6, abs_tol=1e-9)


def zajac_scenario(row: str, beta: float = 1.0, q0: float = BASIC_ACTIVITY) -> ZajacParams:
    """One linear-model scenario panel: row (i)-(iv) at the given boost; row (i) starts at q0."""
    q_init, sigma = SCENARIO_ROWS[row]
    if row == "i":
        q_init = q0
    return ZajacParams(sigma=sigma, q0=q0, beta=beta, q_init=q_init)


def hatze_scenario(row: str, nu: float = 3.0, rho_c: float | None = None,
                   q0: float = BASIC_ACTIVITY) -> HatzeParams:
    """One nonlinear-model scenario panel: row (i)-(iv) at the given exponent.

    rho_c defaults to the published pairing for the chosen nu. Row (i) starts
    at the basic activity q0, nudged just inside the open domain (see
    HATZE_START_OFFSET).
    """
    q_init, sigma = SCENARIO_ROWS[row]
    if rho_c is None:
        try:
            rho_c = NU_RHO_C_PAIRING[float(nu)]
        except KeyError:
            raise ValueError(
                f"no published rho_c pairing for nu={nu}; pass rho_c explicitly"
            ) from None
    if row == "i":
        q_init = q0 + HATZE_START_OFFSET
    return HatzeParams(sigma=sigma, q0=q0, rho_c=rho_c, nu=float(nu), q_init=q_init)


def simplified_zajac_scenario(row: str) -> ZajacParams:
    """One simplified linear-model panel: the row's linear panel at q0 = 0, beta = 1."""
    panel = zajac_scenario(row)
    return simplified_zajac_model().params_of(panel.q_init, panel.sigma, panel.tau)


@dataclass(frozen=True)
class _Builtin:
    model: Callable[[], ModelSpec]
    bounds: dict[str, tuple[float, float]]  # by canonical name, in canonical order
    # name of the batched rhs in this module; family_evaluator looks it up at
    # each call, so a wrapper installed on that global sees every evaluation
    rhs: str


BUILTIN_MODELS = {
    "zajac": _Builtin(
        zajac_model,
        bounds={"q_Z0": (0.01, 1.0), "sigma": (0.0, 1.0), "q0": (0.001, 0.05),
                "tau": (0.01, 0.05), "beta": (0.1, 1.0)},
        rhs="zajac_rhs",
    ),
    "hatze": _Builtin(
        hatze_model,
        bounds={"q_H0": (0.01, 1.0), "sigma": (0.0, 1.0), "q0": (0.001, 0.05),
                "m": (3.0, 11.0), "rho_c": (4.0, 11.0), "nu": (1.5, 4.0),
                "ell_rho": (2.2, 3.6), "ell_CErel": (0.4, 1.6)},
        rhs="hatze_rhs",
    ),
}


def _builtin(model: str) -> _Builtin:
    try:
        return BUILTIN_MODELS[model]
    except KeyError:
        raise ValueError(f"no built-in preset for model {model!r}; "
                         f"choose from {list(BUILTIN_MODELS)}") from None


def builtin_cuboid(model: str) -> ParameterCuboid:
    """A model's built-in bounds, in its canonical order, and its domain: the cuboid's
    ``validity`` passes a row exactly where ``params_of(*row).validate()`` does (see
    :func:`~actsens.models.in_domain`)."""
    b = _builtin(model)
    spec = b.model()
    return replace(ParameterCuboid.from_dict(b.bounds), validity=lambda cols: in_domain(
        spec.params_of(*(cols[n] for n in spec.canonical_order))))


# ---------------------------------------------------------------------------
# batched ensemble evaluators
# ---------------------------------------------------------------------------


def _batch_integrate(rhs, y0, grid) -> np.ndarray:
    return integrate(OdeProblem(rhs=rhs, y0=y0, output_grid=grid), GLOBAL_TOLERANCES).values


def family_evaluator(model: str):
    """Vectorized map from (R, N) canonical-order parameter rows to (T, R) activity trajectories.

    All rows are integrated, at GLOBAL_TOLERANCES, as one diagonal system
    sharing the adaptive step sequence; if that fails, rows are integrated
    one by one and the bad rows come back as NaN for the caller's
    resampling pass. Either way the result is one C-contiguous, time-major
    (T, R) array, the integrator's own layout, which
    :func:`~actsens.globalsens.evaluate_family` keeps without a copy. Each
    parameter field is a contiguous column, and its rate factors are
    computed once per solve (see ``rate_factors`` in :mod:`actsens.models`).
    """
    b = _builtin(model)
    from_canonical, rhs_fn = b.model().params_of, globals()[b.rhs]

    def solve(rows, grid):
        p = from_canonical(*rows.T.copy())  # one contiguous column per field
        return _batch_integrate(lambda t, y, dy: rhs_fn(y, p, out=dy), rows[:, 0], grid)

    def evaluate(rows: np.ndarray, grid: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        try:
            return solve(rows, grid)
        except IntegrationError:
            out = np.full((len(grid), rows.shape[0]), np.nan)
            for j in range(rows.shape[0]):
                try:
                    out[:, j:j + 1] = solve(rows[j:j + 1], grid)
                except IntegrationError:
                    pass  # row stays NaN; caller resamples it
            return out

    return evaluate
