"""Built-in experiment presets: scenario grids, parameter bounds, evaluators.

The scenario grid spans four (initial activity, stimulation) rows at two
model variants each: the linear model at two deactivation boosts, the
nonlinear model at the two published (nu, rho_c) pairings. The bounds
tables drive the global analysis; both are exposed through the CLI.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError
from .globalsens import ParameterCuboid, Validity
from .models import (
    HATZE_PARAM_NAMES,
    HatzeParams,
    ParameterSet,
    ZAJAC_PARAM_NAMES,
    ZajacParams,
    hatze_rhs,
    zajac_rhs,
)
from .odecore import OdeProblem, Tolerances, integrate

__all__ = [
    "ZAJAC_CANONICAL",
    "HATZE_CANONICAL",
    "SCENARIO_ROWS",
    "NU_RHO_C_PAIRING",
    "FIG1_PARAMS",
    "zajac_scenario",
    "hatze_scenario",
    "all_zajac_scenarios",
    "all_hatze_scenarios",
    "builtin_cuboid",
    "row_validity",
    "family_evaluator",
    "GLOBAL_TOLERANCES",
]

#: Canonical parameter orders (initial condition first).
ZAJAC_CANONICAL = ("q_Z0",) + ZAJAC_PARAM_NAMES
HATZE_CANONICAL = ("q_H0",) + HATZE_PARAM_NAMES

#: Scenario rows (i)-(iv): increasing initial activity and stimulation.
SCENARIO_ROWS = {
    "i": (0.005, 0.01),
    "ii": (0.05, 0.1),
    "iii": (0.2, 0.4),
    "iv": (0.5, 1.0),
}

#: Published pairing of the saturation exponent with the calcium scale.
NU_RHO_C_PAIRING = {2.0: 9.10, 3.0: 7.24}

#: Closed-form oracle configuration (simplified linear model).
FIG1_PARAMS = {"sigma": 1.0, "tau": 0.025, "q_Z0": 0.05}
FIG1_T_END = 0.2

#: Strictly-interior start offset used where a scenario row pins the initial
#: activity to the basic activity; keeps the nonlinear model inside its
#: open domain while staying far below curve resolution.
HATZE_START_OFFSET = 1e-5

#: Integration tolerances for ensemble evaluation; Monte-Carlo noise
#: dominates well before this level.
GLOBAL_TOLERANCES = Tolerances(rel_tol=1e-6, abs_tol=1e-9)

_ZAJAC_BOUNDS = {
    "q_Z0": (0.01, 1.0),
    "sigma": (0.0, 1.0),
    "q0": (0.001, 0.05),
    "tau": (0.01, 0.05),
    "beta": (0.1, 1.0),
}
_HATZE_BOUNDS = {
    "q_H0": (0.01, 1.0),
    "sigma": (0.0, 1.0),
    "q0": (0.001, 0.05),
    "m": (3.0, 11.0),
    "rho_c": (4.0, 11.0),
    "nu": (1.5, 4.0),
    "ell_rho": (2.2, 3.6),
    "ell_CErel": (0.4, 1.6),
}


def zajac_scenario(row: str, beta: float = 1.0) -> ParameterSet:
    """One linear-model scenario panel: row (i)-(iv) at the given boost."""
    q_init, sigma = SCENARIO_ROWS[row]
    return ParameterSet.from_dict(
        {"q_Z0": q_init, "sigma": sigma, "q0": 0.005, "tau": 0.025, "beta": beta},
        order=ZAJAC_CANONICAL,
    )


def hatze_scenario(row: str, nu: float = 3.0, rho_c: float | None = None) -> ParameterSet:
    """One nonlinear-model scenario panel: row (i)-(iv) at the given exponent.

    rho_c defaults to the published pairing for the chosen nu. Row (i) pins
    the initial activity to the basic activity; it is nudged just inside the
    open domain (see HATZE_START_OFFSET).
    """
    q_init, sigma = SCENARIO_ROWS[row]
    if rho_c is None:
        try:
            rho_c = NU_RHO_C_PAIRING[float(nu)]
        except KeyError:
            raise ValueError(
                f"no published rho_c pairing for nu={nu}; pass rho_c explicitly"
            ) from None
    q0 = 0.005
    if q_init <= q0:
        q_init = q0 + HATZE_START_OFFSET
    return ParameterSet.from_dict(
        {"q_H0": q_init, "sigma": sigma, "q0": q0, "m": 10.0, "rho_c": rho_c,
         "nu": float(nu), "ell_rho": 2.9, "ell_CErel": 1.0},
        order=HATZE_CANONICAL,
    )


def all_zajac_scenarios() -> list[tuple[str, ParameterSet]]:
    """The eight linear-model panels: rows (i)-(iv) x beta in {1, 1/3}."""
    out = []
    for beta, tag in ((1.0, "b1"), (1.0 / 3.0, "b13")):
        for row in SCENARIO_ROWS:
            out.append((f"{row}-{tag}", zajac_scenario(row, beta)))
    return out


def all_hatze_scenarios() -> list[tuple[str, ParameterSet]]:
    """The eight nonlinear-model panels: rows (i)-(iv) x nu in {2, 3}."""
    out = []
    for nu in (2.0, 3.0):
        for row in SCENARIO_ROWS:
            out.append((f"{row}-nu{int(nu)}", hatze_scenario(row, nu)))
    return out


def builtin_cuboid(model: str) -> ParameterCuboid:
    """The built-in parameter bounds for 'zajac' or 'hatze'."""
    if model == "zajac":
        return ParameterCuboid.from_dict(_ZAJAC_BOUNDS)
    if model == "hatze":
        return ParameterCuboid.from_dict(_HATZE_BOUNDS)
    raise ValueError(f"no bounds preset for model {model!r}")


def row_validity(model: str) -> Validity:
    """Joint constraint between sampled initial and basic activity.

    The predicate takes a dict of parameter columns (one array per name) and
    returns a boolean array, one entry per row.
    """
    if model == "zajac":
        return lambda row: row["q_Z0"] >= row["q0"]
    if model == "hatze":
        return lambda row: row["q_H0"] > row["q0"]
    raise ValueError(f"no validity predicate for model {model!r}")


# ---------------------------------------------------------------------------
# batched ensemble evaluators
# ---------------------------------------------------------------------------


def _batch_integrate(rhs, y0, grid, tol) -> np.ndarray:
    traj = integrate(
        OdeProblem(rhs=rhs, y0=y0, t_span=(0.0, float(grid[-1])), output_grid=grid),
        tol,
    )
    return traj.values.T  # (rows, T)


def family_evaluator(model: str, tol: Tolerances | None = None):
    """Vectorized map from cuboid-order parameter rows to activity trajectories.

    All rows are integrated as one diagonal system sharing the adaptive step
    sequence; if that fails, rows are integrated one by one and the bad rows
    come back as NaN for the caller's resampling pass. Each parameter field
    is a contiguous column, and its rate factors are computed once per
    solve (see ``rate_factors`` in :mod:`actsens.models`).
    """
    tol = tol or GLOBAL_TOLERANCES

    if model == "zajac":
        from_canonical, rhs_fn = ZajacParams.from_canonical, zajac_rhs
    elif model == "hatze":
        from_canonical, rhs_fn = HatzeParams.from_canonical, hatze_rhs
    else:
        raise ValueError(f"no family evaluator for model {model!r}")

    def params_of(rows):
        return from_canonical(*rows.T.copy())  # one contiguous column per field

    def evaluate(rows: np.ndarray, grid: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        p = params_of(rows)
        try:
            return _batch_integrate(lambda t, y: rhs_fn(y, p), rows[:, 0], grid, tol)
        except IntegrationError:
            out = np.full((rows.shape[0], len(grid)), np.nan)
            for j in range(rows.shape[0]):
                pj = params_of(rows[j:j + 1])
                try:
                    out[j] = _batch_integrate(
                        lambda t, y: rhs_fn(y, pj), rows[j:j + 1, 0], grid, tol
                    )[0]
                except IntegrationError:
                    pass  # row stays NaN; caller resamples it
            return out

    return evaluate
