"""Activity-dependent shifts in optimal CE length and the (width, rho0) fit.

The isometric force combines the length-dependent steady-state activity with
a force-length relation: F(gamma, ell) = F_max * q(gamma, ell/ell_opt) *
F_L(ell). Because the activity gains from longer CE lengths, the force
maximum shifts to longer lengths at submaximal stimulation; the shift is
measured against the model's own full-activation optimum. A log-space
Nelder-Mead fits the force-length width and the calcium scale rho0 to a set
of target shifts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ActsensError, MaxIterationsExceeded, NoInteriorMaximum
from .models import (
    ForceLengthRelation,
    HatzeParams,
    _force_length_relative,
    _hatze_q_of_gamma,
    force_length,
    hatze_q_of_gamma,
)

__all__ = [
    "ShiftTargets",
    "FitProblem",
    "FitResult",
    "TableCell",
    "NelderMeadResult",
    "isometric_force",
    "optimal_length_shift",
    "fit_error",
    "nelder_mead",
    "fit_shift_parameters",
    "run_table",
    "synthesize_targets",
    "load_shift_targets",
]

#: Calcium ceiling merging rho0 into rho_c (mol/l).
CALCIUM_CEILING = 1.37e-4
#: Preset stimulation levels of the shift experiment.
DEFAULT_LEVELS = (0.55, 0.28, 0.22, 0.17, 0.08)
#: Rat gastrocnemius optimal CE length (mm).
DEFAULT_ELL_OPT = 14.8
#: Common start value for the calcium scale (l/mol).
DEFAULT_RHO0_START = 6.0e4

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

#: Search for the force-maximizing length: span in units of ell_opt, coarse
#: grid points over it, and golden-section tolerance (mm). The fit's
#: predicted shifts and optimal_length_shift both use them.
SHIFT_SEARCH_SPAN = (0.5, 1.5)
SHIFT_SEARCH_COARSE = 201
SHIFT_SEARCH_XTOL_MM = 1e-4


@dataclass(frozen=True)
class ShiftTargets:
    """Target shifts of the optimal CE length per stimulation level (mm)."""

    levels: tuple[float, ...]
    shifts_mm: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if len(self.levels) != len(self.shifts_mm):
            raise ValueError("levels and shifts must have equal length")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("stimulation levels must be distinct")
        for gamma, shift in zip(self.levels, self.shifts_mm):
            _check_target(gamma, shift)


def _check_target(gamma: float, shift: float) -> None:
    """Reject a stimulation level outside (0, 1) or a non-finite shift."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"stimulation level {gamma:g} must lie in (0, 1)")
    if not math.isfinite(shift):
        raise ValueError(f"target shift {shift} must be finite")


def load_shift_targets(path) -> ShiftTargets:
    """Read a two-column CSV ``gamma,shift_mm`` (header row required).

    A malformed file raises ValueError naming the path and, for a bad row,
    its line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["gamma", "shift_mm"]:
            raise ValueError(
                f"{path}:1: expected header 'gamma,shift_mm', got {header}"
            )
        line_of: dict[float, int] = {}  # level -> the line that gave it
        shifts = []
        for row in reader:
            if not "".join(row).strip():
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected 'gamma,shift_mm', got {','.join(row)!r}")
            try:
                gamma, shift = float(row[0]), float(row[1])
                _check_target(gamma, shift)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if gamma in line_of:
                raise ValueError(
                    f"{where}: stimulation level {gamma:g} repeats line {line_of[gamma]}"
                )
            line_of[gamma] = reader.line_num
            shifts.append(shift)
    if not line_of:
        raise ValueError(f"{path}: no target rows after the header")
    return ShiftTargets(tuple(line_of), tuple(shifts), source=str(path))


@dataclass(frozen=True)
class FitProblem:
    """One fit configuration: force-length kind, fixed exponent, start values."""

    targets: ShiftTargets
    flr_kind: str = "bell"
    nu: float = 3.0
    width_start: float = 0.35
    rho0_start: float = DEFAULT_RHO0_START
    ell_opt: float = DEFAULT_ELL_OPT

    def __post_init__(self):
        if not self.width_start > 0.0:
            raise ValueError("width_start must be positive")
        if not self.rho0_start > 0.0:
            raise ValueError("rho0_start must be positive")

    def relation(self, width: float) -> ForceLengthRelation:
        return ForceLengthRelation(kind=self.flr_kind, width=width, ell_opt=self.ell_opt)

    def activation(self, rho0: float) -> HatzeParams:
        # q0 and ell_rho keep the HatzeParams defaults; q_init/sigma/m never
        # enter the static force model, so they are placeholders only
        return HatzeParams(sigma=1.0, nu=self.nu, rho_c=rho0 * CALCIUM_CEILING, q_init=0.5)


# ---------------------------------------------------------------------------
# isometric force and the optimal-length shift
# ---------------------------------------------------------------------------


def isometric_force(gamma, ell_ce, hatze_params: HatzeParams, flr: ForceLengthRelation):
    """Static force F_max * q(gamma, ell/ell_opt) * F_L(ell); ell_ce in mm."""
    ell_rel = np.asarray(ell_ce, dtype=float) / flr.ell_opt
    q = hatze_q_of_gamma(gamma, ell_rel, hatze_params)
    return flr.f_max * q * force_length(ell_ce, flr)


def _golden_max(fun, lo, hi, xtol: float):
    """Golden-section maximum refinement on unimodal brackets.

    ``lo`` and ``hi`` are scalars or arrays of independent brackets, and
    ``fun`` maps an array of probes (one per bracket) to their values. Each
    bracket keeps its own branch and stops once it is narrower than
    ``xtol``, so it takes the same path as it would on its own.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x1 = hi - GOLDEN_RATIO * (hi - lo)
    x2 = lo + GOLDEN_RATIO * (hi - lo)
    # bracket state, one row per quantity: lo, x1, x2, hi, f(x1), f(x2)
    state = np.array([lo, x1, x2, hi, fun(x1), fun(x2)])
    active = hi - lo > xtol
    while active.any():
        lo, x1, x2, hi, f1, f2 = state
        right = f1 < f2  # the maximum lies in [x1, hi]
        probe = np.where(right, x1 + GOLDEN_RATIO * (hi - x1), x2 - GOLDEN_RATIO * (x2 - lo))
        fp = fun(probe)
        moved = np.where(right, [x1, x2, probe, hi, f2, fp], [lo, probe, x1, x2, fp, f1])
        state = np.where(active, moved, state)
        active = state[3] - state[0] > xtol
    mid = 0.5 * (state[0] + state[3])
    return float(mid) if mid.ndim == 0 else mid


def _argmax_force(
    gammas, p: HatzeParams, flr: ForceLengthRelation,
    span: tuple[float, float], coarse: int, xtol_mm: float,
) -> np.ndarray:
    """Force-maximizing length (mm) for each stimulation level in ``gammas``.

    One coarse grid scan over all levels goes through the checked
    isometric_force, so a span outside (0, ell_rho) raises PoleViolation.
    The golden-section refinement of every level's bracket then probes only
    inside the scanned interval and uses the unchecked force.
    """
    gammas = np.asarray(gammas, dtype=float)
    ells = np.linspace(span[0] * flr.ell_opt, span[1] * flr.ell_opt, coarse)
    forces = isometric_force(gammas[:, None], ells, p, flr)
    k = np.argmax(forces, axis=1)
    boundary = (k == 0) | (k == coarse - 1)
    if np.any(boundary):
        raise NoInteriorMaximum(
            f"force maximum at the search boundary (gamma={gammas[boundary].tolist()}); "
            "widen the span"
        )

    def force(ell):  # isometric_force without its checks
        ell_rel = ell / flr.ell_opt
        return flr.f_max * _hatze_q_of_gamma(gammas, ell_rel, p) * _force_length_relative(ell_rel, flr)

    return _golden_max(force, ells[k - 1], ells[k + 1], xtol_mm)


def optimal_length_shift(
    gamma: float, hatze_params: HatzeParams, flr: ForceLengthRelation,
    span: tuple[float, float] = SHIFT_SEARCH_SPAN, coarse: int = SHIFT_SEARCH_COARSE,
    xtol_mm: float = SHIFT_SEARCH_XTOL_MM,
) -> float:
    """Shift (mm) of the submaximal force optimum against the full-activation one.

    The reference is argmax F(1, ell) rather than ell_opt itself: at full
    activation the activity still depends on length, so the two differ
    slightly.
    """
    here, ref = _argmax_force((gamma, 1.0), hatze_params, flr, span, coarse, xtol_mm)
    return float(here - ref)


def predicted_shifts(width: float, rho0: float, problem: FitProblem) -> np.ndarray:
    """Model shift at every target stimulation level for (width, rho0)."""
    peaks = _argmax_force((1.0, *problem.targets.levels), problem.activation(rho0),
                          problem.relation(width), SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE,
                          SHIFT_SEARCH_XTOL_MM)
    return peaks[1:] - peaks[0]


def fit_error(width: float, rho0: float, problem: FitProblem) -> float:
    """RMS-style objective sqrt(sum of squared shift residuals / 5), in mm.

    The divisor is the fixed five of the reference experiment's five
    stimulation levels, regardless of how many levels are supplied.
    """
    residuals = predicted_shifts(width, rho0, problem) - np.asarray(problem.targets.shifts_mm)
    return math.sqrt(float(np.sum(residuals**2)) / 5.0)


# ---------------------------------------------------------------------------
# Nelder-Mead simplex search
# ---------------------------------------------------------------------------


@dataclass
class NelderMeadResult:
    argmin: np.ndarray
    value: float
    iterations: int


def nelder_mead(
    objective, start, tol: float = 1e-8, max_iter: int = 2000,
    initial_step: float = 0.05,
) -> NelderMeadResult:
    """Minimize with the standard simplex moves (1, 2, 0.5, 0.5).

    Terminates when both the simplex diameter and the value spread drop
    below ``tol``; raises MaxIterationsExceeded past the iteration cap.
    """
    x0 = np.asarray(start, dtype=float)
    ndim = x0.size
    simplex = [x0.copy()]
    for i in range(ndim):
        x = x0.copy()
        x[i] += initial_step * abs(x[i]) if x[i] != 0.0 else initial_step
        simplex.append(x)
    values = [float(objective(x)) for x in simplex]
    if not math.isfinite(values[0]):
        raise ValueError("objective is not finite at the start point")

    for iteration in range(1, max_iter + 1):
        order = np.argsort(values)
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]

        diameter = max(np.max(np.abs(x - simplex[0])) for x in simplex[1:])
        spread = values[-1] - values[0]
        if diameter < tol and spread < tol:
            return NelderMeadResult(simplex[0].copy(), values[0], iteration)

        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = float(objective(xr))
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = float(objective(xe))
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[-1]:  # outside contraction
            xc = centroid + 0.5 * (xr - centroid)
            fc = float(objective(xc))
            if fc <= fr:
                simplex[-1], values[-1] = xc, fc
                continue
        else:  # inside contraction
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = float(objective(xc))
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
                continue
        # shrink toward the best vertex
        for k in range(1, len(simplex)):
            simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
            values[k] = float(objective(simplex[k]))

    raise MaxIterationsExceeded(f"no convergence within {max_iter} iterations")


# ---------------------------------------------------------------------------
# fitting and the result table
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    width: float
    rho0: float
    error_mm: float
    iterations: int
    objective_evals: int


def fit_shift_parameters(problem: FitProblem, tol: float = 1e-8,
                         max_iter: int = 2000) -> FitResult:
    """Fit (width, rho0) to the target shifts; log-space keeps both positive.

    Trial points whose force maximum escapes the search interval get an
    infinite objective, so the simplex retreats into the feasible region
    instead of aborting the fit.
    """
    evals = 0

    def objective(u):
        nonlocal evals
        evals += 1
        try:
            return fit_error(math.exp(u[0]), math.exp(u[1]), problem)
        except NoInteriorMaximum:
            return math.inf

    start = np.array([math.log(problem.width_start), math.log(problem.rho0_start)])
    res = nelder_mead(objective, start, tol=tol, max_iter=max_iter)
    if not math.isfinite(res.value):
        raise NoInteriorMaximum(
            "no feasible force maximum anywhere near the fitted parameters"
        )
    return FitResult(
        width=math.exp(res.argmin[0]), rho0=math.exp(res.argmin[1]),
        error_mm=res.value, iterations=res.iterations, objective_evals=evals,
    )


@dataclass
class TableCell:
    nu: float
    kind: str
    width_start: float
    width: float = math.nan
    rho0: float = math.nan
    error_mm: float = math.nan
    iterations: int = 0
    objective_evals: int = 0
    status: str = "ok"


DEFAULT_BELL_STARTS = (0.25, 0.35, 0.45)
DEFAULT_PARABOLA_STARTS = (0.46, 0.56, 0.66)


def run_table(
    targets: ShiftTargets,
    nus: tuple[float, ...] = (2.0, 3.0, 4.0),
    kinds: tuple[str, ...] = ("bell", "parabola"),
    bell_starts: tuple[float, ...] = DEFAULT_BELL_STARTS,
    parabola_starts: tuple[float, ...] = DEFAULT_PARABOLA_STARTS,
    rho0_start: float = DEFAULT_RHO0_START,
    ell_opt: float = DEFAULT_ELL_OPT,
    tol: float = 1e-8,
) -> list[TableCell]:
    """Fit every (nu, kind, width_start) cell; failures are reported per cell."""
    cells = []
    starts = {"bell": bell_starts, "parabola": parabola_starts}
    for si, _ in enumerate(zip(bell_starts, parabola_starts)):
        for nu in nus:
            for kind in kinds:
                w0 = starts[kind][si]
                cell = TableCell(nu=nu, kind=kind, width_start=w0)
                try:
                    fit = fit_shift_parameters(
                        FitProblem(targets=targets, flr_kind=kind, nu=nu,
                                   width_start=w0, rho0_start=rho0_start,
                                   ell_opt=ell_opt),
                        tol=tol,
                    )
                    cell.width, cell.rho0 = fit.width, fit.rho0
                    cell.error_mm, cell.iterations = fit.error_mm, fit.iterations
                    cell.objective_evals = fit.objective_evals
                except (ActsensError, ValueError) as exc:  # a failed cell keeps the table
                    cell.status = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
    return cells


def synthesize_targets(
    width: float, rho0: float, nu: float = 3.0, kind: str = "bell",
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    ell_opt: float = DEFAULT_ELL_OPT,
) -> ShiftTargets:
    """Generate self-consistent targets from known parameters (for testing)."""
    probe = FitProblem(
        targets=ShiftTargets(levels, tuple(0.0 for _ in levels), source="probe"),
        flr_kind=kind, nu=nu, width_start=width, rho0_start=rho0, ell_opt=ell_opt,
    )
    shifts = predicted_shifts(width, rho0, probe)
    return ShiftTargets(levels, tuple(float(s) for s in shifts),
                        source=f"synthetic(width={width}, rho0={rho0}, nu={nu}, {kind})")
