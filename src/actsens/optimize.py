"""Activity-dependent shifts in optimal CE length and the (width, rho0) fit.

The isometric force combines the length-dependent steady-state activity with
a force-length relation: F(gamma, ell) = F_max * q(gamma, ell/ell_opt) *
F_L(ell). Because the activity gains from longer CE lengths, the force
maximum shifts to longer lengths at submaximal stimulation; the shift is
measured against the model's own full-activation optimum. Each maximum
comes from a coarse grid scan and a two-level grid zoom around its best
point, whose result is within half the zoom's tolerance. A log-space
Nelder-Mead fits the force-length width and the calcium scale rho0 to a set
of target shifts.

The width starts of one (nu, kind) cell are fitted in lockstep: each round,
the pending trial point of every live fit goes through one batched
:func:`fit_error` call, whose rows are independent. So every fit takes the
path, and gets the result, it would get on its own.
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
    "nelder_mead_steps",
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

#: Search for the force-maximizing length: span in units of ell_opt, coarse
#: grid points over it, and the width (mm) the grid zoom refines each coarse
#: bracket to. The fit's predicted shifts and optimal_length_shift both use
#: them.
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


def _zoom_max(fun, lo, width: float, xtol: float):
    """Grid-zoom maximum refinement on unimodal brackets [lo, lo + width].

    ``lo`` is a scalar or an array of independent brackets of one common
    ``width``, and ``fun`` maps probes with one more trailing axis (K per
    bracket) to their values. Each level keeps the two grid intervals around
    the best probe, so the width shrinks by 2/(K+1) until it is at most
    ``xtol``. K = ceil(2 sqrt(width/xtol)) - 1 makes two levels enough, and
    since neither depends on ``fun``, every bracket takes the same path
    batched or alone. Returns the best probe of the last level.
    """
    k = max(math.ceil(2.0 * math.sqrt(width / xtol)) - 1, 2)
    lo, grid = np.asarray(lo, dtype=float), np.arange(1, k + 1) / (k + 1)
    while width > xtol:
        best = np.argmax(fun(lo[..., None] + width * grid), axis=-1)
        lo, width = lo + width * best / (k + 1), width * 2.0 / (k + 1)
    mid = lo + 0.5 * width
    return float(mid) if mid.ndim == 0 else mid


def _argmax_force(
    gammas, p: HatzeParams, flr: ForceLengthRelation,
    span: tuple[float, float], coarse: int, xtol_mm: float,
) -> np.ndarray:
    """Force-maximizing length (mm) for each stimulation level in ``gammas``.

    ``gammas`` holds L levels. Fields of ``p`` and ``flr`` such as rho_c and
    width may be (F, 1, 1) arrays of F parameter sets, since the last two
    axes of the scan run over levels and lengths; the result then has shape
    (F, L), one row per set, instead of (L,).

    One coarse grid scan over all levels goes through the checked
    isometric_force, so a span outside (0, ell_rho) raises PoleViolation.
    A grid zoom (:func:`_zoom_max`) then refines every level's bracket of
    two coarse steps to ``xtol_mm`` in at most two unchecked force calls over
    (F, L, K) probes inside the scanned interval. A level whose scan
    maximum sits at an end of the span has no interior maximum: for one
    set that raises NoInteriorMaximum, and for F sets it makes that set's
    whole row NaN while the other rows are refined as usual.
    """
    gammas = np.asarray(gammas, dtype=float)[:, None]  # one row per level
    ells = np.linspace(span[0] * flr.ell_opt, span[1] * flr.ell_opt, coarse)
    forces = isometric_force(gammas, ells, p, flr)
    k = np.argmax(forces, axis=-1)
    boundary = (k == 0) | (k == coarse - 1)
    if k.ndim == 1 and np.any(boundary):
        raise NoInteriorMaximum(
            f"force maximum at the search boundary (gamma={gammas[boundary, 0].tolist()}); "
            "widen the span"
        )
    k = np.clip(k, 1, coarse - 2)  # a bracket for every row; boundary sets get NaN

    def force(ell):  # isometric_force without its checks
        ell_rel = ell / flr.ell_opt
        return flr.f_max * _hatze_q_of_gamma(gammas, ell_rel, p) * _force_length_relative(ell_rel, flr)

    peaks = _zoom_max(force, ells[k - 1], 2.0 * (ells[1] - ells[0]), xtol_mm)
    return np.where(boundary.any(axis=-1, keepdims=True), np.nan, peaks)


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


def predicted_shifts(width, rho0, problem: FitProblem) -> np.ndarray:
    """Model shift at every target stimulation level for (width, rho0).

    Scalars give one point's shifts, shape (L,). Arrays of F points give
    shape (F, L), with a NaN row for a point without an interior force
    maximum (see :func:`_argmax_force`).
    """
    if np.ndim(width):  # F points: (F, 1, 1) fields, see _argmax_force
        width, rho0 = np.reshape(width, (-1, 1, 1)), np.reshape(rho0, (-1, 1, 1))
    peaks = _argmax_force((1.0, *problem.targets.levels), problem.activation(rho0),
                          problem.relation(width), SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE,
                          SHIFT_SEARCH_XTOL_MM)
    return peaks[..., 1:] - peaks[..., :1]


def fit_error(width, rho0, problem: FitProblem):
    """RMS-style objective sqrt(sum of squared shift residuals / 5), in mm.

    The divisor is the fixed five of the reference experiment's five
    stimulation levels, regardless of how many levels are supplied.

    ``width`` and ``rho0`` are one trial point's scalars or equal-length
    arrays of F points; each point's error is the one it gets alone. A
    scalar point without an interior force maximum raises NoInteriorMaximum;
    in arrays such a point's error is +inf and the others are unaffected.
    """
    residuals = predicted_shifts(width, rho0, problem) - np.asarray(problem.targets.shifts_mm)
    error = np.sqrt(np.sum(residuals**2, axis=-1) / 5.0)
    return float(error) if error.ndim == 0 else np.where(np.isnan(error), math.inf, error)


# ---------------------------------------------------------------------------
# Nelder-Mead simplex search
# ---------------------------------------------------------------------------


@dataclass
class NelderMeadResult:
    argmin: np.ndarray
    value: float
    iterations: int


def nelder_mead_steps(start, tol: float = 1e-8, max_iter: int = 2000,
                      initial_step: float = 0.05):
    """The simplex search of :func:`nelder_mead` as a generator.

    It yields each trial point and must be sent that point's objective
    value; it returns the NelderMeadResult (as StopIteration's value) or
    raises as nelder_mead does. A driver can so advance many searches
    side by side and evaluate their pending points together.
    """
    x0 = np.asarray(start, dtype=float)
    ndim = x0.size
    simplex = [x0.copy()]
    for i in range(ndim):
        x = x0.copy()
        x[i] += initial_step * abs(x[i]) if x[i] != 0.0 else initial_step
        simplex.append(x)
    values = []
    for x in simplex:
        values.append(float((yield x)))
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
        fr = float((yield xr))
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = float((yield xe))
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[-1]:  # outside contraction
            xc = centroid + 0.5 * (xr - centroid)
            fc = float((yield xc))
            if fc <= fr:
                simplex[-1], values[-1] = xc, fc
                continue
        else:  # inside contraction
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = float((yield xc))
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
                continue
        # shrink toward the best vertex
        for k in range(1, len(simplex)):
            simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
            values[k] = float((yield simplex[k]))

    raise MaxIterationsExceeded(f"no convergence within {max_iter} iterations")


def nelder_mead(
    objective, start, tol: float = 1e-8, max_iter: int = 2000,
    initial_step: float = 0.05,
) -> NelderMeadResult:
    """Minimize with the standard simplex moves (1, 2, 0.5, 0.5).

    Terminates when both the simplex diameter and the value spread drop
    below ``tol``; raises MaxIterationsExceeded past the iteration cap. The
    search itself is :func:`nelder_mead_steps`; this evaluates its trial
    points one at a time, so a lockstep driver that evaluates them in
    batches gets the same result.
    """
    steps = nelder_mead_steps(start, tol, max_iter, initial_step)
    x = next(steps)
    while True:
        try:
            x = steps.send(objective(x))
        except StopIteration as done:
            return done.value


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
    instead of aborting the fit. This is the lockstep of one fit, so it
    gives what :func:`run_table` gives for the same start.
    """
    (outcome,) = _fit_lockstep([problem], tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fit_lockstep(problems: list[FitProblem], tol: float = 1e-8, max_iter: int = 2000) -> list:
    """Fit problems that differ only in their start values, in lockstep.

    Each round sends the pending trial point of every live fit through one
    :func:`_trial_errors` call. Returns, per problem, its FitResult or the
    ActsensError or ValueError that ended its fit alone; any other error
    propagates.
    """
    searches = [nelder_mead_steps([math.log(pb.width_start), math.log(pb.rho0_start)],
                                  tol=tol, max_iter=max_iter) for pb in problems]
    pending = {i: next(search) for i, search in enumerate(searches)}
    evals = [0] * len(problems)
    outcomes: list = [None] * len(problems)
    while pending:
        live = list(pending)
        values = _trial_errors([pending[i] for i in live], problems[0])
        for i, value in zip(live, values):
            evals[i] += 1
            if isinstance(value, Exception):
                outcome = value
            else:
                try:
                    pending[i] = searches[i].send(value)
                    continue
                except StopIteration as done:
                    outcome = _fit_result(done.value, evals[i])
                except (ActsensError, ValueError) as exc:
                    outcome = exc
            del pending[i]
            outcomes[i] = outcome
    return outcomes


def _trial_errors(points, problem: FitProblem) -> list:
    """fit_error at log-space trial points, batched in one call.

    A point without an interior force maximum gets +inf. If the call raises
    an ActsensError or ValueError, each point is evaluated alone, and one
    that raises gets its exception in place of a value: it ends only its
    own fit.
    """
    widths = np.array([math.exp(u[0]) for u in points])
    rho0s = np.array([math.exp(u[1]) for u in points])
    try:
        return fit_error(widths, rho0s, problem).tolist()
    except (ActsensError, ValueError) as exc:
        if len(points) == 1:
            return [exc]
        return [value for u in points for value in _trial_errors([u], problem)]


def _fit_result(res: NelderMeadResult, evals: int):
    """A finished search's FitResult, or NoInteriorMaximum if it stayed infeasible."""
    if not math.isfinite(res.value):
        return NoInteriorMaximum("no feasible force maximum anywhere near the fitted parameters")
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
    """Fit every (nu, kind, width_start) cell; failures are reported per cell.

    The starts of one (nu, kind) pair are fitted in lockstep, each with the
    result it gets alone. Cells come start by start, each start's over
    every (nu, kind).
    """
    n_starts = min(len(bell_starts), len(parabola_starts))
    starts = {"bell": bell_starts, "parabola": parabola_starts}
    outcomes = {}  # (start index, nu, kind) -> FitResult or the error that ended the fit
    for nu in nus:
        for kind in kinds:
            problems = {}
            for si in range(n_starts):
                try:
                    problems[si] = FitProblem(targets=targets, flr_kind=kind, nu=nu,
                                              width_start=starts[kind][si],
                                              rho0_start=rho0_start, ell_opt=ell_opt)
                except ValueError as exc:
                    outcomes[si, nu, kind] = exc
            fits = _fit_lockstep(list(problems.values()), tol)
            outcomes.update(((si, nu, kind), fit) for si, fit in zip(problems, fits))
    cells = []
    for si in range(n_starts):
        for nu in nus:
            for kind in kinds:
                cell = TableCell(nu=nu, kind=kind, width_start=starts[kind][si])
                outcome = outcomes[si, nu, kind]
                if isinstance(outcome, Exception):  # a failed cell keeps the table
                    cell.status = f"{type(outcome).__name__}: {outcome}"
                else:
                    cell.width, cell.rho0 = outcome.width, outcome.rho0
                    cell.error_mm, cell.iterations = outcome.error_mm, outcome.iterations
                    cell.objective_evals = outcome.objective_evals
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
