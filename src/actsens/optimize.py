"""Activity-dependent shifts in optimal CE length and the (width, rho0) fit.

The isometric force combines the length-dependent steady-state activity with
a force-length relation: F(gamma, ell) = q(gamma, ell/ell_opt) * F_L(ell), in
units of the maximal isometric force. Because the activity gains from longer
CE lengths, the force maximum shifts to longer lengths at submaximal
stimulation; the shift is measured against the model's own full-activation
optimum. Each maximum comes from a coarse grid scan and a safeguarded Newton
iteration on the slope of log F inside the scan's bracket, which finds it to
rounding. Differentiating that slope's root gives each shift's exact
derivatives in the fitted parameters, so a log-space Levenberg-Marquardt with
exact Jacobians fits the force-length width and the calcium scale rho0 to a
set of target shifts. Where the Jacobian's two columns turn parallel, the
shifts determine only one combination of the two; such a fit ends once its
error has settled and is reported as not determined.

The width starts of one (nu, kind) cell are fitted in lockstep: each round,
the pending trial point of every live fit goes through one batched
evaluation of residuals and Jacobians, whose rows are independent. So every
fit takes the path, and gets the result, it would get on its own.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ActsensError, MaxIterationsExceeded, NoInteriorMaximum
from .models import (
    DEFAULT_ELL_OPT,
    ForceLengthRelation,
    HatzeParams,
    _force_length_log_slopes,
    _force_length_slope_root,
    _hatze_log_q_slopes,
    force_length,
    hatze_q_of_gamma,
)

__all__ = [
    "ShiftTargets",
    "FitProblem",
    "FitResult",
    "TableCell",
    "isometric_force",
    "optimal_length_shift",
    "fit_error",
    "fit_shift_parameters",
    "run_table",
    "synthesize_targets",
    "load_shift_targets",
]

#: Calcium ceiling merging rho0 into rho_c (mol/l).
CALCIUM_CEILING = 1.37e-4
#: Preset stimulation levels of the shift experiment.
DEFAULT_LEVELS = (0.55, 0.28, 0.22, 0.17, 0.08)
#: Common start value for the calcium scale (l/mol).
DEFAULT_RHO0_START = 6.0e4

#: Search for the force-maximizing length: span in units of ell_opt and
#: coarse grid points over it. The fit's predicted shifts and
#: optimal_length_shift both read them.
SHIFT_SEARCH_SPAN = (0.5, 1.5)
SHIFT_SEARCH_COARSE = 201


@dataclass(frozen=True)
class ShiftTargets:
    """Target shifts of the optimal CE length per stimulation level (mm)."""

    levels: tuple[float, ...]
    shifts_mm: tuple[float, ...]

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

    A malformed file raises ValueError naming the path and, for a bad header
    or row (one whose field count is not two included), its line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if [h.strip().lower() for h in header or ()] != ["gamma", "shift_mm"]:
            raise ValueError(
                f"{path}:1: expected header 'gamma,shift_mm', got {header}"
            )
        line_of: dict[float, int] = {}  # level -> the line that gave it
        shifts = []
        for row in reader:
            if not "".join(row).strip():
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
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
    return ShiftTargets(tuple(line_of), tuple(shifts))


@dataclass(frozen=True)
class FitProblem:
    """What a fit matches: targets, force-length kind, nu and ell_opt; starts are fit arguments."""

    targets: ShiftTargets
    flr_kind: str = "bell"
    nu: float = 3.0
    ell_opt: float = DEFAULT_ELL_OPT

    def model(self, width, rho0) -> tuple[HatzeParams, ForceLengthRelation]:
        """The activation and force-length relation at a fitted point."""
        # q0 and ell_rho keep the HatzeParams defaults; q_init/sigma/m never
        # enter the static force model, so they are placeholders only
        return (HatzeParams(sigma=1.0, nu=self.nu, rho_c=rho0 * CALCIUM_CEILING, q_init=0.5),
                ForceLengthRelation(kind=self.flr_kind, width=width, ell_opt=self.ell_opt))


# ---------------------------------------------------------------------------
# isometric force and the optimal-length shift
# ---------------------------------------------------------------------------


def isometric_force(gamma, ell_ce, hatze_params: HatzeParams, flr: ForceLengthRelation):
    """Relative static force q(gamma, ell/ell_opt) * F_L(ell); ell_ce in mm."""
    ell_rel = np.asarray(ell_ce, dtype=float) / flr.ell_opt
    q = hatze_q_of_gamma(gamma, ell_rel, hatze_params)
    return q * force_length(ell_ce, flr)


#: Newton on the log-force slope stops each entry once its step is at most
#: this fraction of the relative length.
NEWTON_RTOL = 1e-13


def _peak_slopes(u, gammas, p: HatzeParams, flr: ForceLengthRelation, n: int = 3):
    """g = (log F)_u, g_u and g's derivatives in (log width, log rho0) at
    relative lengths u on the force-length relation's descending branch.

    With ``n`` = 2 it evaluates and returns only (g, g_u), all a Newton
    step reads; the cross terms are needed only for the Jacobian at a peak.
    """
    q = _hatze_log_q_slopes(gammas, u, p, n)
    f = _force_length_log_slopes(u, flr, n)
    return (q[0] + f[0], q[1] + f[1], *f[2:], *q[2:])


def _newton_peak(slopes, lo, hi, u, live):
    """Root of the decreasing slope g in each bracket (lo, hi), from u.

    ``slopes(u)`` returns g and g_u, the only derivatives a step reads
    (:func:`_argmax_force` evaluates just those two). Each entry takes a
    Newton step, or bisects its bracket when the step would leave it or
    would not halve the previous step, and keeps the side of each iterate
    that g's sign gives (Press et al., *Numerical Recipes*, rtsafe). An
    entry is frozen once its own step is at most NEWTON_RTOL * u; the rest
    go on, and entries not ``live`` at the start never move. No operation
    mixes entries, so each takes the path it takes alone.
    """
    last = hi - lo
    while True:
        g, g_u = slopes(u)
        lo = np.where(g > 0.0, u, lo)
        hi = np.where(g < 0.0, u, hi)
        newton = u - g / g_u
        step = np.abs(newton - u)
        safe = (step <= NEWTON_RTOL * u) | (  # NaN fails every test
            (newton > lo) & (newton < hi) & (step <= 0.5 * last))
        new = np.where(safe, newton, 0.5 * (lo + hi))
        last = np.abs(new - u)
        u = np.where(live, new, u)
        live &= last > NEWTON_RTOL * u
        if not live.any():
            return u


@functools.lru_cache(maxsize=8)
def _scan_grid(low: float, high: float, coarse: int, ell_opt: float):
    """The scan's lengths (mm) over (low, high) * ell_opt and the same
    lengths relative to ell_opt, as read-only arrays shared by every scan
    with these values."""
    ells = np.linspace(low * ell_opt, high * ell_opt, coarse)
    grid = ells / ell_opt
    ells.flags.writeable = grid.flags.writeable = False
    return ells, grid


def _argmax_force(
    gammas, p: HatzeParams, flr: ForceLengthRelation,
    span: tuple[float, float], coarse: int, jacobian: bool = False,
):
    """Force-maximizing length (mm) for each stimulation level in ``gammas``.

    ``gammas`` holds L levels. Fields of ``p`` and ``flr`` such as rho_c and
    width may be (F, 1, 1) arrays of F parameter sets, since the last two
    axes of the scan run over levels and lengths; the result then has shape
    (F, L), one row per set, instead of (L,).

    One coarse grid scan over all levels goes through the checked
    isometric_force, so a span reaching ell_rho raises PoleViolation, and
    one reaching 0 ParameterOutOfRange. Its grid is built once per
    (span, coarse, ell_opt) by :func:`_scan_grid` and shared read-only.
    The exact maximum is the root of g(u) = d log F / du, u = ell/ell_opt,
    found by :func:`_newton_peak` inside the scan's bracket of two steps
    around its best point, clipped to u > 1: the activity rises with length
    and F_L peaks at u = 1, so the maximum lies on F_L's descending branch
    (and, for the parabola, below its zero at u = 1 + width).

    A level has no interior maximum when its scan maximum sits at an end of
    the span, or when g does not change sign over its bracket (the force is
    then flat to rounding over the scan, whose best point need not bracket
    the root). For one set that raises NoInteriorMaximum; for F sets it
    makes that set's whole row NaN while the other rows are refined as usual.

    With ``jacobian`` it also returns the peaks' derivatives in
    (log width, log rho0), shape (..., L, 2), by implicit differentiation
    of g(u*) = 0: du*/dtheta = -g_theta / g_u.

    Each stage evaluates only the derivatives it reads: the start and the
    two bracket probes the slope g, each Newton step g and g_u, and only
    the Jacobian call at the root the cross terms g_theta.
    """
    gammas = np.asarray(gammas, dtype=float)[:, None]  # one row per level
    ells, grid = _scan_grid(*span, coarse, flr.ell_opt)
    forces = isometric_force(gammas, ells, p, flr)
    k = np.argmax(forces, axis=-1)
    boundary = (k == 0) | (k == coarse - 1)
    single = k.ndim == 1
    if single and np.any(boundary):
        raise NoInteriorMaximum(
            f"force maximum at the search boundary (gamma={gammas[boundary, 0].tolist()}); "
            "widen the span"
        )
    k = np.minimum(np.maximum(k, 1), coarse - 2)[..., None]  # np.clip, at a third of its cost
    lo, hi = np.maximum(grid[k - 1], 1.0), grid[k + 1]
    if flr.kind == "parabola":
        hi = np.minimum(hi, 1.0 + flr.width)
    hi = np.maximum(hi, lo + 2 * NEWTON_RTOL)  # only a boundary row's bracket is empty
    start = np.where((lo < grid[k]) & (grid[k] < hi), grid[k], 0.5 * (lo + hi))
    # one call at the start and just inside both ends: g must change sign
    # over the bracket, and the start moves to the root of g with the
    # activity's slope frozen at it
    probes = np.concatenate([start, lo + NEWTON_RTOL, hi - NEWTON_RTOL], axis=-1)
    q_slope = _hatze_log_q_slopes(gammas, probes, p, 1)[0]
    g = q_slope + _force_length_log_slopes(probes, flr, 1)[0]
    frozen = 1.0 + _force_length_slope_root(q_slope[..., :1], flr)
    start = np.where((lo < frozen) & (frozen < hi), frozen, start)
    # g is positive at u = 1, so if it is not at 1 + NEWTON_RTOL the root lies
    # between: the maximum is at the force-length optimum to rounding
    pinned = (lo == 1.0) & (g[..., 1:2] <= 0.0)
    start = np.where(pinned, lo + NEWTON_RTOL, start)
    bracketed = pinned | ((g[..., 1:2] > 0.0) & (g[..., 2:] < 0.0))
    unbracketed = ~bracketed[..., 0]
    if single and np.any(unbracketed):
        raise NoInteriorMaximum(
            f"force maximum not bracketed by the scan (gamma={gammas[unbracketed, 0].tolist()}); "
            "the force is flat to rounding over it"
        )
    u = _newton_peak(lambda v: _peak_slopes(v, gammas, p, flr, 2), lo, hi, start,
                     bracketed & ~pinned & ~boundary[..., None])
    bad = (boundary | unbracketed).any(axis=-1, keepdims=True)  # such a set's row is NaN
    peaks = np.where(bad, np.nan, flr.ell_opt * u[..., 0])
    if not jacobian:
        return peaks
    _, g_u, g_width, g_rho = _peak_slopes(u, gammas, p, flr)
    return peaks, (-flr.ell_opt / g_u) * np.concatenate([g_width, g_rho], axis=-1)


def optimal_length_shift(
    gamma: float, hatze_params: HatzeParams, flr: ForceLengthRelation,
) -> float:
    """Shift (mm) of the submaximal force optimum against the full-activation one.

    The reference is argmax F(1, ell) rather than ell_opt itself: at full
    activation the activity still depends on length, so the two differ
    slightly.
    """
    here, ref = _argmax_force((gamma, 1.0), hatze_params, flr,
                              SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE)
    return float(here - ref)


def predicted_shifts(width, rho0, problem: FitProblem, jacobian: bool = False):
    """Model shift at every target stimulation level for (width, rho0).

    Scalars give one point's shifts, shape (L,). Arrays of F points give
    shape (F, L), with a NaN row for a point without an interior force
    maximum (see :func:`_argmax_force`). With ``jacobian`` it also returns
    the shifts' derivatives in (log width, log rho0), shape (..., L, 2).
    """
    if np.ndim(width):  # F points: (F, 1, 1) fields, see _argmax_force
        width, rho0 = np.reshape(width, (-1, 1, 1)), np.reshape(rho0, (-1, 1, 1))
    out = _argmax_force((1.0, *problem.targets.levels), *problem.model(width, rho0),
                        SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE, jacobian)
    if not jacobian:
        return out[..., 1:] - out[..., :1]
    peaks, d_peaks = out
    return peaks[..., 1:] - peaks[..., :1], d_peaks[..., 1:, :] - d_peaks[..., :1, :]


def fit_error(width, rho0, problem: FitProblem):
    """RMS-style objective sqrt(sum of squared shift residuals / 5), in mm.

    The divisor is the fixed five of the reference experiment's five
    stimulation levels, regardless of how many levels are supplied.

    A point without an interior force maximum raises NoInteriorMaximum.
    """
    residuals = predicted_shifts(width, rho0, problem) - np.asarray(problem.targets.shifts_mm)
    return float(_rms(residuals))


def _rms(residuals):
    return np.sqrt(np.sum(residuals**2, axis=-1) / 5.0)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt in log space
# ---------------------------------------------------------------------------


#: Smallest damping lam, relative to the scaling D^2: along a valley where
#: J's columns become parallel it keeps the determinant of J'J + lam D^2
#: about 2 lam of the product of its diagonal, well above rounding, while
#: the steps along the valley stay those of the undamped system. It is also
#: the relative determinant of J'J below which J's columns count as
#: parallel (see :func:`_normal_equations`).
LM_MIN_DAMPING = 1e-14


#: Trust region of a step: no parameter moves by more than this in log
#: space, a factor e, so that a step from a point where the Jacobian is
#: nearly flat cannot leap into a plateau or out of the floating-point range.
LM_MAX_STEP = 1.0


def _normal_equations(r, jac):
    """``(a, b, c, g0, g1, determined)``: J'J = (a, b; b, c), J'r = (g0, g1),
    and whether J's two columns are independent to working precision,
    a*c - b*b > LM_MIN_DAMPING * a*c, a test that does not depend on the
    columns' scales (a zero column fails it)."""
    (a, b), (_, c) = (jac.T @ jac).tolist()
    g0, g1 = (jac.T @ r).tolist()
    ac = a * c
    return a, b, c, g0, g1, ac - b * b > LM_MIN_DAMPING * ac


def _levenberg_marquardt(start, tol: float, max_iter: int):
    """Levenberg-Marquardt on two parameters' residuals r(theta), as a generator.

    It yields each trial point and must be sent ``(r, J)`` there, or None
    for an infeasible point, or the exception its evaluation raised. An
    infeasible or failed start ends the search (ValueError, or that
    exception); at any later trial point either counts as a rejected step.
    It returns ``(theta, error, iterations, determined)`` as StopIteration's
    value, ``determined`` False when J's two columns at theta are parallel
    to working precision (see :func:`_normal_equations`). It stops after an
    accepted step with |change of error| < tol that was short (max|step| <
    tol) or ended where J's columns are parallel, and after a rejected step
    with max|step| < tol. Where the columns are parallel the residuals
    determine only one combination of the two parameters (Bates & Watts
    1988, *Nonlinear Regression Analysis and Its Applications*, ch. 2), so
    once the error has settled, further steps would only walk along the
    valley of equal error until the trial points could no longer be
    evaluated. Past ``max_iter`` steps it raises MaxIterationsExceeded.

    Each step solves the 2x2 system (J'J + lam D^2) step = -J'r in closed
    form, with D^2 the running maximum of J's squared column norms (Moré
    1978); lam is doubled until no component of the step exceeds
    LM_MAX_STEP. lam follows the gain ratio of actual to predicted
    reduction (Nielsen 1999; Nocedal & Wright 2006, ch. 10), but stays at
    least LM_MIN_DAMPING.
    """
    theta = np.asarray(start, dtype=float)
    at = yield theta
    if isinstance(at, Exception):
        raise at
    if at is None:
        raise ValueError("objective is not finite at the start point")
    r, jac = at
    cost, error = float(r @ r), float(_rms(r))
    a, b, c, g0, g1, determined = _normal_equations(r, jac)
    d0, d1 = a, c
    lam, grow = 1e-3, 2.0
    for iteration in range(1, max_iter + 1):
        w0, w1 = d0 or 1.0, d1 or 1.0  # a column zero so far gets unit scale, as in MINPACK
        while True:  # raise lam until the step lies in the trust region
            a_lam, c_lam = a + lam * w0, c + lam * w1
            det = a_lam * c_lam - b * b
            if not det > 0.0:
                raise ValueError(f"Jacobian is not finite at theta = {theta.tolist()}")
            s0, s1 = (b * g1 - c_lam * g0) / det, (b * g0 - a_lam * g1) / det
            if not max(abs(s0), abs(s1)) > LM_MAX_STEP:
                break
            lam *= 2.0
        at = yield theta + (s0, s1)
        short = max(abs(s0), abs(s1)) < tol
        trial_cost = float(at[0] @ at[0]) if isinstance(at, tuple) else math.inf
        if trial_cost <= cost:
            predicted = s0 * (lam * w0 * s0 - g0) + s1 * (lam * w1 * s1 - g1)
            gain = (cost - trial_cost) / predicted if predicted > 0.0 else 0.0
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), LM_MIN_DAMPING)
            grow = 2.0
            theta, (r, jac), cost = theta + (s0, s1), at, trial_cost
            a, b, c, g0, g1, determined = _normal_equations(r, jac)
            d0, d1 = max(d0, a), max(d1, c)
            last_error, error = error, float(_rms(r))
            if abs(last_error - error) < tol and (short or not determined):
                return theta, error, iteration, determined
        else:
            lam *= grow
            grow *= 2.0
            if short:
                return theta, error, iteration, determined
    raise MaxIterationsExceeded(f"no convergence within {max_iter} iterations")


# ---------------------------------------------------------------------------
# fitting and the result table
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """A fit's end point; ``determined`` is False where the shifts' Jacobian
    there has parallel columns (see :func:`_levenberg_marquardt`). A
    :class:`TableCell` inherits every field; the defaults are a failed cell's.
    """

    width: float = math.nan
    rho0: float = math.nan
    error_mm: float = math.nan
    iterations: int = 0
    objective_evals: int = 0
    determined: bool = False


#: Stop rule and step cap of every fit (see :func:`_levenberg_marquardt`).
FIT_TOL = 1e-8
FIT_MAX_ITER = 2000


def fit_shift_parameters(problem: FitProblem, width_start: float = 0.35,
                         rho0_start: float = DEFAULT_RHO0_START) -> FitResult:
    """Fit (width, rho0) to the target shifts from a positive start (else
    ValueError); log-space keeps both positive.

    Trial points whose force maximum escapes the search interval count as
    rejected steps, so the search retreats into the feasible region instead
    of aborting the fit. This is the lockstep of one fit, so it gives what
    :func:`run_table` gives for the same start.
    """
    (outcome,) = _fit_lockstep(problem, [(width_start, rho0_start)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_starts(starts) -> None:
    """ValueError naming the value at the first (width, rho0) start not positive."""
    for start in starts:
        for name, value in zip(("width_start", "rho0_start"), start):
            if not value > 0.0:
                raise ValueError(f"{name} must be positive")


def _fit_lockstep(problem: FitProblem, starts) -> list:
    """Fit ``problem`` from each checked (width, rho0) start, in lockstep.

    Each round sends the pending trial point of every live fit through one
    :func:`_trial_residuals` call. Returns, per start, its FitResult or the
    ActsensError or ValueError that ended its fit alone; any other error
    propagates.
    """
    _check_starts(starts)
    searches = [_levenberg_marquardt([math.log(width), math.log(rho0)], FIT_TOL, FIT_MAX_ITER)
                for width, rho0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    outcomes: list = [None] * len(starts)
    while pending:
        live = list(pending)
        values = _trial_residuals([pending[i] for i in live], problem)
        for i, value in zip(live, values):
            try:
                pending[i] = searches[i].send(value)
                continue
            except StopIteration as done:
                theta, error, iterations, determined = done.value
                outcomes[i] = FitResult(  # evaluations: the start's and each step's
                    width=math.exp(theta[0]), rho0=math.exp(theta[1]), error_mm=error,
                    iterations=iterations, objective_evals=iterations + 1, determined=determined)
            except (ActsensError, ValueError) as exc:
                outcomes[i] = exc
            del pending[i]
    return outcomes


def _trial_residuals(points, problem: FitProblem) -> list:
    """Shift residuals and their Jacobian at log-space trial points, in one call.

    Each point gets ``(r, J)``, or None without an interior force maximum.
    If the call raises an ActsensError or ValueError, each point is
    evaluated alone, and one that raises gets its exception in place of a
    value.
    """
    widths = np.array([math.exp(u[0]) for u in points])
    rho0s = np.array([math.exp(u[1]) for u in points])
    try:
        shifts, jac = predicted_shifts(widths, rho0s, problem, jacobian=True)
    except (ActsensError, ValueError) as exc:
        if len(points) == 1:
            return [exc]
        return [value for u in points for value in _trial_residuals([u], problem)]
    residuals = shifts - np.asarray(problem.targets.shifts_mm)
    return [(r, j) if np.isfinite(r).all() and np.isfinite(j).all() else None
            for r, j in zip(residuals, jac)]


@dataclass(kw_only=True)
class TableCell(FitResult):
    """A :func:`run_table` cell: its fit's FitResult, plus (nu, kind, width
    start) and a status, "ok" or the error that ended the fit."""

    nu: float
    kind: str
    width_start: float
    status: str = "ok"


#: Width starts of each force-length kind, which run_table fits per (nu, kind).
DEFAULT_BELL_STARTS = (0.25, 0.35, 0.45)
DEFAULT_PARABOLA_STARTS = (0.46, 0.56, 0.66)


def run_table(
    targets: ShiftTargets,
    nus: tuple[float, ...] = (2.0, 3.0, 4.0),
    kinds: tuple[str, ...] = ("bell", "parabola"),
    rho0_start: float = DEFAULT_RHO0_START,
    ell_opt: float = DEFAULT_ELL_OPT,
) -> list[TableCell]:
    """Fit every (nu, kind, width_start) cell; failures are reported per cell.

    One FitProblem per (nu, kind) is fitted in lockstep from every width
    start of its kind, each with ``rho0_start`` and the result it gets
    alone. Cells come start by start, each start's over every (nu, kind)
    that has it. A kind that is not a force-length relation's, or a start
    that is not positive, of any kind, raises ValueError before any fit.
    """
    for kind in kinds:
        ForceLengthRelation.check_kind(kind)
    widths = {"bell": DEFAULT_BELL_STARTS, "parabola": DEFAULT_PARABOLA_STARTS}
    _check_starts([(w, rho0_start) for kind in kinds for w in widths[kind]])
    cells = []  # (start index, cell); a failed fit's cell keeps the table, with its error
    for nu in nus:
        for kind in kinds:
            problem = FitProblem(targets=targets, flr_kind=kind, nu=nu, ell_opt=ell_opt)
            fits = _fit_lockstep(problem, [(w, rho0_start) for w in widths[kind]])
            for si, (width, fit) in enumerate(zip(widths[kind], fits)):
                outcome = vars(fit) if isinstance(fit, FitResult) else {
                    "status": f"{type(fit).__name__}: {fit}"}
                cells.append((si, TableCell(nu=nu, kind=kind, width_start=width, **outcome)))
    return [cell for _, cell in sorted(cells, key=lambda pair: pair[0])]  # stable: start-major


def synthesize_targets(
    width: float, rho0: float, nu: float = 3.0, kind: str = "bell",
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    ell_opt: float = DEFAULT_ELL_OPT,
) -> ShiftTargets:
    """Generate self-consistent targets from known parameters (for testing)."""
    probe = FitProblem(targets=ShiftTargets(levels, tuple(0.0 for _ in levels)),
                       flr_kind=kind, nu=nu, ell_opt=ell_opt)
    shifts = predicted_shifts(width, rho0, probe)
    return ShiftTargets(levels, tuple(float(s) for s in shifts))
