"""Adaptive explicit Runge-Kutta integration on a fixed output grid.

The integrator is a Dormand-Prince 5(4) embedded pair. The 5th-order
solution propagates; the embedded 4th-order solution provides the local error
estimate. Output values come from the pair's 4th-order continuous extension
(Shampine 1986, Math. Comp. 46:135; Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.6), built from the seven stages of each accepted step at no extra rhs
evaluation. They are evaluated exactly at the requested grid times, so the
returned time axis is bit-identical to the request.

A solve keeps the state and the seven stages stacked in one (8, M) array,
row 0 the state y and rows 1-7 the stages k1..k7. Everything a step forms
from them is a linear combination of those rows: the input of each stage,
the 5th-order solution and the error estimate are one product each of a
row of the step's coefficient table (``_STEP`` with its stage columns
scaled by h) with the stacked rows, and the grid points that a step covers
get their weights as one small (points, 8) block (:func:`_dense_weights`)
and their values as one product of that block with the stacked rows,
written straight into the output. The rhs writes each stage into its row
of the stacked array (see :class:`OdeProblem`), so no stage is copied.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteState, StepBudgetExceeded, StepSizeUnderflow

__all__ = ["OdeProblem", "Tolerances", "Trajectory", "integrate", "make_grid"]

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: coefficients of the embedded error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Continuous extension: y(t + theta*h) = y + (h * [theta, ..., theta^4] @ _P.T) @ k.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# The same over the stacked rows (y, k1, ..., k7): their weights are
# [1, h*theta, ..., h*theta^4] @ _DENSE, whose first row carries y.
_DENSE = np.zeros((5, 8))
_DENSE[0, 0] = 1.0
_DENSE[1:, 1:] = _P.T
_POWERS = np.arange(5.0)

# The step's coefficient table over the stacked rows (y, k1, ..., k7), one
# row per product: the inputs of stages 2-6, y_new (the input of stage 7)
# and the error estimate. y enters every input with weight 1 and the error
# with weight 0; a step scales the stage columns (1-7) by h.
_STEP = np.zeros((7, 8))
_STEP[:6, 0] = 1.0
for _row, _a in enumerate(_A):
    _STEP[_row, 1:1 + len(_a)] = _a
_STEP[5, 1:] = _B5
_STEP[6, 1:] = _E
for _table in (_DENSE, _STEP):
    _table.setflags(write=False)


def _dense_weights(theta, h) -> np.ndarray:
    """(points, 8) weights of the stacked rows (y, k1, ..., k7) for the
    continuous extension at t + theta*h, one row per entry of ``theta``."""
    return (theta[:, None] ** _POWERS * (1.0, h, h, h, h)) @ _DENSE


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5 for a 5th-order pair

#: Step attempts (accepted and rejected) per solve before :func:`integrate`
#: raises StepBudgetExceeded. The largest solve of the test suite takes 333
#: attempts (a blow-up that ends in StepSizeUnderflow) and the largest of the
#: benchmark workloads 119 (a second-order scenario panel): a margin of 300x.
#: Stability bounds an explicit pair's step, so a stiff solve takes attempts
#: in proportion to its rate: zajac's scenario ii over 0.5 s takes about
#: 0.16/tau of them and reaches the cap for tau below about 1.6e-6 s.
MAX_STEP_ATTEMPTS = 100_000


@dataclass(frozen=True)
class Tolerances:
    """Error-control settings for :func:`integrate`.

    The per-component error is measured against abs_tol + rel_tol*|y| and
    reduced by an RMS norm over components.

    Grid-accuracy contract: every state value lies within ten tolerance
    scales, 10*(abs_tol + rel_tol*|y|), of the exact solution. On the 16
    scenario panels (501 points over 0.5 s, against the closed forms) the
    worst value is 5.0 scales at the default and 8.0 at 1e-8/1e-10; the
    cubic Hermite interpolant this integrator used before reached 583.
    Sensitivities meet ten scales per column, abs_tol + rel_tol*max_t|column|,
    not pointwise. On the same panels (201 points, default tolerance, against
    a 1e-12/1e-14 solve) the worst values per column are 3.05 scales for S,
    3.41 for R and 4.18/6.39 for relative S/R. Pointwise, where a column is
    small against its own peak, raw S reached 39 scales, raw R 50 and
    relative R 84.

    The default is the loosest decade whose output is still at least as
    accurate as that interpolant's at 1e-8/1e-10, at 0.69x its rhs
    evaluations (3,184 vs 4,630 on the panels above). At order 2 on the
    panels (201 points over 0.5 s), max errors move as follows:

    - zajac vs the closed form: state 7.7e-9 -> 7.3e-10, relative S
      3.9e-8 -> 3.0e-9, relative R 1.8e-7 -> 1.6e-8;
    - hatze vs a 1e-12 solve (raw S and R, relative to max(1, |ref|)):
      state 5.2e-8 -> 2.5e-9, S 2.1e-6 -> 1.4e-7, R 1.4e-5 -> 7.7e-7.

    At 1e-6/1e-8 the zajac panels' state error (1.8e-7) would exceed the
    interpolant's (1.0e-7).
    """

    rel_tol: float = 1e-7
    abs_tol: float = 1e-9

    def validate(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")


@dataclass
class OdeProblem:
    """A first-order initial value problem evaluated on a fixed output grid.

    ``y0`` is the state at t = 0; the solve runs from there to the grid's
    last time. ``rhs(t, y, out)`` writes dy/dt at (t, y) into ``out``, an
    (M,) row of the solve's stacked stage array, and its return value is
    not read. It must write every entry of ``out``, leave ``y`` unchanged
    and keep neither array: :func:`integrate` rewrites both between calls.
    """

    rhs: Callable[[float, np.ndarray, np.ndarray], object]
    y0: np.ndarray
    output_grid: np.ndarray

    def validate(self) -> None:
        grid = np.asarray(self.output_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("output_grid must be a non-empty 1-d array")
        # written as "not inside", so that a NaN time fails them
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("output_grid must be strictly increasing")
        if not (0.0 <= grid[0] and grid[-1] > 0.0):
            raise ValueError("output_grid must start at t >= 0 and end at t > 0")


@dataclass
class Trajectory:
    """State values on the requested output grid (times row-aligned with values)."""

    times: np.ndarray  # (T,)
    values: np.ndarray  # (T, M)


def _initial_step(y0, f0, t_end, tol: Tolerances) -> float:
    """Crude starting-step guess; the controller corrects it within a few steps."""
    scale = tol.abs_tol + tol.rel_tol * np.abs(y0)
    with np.errstate(over="ignore"):  # a stiff row's f0 may overflow the square: d1 = inf
        d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * t_end
    else:
        h = 0.01 * d0 / d1
    return min(h, 0.1 * t_end)


def integrate(problem: OdeProblem, tol: Tolerances | None = None) -> Trajectory:
    """Integrate an ODE system from t = 0 and return values exactly at the output grid.

    The state and the stages live in one (8, M) array for the whole solve,
    and the rhs writes each stage into its row (see :class:`OdeProblem`);
    every view a step reads or writes is built once, before the first step.

    Raises StepSizeUnderflow when error control drives the step so small that
    t + h == t (stiff or singular right-hand side), StepBudgetExceeded
    after MAX_STEP_ATTEMPTS step attempts short of the grid's end, and
    NonFiniteState when the right-hand side produces NaN or Inf.
    """
    tol = tol or Tolerances()
    tol.validate()
    problem.validate()

    rhs = problem.rhs
    grid = np.asarray(problem.output_grid, dtype=float)
    t_end = float(grid[-1])
    y0 = np.asarray(problem.y0, dtype=float).reshape(-1)
    if y0.size == 0:
        raise ValueError("y0 must be non-empty")
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"y0 must be finite, got {problem.y0}")

    # row 0: y; rows 1-7: the stages k1..k7. NaN until written, so an rhs
    # that leaves its row unwritten fails the check at t = 0.
    stack = np.full((8, y0.size), np.nan)
    y, k_first, k_last = stack[0], stack[1], stack[7]
    y[...] = y0
    out = np.empty((grid.size, y.size))
    times = grid.tolist()
    n_times = len(times)
    gi = 0  # next grid index awaiting a value
    if times[0] == 0.0:
        out[0] = y
        gi = 1

    rhs(0.0, y, k_first)  # FSAL: each step's first stage is the last rhs of the one before
    if not np.all(np.isfinite(k_first)):
        raise NonFiniteState("rhs is non-finite at t=0.0")

    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol
    h = _initial_step(y, k_first, t_end, tol)
    t = 0.0
    table = np.empty_like(_STEP)  # _STEP with its stage columns scaled by each step's h
    table[:, 0] = _STEP[:, 0]
    table_h, step_h = table[:, 1:], _STEP[:, 1:]
    # per stage s = 2..6: its node, its table row over y and k1..k(s-1), those
    # rows, and its own row
    stages = tuple((c, table[s - 2, :s], stack[:s], stack[s]) for s, c in enumerate(_C[1:], 2))
    new_row, new_rows, err_row = table[5, :7], stack[:7], table[6]
    ys, y_new, err = (np.empty(y.size) for _ in range(3))
    scale = ys  # the stage input is free once the step's last stage has run
    abs_y, abs_new = np.abs(y), np.empty(y.size)
    attempts, max_attempts = 0, MAX_STEP_ATTEMPTS

    while t < t_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise StepSizeUnderflow(
                f"step size {h:.3e} underflowed at t={t:.6e}"
            )
        if attempts == max_attempts:
            raise StepBudgetExceeded(
                f"{attempts} step attempts reached only t={t:.6e} of {t_end:g} at step "
                f"size {h:.3e}: a stiff rhs or a long horizon"
            )
        attempts += 1

        np.multiply(step_h, h, out=table_h)
        for c, row, rows, k_s in stages:
            np.dot(row, rows, out=ys)
            rhs(t + c * h, ys, k_s)
        np.dot(new_row, new_rows, out=y_new)
        rhs(t + h, y_new, k_last)

        # an overflowing y_new makes the scale infinite and the ratio 0, so
        # the error norm below cannot see it: its |y_new| is checked here
        np.abs(y_new, out=abs_new)
        if not np.maximum.reduce(abs_new) < math.inf:  # NaN compares False too
            raise NonFiniteState(f"non-finite state produced near t={t:.6e}")

        np.dot(err_row, stack, out=err)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= rel_tol
        scale += abs_tol
        err /= scale
        err *= err
        err_norm = math.sqrt(float(np.add.reduce(err) / err.size))  # RMS over components

        if err_norm <= 1.0:
            # accept; fill the grid points this step covers from its dense output
            t_new = t + h
            if gi < n_times and times[gi] <= t_new:
                end = bisect.bisect_right(times, t_new, gi)
                theta = (grid[gi:end] - t) / h
                np.matmul(_dense_weights(theta, h), stack, out=out[gi:end])
                if times[end - 1] == t_new:
                    out[end - 1] = y_new  # exact at the step's end
                gi = end
            t = t_new
            y[...] = y_new
            k_first[...] = k_last
            abs_y, abs_new = abs_new, abs_y
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP
            )
            h *= factor
        else:
            # A non-finite stage always makes the norm non-finite (0*inf and
            # inf - inf are NaN in the error product, also for a stage of
            # error weight 0), so only such a norm needs the exact check; a
            # finite state whose squared ratios overflow is a rejected step.
            if not math.isfinite(err_norm) and not np.isfinite(stack).all():
                raise NonFiniteState(f"non-finite state produced near t={t:.6e}")
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP)

    # the last accepted step ended at or past t_end, so it filled every grid time
    return Trajectory(times=grid.copy(), values=out)


def make_grid(t_end: float, n_points: int) -> np.ndarray:
    """Uniform output grid over [0, t_end], both ends included."""
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, t_end, n_points)
