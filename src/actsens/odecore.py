"""Adaptive explicit Runge-Kutta integration on a fixed output grid.

The integrator is a Dormand-Prince 5(4) embedded pair. The 5th-order
solution propagates; the embedded 4th-order solution provides the local error
estimate. Output values come from the pair's 4th-order continuous extension
(Shampine 1986, Math. Comp. 46:135; Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.6), built from the seven stages of each accepted step at no extra rhs
evaluation. They are evaluated exactly at the requested grid times, so the
returned time axis is bit-identical to the request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteState, StepSizeUnderflow

__all__ = ["OdeProblem", "Tolerances", "Trajectory", "integrate"]

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
# Continuous extension: y(t + theta*h) = y + h * [theta, ..., theta^4] @ (_P.T @ k).
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
_POWERS = np.arange(1, 5)
# the tableau rows as arrays, converted once
_A_ROWS = tuple(np.array(row) for row in _A)
_B5_ROW = np.array(_B5[:6])
_E_ROW = np.array(_E)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5 for a 5th-order pair


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
    last time.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
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

    Raises StepSizeUnderflow when error control drives the step so small that
    t + h == t (stiff or singular right-hand side), and NonFiniteState
    when the right-hand side produces NaN or Inf.
    """
    tol = tol or Tolerances()
    tol.validate()
    problem.validate()

    rhs = problem.rhs
    grid = np.asarray(problem.output_grid, dtype=float)
    t_end = float(grid[-1])
    y = np.array(problem.y0, dtype=float, copy=True).reshape(-1)
    if y.size == 0:
        raise ValueError("y0 must be non-empty")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y0 must be finite, got {problem.y0}")

    out = np.empty((grid.size, y.size))
    gi = 0  # next grid index awaiting a value
    if grid[0] == 0.0:
        out[0] = y
        gi = 1

    f = np.asarray(rhs(0.0, y), dtype=float).reshape(-1)
    if f.shape != y.shape:
        raise ValueError(
            f"rhs returned shape {f.shape}, expected {y.shape}"
        )
    if not np.all(np.isfinite(f)):
        raise NonFiniteState("rhs is non-finite at t=0.0")

    h = _initial_step(y, f, t_end, tol)
    t = 0.0
    k = np.empty((7, y.size))
    k[0] = f  # FSAL: each step's first stage is the last rhs of the one before
    dense = np.empty((4, y.size))  # continuous-extension coefficients of a step

    while t < t_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise StepSizeUnderflow(
                f"step size {h:.3e} underflowed at t={t:.6e}"
            )

        for s in range(5):
            ts = t + _C[s + 1] * h
            ys = y + h * (k[: s + 1].T @ _A_ROWS[s])
            k[s + 1] = rhs(ts, ys)
        y_new = y + h * (k[:6].T @ _B5_ROW)
        k[6] = rhs(t + h, y_new)

        if not np.isfinite(k).all() or not np.isfinite(y_new).all():
            raise NonFiniteState(f"non-finite state produced near t={t:.6e}")

        err = h * (k.T @ _E_ROW)
        scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        r = err / scale
        err_norm = math.sqrt(float(np.add.reduce(r * r) / r.size))  # RMS over components

        if err_norm <= 1.0:
            # accept; fill the grid points this step covers from its dense output
            t_new = t + h
            if gi < grid.size and grid[gi] <= t_new:
                end = gi + int(np.searchsorted(grid[gi:], t_new, side="right"))
                theta = (grid[gi:end] - t) / h
                np.matmul(_P.T, k, out=dense)
                block = out[gi:end]
                np.matmul(h * theta[:, None] ** _POWERS, dense, out=block)
                block += y
                if grid[end - 1] == t_new:
                    out[end - 1] = y_new  # exact at the step's end
                gi = end
            t, y = t_new, y_new
            k[0] = k[6]
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP
            )
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP)

    if gi < grid.size:  # grid points at t_end within float fuzz
        out[gi:] = y
    return Trajectory(times=grid.copy(), values=out)


def make_grid(t_end: float, n_points: int) -> np.ndarray:
    """Uniform output grid over [0, t_end], both ends included."""
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, t_end, n_points)
