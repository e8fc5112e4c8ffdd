"""Adaptive explicit Runge-Kutta integration on a fixed output grid.

The integrator is a Dormand-Prince 5(4) embedded pair with cubic-Hermite
dense output. The 5th-order solution propagates; the embedded 4th-order
solution provides the local error estimate. Output values are interpolated
exactly at the requested grid times, so the returned time axis is
bit-identical to the request.
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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5 for a 5th-order pair


@dataclass(frozen=True)
class Tolerances:
    """Error-control settings for :func:`integrate`.

    The per-component error is measured against abs_tol + rel_tol*|y| and
    reduced by an RMS norm over components. Defaults are tight so that
    integration error stays negligible against finite-difference
    cross-check tolerances.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def validate(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")


@dataclass
class OdeProblem:
    """A first-order initial value problem evaluated on a fixed output grid."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]
    output_grid: np.ndarray

    def validate(self) -> None:
        t0, t1 = self.t_span
        if not t0 < t1:
            raise ValueError(f"t_span must satisfy t_start < t_end, got {self.t_span}")
        grid = np.asarray(self.output_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("output_grid must be a non-empty 1-d array")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("output_grid must be strictly increasing")
        if grid[0] < t0 or grid[-1] > t1:
            raise ValueError("output_grid must lie within t_span")


@dataclass
class Trajectory:
    """State values on the requested output grid (times row-aligned with values)."""

    times: np.ndarray  # (T,)
    values: np.ndarray  # (T, M)


def _hermite(theta: float, h: float, y0, y1, f0, f1) -> np.ndarray:
    """Cubic Hermite interpolant on one accepted step; exact at both endpoints."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _initial_step(y0, f0, span, tol: Tolerances) -> float:
    """Crude starting-step guess; the controller corrects it within a few steps."""
    scale = tol.abs_tol + tol.rel_tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return min(h, 0.1 * span)


def integrate(problem: OdeProblem, tol: Tolerances | None = None) -> Trajectory:
    """Integrate an ODE system and return values exactly at the output grid.

    Raises StepSizeUnderflow when error control drives the step so small that
    t + h == t (stiff or singular right-hand side), and NonFiniteState
    when the right-hand side produces NaN or Inf.
    """
    tol = tol or Tolerances()
    tol.validate()
    problem.validate()

    rhs = problem.rhs
    t0, t_end = float(problem.t_span[0]), float(problem.t_span[1])
    grid = np.asarray(problem.output_grid, dtype=float)
    y = np.array(problem.y0, dtype=float, copy=True).reshape(-1)
    if y.size == 0:
        raise ValueError("y0 must be non-empty")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y0 must be finite, got {problem.y0}")

    out = np.empty((grid.size, y.size))
    gi = 0  # next grid index awaiting a value
    if grid[0] == t0:
        out[0] = y
        gi = 1

    f = np.asarray(rhs(t0, y), dtype=float).reshape(-1)
    if f.shape != y.shape:
        raise ValueError(
            f"rhs returned shape {f.shape}, expected {y.shape}"
        )
    if not np.all(np.isfinite(f)):
        raise NonFiniteState(f"rhs is non-finite at t={t0}")

    span = t_end - t0
    h = _initial_step(y, f, span, tol)
    t = t0
    k = np.empty((7, y.size))

    while t < t_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise StepSizeUnderflow(
                f"step size {h:.3e} underflowed at t={t:.6e}"
            )

        k[0] = f  # FSAL: first stage is the last rhs of the previous step
        for s in range(5):
            ts = t + _C[s + 1] * h
            ys = y + h * (k[: s + 1].T @ np.asarray(_A[s]))
            k[s + 1] = rhs(ts, ys)
        y_new = y + h * (k[:6].T @ np.asarray(_B5[:6]))
        k[6] = rhs(t + h, y_new)

        if not np.all(np.isfinite(k)) or not np.all(np.isfinite(y_new)):
            raise NonFiniteState(f"non-finite state produced near t={t:.6e}")

        err = h * (k.T @ np.asarray(_E))
        scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))

        if err_norm <= 1.0:
            # accept; fill grid points covered by this step via dense output
            t_new = t + h
            f_new = k[6].copy()  # k is reused next step; detach the FSAL slope
            while gi < grid.size and grid[gi] <= t_new:
                theta = (grid[gi] - t) / h
                out[gi] = _hermite(theta, h, y, y_new, f, f_new)
                gi += 1
            t, y, f = t_new, y_new, f_new
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP
            )
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP)

    if gi < grid.size:  # grid points at t_end within float fuzz
        out[gi:] = y
    return Trajectory(times=grid.copy(), values=out)


def make_grid(t_end: float, n_points: int, t_start: float = 0.0) -> np.ndarray:
    """Uniform output grid including both endpoints."""
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(t_start, t_end, n_points)
