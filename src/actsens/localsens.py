"""First/second-order and initial-condition sensitivities of ODE models.

The state is augmented with the sensitivity equations and everything is
integrated in a single pass, so the sensitivities see exactly the adaptive
step sequence of the state itself. Augmented layout: state, first-order
sensitivity rows (one per parameter), initial-condition block, then the
upper triangle of the second-order tensor.

Relative (normalized) sensitivities express percentage change of a state
component per percentage change of a parameter; they are produced by
:func:`normalize` and are undefined where the state magnitude falls below
the normalization floor (flagged, not dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Mapping

import numpy as np

from .errors import MissingDerivative
from .models import ModelSpec, ParameterSet
from .odecore import OdeProblem, Tolerances, integrate

__all__ = [
    "SensitivityResult",
    "analyze",
    "first_order",
    "initial_condition_sensitivity",
    "second_order",
    "second_order_fd",
    "fd_first_order",
    "fd_initial_condition",
    "normalize",
]

#: Default floor below which |y_k(t)| makes a relative sensitivity meaningless.
NORMALIZATION_FLOOR = 1e-9


@dataclass
class SensitivityResult:
    """Time-resolved sensitivities of one model at one parameter point.

    Raw arrays are indexed [time, parameter, state] (first order),
    [time, init-component, state] (initial condition) and
    [time, parameter, parameter, state] (second order, symmetric).
    ``*_rel`` fields are filled by :func:`normalize`; ``degenerate`` marks
    time/state points where normalization was undefined.
    """

    times: np.ndarray
    state: np.ndarray
    param_names: tuple[str, ...]
    init_names: tuple[str, ...]
    s_raw: np.ndarray | None = None
    s_init_raw: np.ndarray | None = None
    r_raw: np.ndarray | None = None
    s_rel: np.ndarray | None = None
    s_init_rel: np.ndarray | None = None
    r_rel: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    zero_params: tuple[str, ...] = ()
    r_approximate: bool = False


def _as_parameter_set(model: ModelSpec, params) -> ParameterSet:
    if isinstance(params, ParameterSet):
        return params
    if isinstance(params, Mapping):
        return ParameterSet.from_dict(params, order=model.canonical_order)
    raise TypeError(f"params must be a ParameterSet or mapping, got {type(params)}")


def _check_derivs(d, order: int) -> None:
    if d.jac_y is None or d.jac_p is None:
        raise MissingDerivative("model does not supply first partials (jac_y, jac_p)")
    if order >= 2 and (d.hess_yy is None or d.hess_py is None or d.hess_pp is None):
        raise MissingDerivative("model does not supply second partials")


def _augmented_system(model: ModelSpec, lam, y0, *, order, include_s, include_init):
    """Right-hand side and initial vector of the stacked sensitivity system."""
    M, N = model.dim, model.n_params
    pairs = [(i, j) for i in range(N) for j in range(i, N)]
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    n_s = N * M if include_s else 0
    n_i = M * M if include_init else 0
    n_r = len(pairs) * M if order >= 2 else 0

    def rhs(t, z):
        y = z[:M]
        d = model.derivs(t, y, lam, order)
        dz = np.empty_like(z)
        dz[:M] = d.f
        off = M
        S = None
        if include_s:
            S = z[off:off + n_s].reshape(N, M)
            dz[off:off + n_s] = (S @ d.jac_y.T + d.jac_p).ravel()
            off += n_s
        if include_init:
            s0 = z[off:off + n_i].reshape(M, M)
            dz[off:off + n_i] = (s0 @ d.jac_y.T).ravel()
            off += n_i
        if order >= 2:
            r = z[off:].reshape(len(pairs), M)
            dr = r @ d.jac_y.T
            dr += np.einsum("pkl,pl->pk", d.hess_py[jj], S[ii])
            dr += np.einsum("pkl,pl->pk", d.hess_py[ii], S[jj])
            dr += np.einsum("klm,pl,pm->pk", d.hess_yy, S[ii], S[jj])
            dr += d.hess_pp[ii, jj]
            dz[off:] = dr.ravel()
        return dz

    z0 = np.zeros(M + n_s + n_i + n_r)
    z0[:M] = y0
    if include_init:
        z0[M + n_s:M + n_s + n_i] = np.eye(M).ravel()
    return rhs, z0, (ii, jj, n_s, n_i)


def analyze(
    model: ModelSpec,
    params,
    grid,
    *,
    order: int = 1,
    include_s: bool = True,
    include_init: bool = True,
    tol: Tolerances | None = None,
) -> SensitivityResult:
    """Integrate the coupled state + sensitivity system on the output grid.

    ``order=1`` solves dS/dt = S J^T + B from S(0) = 0; ``include_init``
    adds the homogeneous system dS0/dt = S0 J^T from S0(0) = I; ``order=2``
    adds the second-order tensor (upper triangle) with its five-term
    right-hand side from R(0) = 0.
    """
    pset = _as_parameter_set(model, params)
    lam = pset.values_for(model.param_names)
    y0 = pset.values_for(model.init_names)
    grid = np.asarray(grid, dtype=float)
    M, N = model.dim, model.n_params
    if order >= 2 and not include_s:
        raise ValueError("second order requires the first-order block")
    if order == 0:
        include_s = include_init = False

    if order >= 1:
        _check_derivs(model.derivs(0.0, y0, lam, order), order)
    rhs, z0, (ii, jj, n_s, n_i) = _augmented_system(
        model, lam, y0, order=order, include_s=include_s, include_init=include_init
    )
    traj = integrate(
        OdeProblem(rhs=rhs, y0=z0, t_span=(0.0, float(grid[-1])), output_grid=grid),
        tol or Tolerances(),
    )

    T = grid.size
    vals = traj.values
    state = vals[:, :M]
    off = M
    s_raw = None
    if include_s:
        s_raw = vals[:, off:off + n_s].reshape(T, N, M)
        off += n_s
    s_init_raw = None
    if include_init:
        s_init_raw = vals[:, off:off + n_i].reshape(T, M, M)
        off += n_i
    r_raw = None
    if order >= 2:
        tri = vals[:, off:].reshape(T, len(ii), M)
        r_raw = np.zeros((T, N, N, M))
        r_raw[:, ii, jj, :] = tri
        r_raw[:, jj, ii, :] = tri
    return SensitivityResult(
        times=traj.times, state=state,
        param_names=model.param_names, init_names=model.init_names,
        s_raw=s_raw, s_init_raw=s_init_raw, r_raw=r_raw,
    )


def first_order(model: ModelSpec, params, grid, tol: Tolerances | None = None) -> SensitivityResult:
    """First-order sensitivity matrix S along the solution (S only)."""
    return analyze(model, params, grid, order=1, include_init=False, tol=tol)


def initial_condition_sensitivity(
    model: ModelSpec, params, grid, tol: Tolerances | None = None
) -> np.ndarray:
    """Time-indexed M x M sensitivity of the state to its initial values."""
    res = analyze(model, params, grid, order=1, include_s=False,
                  include_init=True, tol=tol)
    return res.s_init_raw


def second_order(model: ModelSpec, params, grid, tol: Tolerances | None = None) -> SensitivityResult:
    """First- and second-order sensitivities (S and the symmetric tensor R).

    A model without analytic second partials raises MissingDerivative; its R
    can be estimated with :func:`second_order_fd` instead.
    """
    return analyze(model, params, grid, order=2, include_init=False, tol=tol)


# ---------------------------------------------------------------------------
# finite-difference oracles / fallbacks
# ---------------------------------------------------------------------------
#
# Each central difference integrates its (+h, -h) pair as one stacked system
# so both halves share the adaptive step sequence: the truncation errors of
# the two runs then cancel in the difference, which matters because the
# difference signal can be orders of magnitude below the state itself.


def _paired_difference(model, lam_p, y0_p, lam_m, y0_m, grid, tol, *,
                       order=0, include_s=False):
    rhs_p, z0_p, _ = _augmented_system(
        model, lam_p, y0_p, order=order, include_s=include_s, include_init=False
    )
    rhs_m, z0_m, _ = _augmented_system(
        model, lam_m, y0_m, order=order, include_s=include_s, include_init=False
    )
    dim = z0_p.size

    def rhs(t, z):
        return np.concatenate([rhs_p(t, z[:dim]), rhs_m(t, z[dim:])])

    traj = integrate(
        OdeProblem(rhs=rhs, y0=np.concatenate([z0_p, z0_m]),
                   t_span=(0.0, float(grid[-1])), output_grid=grid),
        tol or Tolerances(),
    )
    return traj.values[:, :dim], traj.values[:, dim:]


def fd_first_order(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-5, tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference estimate of S from pairs of perturbed state runs."""
    pset = _as_parameter_set(model, params)
    lam = pset.values_for(model.param_names)
    y0 = pset.values_for(model.init_names)
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, model.n_params, model.dim))
    for i in range(model.n_params):
        h = rel_step * abs(lam[i]) if lam[i] != 0.0 else rel_step
        lp, lm = lam.copy(), lam.copy()
        lp[i] += h
        lm[i] -= h
        yp, ym = _paired_difference(model, lp, y0, lm, y0, grid, tol)
        out[:, i, :] = (yp - ym) / (2.0 * h)
    return out


def fd_initial_condition(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-5, tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference estimate of the initial-condition sensitivity."""
    pset = _as_parameter_set(model, params)
    lam = pset.values_for(model.param_names)
    y0 = pset.values_for(model.init_names)
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, model.dim, model.dim))
    for i in range(model.dim):
        h = rel_step * abs(y0[i]) if y0[i] != 0.0 else rel_step
        yp0, ym0 = y0.copy(), y0.copy()
        yp0[i] += h
        ym0[i] -= h
        yp, ym = _paired_difference(model, lam, yp0, lam, ym0, grid, tol)
        out[:, i, :] = (yp - ym) / (2.0 * h)
    return out


def second_order_fd(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-4, tol: Tolerances | None = None,
) -> SensitivityResult:
    """Estimate R by central differences of first-order runs (approximate).

    Serves both as the fallback for models without analytic second partials
    and as the independent oracle against the analytic second-order path.
    """
    pset = _as_parameter_set(model, params)
    lam = pset.values_for(model.param_names)
    y0 = pset.values_for(model.init_names)
    grid = np.asarray(grid, dtype=float)
    base = first_order(model, pset, grid, tol=tol)
    N, M, T = model.n_params, model.dim, grid.size
    r = np.empty((T, N, N, M))
    for i in range(N):
        h = rel_step * abs(lam[i]) if lam[i] != 0.0 else rel_step
        lp, lm = lam.copy(), lam.copy()
        lp[i] += h
        lm[i] -= h
        vp, vm = _paired_difference(model, lp, y0, lm, y0, grid, tol,
                                    order=1, include_s=True)
        sp = vp[:, M:M + N * M].reshape(T, N, M)
        sm = vm[:, M:M + N * M].reshape(T, N, M)
        r[:, i, :, :] = (sp - sm) / (2.0 * h)
    r = 0.5 * (r + r.transpose(0, 2, 1, 3))  # enforce Schwarz symmetry
    return dc_replace(base, r_raw=r, r_approximate=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(result: SensitivityResult, params, floor: float = NORMALIZATION_FLOOR) -> SensitivityResult:
    """Scale raw sensitivities to relative ones: S~ = S * lambda / y(t).

    Initial-condition sensitivities are normalized with the initial value in
    place of lambda. Points with |y_k(t)| < floor are flagged in
    ``degenerate`` and set to NaN; parameters whose value is exactly zero
    produce identically-zero rows and are listed in ``zero_params``.
    """
    if isinstance(params, ParameterSet):
        pdict = params.as_dict()
    else:
        pdict = dict(params)
    lam = np.array([pdict[n] for n in result.param_names])
    y0 = np.array([pdict[n] for n in result.init_names])

    y = result.state  # (T, M)
    degenerate = np.abs(y) < floor
    safe_y = np.where(degenerate, 1.0, y)

    def _scale(raw, factors):
        if raw is None:
            return None
        rel = raw * factors / safe_y[(slice(None),) + (None,) * (raw.ndim - 2)]
        mask = np.broadcast_to(
            degenerate[(slice(None),) + (None,) * (raw.ndim - 2)], rel.shape
        )
        return np.where(mask, np.nan, rel)

    s_rel = _scale(result.s_raw, lam[None, :, None])
    s_init_rel = _scale(result.s_init_raw, y0[None, :, None])
    r_rel = _scale(result.r_raw, lam[None, :, None, None] * lam[None, None, :, None])
    zero = tuple(n for n, v in zip(result.param_names, lam) if v == 0.0)
    return dc_replace(
        result, s_rel=s_rel, s_init_rel=s_init_rel, r_rel=r_rel,
        degenerate=degenerate, zero_params=zero,
    )
