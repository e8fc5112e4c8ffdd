"""First- and second-order sensitivities of ODE models.

The initial conditions are parameters like any other: the first-order block
holds one row per entry of ``model.canonical_order`` (initial conditions
first, then the dynamic parameters). The state is augmented with the
sensitivity equations and everything is integrated in a single pass, so the
sensitivities see exactly the adaptive step sequence of the state itself.
Augmented layout: state, first-order rows of the dynamic parameters, those
of the initial conditions, then the upper triangle of the second-order
tensor over the dynamic parameters.

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
from .models import ModelSpec, _Domain
from .odecore import OdeProblem, Tolerances, integrate

__all__ = [
    "SensitivityResult",
    "analyze",
    "second_order_fd",
    "fd_first_order",
    "fd_initial_condition",
    "normalize",
]

#: Floor below which |y_k(t)| makes a relative sensitivity meaningless.
NORMALIZATION_FLOOR = 1e-9


@dataclass
class SensitivityResult:
    """Time-resolved sensitivities of one model at one parameter point.

    ``s_raw`` is indexed [time, parameter, state] over the canonical order
    ``init_names + param_names``, so ``s_raw[:, :M]`` is the sensitivity to
    the M initial values; ``r_raw`` is indexed [time, parameter, parameter,
    state] over ``param_names`` and is symmetric. ``*_rel`` fields are
    filled by :func:`normalize`; ``degenerate`` marks time/state points
    where normalization was undefined.
    """

    times: np.ndarray
    state: np.ndarray
    param_names: tuple[str, ...]
    init_names: tuple[str, ...]
    s_raw: np.ndarray | None = None
    r_raw: np.ndarray | None = None
    s_rel: np.ndarray | None = None
    r_rel: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    zero_params: tuple[str, ...] = ()
    r_approximate: bool = False


def _values(params, names) -> np.ndarray:
    """The values of a parameter point in the order of ``names``: a built-in
    model's parameter object (``ZajacParams``, ``HatzeParams``), read by
    canonical name, or a mapping of canonical names. ValueError naming each
    of ``names`` it lacks; TypeError for any other type."""
    if isinstance(params, _Domain):
        params = params.as_dict()
    elif not isinstance(params, Mapping):
        raise TypeError(f"params must be a parameter object or mapping, got {type(params)}")
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"params lack {missing} of the model's parameters {list(names)}")
    return np.array([params[n] for n in names], dtype=float)


def _check_derivs(derivs, order: int) -> None:
    _, grad, hess = derivs
    if grad is None:
        raise MissingDerivative("model does not supply first partials (grad)")
    if order >= 2 and hess is None:
        raise MissingDerivative("model does not supply second partials (hess)")


def _augmented_system(model: ModelSpec, lam, y0, *, order):
    """Right-hand side and initial vector of the stacked sensitivity system."""
    M, N = model.dim, model.n_params
    ii, jj = np.triu_indices(N)
    n_s = (N + M) * M if order >= 1 else 0
    n_r = ii.size * M if order >= 2 else 0
    # W[i] = dx/dlam_i = (S_i, e_i): the e_i half is fixed, S is written per call
    W = np.zeros((N, M + N))
    W[:, M:] = np.eye(N)

    def rhs(t, z):
        y = z[:M]
        f, grad, hess = model.derivs(t, y, lam, order)
        dz = np.empty_like(z)
        dz[:M] = f
        if order >= 1:
            # rows 0..N-1: dynamic parameters, rows N..N+M-1: initial values
            S = z[M:M + n_s].reshape(N + M, M)
            J_y = grad[:, :M]
            dS = np.matmul(S, J_y.T, out=dz[M:M + n_s].reshape(N + M, M))
            dS[:N] += grad[:, M:].T
        if order >= 2:
            # the forcing of R_ij is W_i^T H W_j
            W[:, :M] = S[:N]
            quad = W @ hess @ W.T
            r = z[M + n_s:].reshape(ii.size, M)
            dr = np.matmul(r, J_y.T, out=dz[M + n_s:].reshape(ii.size, M))
            dr += quad[:, ii, jj].T
        return dz

    z0 = np.zeros(M + n_s + n_r)
    z0[:M] = y0
    if order >= 1:
        z0[M + N * M:M + n_s] = np.eye(M).ravel()
    return rhs, z0, (ii, jj)


def analyze(
    model: ModelSpec,
    params,
    grid,
    *,
    order: int = 1,
    tol: Tolerances | None = None,
) -> SensitivityResult:
    """Integrate the coupled state + sensitivity system on the output grid.

    ``order=0`` integrates the state only. ``order=1`` adds the first-order
    block over ``model.canonical_order``: the dynamic-parameter rows solve
    dS/dt = S J^T + B from S(0) = 0, the initial-condition rows solve
    dS0/dt = S0 J^T from S0(0) = I. ``order=2`` adds the second-order
    tensor over the dynamic parameters (upper triangle) from R(0) = 0:
    dR_ij/dt = R_ij J^T + W_i^T H W_j, one quadratic form in the Hessian H
    of f over x = (y, lam) with W_i = (S_i, e_i) = dx/dlam_i. A model that
    lacks the partials an order needs raises MissingDerivative; any other
    order, or params that lack a name of the canonical order, ValueError.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    M, N = model.dim, model.n_params
    x = _values(params, model.canonical_order)
    y0, lam = x[:M], x[M:]
    grid = np.asarray(grid, dtype=float)

    if order >= 1:
        _check_derivs(model.derivs(0.0, y0, lam, order), order)
    rhs, z0, (ii, jj) = _augmented_system(model, lam, y0, order=order)
    traj = integrate(OdeProblem(rhs=rhs, y0=z0, output_grid=grid), tol or Tolerances())

    T, n_s = grid.size, (N + M) * M
    vals = traj.values
    s_raw = r_raw = None
    if order >= 1:
        block = vals[:, M:M + n_s].reshape(T, N + M, M)
        s_raw = np.concatenate([block[:, N:], block[:, :N]], axis=1)  # canonical order
    if order >= 2:
        tri = vals[:, M + n_s:].reshape(T, len(ii), M)
        r_raw = np.zeros((T, N, N, M))
        r_raw[:, ii, jj, :] = tri
        r_raw[:, jj, ii, :] = tri
    return SensitivityResult(
        times=traj.times, state=vals[:, :M],
        param_names=model.param_names, init_names=model.init_names,
        s_raw=s_raw, r_raw=r_raw,
    )


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------
#
# Each central difference integrates its (+h, -h) pair as one stacked system
# so both halves share the adaptive step sequence: the truncation errors of
# the two runs then cancel in the difference, which matters because the
# difference signal can be orders of magnitude below the state itself.

#: Default tolerances of the finite-difference oracles: tighter than
#: ``Tolerances()``, so that integration error stays negligible against
#: their cross-check tolerances.
FD_TOLERANCES = Tolerances(rel_tol=1e-8, abs_tol=1e-10)


def _central_differences(model, params, grid, rows, rel_step, tol, *, order=0):
    """Central differences of the augmented state over canonical positions.

    For each canonical position i in ``rows`` (x = initial values, then
    dynamic parameters), runs x +- h e_i as one stacked system and returns
    the difference quotients of the order-``order`` augmented state,
    indexed [time, row, augmented component].
    """
    M = model.dim
    x = _values(params, model.canonical_order)
    grid = np.asarray(grid, dtype=float)
    dim = _augmented_system(model, x[M:], x[:M], order=order)[1].size
    out = np.empty((grid.size, len(rows), dim))
    for row, i in enumerate(rows):
        h = rel_step * abs(x[i]) if x[i] != 0.0 else rel_step
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rhs_p, z0_p, _ = _augmented_system(model, xp[M:], xp[:M], order=order)
        rhs_m, z0_m, _ = _augmented_system(model, xm[M:], xm[:M], order=order)

        def rhs(t, z):
            return np.concatenate([rhs_p(t, z[:dim]), rhs_m(t, z[dim:])])

        traj = integrate(
            OdeProblem(rhs=rhs, y0=np.concatenate([z0_p, z0_m]), output_grid=grid),
            tol or FD_TOLERANCES,
        )
        out[:, row] = (traj.values[:, :dim] - traj.values[:, dim:]) / (2.0 * h)
    return out


def fd_first_order(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-5, tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference estimate of S from pairs of perturbed state runs.

    Covers the dynamic parameters only: indexed [time, parameter, state]
    over ``param_names``.
    """
    M = model.dim
    return _central_differences(model, params, grid, range(M, M + model.n_params),
                                rel_step, tol)


def fd_initial_condition(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-5, tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference estimate of the initial-condition sensitivity."""
    return _central_differences(model, params, grid, range(model.dim), rel_step, tol)


def second_order_fd(
    model: ModelSpec, params, grid,
    rel_step: float = 1e-4, tol: Tolerances | None = None,
) -> SensitivityResult:
    """Estimate R by central differences of first-order runs (approximate).

    The independent oracle against the analytic second-order path; a model
    without second partials gets no R from :func:`analyze` (it raises
    MissingDerivative), not this estimate.
    """
    N, M = model.n_params, model.dim
    tol = tol or FD_TOLERANCES
    base = analyze(model, params, grid, order=1, tol=tol)
    diff = _central_differences(model, params, grid, range(M, M + N), rel_step, tol, order=1)
    r = diff[:, :, M:M + N * M].reshape(-1, N, N, M)
    r = 0.5 * (r + r.transpose(0, 2, 1, 3))  # enforce Schwarz symmetry
    return dc_replace(base, r_raw=r, r_approximate=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(result: SensitivityResult, params) -> SensitivityResult:
    """Scale raw sensitivities to relative ones: S~ = S * lambda / y(t).

    lambda runs over the canonical order, so an initial-condition row is
    scaled by its initial value; R is scaled by lambda_i * lambda_j over
    the dynamic parameters. Points with |y_k(t)| < NORMALIZATION_FLOOR are
    flagged in ``degenerate`` and set to NaN; dynamic parameters whose value
    is exactly zero produce identically-zero rows and are listed in
    ``zero_params``.
    """
    values = _values(params, result.init_names + result.param_names)
    lam = values[len(result.init_names):]

    y = result.state  # (T, M)
    degenerate = np.abs(y) < NORMALIZATION_FLOOR
    safe_y = np.where(degenerate, 1.0, y)

    def _scale(raw, factors):
        if raw is None:
            return None
        rel = raw * factors / safe_y[(slice(None),) + (None,) * (raw.ndim - 2)]
        mask = np.broadcast_to(
            degenerate[(slice(None),) + (None,) * (raw.ndim - 2)], rel.shape
        )
        return np.where(mask, np.nan, rel)

    s_rel = _scale(result.s_raw, values[None, :, None])
    r_rel = _scale(result.r_raw, lam[None, :, None, None] * lam[None, None, :, None])
    zero = tuple(n for n, v in zip(result.param_names, lam) if v == 0.0)
    return dc_replace(result, s_rel=s_rel, r_rel=r_rel,
                      degenerate=degenerate, zero_params=zero)
