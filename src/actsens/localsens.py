"""First- and second-order sensitivities of ODE models.

The initial conditions are parameters like any other: the first-order block
holds one row per entry of ``model.canonical_order`` (initial conditions
first, then the dynamic parameters). The state is augmented with the
sensitivity equations and everything is integrated in a single pass, so the
sensitivities see exactly the adaptive step sequence of the state itself.
Augmented layout: state, the first-order rows in canonical order (those of
the initial conditions, then those of the dynamic parameters), then the
upper triangle of the second-order tensor over the dynamic parameters.

Relative (normalized) sensitivities express percentage change of a state
component per percentage change of a parameter; they are produced by
:func:`normalize` and are undefined where the state magnitude falls below
the normalization floor (flagged, not dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Mapping

import numpy as np

from .errors import MissingDerivative, NonFiniteState
from .models import ModelSpec, _Domain, _upper_mirror, in_domain
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

    ``point`` holds the analyzed point's values over the canonical order
    ``init_names + param_names``. ``s_raw`` is indexed [time, parameter,
    state] over that order, so ``s_raw[:, :M]`` is the sensitivity to the M
    initial values; ``r_raw`` is indexed [time, parameter, parameter,
    state] over ``param_names`` and is symmetric. ``*_rel`` fields are
    filled by :func:`normalize`; ``degenerate`` marks time/state points
    where normalization was undefined.
    """

    times: np.ndarray
    state: np.ndarray
    param_names: tuple[str, ...]
    init_names: tuple[str, ...]
    point: np.ndarray  # (M + N,)
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


def _augmented_system(model: ModelSpec, x, *, order):
    """Rhs, initial vector and R rows' ``mirror`` (see ``_upper_mirror``) of the
    stacked system at the canonical point x, once x passes :func:`analyze`'s checks."""
    M, N = model.dim, model.n_params
    y0, lam = x[:M], x[M:]
    if model.params_of is not None:
        model.params_of(*x).validate()
    if order >= 1:
        # A time constant near the float range's end overflows the rate
        # factors' Hessian (it grows like 1/tau^3) even at order 1, where it
        # is discarded. This call caches the point's factors for the solve,
        # so a non-finite result is reported once, here, without warnings.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            start = model.derivs(0.0, y0, lam, order)
        if start[1] is None:
            raise MissingDerivative("model does not supply first partials (grad)")
        if order >= 2 and start[2] is None:
            raise MissingDerivative("model does not supply second partials (hess)")
        if not all(np.isfinite(a).all() for a in start[:order + 1]):
            point = ", ".join(f"{n}={float(v)!r}" for n, v in zip(model.canonical_order, x))
            raise NonFiniteState(f"rhs or its partials are non-finite at t=0.0 for {point}")
    (ii, jj), mirror = _upper_mirror(N)
    n_s = (N + M) * M if order >= 1 else 0
    n_r = ii.size * M if order >= 2 else 0
    # the upper triangle's flat positions in an (M, N, N) block, as (pairs, M)
    upper = (ii * N + jj)[:, None] + N * N * np.arange(M)
    # W[i] = dx/dlam_i = (S_i, e_i): the e_i half is fixed, S is copied in per call
    W = np.zeros((N, M + N))
    W[:, M:] = np.eye(N)
    W_s, W_T = W[:, :M], W.T
    # The rhs reads its input through views of one private copy, and its
    # result is product + forcing: the S and R rows times J^T in
    # ``product``, whose state entries stay 0, and f and each row's forcing
    # in ``forcing``, whose initial-value rows stay 0. One add writes the
    # sum into ``out``; every view is built here, once per system.
    z, product, forcing = (np.zeros(M + n_s + n_r) for _ in range(3))
    y = z[:M]
    # the S rows in canonical order, initial values first, then the R rows
    z_rows, product_rows, forcing_rows = (a[M:].reshape(-1, M) for a in (z, product, forcing))
    forcing_f, forcing_s_T = forcing[:M], forcing_rows[M:M + N].T  # (M,), (M, N)
    z_s, forcing_r = z_rows[M:M + N], forcing_rows[N + M:]  # the latter (ii.size, M) at order 2

    def rhs(t, z_in, out):
        z[...] = z_in
        f, grad, hess = model.derivs(t, y, lam, order)
        forcing_f[...] = f
        if order >= 1:
            # every S and R row solves d(row)/dt = row J^T + its forcing; at
            # M = 1 the dot multiplies by the scalar J, the matmul's bits
            np.dot(z_rows, grad[:, :M].T, out=product_rows)
            forcing_s_T[...] = grad[:, M:]
        if order >= 2:
            # the forcing of R_ij is W_i^T H W_j; every index is in range,
            # and "clip" skips the buffered copy that "raise" makes
            W_s[...] = z_s
            (W @ hess @ W_T).take(upper, out=forcing_r, mode="clip")
        np.add(product, forcing, out=out)

    z0 = np.zeros(z.size)
    z0[:M] = y0
    if order >= 1:
        z0[M:M + M * M] = np.eye(M).ravel()
    return rhs, z0, mirror


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
    lacks the partials an order needs raises MissingDerivative, and one
    whose rhs or needed partials are non-finite at the start point
    NonFiniteState; any other order, or params that lack a name of the
    canonical order, ValueError. A point of a model with ``params_of`` (the
    built-ins) is range-checked before the solve: one outside the declared
    domain raises ParameterOutOfRange, or PoleViolation past hatze's pole.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    M, N = model.dim, model.n_params
    x = _values(params, model.canonical_order)
    rhs, z0, mirror = _augmented_system(model, x, order=order)
    grid = np.asarray(grid, dtype=float)
    traj = integrate(OdeProblem(rhs=rhs, y0=z0, output_grid=grid), tol or Tolerances())

    T, n_s = grid.size, (N + M) * M
    vals = traj.values
    s_raw = r_raw = None
    if order >= 1:
        s_raw = vals[:, M:M + n_s].reshape(T, N + M, M)
    if order >= 2:
        r_raw = vals[:, M + n_s:].reshape(T, -1, M)[:, mirror]
    return SensitivityResult(
        times=traj.times, state=vals[:, :M],
        param_names=model.param_names, init_names=model.init_names, point=x,
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
    indexed [time, row, augmented component]. Each system is built by
    :func:`_augmented_system`, so it passes the checks that :func:`analyze`
    runs. Where x + h or x - h would leave the model's domain, joint
    constraints included (see :func:`~actsens.models.in_domain`), the pair is
    (x, x - 2h) or (x + 2h, x): at zajac's row (i), where q0 = q_Z0, q0 gets
    (q0, q0 - 2h) and q_Z0 gets (q_Z0 + 2h, q_Z0).
    """
    x = _values(params, model.canonical_order)
    grid = np.asarray(grid, dtype=float)
    diffs = []
    for i in rows:
        h = rel_step * abs(x[i]) if x[i] != 0.0 else rel_step
        xp, xm = x.copy(), x.copy()
        xp[i], xm[i] = x[i] + h, x[i] - h
        up, down = (model.params_of is None or bool(in_domain(model.params_of(*v)))
                    for v in (xp, xm))
        shift = h * (up - down)  # -h where x + h leaves the domain, h where x - h does
        xp[i], xm[i] = x[i] + (h + shift), x[i] - (h - shift)
        rhs_p, z0_p, _ = _augmented_system(model, xp, order=order)
        rhs_m, z0_m, _ = _augmented_system(model, xm, order=order)
        dim = z0_p.size

        def rhs(t, z, out):
            rhs_p(t, z[:dim], out[:dim])
            rhs_m(t, z[dim:], out[dim:])

        traj = integrate(
            OdeProblem(rhs=rhs, y0=np.concatenate([z0_p, z0_m]), output_grid=grid),
            tol or FD_TOLERANCES,
        )
        diffs.append((traj.values[:, :dim] - traj.values[:, dim:]) / (2.0 * h))
    return np.stack(diffs, axis=1)


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
    r = diff[:, :, M + M * M:M + (M + N) * M].reshape(-1, N, N, M)
    r = 0.5 * (r + r.transpose(0, 2, 1, 3))  # enforce Schwarz symmetry
    return dc_replace(base, r_raw=r, r_approximate=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(result: SensitivityResult) -> SensitivityResult:
    """Scale raw sensitivities to relative ones: S~ = S * lambda / y(t).

    lambda is ``result.point``, the point the sensitivities were computed
    at, over the canonical order, so an initial-condition row is scaled by
    its initial value; R is scaled by lambda_i * lambda_j over the dynamic
    parameters. Points with |y_k(t)| < NORMALIZATION_FLOOR are flagged in
    ``degenerate`` and set to NaN; each entry of ``result.point`` that is
    exactly zero gives identically-zero rows and is listed, in canonical
    order, in ``zero_params``.
    """
    lam = result.point[len(result.init_names):]

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

    s_rel = _scale(result.s_raw, result.point[None, :, None])
    r_rel = _scale(result.r_raw, lam[None, :, None, None] * lam[None, None, :, None])
    names = result.init_names + result.param_names
    zero = tuple(n for n, v in zip(names, result.point) if v == 0.0)
    return dc_replace(result, s_rel=s_rel, r_rel=r_rel,
                      degenerate=degenerate, zero_params=zero)
