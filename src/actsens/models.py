"""Muscle activation dynamics models with analytic first and second partials.

Two activation models are built in: a linear one with a deactivation boost
(``zajac_*``) and a nonlinear, length-dependent one (``hatze_*``). Both are
scalar ODEs for the activity q driven by a constant stimulation sigma. Every
right-hand side comes with closed-form partial derivatives with respect to
the state and all parameters, which is what the sensitivity machinery in
:mod:`actsens.localsens` consumes.

All formula functions broadcast over numpy arrays, so the same code serves
scalar evaluation, batched ensembles (array-valued parameter fields), and
length sweeps in the optimizer. The static formulas (``hatze_rho``,
``hatze_q_of_gamma``, ``force_length_relative``) check their input and then
call a private unchecked twin (leading underscore), which callers whose
input is already checked use directly.

``zajac_partials`` and ``hatze_partials`` return ``(f, grad, hess)`` at one
scalar point: the rhs value, its gradient and its Hessian as numpy arrays
indexed by the model's variables ``ZAJAC_VARS``/``HATZE_VARS`` (index 0 is
the state q, then the parameters in ``*_PARAM_NAMES`` order). The Hessian is
exactly symmetric: each entry below the diagonal is a copy of its mirror.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DegenerateState, DomainViolation, PoleViolation

__all__ = [
    "ParameterSet",
    "ZajacParams",
    "HatzeParams",
    "ForceLengthRelation",
    "ModelDerivs",
    "ModelSpec",
    "zajac_rhs",
    "zajac_partials",
    "zajac_steady_state",
    "hatze_rho",
    "hatze_q_of_gamma",
    "hatze_gamma_of_q",
    "hatze_rhs",
    "hatze_partials",
    "hatze_steady_state",
    "simplified_zajac_solution",
    "simplified_zajac_sensitivities",
    "force_length",
    "force_length_relative",
    "zajac_model",
    "hatze_model",
    "simplified_zajac_model",
]

#: Domain guard half-width for the Hatze activity (non-Lipschitz boundaries).
HATZE_EPS = 1e-12


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSet:
    """Named parameter values."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.names),):
            raise ValueError("values must align with names")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, float], order: tuple[str, ...] | None = None):
        names = tuple(order) if order is not None else tuple(mapping)
        return cls(names=names, values=np.array([mapping[n] for n in names]))

    def value(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def values_for(self, names: tuple[str, ...]) -> np.ndarray:
        return np.array([self.value(n) for n in names])

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    def with_value(self, name: str, value: float) -> "ParameterSet":
        vals = self.values.copy()
        vals[self.names.index(name)] = value
        return ParameterSet(self.names, vals)


@dataclass
class ZajacParams:
    """Parameters of the linear activation dynamics with deactivation boost."""

    sigma: float
    q0: float = 0.005
    tau: float = 0.025
    beta: float = 1.0
    q_init: float = 0.005

    def validate(self) -> None:
        if not 0.0 <= self.q0 < 1.0:
            raise ValueError(f"q0 must lie in [0, 1), got {self.q0}")
        if not self.q0 <= self.q_init <= 1.0:
            raise ValueError(f"q_init must lie in [q0, 1], got {self.q_init}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")

    @functools.cached_property
    def rate_factors(self) -> tuple:
        """Parameter-only factors of :func:`zajac_rhs`, computed on first use.

        ``(sigma(1-q0), sigma(1-beta), tau(1-q0))``. They are kept for the
        object's lifetime, so its fields must not change after its rhs has
        been evaluated.
        """
        return (self.sigma * (1.0 - self.q0), self.sigma * (1.0 - self.beta),
                self.tau * (1.0 - self.q0))


@dataclass
class HatzeParams:
    """Parameters of the nonlinear, length-dependent activation dynamics.

    rho_c merges the calcium ceiling into the length-dependency scale
    (rho_c = rho_0 * c). The relative CE length must stay below the pole
    ell_rho of the length-dependency function.
    """

    sigma: float
    q0: float = 0.005
    m: float = 10.0
    rho_c: float = 7.24
    nu: float = 3.0
    ell_rho: float = 2.9
    ell_ce_rel: float = 1.0
    q_init: float = 0.01

    def validate(self) -> None:
        if not 0.0 < self.q0 < 1.0:
            raise ValueError(f"q0 must lie in (0, 1), got {self.q0}")
        if not self.q0 < self.q_init < 1.0:
            raise ValueError(
                f"q_init must lie strictly in (q0, 1), got {self.q_init} with q0={self.q0}"
            )
        if not self.nu > 1.0:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if not 0.0 < self.ell_ce_rel < self.ell_rho:
            raise PoleViolation(
                f"ell_ce_rel must lie in (0, ell_rho), got {self.ell_ce_rel}"
            )
        if not self.m > 0.0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.rho_c > 0.0:
            raise ValueError(f"rho_c must be positive, got {self.rho_c}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")

    @functools.cached_property
    def rate_factors(self) -> tuple:
        """Parameter-only factors of :func:`hatze_rhs`, computed on first use.

        ``(q0 + eps, sigma*rho, 1 + 1/nu, 1 - 1/nu, nu*m/(1-q0))`` with rho
        from :func:`hatze_rho`, so a CE length outside (0, ell_rho) raises
        PoleViolation on every access. They are kept for the object's
        lifetime, so its fields must not change after its rhs has been
        evaluated.
        """
        rho = hatze_rho(self.ell_ce_rel, self.rho_c, self.ell_rho)
        return (self.q0 + HATZE_EPS, self.sigma * rho, 1.0 + 1.0 / self.nu,
                1.0 - 1.0 / self.nu, self.nu * self.m / (1.0 - self.q0))


# ---------------------------------------------------------------------------
# partials as arrays: (value, gradient, Hessian) over a model's VARS
# ---------------------------------------------------------------------------


def _product(a, b):
    """Partials of A*B from the factors' (value, gradient, Hessian) triples.

    A Hessian is None when second partials are not wanted. The product's
    Hessian is filled from its upper triangle, so it is exactly symmetric.
    """
    (av, ag, aH), (bv, bg, bH) = a, b
    if aH is None:
        return av * bv, ag * bv + av * bg, None
    H = aH * bv + ag[:, None] * bg + bg[:, None] * ag + av * bH
    lower = _lower_triangle(len(ag))
    H[lower] = H.T[lower]
    return av * bv, ag * bv + av * bg, H


@functools.cache
def _lower_triangle(n: int):
    # np.tril_indices costs more than the whole product rule; build it once
    return np.tril_indices(n, -1)


# ---------------------------------------------------------------------------
# linear model (activation time constant + deactivation boost)
# ---------------------------------------------------------------------------

ZAJAC_VARS = ("q", "sigma", "q0", "tau", "beta")


def zajac_rhs(q, p: ZajacParams):
    """Activity rate: [sigma(1-q0) - sigma(1-beta)(q-q0) - beta(q-q0)] / (tau(1-q0))."""
    sigma_free, sigma_boost, tau_free = p.rate_factors
    u = q - p.q0
    return (sigma_free - sigma_boost * u - p.beta * u) / tau_free


def zajac_partials(q: float, p: ZajacParams, second: bool = True):
    """Value, gradient and Hessian of the linear model's rhs over ZAJAC_VARS.

    The rhs factors as A(tau, q0) * G(q, sigma, q0, beta) with
    A = 1/(tau(1-q0)); the partials are assembled by the product rule.
    Returns ``(f, grad, hess)`` with grad[i] = df/dx_i and the symmetric
    hess[i, j] = d2f/(dx_i dx_j), x = ZAJAC_VARS; hess is None unless
    ``second``.
    """
    Q, SIGMA, Q0, TAU, BETA = range(5)  # positions in ZAJAC_VARS
    A = 1.0 / (p.tau * (1.0 - p.q0))
    s = p.sigma * (1.0 - p.beta) + p.beta
    u = q - p.q0
    G = p.sigma * (1.0 - p.q0) - s * u

    a1, g1 = np.zeros(5), np.zeros(5)
    a1[TAU] = -A / p.tau
    a1[Q0] = A / (1.0 - p.q0)
    g1[Q] = -s
    g1[SIGMA] = (1.0 - p.q0) - (1.0 - p.beta) * u
    g1[Q0] = -p.sigma + s
    g1[BETA] = u * (p.sigma - 1.0)
    a2 = g2 = None
    if second:
        a2, g2 = np.zeros((5, 5)), np.zeros((5, 5))
        a2[TAU, TAU] = 2.0 * A / p.tau**2
        a2[Q0, TAU] = a2[TAU, Q0] = -A / (p.tau * (1.0 - p.q0))
        a2[Q0, Q0] = 2.0 * A / (1.0 - p.q0) ** 2
        g2[Q, SIGMA] = g2[SIGMA, Q] = -(1.0 - p.beta)
        g2[BETA, Q] = g2[Q, BETA] = p.sigma - 1.0
        g2[Q0, SIGMA] = g2[SIGMA, Q0] = -p.beta
        g2[BETA, SIGMA] = g2[SIGMA, BETA] = u
        g2[BETA, Q0] = g2[Q0, BETA] = 1.0 - p.sigma
    return _product((A, a1, a2), (G, g1, g2))


def zajac_steady_state(p: ZajacParams) -> float:
    """Saturation level q0 + (1-q0)/((1-beta) + beta/sigma); q0 for sigma = 0."""
    if p.sigma == 0.0:
        return p.q0
    return p.q0 + (1.0 - p.q0) / ((1.0 - p.beta) + p.beta / p.sigma)


# ---------------------------------------------------------------------------
# nonlinear length-dependent model
# ---------------------------------------------------------------------------

HATZE_VARS = ("q", "sigma", "q0", "m", "rho_c", "nu", "ell_rho", "ell_CErel")


def _checked_length(ell_ce_rel, ell_rho) -> np.ndarray:
    """Relative CE length as an array; PoleViolation outside (0, ell_rho)."""
    ell = np.asarray(ell_ce_rel, dtype=float)
    if np.any(ell <= 0.0) or np.any(ell >= ell_rho):
        raise PoleViolation(
            f"ell_ce_rel must lie in (0, {ell_rho}), got {ell_ce_rel}"
        )
    return ell


def _hatze_rho(ell, rho_c, ell_rho):
    # unchecked formula behind hatze_rho
    return rho_c * (ell_rho - 1.0) / (ell_rho / ell - 1.0)


def hatze_rho(ell_ce_rel, rho_c, ell_rho):
    """Length dependency rho_c (ell_rho - 1) / (ell_rho/ell - 1); pole at ell_rho."""
    out = _hatze_rho(_checked_length(ell_ce_rel, ell_rho), rho_c, ell_rho)
    return float(out) if np.isscalar(ell_ce_rel) else out


def _hatze_q_of_gamma(gamma, ell, p: HatzeParams):
    # unchecked formula behind hatze_q_of_gamma
    x = (_hatze_rho(ell, p.rho_c, p.ell_rho) * gamma) ** p.nu
    return (p.q0 + x) / (1.0 + x)


def hatze_q_of_gamma(gamma, ell_ce_rel, p: HatzeParams):
    """Activity from normalized free-calcium concentration via the nu-power saturation."""
    out = _hatze_q_of_gamma(np.asarray(gamma, dtype=float),
                            _checked_length(ell_ce_rel, p.ell_rho), p)
    return float(out) if np.isscalar(gamma) and np.isscalar(ell_ce_rel) else out


def hatze_gamma_of_q(q, ell_ce_rel, p: HatzeParams):
    """Exact inverse of the activity map; used to start both integration paths consistently."""
    q = np.asarray(q, dtype=float)
    if np.any(q < p.q0) or np.any(q >= 1.0):
        raise DomainViolation(f"q must lie in [q0, 1), got {q}")
    rho = hatze_rho(ell_ce_rel, p.rho_c, p.ell_rho)
    out = ((q - p.q0) / (1.0 - q)) ** (1.0 / p.nu) / rho
    return float(out) if out.ndim == 0 else out


def _clamp_q(q, floor):
    # floor is q0 + HATZE_EPS
    return np.minimum(np.maximum(q, floor), 1.0 - HATZE_EPS)


def hatze_rhs(q, p: HatzeParams):
    """Activity rate of the nonlinear model.

    The activity is clamped to [q0 + eps, 1 - eps] before the fractional
    powers are taken, which keeps the rhs real when an integrator stage
    overshoots one of the non-Lipschitz boundary fixed points.
    """
    q_floor, sigma_rho, a, b, gain = p.rate_factors
    qc = _clamp_q(q, q_floor)
    free = 1.0 - qc
    excess = qc - p.q0
    out = gain * (sigma_rho * free ** a * excess ** b - free * excess)
    return float(out) if np.isscalar(q) else out


def hatze_partials(q: float, p: HatzeParams, second: bool = True):
    """Value, gradient and Hessian of the nonlinear model's rhs over HATZE_VARS.

    The rhs factors as K(q0, m, nu) * (P(sigma, rho_c, ell_rho, ell) * W(q, q0, nu)
    - V(q, q0)); each factor's partials are closed-form and the product rule
    assembles them. The log terms from differentiating the nu-dependent
    exponents are included. Returns ``(f, grad, hess)`` as
    :func:`zajac_partials` does, over x = HATZE_VARS.
    """
    q = float(_clamp_q(q, p.q0 + HATZE_EPS))
    sig, q0, m, rc, nu, lr, ell = (
        p.sigma, p.q0, p.m, p.rho_c, p.nu, p.ell_rho, p.ell_ce_rel,
    )
    if not 0.0 < ell < lr:
        raise PoleViolation(f"ell_ce_rel must lie in (0, {lr}), got {ell}")
    Q, SIGMA, Q0, M, RHO_C, NU, ELL_RHO, ELL = range(8)  # positions in HATZE_VARS
    k1, p1, w1, v1 = (np.zeros(8) for _ in range(4))
    k2 = p2 = w2 = v2 = None
    if second:
        k2, p2, w2, v2 = (np.zeros((8, 8)) for _ in range(4))

    K = nu * m / (1.0 - q0)
    k1[Q0] = K / (1.0 - q0)
    k1[M] = K / m
    k1[NU] = K / nu
    if second:
        k2[Q0, Q0] = 2.0 * K / (1.0 - q0) ** 2
        k2[M, Q0] = k2[Q0, M] = nu / (1.0 - q0) ** 2
        k2[NU, Q0] = k2[Q0, NU] = m / (1.0 - q0) ** 2
        k2[M, NU] = k2[NU, M] = 1.0 / (1.0 - q0)

    dl = lr - ell
    P = sig * rc * (lr - 1.0) * ell / dl
    p1[SIGMA] = rc * (lr - 1.0) * ell / dl
    p1[RHO_C] = sig * (lr - 1.0) * ell / dl
    p1[ELL_RHO] = sig * rc * ell * (1.0 - ell) / dl**2
    p1[ELL] = sig * rc * (lr - 1.0) * lr / dl**2
    if second:
        p2[RHO_C, SIGMA] = p2[SIGMA, RHO_C] = (lr - 1.0) * ell / dl
        p2[ELL_RHO, SIGMA] = p2[SIGMA, ELL_RHO] = rc * ell * (1.0 - ell) / dl**2
        p2[ELL, SIGMA] = p2[SIGMA, ELL] = rc * (lr - 1.0) * lr / dl**2
        p2[ELL_RHO, RHO_C] = p2[RHO_C, ELL_RHO] = sig * ell * (1.0 - ell) / dl**2
        p2[ELL, RHO_C] = p2[RHO_C, ELL] = sig * (lr - 1.0) * lr / dl**2
        p2[ELL_RHO, ELL_RHO] = -2.0 * sig * rc * ell * (1.0 - ell) / dl**3
        p2[ELL, ELL_RHO] = p2[ELL_RHO, ELL] = (
            sig * rc * (lr + ell - 2.0 * ell * lr) / dl**3)
        p2[ELL, ELL] = 2.0 * sig * rc * (lr - 1.0) * lr / dl**3

    a = 1.0 + 1.0 / nu
    b = 1.0 - 1.0 / nu
    om = 1.0 - q
    dq = q - q0
    L1 = math.log(om)
    L2 = math.log(dq)
    W = om**a * dq**b
    g = -a / om + b / dq
    g_q = -a / om**2 - b / dq**2
    g_nu = (1.0 / om + 1.0 / dq) / nu**2
    W_nu = W * (L2 - L1) / nu**2
    w1[Q] = W * g
    w1[Q0] = -b * W / dq
    w1[NU] = W_nu
    if second:
        w2[Q, Q] = W * (g * g + g_q)
        w2[Q, Q0] = w2[Q0, Q] = W * b * (1.0 / dq**2 - g / dq)
        w2[NU, Q] = w2[Q, NU] = W_nu * g + W * g_nu
        w2[Q0, Q0] = W * b * (b - 1.0) / dq**2
        w2[NU, Q0] = w2[Q0, NU] = -(W / dq) * (1.0 + b * (L2 - L1)) / nu**2
        w2[NU, NU] = W * (L2 - L1) / nu**3 * ((L2 - L1) / nu - 2.0)

    # V = (1-q)(q-q0)
    V = om * dq
    v1[Q] = 1.0 - 2.0 * q + q0
    v1[Q0] = -om
    if second:
        v2[Q, Q] = -2.0
        v2[Q, Q0] = v2[Q0, Q] = 1.0

    pw, pw1, pw2 = _product((P, p1, p2), (W, w1, w2))
    G = (pw - V, pw1 - v1, pw2 - v2 if second else None)
    return _product((K, k1, k2), G)


def hatze_steady_state(p: HatzeParams) -> float:
    """Fixed point of the nonlinear model; gamma equals sigma in the isometric case."""
    return float(hatze_q_of_gamma(p.sigma, p.ell_ce_rel, p))


# ---------------------------------------------------------------------------
# simplified linear model (beta = 1, q0 = 0): closed-form oracle
# ---------------------------------------------------------------------------


def simplified_zajac_solution(t, sigma: float, tau: float, q_init: float):
    """Closed-form activity sigma(1 - e^(-t/tau)) + q_init e^(-t/tau)."""
    decay = np.exp(-np.asarray(t, dtype=float) / tau)
    out = sigma * (1.0 - decay) + q_init * decay
    return float(out) if np.isscalar(t) else out


def simplified_zajac_sensitivities(t, sigma: float, tau: float, q_init: float):
    """Closed-form relative sensitivities of the simplified model.

    Returns a dict keyed 'sigma', 'tau', 'q_Z0'. The stimulation and
    initial-condition shares always sum to one.
    """
    t = np.asarray(t, dtype=float)
    growth = np.expm1(t / tau)  # e^(t/tau) - 1
    den = sigma * growth + q_init
    if np.any(den == 0.0):
        raise DegenerateState(
            "relative sensitivities are undefined where sigma*(e^(t/tau)-1) + q_init = 0"
        )
    s_sigma = sigma * growth / den
    s_tau = t * (q_init - sigma) / (tau * den)
    s_init = q_init / den
    if t.ndim == 0:
        return {"sigma": float(s_sigma), "tau": float(s_tau), "q_Z0": float(s_init)}
    return {"sigma": s_sigma, "tau": s_tau, "q_Z0": s_init}


# ---------------------------------------------------------------------------
# force-length relations for the isometric-force model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceLengthRelation:
    """Normalized force-length relation, parabola or bell-shaped.

    ``width`` is the parabola half-width at zero force or the bell width of
    both branches. Lengths are in millimetres; the curve equals 1 at the
    optimal CE length.
    """

    kind: str
    width: float
    nu_asc: float = 3.0
    nu_des: float = 1.5
    ell_opt: float = 14.8
    f_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("parabola", "bell"):
            raise ValueError(f"kind must be 'parabola' or 'bell', got {self.kind!r}")
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        if not (self.nu_asc > 0.0 and self.nu_des > 0.0):
            raise ValueError("bell exponents must be positive")
        if not self.ell_opt > 0.0:
            raise ValueError(f"ell_opt must be positive, got {self.ell_opt}")


def _force_length_relative(ell_rel, rel: ForceLengthRelation):
    # unchecked formula behind force_length_relative
    delta = ell_rel - 1.0
    if rel.kind == "parabola":
        return np.maximum(0.0, 1.0 - (delta / rel.width) ** 2)
    exponent = np.where(ell_rel <= 1.0, rel.nu_asc, rel.nu_des)
    return np.exp(-((np.abs(delta) / rel.width) ** exponent))


def force_length_relative(ell_rel, rel: ForceLengthRelation):
    """Evaluate the force-length relation at relative CE length (value in [0, 1])."""
    out = _force_length_relative(np.asarray(ell_rel, dtype=float), rel)
    return float(out) if out.ndim == 0 else out


def force_length(ell_ce, rel: ForceLengthRelation):
    """Evaluate the force-length relation at absolute CE length in mm."""
    ell_ce = np.asarray(ell_ce, dtype=float)
    if np.any(ell_ce <= 0.0):
        raise ValueError("ell_ce must be positive")
    out = force_length_relative(ell_ce / rel.ell_opt, rel)
    return float(out) if np.isscalar(out) or np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# model specifications for the sensitivity machinery
# ---------------------------------------------------------------------------


@dataclass
class ModelDerivs:
    """Right-hand side and its derivative blocks at one (t, y, lam) point.

    Index conventions: jac_y[k, l] = df_k/dy_l, jac_p[i, k] = df_k/dlam_i,
    hess_yy[k, l1, l2], hess_py[i, k, l], hess_pp[i, j, k].
    """

    f: np.ndarray
    jac_y: np.ndarray | None = None
    jac_p: np.ndarray | None = None
    hess_yy: np.ndarray | None = None
    hess_py: np.ndarray | None = None
    hess_pp: np.ndarray | None = None


@dataclass(frozen=True)
class ModelSpec:
    """An ODE system bundled with the derivative information it can supply.

    ``param_names`` are the dynamic parameters (sensitivity targets);
    ``init_names`` name the initial condition of each state component, in
    state order. The canonical full parameter order of a model is
    init_names + param_names.
    """

    name: str
    param_names: tuple[str, ...]
    init_names: tuple[str, ...]
    derivs: Callable[[float, np.ndarray, np.ndarray, int], ModelDerivs]
    state_names: tuple[str, ...] = ("q",)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def dim(self) -> int:
        return len(self.init_names)

    @property
    def canonical_order(self) -> tuple[str, ...]:
        return self.init_names + self.param_names


def _partials_to_derivs(partials) -> ModelDerivs:
    """Slice a scalar model's (f, grad, hess) over (q, *params) into ModelDerivs blocks."""
    f, g, H = partials
    d = ModelDerivs(f=np.array([f]), jac_y=g[:1, None], jac_p=g[1:, None])
    if H is not None:
        d.hess_yy, d.hess_py, d.hess_pp = H[:1, :1, None], H[1:, :1, None], H[1:, 1:, None]
    return d


ZAJAC_PARAM_NAMES = ZAJAC_VARS[1:]
HATZE_PARAM_NAMES = HATZE_VARS[1:]
SIMPLIFIED_PARAM_NAMES = ("sigma", "tau")


def zajac_model() -> ModelSpec:
    """ModelSpec for the linear activation dynamics."""

    def derivs(t, y, lam, order):
        p = ZajacParams(sigma=lam[0], q0=lam[1], tau=lam[2], beta=lam[3],
                        q_init=float(y[0]))
        if order == 0:
            return ModelDerivs(f=np.array([zajac_rhs(float(y[0]), p)]))
        return _partials_to_derivs(zajac_partials(float(y[0]), p, second=order >= 2))

    return ModelSpec(
        name="zajac", param_names=ZAJAC_PARAM_NAMES, init_names=("q_Z0",),
        derivs=derivs,
    )


def hatze_model() -> ModelSpec:
    """ModelSpec for the nonlinear length-dependent activation dynamics."""

    def derivs(t, y, lam, order):
        p = HatzeParams(
            sigma=lam[0], q0=lam[1], m=lam[2], rho_c=lam[3], nu=lam[4],
            ell_rho=lam[5], ell_ce_rel=lam[6], q_init=float(y[0]),
        )
        if order == 0:
            return ModelDerivs(f=np.array([hatze_rhs(float(y[0]), p)]))
        return _partials_to_derivs(hatze_partials(float(y[0]), p, second=order >= 2))

    return ModelSpec(
        name="hatze", param_names=HATZE_PARAM_NAMES, init_names=("q_H0",),
        derivs=derivs,
    )


def simplified_zajac_model() -> ModelSpec:
    """ModelSpec for the simplified linear dynamics (beta = 1, q0 = 0).

    Its blocks are the linear model's at beta = 1, q0 = 0, restricted to the
    variables (q, sigma, tau).
    """
    keep = [ZAJAC_VARS.index(v) for v in ("q",) + SIMPLIFIED_PARAM_NAMES]

    def derivs(t, y, lam, order):
        p = ZajacParams(sigma=lam[0], q0=0.0, tau=lam[1], beta=1.0, q_init=float(y[0]))
        if order == 0:
            return ModelDerivs(f=np.array([zajac_rhs(float(y[0]), p)]))
        f, g, H = zajac_partials(float(y[0]), p, second=order >= 2)
        return _partials_to_derivs((f, g[keep], None if H is None else H[np.ix_(keep, keep)]))

    return ModelSpec(
        name="simplified-zajac", param_names=SIMPLIFIED_PARAM_NAMES,
        init_names=("q_Z0",), derivs=derivs,
    )
