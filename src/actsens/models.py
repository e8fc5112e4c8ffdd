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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DegenerateState, DomainViolation, MissingDerivative, PoleViolation

__all__ = [
    "ParameterSet",
    "ZajacParams",
    "HatzeParams",
    "ForceLengthRelation",
    "PartialBundle",
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
    """Named parameter values with optional [lower, upper] bounds."""

    names: tuple[str, ...]
    values: np.ndarray
    bounds: Mapping[str, tuple[float, float]] | None = None

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
        return ParameterSet(self.names, vals, self.bounds)


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


# ---------------------------------------------------------------------------
# partial-derivative bundles
# ---------------------------------------------------------------------------


@dataclass
class PartialBundle:
    """Value of a right-hand side together with its partial derivatives.

    ``first`` is keyed by variable name ('q' plus the parameter names);
    ``second`` is keyed by sorted name pairs and completed symmetrically
    through :meth:`d2`.
    """

    value: float
    first: dict[str, float]
    second: dict[tuple[str, str], float] | None = None

    def d1(self, x: str) -> float:
        return self.first.get(x, 0.0)

    def d2(self, x: str, y: str) -> float:
        if self.second is None:
            raise MissingDerivative("second partials were not computed")
        if (x, y) in self.second:
            return self.second[(x, y)]
        return self.second.get((y, x), 0.0)


def _product_rule(names, aval, a1, a2, bval, b1, b2, second: bool):
    """Partials of A*B from the partials of the factors (missing keys are 0)."""
    val = aval * bval
    first = {
        x: a1.get(x, 0.0) * bval + aval * b1.get(x, 0.0) for x in names
    }
    if not second:
        return val, first, None
    d2 = {}
    for i, x in enumerate(names):
        for y in names[i:]:
            axy = a2.get((x, y), a2.get((y, x), 0.0))
            bxy = b2.get((x, y), b2.get((y, x), 0.0))
            d2[(x, y)] = (
                axy * bval
                + a1.get(x, 0.0) * b1.get(y, 0.0)
                + a1.get(y, 0.0) * b1.get(x, 0.0)
                + aval * bxy
            )
    return val, first, d2


# ---------------------------------------------------------------------------
# linear model (activation time constant + deactivation boost)
# ---------------------------------------------------------------------------

ZAJAC_VARS = ("q", "sigma", "q0", "tau", "beta")


def zajac_rhs(q, p: ZajacParams):
    """Activity rate: [sigma(1-q0) - sigma(1-beta)(q-q0) - beta(q-q0)] / (tau(1-q0))."""
    bracket = (
        p.sigma * (1.0 - p.q0)
        - p.sigma * (1.0 - p.beta) * (q - p.q0)
        - p.beta * (q - p.q0)
    )
    return bracket / (p.tau * (1.0 - p.q0))


def zajac_partials(q: float, p: ZajacParams, second: bool = True) -> PartialBundle:
    """All first (and optionally second) partials of the linear model's rhs.

    The rhs factors as A(tau, q0) * G(q, sigma, q0, beta) with
    A = 1/(tau(1-q0)); the bundle is assembled by the product rule.
    """
    A = 1.0 / (p.tau * (1.0 - p.q0))
    s = p.sigma * (1.0 - p.beta) + p.beta
    u = q - p.q0
    G = p.sigma * (1.0 - p.q0) - s * u

    a1 = {"tau": -A / p.tau, "q0": A / (1.0 - p.q0)}
    a2 = {
        ("tau", "tau"): 2.0 * A / p.tau**2,
        ("q0", "tau"): -A / (p.tau * (1.0 - p.q0)),
        ("q0", "q0"): 2.0 * A / (1.0 - p.q0) ** 2,
    }
    g1 = {
        "q": -s,
        "sigma": (1.0 - p.q0) - (1.0 - p.beta) * u,
        "q0": -p.sigma + s,
        "beta": u * (p.sigma - 1.0),
    }
    g2 = {
        ("q", "sigma"): -(1.0 - p.beta),
        ("beta", "q"): p.sigma - 1.0,
        ("q0", "sigma"): -p.beta,
        ("beta", "sigma"): u,
        ("beta", "q0"): 1.0 - p.sigma,
    }
    val, first, d2 = _product_rule(ZAJAC_VARS, A, a1, a2, G, g1, g2, second)
    return PartialBundle(value=val, first=first, second=d2)


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


def _clamp_q(q, p: HatzeParams):
    return np.minimum(np.maximum(q, p.q0 + HATZE_EPS), 1.0 - HATZE_EPS)


def hatze_rhs(q, p: HatzeParams, strict: bool = False):
    """Activity rate of the nonlinear model.

    The activity is clamped to [q0 + eps, 1 - eps] before the fractional
    powers are taken, which keeps the rhs real when an integrator stage
    overshoots one of the non-Lipschitz boundary fixed points. With
    ``strict=True`` an out-of-domain activity raises instead.
    """
    if strict and (np.any(np.asarray(q) <= p.q0) or np.any(np.asarray(q) >= 1.0)):
        raise DomainViolation(f"q must lie strictly in (q0, 1), got {q}")
    qc = _clamp_q(q, p)
    rho = hatze_rho(p.ell_ce_rel, p.rho_c, p.ell_rho)
    a = 1.0 + 1.0 / p.nu
    b = 1.0 - 1.0 / p.nu
    bracket = (
        p.sigma * rho * (1.0 - qc) ** a * (qc - p.q0) ** b
        - (1.0 - qc) * (qc - p.q0)
    )
    out = p.nu * p.m / (1.0 - p.q0) * bracket
    return float(out) if np.isscalar(q) else out


def hatze_partials(q: float, p: HatzeParams, second: bool = True) -> PartialBundle:
    """All first (and optionally second) partials of the nonlinear model's rhs.

    The rhs factors as K(q0, m, nu) * (P(sigma, rho_c, ell_rho, ell) * W(q, q0, nu)
    - V(q, q0)); each factor's partials are closed-form and the bundle is
    assembled by the product rule. The log terms from differentiating the
    nu-dependent exponents are included.
    """
    q = float(_clamp_q(q, p))
    sig, q0, m, rc, nu, lr, ell = (
        p.sigma, p.q0, p.m, p.rho_c, p.nu, p.ell_rho, p.ell_ce_rel,
    )
    if not 0.0 < ell < lr:
        raise PoleViolation(f"ell_ce_rel must lie in (0, {lr}), got {ell}")

    K = nu * m / (1.0 - q0)
    k1 = {"q0": K / (1.0 - q0), "m": K / m, "nu": K / nu}
    k2 = {
        ("q0", "q0"): 2.0 * K / (1.0 - q0) ** 2,
        ("m", "q0"): nu / (1.0 - q0) ** 2,
        ("nu", "q0"): m / (1.0 - q0) ** 2,
        ("m", "nu"): 1.0 / (1.0 - q0),
    }

    dl = lr - ell
    P = sig * rc * (lr - 1.0) * ell / dl
    p1 = {
        "sigma": rc * (lr - 1.0) * ell / dl,
        "rho_c": sig * (lr - 1.0) * ell / dl,
        "ell_rho": sig * rc * ell * (1.0 - ell) / dl**2,
        "ell_CErel": sig * rc * (lr - 1.0) * lr / dl**2,
    }
    p2 = {
        ("rho_c", "sigma"): (lr - 1.0) * ell / dl,
        ("ell_rho", "sigma"): rc * ell * (1.0 - ell) / dl**2,
        ("ell_CErel", "sigma"): rc * (lr - 1.0) * lr / dl**2,
        ("ell_rho", "rho_c"): sig * ell * (1.0 - ell) / dl**2,
        ("ell_CErel", "rho_c"): sig * (lr - 1.0) * lr / dl**2,
        ("ell_rho", "ell_rho"): -2.0 * sig * rc * ell * (1.0 - ell) / dl**3,
        ("ell_CErel", "ell_rho"): sig * rc * (lr + ell - 2.0 * ell * lr) / dl**3,
        ("ell_CErel", "ell_CErel"): 2.0 * sig * rc * (lr - 1.0) * lr / dl**3,
    }

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
    w1 = {"q": W * g, "q0": -b * W / dq, "nu": W_nu}
    w2 = {
        ("q", "q"): W * (g * g + g_q),
        ("q", "q0"): W * b * (1.0 / dq**2 - g / dq),
        ("nu", "q"): W_nu * g + W * g_nu,
        ("q0", "q0"): W * b * (b - 1.0) / dq**2,
        ("nu", "q0"): -(W / dq) * (1.0 + b * (L2 - L1)) / nu**2,
        ("nu", "nu"): W * (L2 - L1) / nu**3 * ((L2 - L1) / nu - 2.0),
    }

    # G = P*W - V with V = (1-q)(q-q0)
    gval, g1, g2 = _product_rule(HATZE_VARS, P, p1, p2, W, w1, w2, second)
    gval -= om * dq
    g1["q"] -= 1.0 - 2.0 * q + q0
    g1["q0"] -= -om
    if second:
        g2[("q", "q")] -= -2.0
        g2[("q", "q0")] -= 1.0

    val, first, d2 = _product_rule(HATZE_VARS, K, k1, k2, gval, g1, g2, second)
    return PartialBundle(value=val, first=first, second=d2)


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
    has_second_order: bool = True

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def dim(self) -> int:
        return len(self.init_names)

    @property
    def canonical_order(self) -> tuple[str, ...]:
        return self.init_names + self.param_names

    def rhs_for(self, lam: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """Plain state rhs closure at a fixed parameter vector."""
        return lambda t, y: self.derivs(t, y, lam, 0).f


def _bundle_to_derivs(bundle: PartialBundle, names: tuple[str, ...], order: int) -> ModelDerivs:
    """Pack a scalar-model PartialBundle into the array layout of ModelDerivs."""
    f = np.array([bundle.value])
    if order == 0:
        return ModelDerivs(f=f)
    jac_y = np.array([[bundle.d1("q")]])
    jac_p = np.array([[bundle.d1(n)] for n in names])
    if order == 1:
        return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p)
    n = len(names)
    hess_yy = np.array([[[bundle.d2("q", "q")]]])
    hess_py = np.array([[[bundle.d2(nm, "q")]] for nm in names])
    hess_pp = np.empty((n, n, 1))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            hess_pp[i, j, 0] = bundle.d2(a, b)
    return ModelDerivs(
        f=f, jac_y=jac_y, jac_p=jac_p,
        hess_yy=hess_yy, hess_py=hess_py, hess_pp=hess_pp,
    )


ZAJAC_PARAM_NAMES = ("sigma", "q0", "tau", "beta")
HATZE_PARAM_NAMES = ("sigma", "q0", "m", "rho_c", "nu", "ell_rho", "ell_CErel")
SIMPLIFIED_PARAM_NAMES = ("sigma", "tau")


def zajac_model() -> ModelSpec:
    """ModelSpec for the linear activation dynamics."""

    def derivs(t, y, lam, order):
        p = ZajacParams(sigma=lam[0], q0=lam[1], tau=lam[2], beta=lam[3],
                        q_init=float(y[0]))
        if order == 0:
            return ModelDerivs(f=np.array([zajac_rhs(float(y[0]), p)]))
        bundle = zajac_partials(float(y[0]), p, second=order >= 2)
        return _bundle_to_derivs(bundle, ZAJAC_PARAM_NAMES, order)

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
        bundle = hatze_partials(float(y[0]), p, second=order >= 2)
        return _bundle_to_derivs(bundle, HATZE_PARAM_NAMES, order)

    return ModelSpec(
        name="hatze", param_names=HATZE_PARAM_NAMES, init_names=("q_H0",),
        derivs=derivs,
    )


def simplified_zajac_model() -> ModelSpec:
    """ModelSpec for the simplified linear dynamics (beta = 1, q0 = 0)."""

    def derivs(t, y, lam, order):
        sigma, tau = float(lam[0]), float(lam[1])
        q = float(y[0])
        f = np.array([(sigma - q) / tau])
        if order == 0:
            return ModelDerivs(f=f)
        jac_y = np.array([[-1.0 / tau]])
        jac_p = np.array([[1.0 / tau], [-(sigma - q) / tau**2]])
        if order == 1:
            return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p)
        hess_yy = np.zeros((1, 1, 1))
        hess_py = np.array([[[0.0]], [[1.0 / tau**2]]])
        hess_pp = np.array(
            [[[0.0], [-1.0 / tau**2]],
             [[-1.0 / tau**2], [2.0 * (sigma - q) / tau**3]]]
        )
        return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p,
                           hess_yy=hess_yy, hess_py=hess_py, hess_pp=hess_pp)

    return ModelSpec(
        name="simplified-zajac", param_names=SIMPLIFIED_PARAM_NAMES,
        init_names=("q_Z0",), derivs=derivs,
    )
