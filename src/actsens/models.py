"""Muscle activation dynamics models with exact first and second partials.

Two activation models are built in: a linear one with a deactivation boost
(``zajac_*``) and a nonlinear, length-dependent one (``hatze_*``). Both are
scalar ODEs for the activity q driven by a constant stimulation sigma. Every
right-hand side comes with exact partial derivatives with respect to the
state and all parameters, which is what the sensitivity machinery in
:mod:`actsens.localsens` consumes.

All formula functions broadcast over numpy arrays, so the same code serves
scalar evaluation, batched ensembles (array-valued parameter fields), and
length sweeps in the optimizer. The static formulas (``hatze_rho``,
``hatze_q_of_gamma``, ``force_length_relative``) check their input, the
parameters they read included, and then call a private unchecked twin
(leading underscore), which callers whose input is already checked use
directly.

``zajac_partials`` and ``hatze_partials`` return ``(f, grad, hess)`` at one
scalar point: the rhs value, its gradient and its exactly symmetric Hessian
as numpy arrays indexed by the model's variables ``ZAJAC_VARS``/``HATZE_VARS``
(index 0 is the state q, then the model's parameters). Each model writes its
parameter-only rate factors once, as ``_rates``; ``rate_factors`` evaluates
them on floats or columns and ``rate_jets`` on second-order forward-mode
jets, which carry the gradient and Hessian the partials build on.

The sensitivity machinery sees a model through one interface,
:class:`ModelSpec`: ``derivs(t, y, lam, order)`` returns the same triple
over x = (y, lam) with a leading state axis, shapes (M,), (M, M+N) and
(M, M+N, M+N) for M states and N dynamic parameters, grad None at order 0
and hess None below order 2. The built-in specs pass their partials
through unchanged.

Each parameter class declares once its fields' canonical order and names
(``RANGES``, ``NAMES``), from which the variables, the ModelSpec names and
the CLI's keys derive, and its domain, as field ranges and joint order
constraints; ``validate``, ensemble row validity and the CLI's bounds-file
check all read the domain through :func:`domain_checks`. The parameter class
is also the one container of a built-in model's parameter point: the
scenario presets return one, and the sensitivity drivers read it by
canonical name through ``as_dict`` (a custom model's point is a plain
mapping of its canonical names). The simplified linear model has its own
class, a ``ZajacParams`` with q0 = 0 and beta = 1 fixed, whose canonical
order is (q_Z0, sigma, tau); each ModelSpec takes its names from its class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, ClassVar

import numpy as np

from .errors import DegenerateState, DomainViolation, ParameterOutOfRange, PoleViolation

__all__ = [
    "ZajacParams",
    "HatzeParams",
    "ForceLengthRelation",
    "ModelSpec",
    "domain_checks",
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


def domain_checks(p, label: dict | None = None):
    """Each condition of p's declared domain as ``(ok, fields, error, text)``.

    ``p.RANGES`` maps each field, in canonical order, to ``(low, high, ends)``
    (ends such as "[)" tell which limits are valid; an infinite one is open);
    ``p.ORDER`` lists joint constraints ``(a, op, b, error)``, op "<" or "<=".
    ``ok`` is a bool, or a bool array when p's fields are columns of rows.
    ``text`` names a field by its entry in ``label``, or else by itself.
    """
    name = (label or {}).get
    for field, (low, high, ends) in p.RANGES.items():
        yield (_in_range(getattr(p, field), low, high, ends), (field,), ParameterOutOfRange,
               f"{name(field, field)} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
    for a, op, b, error in p.ORDER:
        yield (_ordered(getattr(p, a), op, getattr(p, b)), (a, b), error,
               _order_text(p.RANGES, a, op, b, name))


def _in_range(v, low, high, ends):
    # written as "inside", so that NaN fails it
    return (((low <= v) if ends[0] == "[" else (low < v))
            & ((v <= high) if ends[1] == "]" else (v < high)))


def _ordered(x, op, y):
    return (x < y) if op == "<" else (x <= y)


def _order_text(ranges, a, op, b, name) -> str:
    """The rule of a joint constraint a op b: a between its low limit and b;
    ``name(field, field)`` gives the name a field goes by."""
    low, _, ends = ranges[a]
    return f"{name(a, a)} must lie in {ends[0]}{low:g}, {name(b, b)}{')' if op == '<' else ']'}"


def _raise_first_failure(p) -> None:
    """Raise for the first failing condition of ``domain_checks(p)``; a
    ParameterOutOfRange names its last field."""
    for ok, fields, error, text in domain_checks(p):
        if not np.all(ok):
            text += "; " + _where_bad(np.logical_not(ok), **{f: getattr(p, f) for f in fields})
            raise error(text) if error is PoleViolation else error(fields[-1], text)


class _Domain:
    """A parameter class, declared by ``RANGES``, ``ORDER``, ``NAMES`` and ``_rates``.

    The keys of ``RANGES`` are the fields in canonical order, the initial
    value first; ``NAMES`` maps each field whose canonical name differs to
    that name. ``_rates`` computes the rhs's parameter-only factors from the
    fields after the initial value, on floats, columns or jets. An instance
    with scalar fields is a parameter point, which ``as_dict`` and
    ``values_for`` read by canonical name.
    """

    @classmethod
    def canonical_order(cls) -> tuple:
        """The canonical names of the fields, in canonical order."""
        return tuple(cls.NAMES.get(f, f) for f in cls.RANGES)

    @classmethod
    def from_canonical(cls, *values):
        """Fields from values in the canonical order."""
        return cls(**dict(zip(cls.RANGES, values, strict=True)))

    def as_dict(self) -> dict[str, float]:
        """A scalar point's values keyed by canonical name, in canonical order."""
        return {self.NAMES.get(f, f): float(getattr(self, f)) for f in self.RANGES}

    def values_for(self, names) -> np.ndarray:
        """The values of the given canonical names, in their order."""
        values = self.as_dict()
        return np.array([values[n] for n in names])

    def validate(self) -> None:
        """Raise for the first failing condition; a ParameterOutOfRange names its last field."""
        _raise_first_failure(self)

    @functools.cached_property
    def rate_factors(self) -> tuple:
        """``_rates`` of the fields, computed on first use and kept for the
        object's lifetime, as ``rate_jets`` are: its fields must not change
        after its rhs or partials have been evaluated."""
        return self._rates(*self._rate_fields())

    @functools.cached_property
    def rate_jets(self) -> tuple:
        """``rate_factors`` as jets over the model's VARS (scalar fields only),
        by the same formulas after the same checks and kept as it is; their
        values equal it bit for bit."""
        return self._rates(*_parameter_jets(self._rate_fields()))

    def _rate_fields(self) -> tuple:
        # the fields the rates read: those after the initial value, in VARS order
        return tuple(getattr(self, f) for f in self.RANGES)[1:]


@dataclass
class ZajacParams(_Domain):
    """Parameters of the linear activation dynamics with deactivation boost."""

    sigma: float
    q0: float = 0.005
    tau: float = 0.025
    beta: float = 1.0
    q_init: float = 0.005

    # the domain (see domain_checks)
    RANGES: ClassVar[dict] = {
        "q_init": (0.0, 1.0, "[]"), "sigma": (0.0, 1.0, "[]"), "q0": (0.0, 1.0, "[)"),
        "tau": (0.0, math.inf, "()"), "beta": (0.0, math.inf, "()"),
    }
    ORDER: ClassVar[tuple] = (("q0", "<=", "q_init", ParameterOutOfRange),)
    NAMES: ClassVar[dict] = {"q_init": "q_Z0"}

    @staticmethod
    def _rates(sigma, q0, tau, beta):
        """``(c0, c1)`` of :func:`zajac_rhs`'s rate c0 - c1*q, which is affine in q:
        c0 = (sigma + beta*q0*(1-sigma)) / (tau(1-q0)) and
        c1 = (sigma(1-beta) + beta) / (tau(1-q0))."""
        tau_free = tau * (1.0 - q0)
        return ((sigma + beta * q0 * (1.0 - sigma)) / tau_free,
                (sigma * (1.0 - beta) + beta) / tau_free)


@dataclass
class HatzeParams(_Domain):
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

    # the domain (see domain_checks); ell_ce_rel reaching ell_rho is the pole
    RANGES: ClassVar[dict] = {
        "q_init": (0.0, 1.0, "()"), "sigma": (0.0, 1.0, "[]"), "q0": (0.0, 1.0, "()"),
        "m": (0.0, math.inf, "()"), "rho_c": (0.0, math.inf, "()"),
        "nu": (1.0, math.inf, "()"), "ell_rho": (1.0, math.inf, "()"),
        "ell_ce_rel": (0.0, math.inf, "()"),
    }
    ORDER: ClassVar[tuple] = (("q0", "<", "q_init", ParameterOutOfRange),
                              ("ell_ce_rel", "<", "ell_rho", PoleViolation))
    NAMES: ClassVar[dict] = {"q_init": "q_H0", "ell_ce_rel": "ell_CErel"}

    @staticmethod
    def _rates(sigma, q0, m, rho_c, nu, ell_rho, ell_ce_rel):
        """``(q0 + eps, sigma*rho, 1/nu, nu*m/(1-q0))`` of :func:`hatze_rhs`, with
        rho as :func:`hatze_rho` computes it."""
        return (q0 + HATZE_EPS, sigma * _hatze_rho(ell_ce_rel, rho_c, ell_rho), 1.0 / nu,
                nu * m / (1.0 - q0))

    def _rate_fields(self) -> tuple:
        # after hatze_rho's checks, so a CE length outside (0, ell_rho) raises
        # PoleViolation on every access to the rates
        _check_hatze_fields(rho_c=self.rho_c, ell_rho=self.ell_rho)
        _checked_length(self.ell_ce_rel, self.ell_rho)
        return super()._rate_fields()


# ---------------------------------------------------------------------------
# second-order forward mode: (value, gradient, Hessian) over a model's VARS
# ---------------------------------------------------------------------------


class _Jet:
    """A value with its gradient and Hessian over a model's VARS.

    Second-order forward mode (Griewank & Walther, *Evaluating Derivatives*,
    2nd ed., SIAM 2008, ch. 13) with + - * / between jets and floats; the
    Hessian is None when second partials are not wanted. A value is computed
    by the same float operation as on plain numbers, so a formula's jet
    value equals its float value bit for bit. Every Hessian is exactly
    symmetric: a product adds cross + cross.T, and IEEE addition commutes.
    No operation writes into an operand's arrays, so jets may share them.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def _lift(self, x) -> "_Jet":
        # a float as a constant
        if isinstance(x, _Jet):
            return x
        return _Jet(x, np.zeros_like(self.g), None if self.h is None else np.zeros_like(self.h))

    def __add__(self, other):
        o = self._lift(other)
        h = None if self.h is None or o.h is None else self.h + o.h
        return _Jet(self.v + o.v, self.g + o.g, h)

    def __sub__(self, other):
        o = self._lift(other)
        h = None if self.h is None or o.h is None else self.h - o.h
        return _Jet(self.v - o.v, self.g - o.g, h)

    def __mul__(self, other):
        o = self._lift(other)
        h = None
        if self.h is not None and o.h is not None:
            cross = self.g[:, None] * o.g
            h = self.h * o.v + (cross + cross.T) + self.v * o.h
        return _Jet(self.v * o.v, self.g * o.v + self.v * o.g, h)

    def __truediv__(self, other):
        o = self._lift(other)
        # the quotient rule (g d - v dg)/d^2 keeps exact cancellations exact,
        # such as the ell_rho slot of rho at ell_CErel = 1
        q = self.v / o.v
        g = (self.g * o.v - self.v * o.g) / (o.v * o.v)
        h = None
        if self.h is not None and o.h is not None:
            # from the product rule of v = q d
            cross = g[:, None] * o.g
            h = (self.h - (cross + cross.T) - q * o.h) / o.v
        return _Jet(q, g, h)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return self._lift(other) - self

    def __rtruediv__(self, other):
        return self._lift(other) / self


def _parameter_jets(values) -> list:
    """Jets of independent parameters at the given scalar values, over
    (q, *parameters): the i-th value gets the unit gradient of slot i + 1."""
    n = len(values) + 1
    eye, zero = np.eye(n), np.zeros((n, n))
    return [_Jet(v, eye[i], zero) for i, v in enumerate(values, 1)]


# ---------------------------------------------------------------------------
# linear model (activation time constant + deactivation boost)
# ---------------------------------------------------------------------------

ZAJAC_VARS = ("q", *ZajacParams.canonical_order()[1:])


@dataclass
class _SimplifiedZajacParams(ZajacParams):
    """The simplified model's parameters: zajac's (q_Z0, sigma, tau), with q0
    and beta fixed, so that the rate jets range over (q, sigma, tau)."""

    q0: float = field(default=0.0, init=False)
    beta: float = field(default=1.0, init=False)
    RANGES: ClassVar[dict] = {f: ZajacParams.RANGES[f] for f in ("q_init", "sigma", "tau")}
    ORDER: ClassVar[tuple] = ()  # q0 = 0 <= q_init always holds

    @staticmethod
    def _rates(sigma, tau):
        return ZajacParams._rates(sigma, 0.0, tau, 1.0)


def zajac_rhs(q, p: ZajacParams):
    """Activity rate: [sigma(1-q0) - sigma(1-beta)(q-q0) - beta(q-q0)] / (tau(1-q0)).

    The rate is affine in q and is evaluated as c0 - c1*q from the cached
    ``p.rate_factors``; an array q gets one fresh result array.
    """
    c0, c1 = p.rate_factors
    f = c1 * q
    if isinstance(f, np.ndarray):
        return np.subtract(c0, f, out=f)
    return c0 - f


def zajac_partials(q: float, p: ZajacParams, second: bool = True):
    """Value, gradient and Hessian of the linear model's rhs over ZAJAC_VARS.

    The rhs is affine in q, f = c0 - c1*q, with the parameter-only c0 and
    c1 of ``p.rate_factors`` and their jets ``p.rate_jets``. So
    grad = (-c1, grad c0 - q grad c1), and the Hessian is H(c0) - q H(c1)
    with -grad c1 in the q row and column. Returns ``(f, grad, hess)`` with
    grad[i] = df/dx_i and the symmetric hess[i, j] = d2f/(dx_i dx_j),
    x = ZAJAC_VARS; hess is None unless ``second``. f is :func:`zajac_rhs`'s
    value bit for bit.
    """
    (c0, c1), (j0, j1) = p.rate_factors, p.rate_jets
    grad = j0.g - q * j1.g
    grad[0] = -c1
    hess = None
    if second:
        hess = j0.h - q * j1.h
        hess[0] -= j1.g  # onto the zero q row, which keeps zero entries +0.0
        hess[:, 0] = hess[0]
    return c0 - c1 * q, grad, hess


def zajac_steady_state(p: ZajacParams) -> float:
    """Saturation level q0 + (1-q0)/((1-beta) + beta/sigma); q0 for sigma = 0."""
    if p.sigma == 0.0:
        return p.q0
    return p.q0 + (1.0 - p.q0) / ((1.0 - p.beta) + p.beta / p.sigma)


# ---------------------------------------------------------------------------
# nonlinear length-dependent model
# ---------------------------------------------------------------------------

HATZE_VARS = ("q", *HatzeParams.canonical_order()[1:])
# positions of q, q0 and nu in HATZE_VARS, for hatze_partials
_HATZE_SLOTS = tuple(HATZE_VARS.index(v) for v in ("q", "q0", "nu"))


def _where_bad(bad, **values) -> str:
    """Name the entries of a failed check without printing whole arrays.

    ``bad`` marks the failing entries of the broadcast ``values``; the text
    gives the values at the first one and, for arrays, how many fail.
    """
    bad = np.asarray(bad)
    first = np.unravel_index(np.argmax(bad), bad.shape)
    got = ", ".join(f"{name}={float(np.broadcast_to(v, bad.shape)[first])!r}"
                    for name, v in values.items())
    if bad.ndim == 0:
        return f"got {got}"
    index = first[0] if len(first) == 1 else tuple(int(i) for i in first)
    return f"{int(bad.sum())} of {bad.size} entries fail, the first at index {index}: {got}"


# the pole: ell_ce_rel's declared range, capped by ell_rho
_POLE = next(c for c in HatzeParams.ORDER if c[3] is PoleViolation)
_POLE_RANGE = HatzeParams.RANGES[_POLE[0]]
_POLE_TEXT = _order_text(HatzeParams.RANGES, *_POLE[:3], {}.get)


def _checked_length(ell_ce_rel, ell_rho) -> np.ndarray:
    """Relative CE length as an array; PoleViolation outside the declared
    (0, ell_rho), NaN in either argument included."""
    ell = np.asarray(ell_ce_rel, dtype=float)
    ok = _in_range(ell, *_POLE_RANGE) & _ordered(ell, _POLE[1], ell_rho)
    if not ok.all():
        raise _POLE[3](f"{_POLE_TEXT}; " + _where_bad(~ok, ell_ce_rel=ell, ell_rho=ell_rho))
    return ell


def _hatze_rho(ell, rho_c, ell_rho):
    # unchecked formula behind hatze_rho
    return rho_c * (ell_rho - 1.0) / (ell_rho / ell - 1.0)


def _check_hatze_fields(**fields) -> None:
    """ParameterOutOfRange, as ``HatzeParams.validate`` raises it, for the
    first of the given fields outside its declared range, NaN included."""
    ranges = HatzeParams.RANGES
    for f, v in fields.items():
        ok = _in_range(v, *ranges[f])
        # np.all costs microseconds even on a bool; this check runs per force scan
        if ok is not True and (ok is False or not ok.all()):
            # only a failure pays for domain_checks' messages
            _raise_first_failure(SimpleNamespace(
                RANGES={f: r for f, r in ranges.items() if f in fields}, ORDER=(), **fields))


def hatze_rho(ell_ce_rel, rho_c, ell_rho):
    """Length dependency rho_c (ell_rho - 1) / (ell_rho/ell - 1); pole at ell_rho."""
    _check_hatze_fields(rho_c=rho_c, ell_rho=ell_rho)
    out = _hatze_rho(_checked_length(ell_ce_rel, ell_rho), rho_c, ell_rho)
    return float(out) if np.isscalar(ell_ce_rel) else out


def _hatze_q_of_gamma(gamma, ell, p: HatzeParams):
    # unchecked formula behind hatze_q_of_gamma
    x = (_hatze_rho(ell, p.rho_c, p.ell_rho) * gamma) ** p.nu
    return (p.q0 + x) / (1.0 + x)


def hatze_q_of_gamma(gamma, ell_ce_rel, p: HatzeParams):
    """Activity from normalized free-calcium concentration via the nu-power saturation."""
    _check_hatze_fields(q0=p.q0, rho_c=p.rho_c, nu=p.nu, ell_rho=p.ell_rho)
    out = _hatze_q_of_gamma(np.asarray(gamma, dtype=float),
                            _checked_length(ell_ce_rel, p.ell_rho), p)
    return float(out) if np.isscalar(gamma) and np.isscalar(ell_ce_rel) else out


def hatze_gamma_of_q(q, ell_ce_rel, p: HatzeParams):
    """Free-calcium level gamma of an activity q: the exact inverse of hatze_q_of_gamma."""
    _check_hatze_fields(q0=p.q0, nu=p.nu)  # hatze_rho checks rho_c and ell_rho
    q = np.asarray(q, dtype=float)
    ok = (q >= p.q0) & (q < 1.0)
    if not np.all(ok):
        raise DomainViolation("q must lie in [q0, 1); " + _where_bad(~ok, q=q, q0=p.q0))
    rho = hatze_rho(ell_ce_rel, p.rho_c, p.ell_rho)
    out = ((q - p.q0) / (1.0 - q)) ** (1.0 / p.nu) / rho
    return float(out) if out.ndim == 0 else out


def _clamp_q(q, floor):
    # floor is q0 + HATZE_EPS
    return np.minimum(np.maximum(q, floor), 1.0 - HATZE_EPS)


def hatze_rhs(q, p: HatzeParams):
    """Activity rate of the nonlinear model.

    The rate gain*(sigma_rho * free^(1+1/nu) * excess^(1-1/nu) - free*excess),
    with free = 1 - q and excess = q - q0, is evaluated as
    gain * free*excess * (sigma_rho * (free/excess)^(1/nu) - 1), which takes
    one fractional power. The activity is clamped to [q0 + eps, 1 - eps]
    first, which keeps the rhs real when an integrator stage overshoots one
    of the non-Lipschitz boundary fixed points. The arithmetic is done in
    place on the call's own temporaries, never on q or a cached factor; at a
    scalar q the same steps run on numpy scalars.
    """
    q_floor, sigma_rho, inv_nu, gain = p.rate_factors
    excess = _clamp_q(q, q_floor)
    free = 1.0 - excess
    excess -= p.q0
    out = free / excess
    out **= inv_nu
    out *= sigma_rho
    out -= 1.0
    free *= excess
    free *= gain
    out *= free
    return float(out) if np.isscalar(q) else out


def hatze_partials(q: float, p: HatzeParams, second: bool = True):
    """Value, gradient and Hessian of the nonlinear model's rhs over HATZE_VARS.

    The rhs factors as K(q0, m, nu) * (P(sigma, rho_c, ell_rho, ell) * W(q, q0, nu)
    - V(q, q0)). K = nu m/(1-q0) and P = sigma rho depend on the parameters
    only; they are the jets ``p.rate_jets`` of the rhs's own gain and
    sigma_rho. The partials of W and V are written out, the log terms from
    differentiating the nu-dependent exponents included, and the product is
    taken on jets. Returns ``(f, grad, hess)`` as :func:`zajac_partials`
    does, over x = HATZE_VARS.
    """
    q0, nu = p.q0, p.nu
    q = min(max(float(q), q0 + HATZE_EPS), 1.0 - HATZE_EPS)  # _clamp_q at a scalar
    Q, Q0, NU = _HATZE_SLOTS
    n = len(HATZE_VARS)
    _, P, _, K = p.rate_jets
    w1, v1 = np.zeros(n), np.zeros(n)
    w2 = v2 = None
    if second:
        w2, v2 = np.zeros((n, n)), np.zeros((n, n))

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

    f = K * (P * _Jet(W, w1, w2) - _Jet(V, v1, v2))
    return f.v, f.g, f.h


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
    initial-condition shares always sum to one. Each share is written in its
    decaying form, over the state q(t) of :func:`simplified_zajac_solution`,
    so no term grows with t/tau: S_sigma = sigma(1 - e^(-t/tau))/q,
    S_q_Z0 = q_init e^(-t/tau)/q and S_tau = t(q_init - sigma)e^(-t/tau)/(tau q).
    At sigma = 0, where q may underflow, the decay is divided out of each share.
    """
    t = np.asarray(t, dtype=float)
    if sigma == 0.0:
        decay, state = np.ones_like(t), np.full_like(t, q_init)
    else:
        decay = np.exp(-t / tau)
        state = simplified_zajac_solution(t, sigma, tau, q_init)
    if np.any(state == 0.0):
        raise DegenerateState("relative sensitivities are undefined where the state q(t) = 0")
    s_sigma = sigma * (1.0 - decay) / state
    s_tau = t * (q_init - sigma) * decay / (tau * state)
    s_init = q_init * decay / state
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
        if not np.greater(self.width, 0.0).all():  # width may be a column of rows
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
    if not (ell_ce > 0.0).all():
        raise ValueError("ell_ce must be positive")
    out = _force_length_relative(ell_ce / rel.ell_opt, rel)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# model specifications for the sensitivity machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """An ODE system bundled with the derivative information it can supply.

    ``param_names`` are the dynamic parameters (sensitivity targets);
    ``init_names`` name the initial condition of each state component, in
    state order. The canonical full parameter order of a model is
    init_names + param_names. ``params_of`` maps values given positionally
    in that order to the model's parameter object (one with ``validate()``);
    a custom model may leave it None.

    ``derivs(t, y, lam, order)`` returns ``(f, grad, hess)`` over
    x = (y, lam), with M states and N dynamic parameters: f[k] is the rhs,
    grad[k, a] = df_k/dx_a and hess[k, a, b] = d2f_k/(dx_a dx_b), of shapes
    (M,), (M, M+N) and (M, M+N, M+N). grad is None at order 0 and hess is
    None below order 2. A solve calls it many times with one lam, so derivs
    may bind lam's values to a parameter object once and reuse it (the
    built-in scalar models do, see :func:`_scalar_model`); the result must
    depend on lam's values only, never on which array holds them. The
    built-in models return :func:`zajac_partials`/:func:`hatze_partials`,
    which differentiate the rhs's own rate factors on jets.
    """

    name: str
    param_names: tuple[str, ...]
    init_names: tuple[str, ...]
    derivs: Callable[[float, np.ndarray, np.ndarray, int], tuple]
    params_of: Callable[..., object] | None = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def dim(self) -> int:
        return len(self.init_names)

    @property
    def canonical_order(self) -> tuple[str, ...]:
        return self.init_names + self.param_names


def _scalar_model(name, cls, rhs, partials) -> ModelSpec:
    """ModelSpec of a scalar model from its parameter class, rhs and partials.

    The names are ``cls.canonical_order()``, the initial value first, and
    ``cls.from_canonical`` maps values in that order to a parameter object p;
    ``rhs(q, p)`` is the activity rate and ``partials(q, p, second)`` its
    ``(f, grad, hess)`` over (q, *names[1:]), which derivs returns with a
    leading state axis.

    derivs binds lam to its parameter object once per solve: it keeps the
    objects of the last two lam values it saw, keyed on those values (so an
    in-place edit of lam binds anew), and with them their cached factors.
    Two are kept so that the stacked (+h, -h) systems of a central
    difference each keep theirs. An object's q_init is the state at its
    first call, which is harmless because rhs and partials never read it.
    """
    names, params_of = cls.canonical_order(), cls.from_canonical
    bound: dict[bytes, object] = {}

    def derivs(t, y, lam, order):
        q = float(y[0])
        key = lam.tobytes()
        p = bound.get(key)
        if p is None:
            if len(bound) == 2:
                del bound[next(iter(bound))]  # the older one
            p = bound[key] = params_of(q, *lam)
        if order == 0:
            return np.array([rhs(q, p)]), None, None
        f, g, H = partials(q, p, order >= 2)
        return np.array([f]), g[None], None if H is None else H[None]

    return ModelSpec(name=name, param_names=names[1:], init_names=names[:1],
                     derivs=derivs, params_of=params_of)


def zajac_model() -> ModelSpec:
    """ModelSpec for the linear activation dynamics."""
    return _scalar_model("zajac", ZajacParams, zajac_rhs, zajac_partials)


def hatze_model() -> ModelSpec:
    """ModelSpec for the nonlinear length-dependent activation dynamics."""
    return _scalar_model("hatze", HatzeParams, hatze_rhs, hatze_partials)


def simplified_zajac_model() -> ModelSpec:
    """ModelSpec for the simplified linear dynamics (beta = 1, q0 = 0)."""
    return _scalar_model("simplified-zajac", _SimplifiedZajacParams, zajac_rhs, zajac_partials)
