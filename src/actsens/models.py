"""Muscle activation dynamics models with exact first and second partials.

Two activation models are built in: a linear one with a deactivation boost
(``zajac_*``) and a nonlinear, length-dependent one (``hatze_*``). Both are
scalar ODEs for the activity q driven by a constant stimulation sigma. Every
right-hand side comes with exact partial derivatives with respect to the
state and all parameters, which is what the sensitivity machinery in
:mod:`actsens.localsens` consumes.

All formula functions broadcast over numpy arrays, so the same code serves
scalar evaluation, batched ensembles (array-valued parameter fields), and
length sweeps in the optimizer. The checked formulas ``hatze_rho`` and
``hatze_q_of_gamma`` run the declared conditions of the fields they read,
the CE length and its pole included, as ``validate`` runs them (see
:func:`domain_checks`), and then evaluate the unchecked ``_hatze_rho``,
which the rate factors and the length slopes of log q, whose input is
already checked, call directly. ``force_length`` checks for a positive
length and returns ``force_length_relative`` at the length over
``ell_opt``.

``zajac_partials`` and ``hatze_partials`` return ``(f, grad, hess)`` at one
scalar point and order 0, 1 or 2: the rhs value, bit for bit what
``zajac_rhs``/``hatze_rhs`` give at that point, its gradient and its exactly
symmetric Hessian as numpy arrays indexed by the model's variables
``ZAJAC_VARS``/``HATZE_VARS`` (index 0 is the state q, then the model's
parameters), grad None at order 0 and hess None below order 2. Each model
writes its parameter-only rate factors once, as ``_rates``; ``rate_factors``
evaluates them on floats or columns and ``rate_jets`` on second-order
forward-mode jets, which carry their gradient and Hessian. With the rate factors fixed,
each rhs is linear in a few terms that depend on the activity, so each
parameter point keeps ``partials_basis``, built once from its jets, and a
call computes those terms and returns their product with the basis.

The sensitivity machinery sees a model through one interface,
:class:`ModelSpec`: ``derivs(t, y, lam, order)`` returns the same triple
over x = (y, lam) with a leading state axis, shapes (M,), (M, M+N) and
(M, M+N, M+N) for M states and N dynamic parameters, grad None at order 0
and hess None below order 2. The built-in specs pass their partials
through unchanged at every order, adding only the state axis.

Each parameter class declares once its fields' canonical order and names
(``RANGES``, ``NAMES``), from which the variables, the ModelSpec names and
the CLI's keys derive, and its domain, as field ranges and joint order
constraints. :func:`domain_checks` alone evaluates the domain: ``validate``,
the checked formulas and every point's rate factors raise its first error,
ensemble row validity and the local difference oracles ask
:func:`in_domain`, and the CLI's bounds-file check reads its rules. The
parameter class is also the one container of a built-in model's parameter
point: the scenario presets return one, and the sensitivity drivers read it
by canonical name through ``as_dict`` (a custom model's point is a plain
mapping of its canonical names). The simplified linear model has its own
class, a ``ZajacParams`` with q0 = 0 and beta = 1 fixed, whose canonical
order is (q_Z0, sigma, tau); each ModelSpec takes its names from its class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .errors import DegenerateState, DomainViolation, ParameterOutOfRange, PoleViolation

__all__ = [
    "ZajacParams",
    "HatzeParams",
    "ForceLengthRelation",
    "ModelSpec",
    "domain_checks",
    "in_domain",
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


def domain_checks(p, fields=None):
    """Each condition of p's declared domain as ``(ok, condition, error)``.

    ``p.RANGES`` maps each field, in canonical order, to ``(low, high, ends)``
    (ends such as "[)" tell which limits are valid; an infinite one is open);
    ``p.ORDER`` lists joint constraints ``(a, op, b, error)``, op "<" or "<=",
    whose rule puts a between its low limit and b. Given ``fields``, a map of
    field values (p may then be the class), only their ranges and the
    constraints between them are checked. ``ok`` is a bool, or a bool array
    for columns of rows, and NaN fails it; ``condition`` maps the fields it
    reads to their values. ``error`` is None where ok holds throughout, else
    ``(exception class, rule)``, whose text, built only then, names each
    field by its canonical name (``p.NAMES``).
    """
    values = {f: getattr(p, f) for f in p.RANGES} if fields is None else fields
    name = p.NAMES.get
    for f, (low, high, ends) in p.RANGES.items():
        if f in values:
            v = values[f]
            # written as "inside", so that NaN fails it
            ok = (((low <= v) if ends[0] == "[" else (low < v))
                  & ((v <= high) if ends[1] == "]" else (v < high)))
            yield ok, {f: v}, None if _holds(ok) else (ParameterOutOfRange, (
                f"{name(f, f)} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}"))
    for a, op, b, error in p.ORDER:
        if a in values and b in values:
            ok = (values[a] < values[b]) if op == "<" else (values[a] <= values[b])
            low, _, ends = p.RANGES[a]
            close = ")" if op == "<" else "]"
            yield ok, {a: values[a], b: values[b]}, None if _holds(ok) else (
                error, f"{name(a, a)} must lie in {ends[0]}{low:g}, {name(b, b)}{close}")


def _holds(ok) -> bool:
    # np.all costs microseconds even on a bool; the checks run per force scan
    return ok is True or (ok is not False and bool(ok.all()))


def in_domain(p):
    """Whether the point p lies in its class's declared domain
    (:func:`domain_checks`): a bool, or one bool per row when p's fields are
    columns of rows."""
    return np.logical_and.reduce([ok for ok, *_ in domain_checks(p)])


def _check_fields(p, **fields) -> None:
    """Raise for the first failing condition of ``domain_checks(p, fields)``,
    over the given fields or, with none, all of p's; a ParameterOutOfRange
    names its condition's last field, and the text adds the values of the
    condition's fields at the first failing entry."""
    for ok, condition, error in domain_checks(p, fields or None):
        if error is not None:
            kind, rule = error
            text = rule + "; " + _where_bad(
                np.logical_not(ok), **{p.NAMES.get(f, f): v for f, v in condition.items()})
            raise kind(text) if kind is PoleViolation else kind(list(condition)[-1], text)


class _Domain:
    """A parameter class, declared by ``RANGES``, ``ORDER``, ``NAMES`` and ``_rates``.

    The keys of ``RANGES`` are the fields in canonical order, the initial
    value first; ``NAMES`` maps each field whose canonical name differs to
    that name. ``_rates`` computes the rhs's parameter-only factors from the
    fields after the initial value, on floats, columns or jets. An instance
    with scalar fields is a parameter point, which ``as_dict`` and
    ``values_for`` read by canonical name; a model's class adds
    ``partials_basis``, which its partials read. Subclasses are frozen
    dataclasses, so the cached factors, jets and basis never go stale.
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
        _check_fields(self)

    @functools.cached_property
    def rate_factors(self) -> tuple:
        """``_rates`` of the fields, computed on first use and kept for the
        object's lifetime, as ``rate_jets`` are."""
        return self._rates(*self._rate_fields)

    @functools.cached_property
    def rate_jets(self) -> tuple:
        """``rate_factors`` as jets over the model's VARS (scalar fields only),
        by the same formulas and kept as it is; their values equal it bit for
        bit."""
        return self._rates(*_parameter_jets(self._rate_fields))

    @functools.cached_property
    def _rate_fields(self) -> tuple:
        """The fields the rates read, those after the initial value in VARS
        order, once they pass the declared ranges and the joint constraints
        between them (see :func:`_check_fields`); a failing point raises on
        every access to its rates."""
        fields = {f: getattr(self, f) for f in list(self.RANGES)[1:]}
        _check_fields(self, **fields)
        return tuple(fields.values())


@dataclass(frozen=True)
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

    @functools.cached_property
    def partials_basis(self) -> tuple:
        """:func:`zajac_partials`' basis (see :func:`_zajac_basis`), built on
        first use and kept, as ``rate_jets`` are."""
        return _zajac_basis(self)


@dataclass(frozen=True)
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

    @functools.cached_property
    def partials_basis(self) -> tuple:
        """:func:`hatze_partials`' basis (see :func:`_hatze_basis`), built on
        first use and kept, as ``rate_jets`` are."""
        return _hatze_basis(self)


# ---------------------------------------------------------------------------
# second-order forward mode: (value, gradient, Hessian) over a model's VARS
# ---------------------------------------------------------------------------


class _Jet:
    """A value with its gradient and Hessian over a model's VARS.

    Second-order forward mode (Griewank & Walther, *Evaluating Derivatives*,
    2nd ed., SIAM 2008, ch. 13) with + - * / between jets and floats. A
    value is computed by the same float operation as on plain numbers, so a
    formula's jet value equals its float value bit for bit. Every Hessian is
    exactly symmetric: a product adds cross + cross.T, and IEEE addition
    commutes. No operation writes into an operand's arrays, so jets may
    share them.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def _lift(self, x) -> "_Jet":
        # a float as a constant
        if isinstance(x, _Jet):
            return x
        return _Jet(x, np.zeros_like(self.g), np.zeros_like(self.h))

    def __add__(self, other):
        o = self._lift(other)
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __sub__(self, other):
        o = self._lift(other)
        return _Jet(self.v - o.v, self.g - o.g, self.h - o.h)

    def __mul__(self, other):
        o = self._lift(other)
        cross = self.g[:, None] * o.g
        return _Jet(self.v * o.v, self.g * o.v + self.v * o.g,
                    self.h * o.v + (cross + cross.T) + self.v * o.h)

    def __truediv__(self, other):
        o = self._lift(other)
        # the quotient rule (g d - v dg)/d^2 keeps exact cancellations exact,
        # such as the ell_rho slot of rho at ell_CErel = 1
        q = self.v / o.v
        g = (self.g * o.v - self.v * o.g) / (o.v * o.v)
        # from the product rule of v = q d
        cross = g[:, None] * o.g
        return _Jet(q, g, (self.h - (cross + cross.T) - q * o.h) / o.v)

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


@functools.lru_cache(maxsize=None)
def _upper_mirror(n) -> tuple:
    """The upper triangle of an (n, n) matrix as ``np.triu_indices`` lists it,
    and an (n, n) index array giving each entry's position in that list, so
    that ``unique[mirror]`` is the exactly symmetric matrix of the unique
    entries. Built once per n and shared, so every array is read-only."""
    upper = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[upper] = mirror[upper[::-1]] = np.arange(upper[0].size)
    for a in (*upper, mirror):
        a.setflags(write=False)
    return upper, mirror


# ---------------------------------------------------------------------------
# linear model (activation time constant + deactivation boost)
# ---------------------------------------------------------------------------

ZAJAC_VARS = ("q", *ZajacParams.canonical_order()[1:])


@dataclass(frozen=True)
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


def zajac_rhs(q, p: ZajacParams, out=None):
    """Activity rate: [sigma(1-q0) - sigma(1-beta)(q-q0) - beta(q-q0)] / (tau(1-q0)).

    The rate is affine in q and is evaluated as c0 - c1*q from the cached
    ``p.rate_factors``. An array q gets its result in ``out``, as numpy's
    ``out=`` does, or in one fresh array; a scalar q gets the order-0 value
    of :func:`zajac_partials`, as a float.
    """
    if np.isscalar(q):
        return float(zajac_partials(q, p, 0)[0])
    c0, c1 = p.rate_factors
    f = np.multiply(c1, q, out=out)
    return np.subtract(c0, f, out=f)


def _zajac_basis(p: ZajacParams) -> tuple:
    """``(grad0, grad1, hess0, hess1, mirror)`` of :func:`zajac_partials`.

    The rhs is affine in q, f = c0 - c1*q, with the parameter-only c0 and c1
    of ``p.rate_factors`` and their jets ``p.rate_jets``. So
    grad = (-c1, grad c0 - q grad c1) = grad0 + q grad1, and the Hessian is
    H(c0) - q H(c1) with -grad c1 in the q row and column, whose unique
    entries (see :func:`_upper_mirror`) are hess0 + q hess1.
    """
    j0, j1 = p.rate_jets
    upper, mirror = _upper_mirror(j0.g.size)
    grad0, hess0 = j0.g.copy(), j0.h.copy()
    grad0[0] = -j1.v
    hess0[0] -= j1.g  # onto the jets' zero q row
    hess0[:, 0] = hess0[0]
    return grad0, -j1.g, hess0[upper], -j1.h[upper], mirror


def zajac_partials(q: float, p: ZajacParams, order: int = 2):
    """Value, gradient and Hessian of the linear model's rhs over ZAJAC_VARS.

    Returns ``(f, grad, hess)`` with grad[i] = df/dx_i and the exactly
    symmetric hess[i, j] = d2f/(dx_i dx_j), x = ZAJAC_VARS; grad is None at
    ``order`` 0 and hess None below order 2. f is c0 - c1*q, which
    :func:`zajac_rhs` returns at a scalar q, and order 0 reads nothing else.
    grad and hess are affine in q, base + q*slope elementwise from
    ``p.partials_basis`` (:func:`_zajac_basis`), which gives the bits of
    H(c0) - q H(c1) and grad c0 - q grad c1 on the jets.
    """
    c0, c1 = p.rate_factors
    f = c0 - c1 * q
    if order == 0:
        return f, None, None
    grad0, grad1, hess0, hess1, mirror = p.partials_basis
    hess = (hess0 + q * hess1)[mirror] if order >= 2 else None
    return f, grad0 + q * grad1, hess


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


def _hatze_rho(ell, rho_c, ell_rho):
    # unchecked formula behind hatze_rho
    return rho_c * (ell_rho - 1.0) / (ell_rho / ell - 1.0)


def hatze_rho(ell_ce_rel, rho_c, ell_rho):
    """Length dependency rho_c (ell_rho - 1) / (ell_rho/ell - 1); pole at ell_rho."""
    ell = np.asarray(ell_ce_rel, dtype=float)
    _check_fields(HatzeParams, rho_c=rho_c, ell_rho=ell_rho, ell_ce_rel=ell)
    out = _hatze_rho(ell, rho_c, ell_rho)
    return float(out) if np.isscalar(ell_ce_rel) else out


def _hatze_log_q_slopes(gamma, ell, p: HatzeParams, n: int = 3):
    """Length derivatives of log q for :func:`hatze_q_of_gamma`, unchecked.

    Returns the first ``n`` of (log q)_ell, (log q)_ell,ell and
    d/d(log rho_c) of (log q)_ell, as a tuple, and computes only what those
    need: a bracket probe reads the slope, a Newton step the slope and the
    curvature, and only the Jacobian at a peak the cross term.
    With x = (rho gamma)^nu and rho proportional to rho_c ell/(ell_rho - ell),
    x_ell = nu x h where h = 1/ell + 1/(ell_rho - ell), and
    (log q)_ell = x_ell D with D = 1/(q0 + x) - 1/(1 + x), written
    (1 - q0)/((q0 + x)(1 + x)) so that it does not cancel. D' = -D (a + b)
    with a = 1/(q0 + x) and b = 1/(1 + x); x scales as rho_c^nu, so the cross
    term is nu x_ell (D + x D').
    """
    x = (_hatze_rho(ell, p.rho_c, p.ell_rho) * gamma) ** p.nu
    free = p.ell_rho - ell
    h = 1.0 / ell + 1.0 / free
    x_ell = p.nu * x * h
    a, b = 1.0 / (p.q0 + x), 1.0 / (1.0 + x)
    d = (1.0 - p.q0) * a * b
    slope = x_ell * d
    if n == 1:
        return (slope,)
    d_x = -d * (a + b)
    x_ell_ell = p.nu * (x_ell * h + x * (1.0 / free**2 - 1.0 / ell**2))
    curv = x_ell_ell * d + x_ell**2 * d_x
    return (slope, curv) if n == 2 else (slope, curv, p.nu * x_ell * d * (p.q0 * a - x * b))


def hatze_q_of_gamma(gamma, ell_ce_rel, p: HatzeParams):
    """Activity from normalized free-calcium concentration via the nu-power saturation."""
    ell = np.asarray(ell_ce_rel, dtype=float)
    _check_fields(HatzeParams, q0=p.q0, rho_c=p.rho_c, nu=p.nu, ell_rho=p.ell_rho,
                  ell_ce_rel=ell)
    x = (_hatze_rho(ell, p.rho_c, p.ell_rho) * np.asarray(gamma, dtype=float)) ** p.nu
    out = (p.q0 + x) / (1.0 + x)
    return float(out) if np.isscalar(gamma) and np.isscalar(ell_ce_rel) else out


def hatze_gamma_of_q(q, ell_ce_rel, p: HatzeParams):
    """Free-calcium level gamma of an activity q: the exact inverse of hatze_q_of_gamma."""
    _check_fields(HatzeParams, q0=p.q0, nu=p.nu)  # hatze_rho checks rho_c and ell_rho
    q = np.asarray(q, dtype=float)
    ok = (q >= p.q0) & (q < 1.0)
    if not np.all(ok):
        raise DomainViolation("q must lie in [q0, 1); " + _where_bad(~ok, q=q, q0=p.q0))
    rho = hatze_rho(ell_ce_rel, p.rho_c, p.ell_rho)
    out = ((q - p.q0) / (1.0 - q)) ** (1.0 / p.nu) / rho
    return float(out) if out.ndim == 0 else out


def _clamp_q(q, floor, out=None):
    # floor is q0 + HATZE_EPS
    return np.minimum(np.maximum(q, floor, out=out), 1.0 - HATZE_EPS, out=out)


def hatze_rhs(q, p: HatzeParams, out=None):
    """Activity rate of the nonlinear model.

    The rate gain*(sigma_rho * free^(1+1/nu) * excess^(1-1/nu) - free*excess),
    with free = 1 - q and excess = q - q0, is evaluated as
    gain * free*excess * (sigma_rho * (free/excess)^(1/nu) - 1), which takes
    one fractional power. The activity is clamped to [q0 + eps, 1 - eps]
    first, which keeps the rhs real when an integrator stage overshoots one
    of the non-Lipschitz boundary fixed points. An array q gets its result
    in ``out``, as numpy's ``out=`` does, or in one fresh array: the clamped
    excess is formed in that array and the result written over it, and the
    arithmetic is done in place on it and the call's own temporaries, never
    on q or a cached factor. A scalar q gets the order-0 value of
    :func:`hatze_partials`, as a float.
    """
    if np.isscalar(q):
        return float(hatze_partials(q, p, 0)[0])
    q_floor, sigma_rho, inv_nu, gain = p.rate_factors
    excess = _clamp_q(q, q_floor, out)
    free = 1.0 - excess
    excess -= p.q0
    ratio = free / excess
    ratio **= inv_nu
    ratio *= sigma_rho
    ratio -= 1.0
    free *= excess
    free *= gain
    return np.multiply(ratio, free, out=out)


def _hatze_basis(p: HatzeParams) -> tuple:
    """``(first, second, mirror)`` of :func:`hatze_partials`.

    Once K and P are fixed, f = K (P W - V) is linear in the activity terms:
    its gradient is the product of ``first`` with (W, V, the partials of W
    in q, q0, nu, those of V in q, q0), and its unique Hessian entries (see
    :func:`_upper_mirror`) the product of ``second`` with those terms, the
    unique second partials of W over (q, q0, nu) row by row, and a constant
    1 that carries V's constant second partials (-2 in q, q; 1 in q, q0).
    By the product rule, a term of W enters with the partials of KP = K*P,
    one of V with those of -K: W's row is (grad KP, H(KP)), W_x's row is
    KP at x and grad KP in the x row and column of the Hessian, and W_xy's
    is KP at (x, y).
    """
    _, P, _, K = p.rate_jets
    KP = K * P
    n = KP.g.size
    upper, mirror = _upper_mirror(n)
    Q, Q0, NU = _HATZE_SLOTS
    kp, k = (KP.v, KP.g, KP.h), (-K.v, -K.g, -K.h)
    firsts = ((kp, Q), (kp, Q0), (kp, NU), (k, Q), (k, Q0))
    pairs = [(a, b) for i, a in enumerate(_HATZE_SLOTS) for b in _HATZE_SLOTS[i:]]
    first = np.zeros((2 + len(firsts), n))
    second = np.zeros((len(first) + len(pairs) + 1, n, n))
    for r, (_, g, h) in enumerate((kp, k)):
        first[r], second[r] = g, h
    for r, ((v, g, _), x) in enumerate(firsts, 2):
        first[r, x] = v
        second[r, x] += g
        second[r, :, x] += g
    for r, (x, y) in enumerate(pairs, len(first)):
        second[r, x, y] = second[r, y, x] = KP.v
    second[-1, Q, Q] = 2.0 * K.v
    second[-1, Q, Q0] = second[-1, Q0, Q] = -K.v
    return first, second[:, upper[0], upper[1]], mirror


def hatze_partials(q: float, p: HatzeParams, order: int = 2):
    """Value, gradient and Hessian of the nonlinear model's rhs over HATZE_VARS.

    The rhs factors as K(q0, m, nu) * (P(sigma, rho_c, ell_rho, ell) * W(q, q0, nu)
    - V(q, q0)). K = nu m/(1-q0) and P = sigma rho depend on the parameters
    only; they are the rhs's own gain and sigma_rho. f is computed as the
    array path of :func:`hatze_rhs` computes it, (r*P - 1) * (V*K) with one
    fractional power r = ((1-q)/(q-q0))^(1/nu); that rhs returns it at a
    scalar q, and order 0 stops there. Orders 1 and 2 take W = V*r and
    write out the partials of W and V, the log terms from differentiating
    the nu-dependent exponents included, and take one product with the
    basis ``p.partials_basis`` (:func:`_hatze_basis`, built once per
    parameter point from the jets ``p.rate_jets``) for the gradient and one
    for the unique Hessian entries, which it mirrors. Returns
    ``(f, grad, hess)`` as :func:`zajac_partials` does, over x = HATZE_VARS.

    Per call at scenario ii with nu = 3 and q = 0.3 (fastest of nine runs
    of 20,000 calls on one Xeon vCPU, Python 3.11, numpy 2.4), order 2 /
    order 1 / order 0: 5.4 / 2.6 / 0.6 us; :func:`hatze_rhs` at a scalar q
    returns the order-0 value as a float in about 1.0 us.

    The W/V block stays hand-written: W on jets with log and exp, and the
    partials of log W scaled by W, were both slower. The gradient and
    Hessian differ from jet products of the same formulas by rounding only
    (see the tests).
    """
    q_floor, sigma_rho, inv_nu, gain = p.rate_factors
    q0 = p.q0
    q = min(max(float(q), q_floor), 1.0 - HATZE_EPS)  # _clamp_q at a scalar
    om = 1.0 - q
    dq = q - q0
    r = (om / dq) ** inv_nu
    V = om * dq
    f = (r * sigma_rho - 1.0) * (V * gain)
    if order == 0:
        return f, None, None
    first, unique, mirror = p.partials_basis
    nu = p.nu
    a = 1.0 + inv_nu
    b = 1.0 - inv_nu
    L = math.log(dq) - math.log(om)
    W = V * r
    g = -a / om + b / dq
    W_nu = W * L / nu**2
    # W, V, W_q, W_q0, W_nu, V_q, V_q0
    terms = [W, V, W * g, -b * W / dq, W_nu, 1.0 - 2.0 * q + q0, -om]
    grad = np.dot(terms, first)
    if order < 2:
        return f, grad, None
    g_q = -a / om**2 - b / dq**2
    g_nu = (1.0 / om + 1.0 / dq) / nu**2
    # W_qq, W_q,q0, W_q,nu, W_q0,q0, W_q0,nu, W_nu,nu and the constant
    terms += [W * (g * g + g_q), W * b * (1.0 / dq**2 - g / dq), W_nu * g + W * g_nu,
              W * b * (b - 1.0) / dq**2, -(W / dq) * (1.0 + b * L) / nu**2,
              W * L / nu**3 * (L / nu - 2.0), 1.0]
    return f, grad, np.dot(terms, unique)[mirror]


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


#: Rat gastrocnemius optimal CE length (mm).
DEFAULT_ELL_OPT = 14.8
#: Exponents of the bell's ascending (ell <= ell_opt) and descending branches.
BELL_NU_ASC = 3.0
BELL_NU_DES = 1.5


@dataclass(frozen=True)
class ForceLengthRelation:
    """Normalized force-length relation, parabola or bell-shaped.

    ``width`` is the parabola half-width at zero force or the bell width of
    both branches, whose exponents are BELL_NU_ASC and BELL_NU_DES. Lengths
    are in millimetres; the curve equals 1 at the optimal CE length.
    """

    kind: str
    width: float
    ell_opt: float = DEFAULT_ELL_OPT

    def __post_init__(self):
        self.check_kind(self.kind)
        if not np.greater(self.width, 0.0).all():  # width may be a column of rows
            raise ValueError(f"width must be positive, got {self.width}")
        if not self.ell_opt > 0.0:
            raise ValueError(f"ell_opt must be positive, got {self.ell_opt}")

    @staticmethod
    def check_kind(kind) -> None:
        """ValueError unless ``kind`` is one of the two relations."""
        if kind not in ("parabola", "bell"):
            raise ValueError(f"kind must be 'parabola' or 'bell', got {kind!r}")


def _force_length_log_slopes(ell_rel, rel: ForceLengthRelation, n: int = 3):
    """Descending-branch derivatives of log F_L for :func:`force_length_relative`.

    Valid for 1 < ell_rel (and ell_rel < 1 + width for the parabola); with
    delta = ell_rel - 1 and w the width, returns the first ``n`` of
    (log F_L)_u, (log F_L)_uu and d/d(log w) of (log F_L)_u, as a tuple,
    computing only those. Bell, e = BELL_NU_DES: -e delta^(e-1)/w^e,
    (e - 1)/delta times that, and -e times it. Parabola: -2 delta/(w^2 - delta^2),
    -2 (w^2 + delta^2)/(w^2 - delta^2)^2 and 4 delta w^2/(w^2 - delta^2)^2.
    """
    delta = ell_rel - 1.0
    if rel.kind == "parabola":
        w2 = rel.width**2
        gap = w2 - delta**2
        slope = -2.0 * delta / gap
        if n == 1:
            return (slope,)
        curv = -2.0 * (w2 + delta**2) / gap**2
        return (slope, curv) if n == 2 else (slope, curv, 4.0 * delta * w2 / gap**2)
    e = BELL_NU_DES
    slope = -e * delta ** (e - 1.0) / rel.width**e
    if n == 1:
        return (slope,)
    curv = (e - 1.0) * slope / delta
    return (slope, curv) if n == 2 else (slope, curv, -e * slope)


def _force_length_slope_root(a, rel: ForceLengthRelation):
    """The delta > 0 at which the descending (log F_L)_u of
    :func:`_force_length_log_slopes` equals -a, for a > 0: (a w^e/e)^(1/(e-1))
    for the bell, a w^2/(1 + sqrt(1 + a^2 w^2)) for the parabola."""
    if rel.kind == "parabola":
        aw = a * rel.width
        return aw * rel.width / (1.0 + np.sqrt(1.0 + aw * aw))
    e = BELL_NU_DES
    return (a * rel.width**e / e) ** (1.0 / (e - 1.0))


def force_length_relative(ell_rel, rel: ForceLengthRelation):
    """Evaluate the force-length relation at relative CE length (value in [0, 1])."""
    ell_rel = np.asarray(ell_rel, dtype=float)
    delta = ell_rel - 1.0
    if rel.kind == "parabola":
        out = np.maximum(0.0, 1.0 - (delta / rel.width) ** 2)
    else:
        exponent = np.where(ell_rel <= 1.0, BELL_NU_ASC, BELL_NU_DES)
        out = np.exp(-((np.abs(delta) / rel.width) ** exponent))
    return float(out) if out.ndim == 0 else out


def force_length(ell_ce, rel: ForceLengthRelation):
    """Evaluate the force-length relation at absolute CE length in mm."""
    ell_ce = np.asarray(ell_ce, dtype=float)
    if not (ell_ce > 0.0).all():
        raise ValueError("ell_ce must be positive")
    return force_length_relative(ell_ce / rel.ell_opt, rel)


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
    built-in models return :func:`zajac_partials`/:func:`hatze_partials` at
    every order: f is the rhs's value at the scalar state bit for bit, and
    grad and hess are products of the activity terms with the bound point's
    ``partials_basis``, which is built once from the jets of the rhs's own
    rate factors.
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


def _scalar_model(name, cls, partials) -> ModelSpec:
    """ModelSpec of a scalar model from its parameter class and partials.

    The names are ``cls.canonical_order()``, the initial value first, and
    ``cls.from_canonical`` maps values in that order to a parameter object p;
    ``partials(q, p, order)`` is the activity rate's ``(f, grad, hess)`` over
    (q, *names[1:]) at every order, which derivs returns with a leading
    state axis.

    derivs binds lam to its parameter object once per solve: it keeps the
    objects of the last two lam values it saw, keyed on those values (so an
    in-place edit of lam binds anew), and with them their cached factors,
    jets and ``partials_basis``: the first call at order 1 or 2 builds the
    basis, every later call runs no jet arithmetic, and a call at order 0
    reads the rate factors only. Two are kept so that the stacked (+h, -h)
    systems of a central difference each keep theirs. An object's q_init is
    the state at its first call, which is harmless because the partials
    never read it.
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
        f, g, H = partials(q, p, order)
        return np.array([f]), None if g is None else g[None], None if H is None else H[None]

    return ModelSpec(name=name, param_names=names[1:], init_names=names[:1],
                     derivs=derivs, params_of=params_of)


def zajac_model() -> ModelSpec:
    """ModelSpec for the linear activation dynamics."""
    return _scalar_model("zajac", ZajacParams, zajac_partials)


def hatze_model() -> ModelSpec:
    """ModelSpec for the nonlinear length-dependent activation dynamics."""
    return _scalar_model("hatze", HatzeParams, hatze_partials)


def simplified_zajac_model() -> ModelSpec:
    """ModelSpec for the simplified linear dynamics (beta = 1, q0 = 0)."""
    return _scalar_model("simplified-zajac", _SimplifiedZajacParams, zajac_partials)
