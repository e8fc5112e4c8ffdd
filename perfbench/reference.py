"""Independent references for the benchmark's correctness gates.

The linear (zajac) model with constant stimulation has the closed-form
solution

    q(t) = q_ss + (q_init - q_ss) * exp(-k t),
    k    = (sigma (1 - beta) + beta) / (tau (1 - q0)),
    q_ss = q0 + sigma (1 - q0) / (sigma (1 - beta) + beta).

Its first and second parameter derivatives are taken exactly by evaluating
that expression on second-order forward-mode jets, so the reference shares no
code with the package's sensitivity equations or its integrator.
"""

from __future__ import annotations

import numpy as np

#: Column order of the zajac CLI output: the initial value, then parameters.
ZAJAC_NAMES = ("q_Z0", "sigma", "q0", "tau", "beta")


class Jet:
    """Value with exact gradient and Hessian over P variables (trailing time axis)."""

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @classmethod
    def variable(cls, value: float, index: int, n_vars: int) -> "Jet":
        grad = np.zeros((n_vars, 1))
        grad[index] = 1.0
        return cls(np.array([float(value)]), grad, np.zeros((n_vars, n_vars, 1)))

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        val = np.atleast_1d(np.asarray(other, dtype=float))
        p = self.grad.shape[0]
        return Jet(val, np.zeros((p,) + val.shape), np.zeros((p, p) + val.shape))

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        cross = self.grad[:, None] * o.grad[None, :]
        return Jet(
            self.val * o.val,
            self.grad * o.val + self.val * o.grad,
            self.hess * o.val + cross + cross.transpose(1, 0, 2) + self.val * o.hess,
        )

    def _chain(self, f0, f1, f2) -> "Jet":
        """Apply a scalar function given its value and first two derivatives."""
        outer = self.grad[:, None] * self.grad[None, :]
        return Jet(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def reciprocal(self) -> "Jet":
        r = 1.0 / self.val
        return self._chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def exp(self) -> "Jet":
        e = np.exp(self.val)
        return self._chain(e, e, e)


def zajac_closed_form(params: dict[str, float], times: np.ndarray) -> Jet:
    """q(t) as a Jet over ZAJAC_NAMES (value shape (T,), gradient (5, T), Hessian (5, 5, T))."""
    n = len(ZAJAC_NAMES)
    q_init, sigma, q0, tau, beta = (
        Jet.variable(params[name], i, n) for i, name in enumerate(ZAJAC_NAMES)
    )
    s = sigma * (1.0 - beta) + beta
    k = s / (tau * (1.0 - q0))
    q_ss = q0 + sigma * (1.0 - q0) / s
    return q_ss + (q_init - q_ss) * (-(k * np.asarray(times, dtype=float))).exp()


def zajac_relative(params: dict[str, float], times: np.ndarray):
    """State, relative first-order and relative second-order sensitivities.

    Returns (q, s_rel, r_rel): s_rel[i] = dq/dp_i * p_i / q over ZAJAC_NAMES,
    r_rel[i, j] = d2q/dp_i dp_j * p_i p_j / q over the parameters only (the
    initial value excluded), matching the CLI's ``s_rel.csv``/``r_rel.csv``.
    """
    jet = zajac_closed_form(params, times)
    lam = np.array([params[name] for name in ZAJAC_NAMES])
    q = jet.val
    s_rel = jet.grad * lam[:, None] / q
    r_rel = jet.hess[1:, 1:] * (lam[1:, None] * lam[None, 1:])[:, :, None] / q
    return q, s_rel, r_rel
