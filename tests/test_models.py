import collections
import dataclasses
import functools
import math
import re

import numpy as np
import pytest

from actsens import (
    DegenerateState,
    DomainViolation,
    ForceLengthRelation,
    HatzeParams,
    OdeProblem,
    ParameterOutOfRange,
    PoleViolation,
    Tolerances,
    ZajacParams,
    analyze,
    force_length,
    force_length_relative,
    hatze_gamma_of_q,
    hatze_model,
    hatze_partials,
    hatze_q_of_gamma,
    hatze_rho,
    hatze_rhs,
    hatze_steady_state,
    integrate,
    make_grid,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    simplified_zajac_solution,
    zajac_model,
    zajac_partials,
    zajac_rhs,
    zajac_steady_state,
)
from actsens import models
from actsens.cli import _MODELS
from actsens.models import (
    HATZE_EPS,
    HATZE_VARS,
    ZAJAC_VARS,
    _Jet,
    _force_length_log_slopes,
    _force_length_slope_root,
    _hatze_log_q_slopes,
)
from actsens.presets import (
    all_hatze_scenarios,
    all_zajac_scenarios,
    builtin_cuboid,
    simplified_zajac_scenario,
)


# ---------------------------------------------------------------------------
# finite-difference helpers for the derivative oracles
# ---------------------------------------------------------------------------


def _sigma_shift(values, var, h):
    """h where a stencil of half-width h along var would step past sigma's
    closed end 1, else 0: that stencil is centred at sigma - h instead, which
    the rates, affine in sigma, do not notice."""
    return h if var == "sigma" and values["sigma"] + h > 1.0 else 0.0


def _fd_bundle(fun, q, values, var, h):
    """Central first/second differences of fun(q, values-dict) along var."""
    up, dn, mid = dict(values), dict(values), dict(values)
    qp = qm = q
    if var == "q":
        qp, qm = q + h, q - h
    else:
        shift = _sigma_shift(values, var, h)
        up[var] += h - shift
        dn[var] -= h + shift
        mid[var] -= shift
    fp, fm, f0 = fun(qp, up), fun(qm, dn), fun(q, mid)
    return (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / h**2


def _fd_cross(fun, q, values, va, vb, ha, hb):
    def shifted(da, db):
        vv = dict(values)
        qq = q
        for var, d, h in ((va, da, ha), (vb, db, hb)):
            if var == "q":
                qq += d
            else:
                vv[var] += d - _sigma_shift(values, var, h)
        return fun(qq, vv)
    return (shifted(ha, hb) - shifted(ha, -hb) - shifted(-ha, hb)
            + shifted(-ha, -hb)) / (4 * ha * hb)


def _zajac_f(q, vals):
    return zajac_rhs(q, ZajacParams(sigma=vals["sigma"], q0=vals["q0"],
                                    tau=vals["tau"], beta=vals["beta"]))


def _hatze_f(q, vals):
    return hatze_rhs(q, HatzeParams(
        sigma=vals["sigma"], q0=vals["q0"], m=vals["m"], rho_c=vals["rho_c"],
        nu=vals["nu"], ell_rho=vals["ell_rho"], ell_ce_rel=vals["ell_CErel"],
        q_init=0.5))


# ---------------------------------------------------------------------------
# linear model
# ---------------------------------------------------------------------------


def test_zajac_rhs_at_basic_activity():
    p = ZajacParams(sigma=1.0, q0=0.005, tau=0.025, beta=1.0)
    # q = q0 annihilates the deactivation terms, leaving sigma/tau
    assert zajac_rhs(0.005, p) == pytest.approx(40.0, rel=1e-12)


def test_zajac_rhs_saturation_fixed_point():
    p = ZajacParams(sigma=1.0, q0=0.0, tau=0.025, beta=1.0)
    assert zajac_rhs(1.0, p) == pytest.approx(0.0, abs=1e-14)


def test_zajac_rhs_direct_substitution():
    p = ZajacParams(sigma=0.4, q0=0.005, tau=0.025, beta=1.0 / 3.0)
    assert zajac_rhs(0.5, p) == pytest.approx(4.060301507537688, rel=1e-12)


def test_zajac_beta_partial_vanishes_at_full_stimulation():
    p = ZajacParams(sigma=1.0, q0=0.005, tau=0.025, beta=0.5)
    for q in (0.005, 0.3, 0.9):
        assert zajac_partials(q, p)[1][ZAJAC_VARS.index("beta")] == 0.0


def test_zajac_state_partial_reduces_at_beta_one():
    p = ZajacParams(sigma=0.7, q0=0.01, tau=0.02, beta=1.0)
    assert zajac_partials(0.4, p)[1][ZAJAC_VARS.index("q")] == pytest.approx(
        -1.0 / (0.02 * 0.99), rel=1e-12)


def test_zajac_beta_partial_formula():
    p = ZajacParams(sigma=0.3, q0=0.005, tau=0.025, beta=0.6)
    q = 0.2
    expect = (q - p.q0) * (p.sigma - 1.0) / (p.tau * (1.0 - p.q0))
    assert zajac_partials(q, p)[1][ZAJAC_VARS.index("beta")] == pytest.approx(
        expect, rel=1e-12)


@pytest.mark.parametrize("q,vals", [
    (0.31, dict(sigma=0.62, q0=0.013, tau=0.021, beta=0.47)),
    (0.9, dict(sigma=1.0, q0=0.005, tau=0.025, beta=1.0)),
    (0.05, dict(sigma=0.1, q0=0.005, tau=0.05, beta=0.1)),
])
def test_zajac_partials_match_finite_differences(q, vals):
    p = ZajacParams(**vals)
    _, grad, hess = zajac_partials(q, p)
    for i, var in enumerate(ZAJAC_VARS):
        lam = q if var == "q" else vals[var]
        d1, _ = _fd_bundle(_zajac_f, q, vals, var, 1e-6 * max(1.0, abs(lam)))
        assert grad[i] == pytest.approx(d1, rel=1e-6, abs=1e-8)
        _, d2 = _fd_bundle(_zajac_f, q, vals, var, 1e-4 * max(1.0, abs(lam)))
        assert hess[i, i] == pytest.approx(d2, rel=1e-4, abs=1e-4)
    for i, va in enumerate(ZAJAC_VARS):
        for j, vb in enumerate(ZAJAC_VARS[i + 1:], i + 1):
            ha = 1e-4 * max(1.0, abs(q if va == "q" else vals[va]))
            hb = 1e-4 * max(1.0, abs(q if vb == "q" else vals[vb]))
            ref = _fd_cross(_zajac_f, q, vals, va, vb, ha, hb)
            assert hess[i, j] == pytest.approx(ref, rel=1e-4, abs=1e-6)


def test_zajac_second_tau_partial_is_two_f_over_tau_squared():
    p = ZajacParams(sigma=0.4, q0=0.005, tau=0.025, beta=1.0 / 3.0)
    q = 0.5
    hess = zajac_partials(q, p)[2]
    tau = ZAJAC_VARS.index("tau")
    assert hess[tau, tau] == pytest.approx(
        2.0 * zajac_rhs(q, p) / p.tau**2, rel=1e-12)


def test_zajac_steady_state_values():
    assert zajac_steady_state(ZajacParams(sigma=1.0, beta=0.3)) == pytest.approx(1.0)
    assert zajac_steady_state(
        ZajacParams(sigma=0.5, q0=0.005, beta=1.0)) == pytest.approx(0.5025)
    assert zajac_steady_state(
        ZajacParams(sigma=0.5, q0=0.0, beta=1.0 / 3.0)) == pytest.approx(0.75)
    assert zajac_steady_state(ZajacParams(sigma=0.0, q0=0.01)) == 0.01


def test_zajac_params_validation():
    with pytest.raises(ValueError):
        ZajacParams(sigma=1.2).validate()
    with pytest.raises(ValueError):
        ZajacParams(sigma=0.5, tau=-1.0).validate()
    with pytest.raises(ValueError):
        ZajacParams(sigma=0.5, q0=0.05, q_init=0.01).validate()


# ---------------------------------------------------------------------------
# nonlinear model
# ---------------------------------------------------------------------------


def test_hatze_rho_at_optimal_length():
    assert hatze_rho(1.0, 7.24, 2.9) == pytest.approx(7.24, rel=1e-14)
    assert hatze_rho(1.0, 9.10, 2.9) == pytest.approx(9.10, rel=1e-14)


def test_hatze_rho_direct_evaluation():
    assert hatze_rho(0.5, 7.24, 2.9) == pytest.approx(7.24 * 1.9 / 4.8, rel=1e-14)
    assert hatze_rho(0.5, 7.24, 2.9) == pytest.approx(2.8658333333333332, rel=1e-12)


def test_hatze_rho_pole_violation():
    with pytest.raises(PoleViolation):
        hatze_rho(2.9, 7.24, 2.9)
    with pytest.raises(ParameterOutOfRange):
        hatze_rho(-0.1, 7.24, 2.9)


def test_batched_pole_violation_names_the_first_bad_entry():
    # a batched check reports the count and the first failing entry, not the arrays
    ell = np.full(300, 1.0)
    ell[[7, 40]] = 3.0
    with pytest.raises(PoleViolation) as info:
        hatze_rho(ell, 7.24, np.full(300, 2.9))
    message = str(info.value)
    assert "2 of 300 entries fail, the first at index 7: ell_CErel=3.0, ell_rho=2.9" in message
    assert len(message) < 300


def test_hatze_activity_from_concentration():
    p = HatzeParams(sigma=0.5, q0=0.005, nu=3.0, rho_c=7.24)
    assert hatze_q_of_gamma(0.0, 1.0, p) == pytest.approx(0.005, rel=1e-14)
    assert hatze_q_of_gamma(1e9, 1.0, p) == pytest.approx(1.0, abs=1e-9)
    assert hatze_q_of_gamma(0.1, 1.0, p) == pytest.approx(
        0.27872596567038315, rel=1e-12)


def test_hatze_gamma_roundtrip():
    p = HatzeParams(sigma=0.5, q0=0.005, nu=2.0, rho_c=9.10)
    for q in (0.01, 0.2, 0.8, 0.99):
        gamma = hatze_gamma_of_q(q, 1.0, p)
        assert hatze_q_of_gamma(gamma, 1.0, p) == pytest.approx(q, rel=1e-12)


def test_hatze_rhs_decays_toward_basic_activity():
    p = HatzeParams(sigma=0.0, q0=0.005, q_init=0.5)
    assert hatze_rhs(0.005 + 1e-6, p) < 0.0 or abs(hatze_rhs(0.005 + 1e-6, p)) < 1e-4
    assert hatze_rhs(0.5, p) < 0.0  # no stimulation: activity decays


def test_hatze_rhs_fixed_point_residual():
    p = HatzeParams(sigma=0.3, q0=0.005, m=10.0, nu=3.0, rho_c=7.24, q_init=0.01)
    q_star = hatze_steady_state(p)
    assert abs(hatze_rhs(q_star, p)) < 1e-12


def test_hatze_rhs_direct_substitution():
    p = HatzeParams(sigma=0.1, q0=0.005, m=10.0, nu=2.0, rho_c=9.10,
                    ell_ce_rel=1.0, q_init=0.01)
    assert hatze_rhs(0.1, p) == pytest.approx(3.0950499909940953, rel=1e-12)


def test_hatze_rhs_clamps_out_of_domain_activity():
    p = HatzeParams(sigma=0.5, q0=0.005, q_init=0.01)
    assert hatze_rhs(0.002, p) == hatze_rhs(p.q0 + HATZE_EPS, p)
    assert hatze_rhs(1.0, p) == hatze_rhs(1.0 - HATZE_EPS, p)


def test_hatze_sigma_partial_positive_interior():
    p = HatzeParams(sigma=0.4, q0=0.005, nu=3.0, rho_c=7.24, q_init=0.01)
    for q in (0.05, 0.3, 0.9):
        assert hatze_partials(q, p)[1][HATZE_VARS.index("sigma")] > 0.0


def test_hatze_sigma_rho_c_partials_scale_identically():
    # both enter through one product: sigma * df/dsigma == rho_c * df/drho_c
    p = HatzeParams(sigma=0.4, q0=0.005, nu=3.0, rho_c=7.24, q_init=0.01)
    for q in (0.05, 0.3, 0.9):
        grad = hatze_partials(q, p)[1]
        assert grad[HATZE_VARS.index("sigma")] * p.sigma == pytest.approx(
            grad[HATZE_VARS.index("rho_c")] * p.rho_c, rel=1e-12)


@pytest.mark.parametrize("q,vals", [
    (0.37, dict(sigma=0.43, q0=0.011, m=7.3, rho_c=8.2, nu=2.7,
                ell_rho=2.9, ell_CErel=0.93)),
    (0.12, dict(sigma=0.1, q0=0.005, m=10.0, rho_c=9.10, nu=2.0,
                ell_rho=2.9, ell_CErel=1.0)),
    (0.85, dict(sigma=1.0, q0=0.005, m=10.0, rho_c=7.24, nu=3.0,
                ell_rho=2.9, ell_CErel=1.2)),
])
def test_hatze_partials_match_finite_differences(q, vals):
    _, grad, hess = hatze_partials(q, HatzeParams(
        sigma=vals["sigma"], q0=vals["q0"], m=vals["m"], rho_c=vals["rho_c"],
        nu=vals["nu"], ell_rho=vals["ell_rho"], ell_ce_rel=vals["ell_CErel"],
        q_init=0.5))
    for i, var in enumerate(HATZE_VARS):
        lam = q if var == "q" else vals[var]
        h = 1e-6 * max(1.0, abs(lam))
        d1, _ = _fd_bundle(_hatze_f, q, vals, var, h)
        assert grad[i] == pytest.approx(d1, rel=1e-5, abs=1e-7)
        h2 = 1e-4 * max(1.0, abs(lam))
        _, d2 = _fd_bundle(_hatze_f, q, vals, var, h2)
        assert hess[i, i] == pytest.approx(d2, rel=1e-4, abs=1e-4)
    for i, va in enumerate(HATZE_VARS):
        for j, vb in enumerate(HATZE_VARS[i + 1:], i + 1):
            ha = 1e-4 * max(1.0, abs(q if va == "q" else vals[va]))
            hb = 1e-4 * max(1.0, abs(q if vb == "q" else vals[vb]))
            ref = _fd_cross(_hatze_f, q, vals, va, vb, ha, hb)
            assert hess[i, j] == pytest.approx(ref, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_parameter_hessian_is_exactly_symmetric(model):
    # the partials compute each unique Hessian entry once and mirror it
    # (models._upper_mirror), so hess[a, b] and hess[b, a] are one value;
    # summing mirrored terms separately would differ in the last bit at
    # some points
    spec = zajac_model() if model == "zajac" else hatze_model()
    cuboid = builtin_cuboid(model)
    rows = cuboid.scale(np.random.default_rng(3).random((500, cuboid.n_params)))
    for row in rows:
        hess = spec.derivs(0.0, row[:1], row[1:], 2)[2]
        assert np.array_equal(hess, hess.transpose(0, 2, 1))


def test_upper_mirror_is_built_once_per_size_and_read_only():
    # localsens stacks R's rows and the CLI names r_rel.csv's columns from
    # this one enumeration, so nobody may edit the shared arrays
    (ii, jj), mirror = models._upper_mirror(4)
    assert models._upper_mirror(4)[1] is mirror
    assert [(int(i), int(j)) for i, j in zip(ii, jj)] == [
        (i, j) for i in range(4) for j in range(i, 4)]
    assert np.array_equal(mirror, mirror.T)
    for a in (ii, jj, mirror):
        assert not a.flags.writeable


def _interior_points(model, n=50):
    """Seeded points x = (q_init, params) inside the model's built-in bounds.

    u stays in [0.05, 0.95], so the activity keeps clear of the hatze
    model's clamped ends; simplified-zajac takes zajac's (q_Z0, sigma, tau).
    """
    cuboid = builtin_cuboid("zajac" if model == "simplified-zajac" else model)
    rows = cuboid.scale(np.random.default_rng(5).uniform(0.05, 0.95, (n, cuboid.n_params)))
    if model == "simplified-zajac":
        rows = rows[:, [cuboid.names.index(k) for k in ("q_Z0", "sigma", "tau")]]
    return rows


_PARTIALS = {"zajac": (zajac_rhs, zajac_partials), "hatze": (hatze_rhs, hatze_partials),
             "simplified-zajac": (zajac_rhs, zajac_partials)}


@pytest.mark.parametrize("model", list(_MODELS))
def test_derivs_contract_of_builtin_models(model):
    # (f, grad, hess) over x = (y, lam): shapes by order, an exactly symmetric
    # hess, and grad/hess equal to central differences of derivs itself; the
    # parameter-only jets carry the rhs's own rate factors bit for bit, and
    # f is the rhs's own value at every order
    spec = _MODELS[model][0]()
    rhs = _PARTIALS[model][0]
    M, D = spec.dim, spec.dim + spec.n_params

    def at(x, order):
        return spec.derivs(0.0, x[:M], x[M:], order)

    for x in _interior_points(model):
        f0, g0, h0 = at(x, 0)
        f1, g1, h1 = at(x, 1)
        f, grad, hess = at(x, 2)
        assert f0.shape == f1.shape == f.shape == (M,)
        assert g0 is None and h0 is None and h1 is None
        assert g1.shape == grad.shape == (M, D) and hess.shape == (M, D, D)
        assert np.array_equal(f1, f) and np.array_equal(g1, grad)
        assert np.array_equal(hess, hess.transpose(0, 2, 1))
        p = spec.params_of(*x)
        assert np.array_equal(f0, f) and np.array_equal(f, [rhs(x[0], p)])
        assert tuple(j.v for j in p.rate_jets) == p.rate_factors
        for a in range(D):
            # step 1e-6 relative: truncation and rounding stay near 1e-8 of
            # max(1, |partial|) (measured at most 1.4e-8)
            h = 1e-6 * max(1.0, abs(x[a]))
            up, dn = x.copy(), x.copy()
            up[a] += h
            dn[a] -= h
            d1 = (at(up, 0)[0] - at(dn, 0)[0]) / (2.0 * h)
            d2 = (at(up, 1)[1] - at(dn, 1)[1]) / (2.0 * h)
            assert np.all(np.abs(d1 - grad[:, a]) <= 1e-6 * np.maximum(1.0, np.abs(grad[:, a])))
            assert np.all(np.abs(d2 - hess[:, a]) <= 1e-6 * np.maximum(1.0, np.abs(hess[:, a])))


@pytest.mark.parametrize("model", list(_MODELS))
def test_derivs_binds_parameters_by_value(model):
    # derivs reuses one parameter object per lam; a lam seen before, another
    # one, and the same array edited in place must all give what a fresh
    # object gives
    spec = _MODELS[model][0]()
    rhs, partials = _PARTIALS[model]
    x1, x2 = _interior_points(model)[:2]
    lam1, lam2 = x1[1:].copy(), x2[1:].copy()
    q = np.array([0.5 * (x1[0] + x2[0])])

    def check(lam):
        fresh = spec.params_of(float(q[0]), *lam.copy())
        for order in (0, 1, 2):
            f, grad, hess = spec.derivs(0.0, q, lam, order)
            ref = partials(float(q[0]), fresh, order)
            assert np.array_equal(f, [ref[0]]) and ref[0] == rhs(float(q[0]), fresh)
            assert (grad is None) if order == 0 else np.array_equal(grad, ref[1][None])
            assert (hess is None) if order < 2 else np.array_equal(hess, ref[2][None])

    for lam in (lam1, lam2, lam1):
        check(lam)
    lam1[1] *= 0.99  # in place: same array, new values
    check(lam1)


@pytest.mark.parametrize("model", list(_MODELS))
def test_a_point_lists_exactly_the_canonical_order(model):
    # a manifest writes as_dict() as it is, so a point names the model's
    # parameters and nothing else
    spec = _MODELS[model][0]()
    assert tuple(spec.params_of(*_interior_points(model)[0]).as_dict()) == spec.canonical_order


def test_simplified_derivs_are_the_restricted_linear_partials():
    # the simplified model's blocks are the linear model's at q0 = 0, beta = 1,
    # restricted by index to (q, sigma, tau), bit for bit
    spec = simplified_zajac_model()
    keep = [ZAJAC_VARS.index(v) for v in ("q", "sigma", "tau")]
    for q_init, sigma, tau in _interior_points("simplified-zajac"):
        full = ZajacParams(sigma=sigma, q0=0.0, tau=tau, beta=1.0, q_init=q_init)
        for order in (1, 2):
            f, grad, hess = spec.derivs(0.0, np.array([q_init]), np.array([sigma, tau]), order)
            ref_f, ref_grad, ref_hess = zajac_partials(q_init, full, order)
            assert f.tobytes() == np.array([ref_f]).tobytes()
            assert grad[0].tobytes() == ref_grad[keep].tobytes()
            if order == 2:
                assert hess[0].tobytes() == ref_hess[np.ix_(keep, keep)].tobytes()


def _jet_partials(model, q, p):
    """The rhs's (f, grad, hess) as products of jets over the model's VARS,
    the form the cached basis replaced: j0 - q*j1 with the state q as a jet
    for zajac, and K * (P * W - V) with the hand-written jets of W and V for
    hatze, W = (1-q)^(1+1/nu) (q-q0)^(1-1/nu) with two powers. An independent
    oracle for zajac_partials and hatze_partials; a fourth entry is the size
    of f's terms, |c0| + |c1 q| or K (P W + V)."""
    n = len(p.RANGES)  # the state q, then the parameters
    if model == "zajac":
        j0, j1 = p.rate_jets
        f = j0 - _Jet(q, np.eye(n)[0], np.zeros((n, n))) * j1
        return f.v, f.g, f.h, abs(j0.v) + abs(j1.v * q)
    q0, nu = p.q0, p.nu
    q = min(max(q, q0 + HATZE_EPS), 1.0 - HATZE_EPS)
    Q, Q0, NU = (HATZE_VARS.index(v) for v in ("q", "q0", "nu"))
    _, P, _, K = p.rate_jets
    w1, v1, w2, v2 = np.zeros(n), np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    a, b = 1.0 + 1.0 / nu, 1.0 - 1.0 / nu
    om, dq = 1.0 - q, q - q0
    L = math.log(dq) - math.log(om)
    W = om**a * dq**b
    g = -a / om + b / dq
    W_nu = W * L / nu**2
    w1[Q], w1[Q0], w1[NU] = W * g, -b * W / dq, W_nu
    w2[Q, Q] = W * (g * g - a / om**2 - b / dq**2)
    w2[Q, Q0] = w2[Q0, Q] = W * b * (1.0 / dq**2 - g / dq)
    w2[NU, Q] = w2[Q, NU] = W_nu * g + W * (1.0 / om + 1.0 / dq) / nu**2
    w2[Q0, Q0] = W * b * (b - 1.0) / dq**2
    w2[NU, Q0] = w2[Q0, NU] = -(W / dq) * (1.0 + b * L) / nu**2
    w2[NU, NU] = W * L / nu**3 * (L / nu - 2.0)
    v1[Q], v1[Q0] = 1.0 - 2.0 * q + q0, -om
    v2[Q, Q] = -2.0
    v2[Q, Q0] = v2[Q0, Q] = 1.0
    f = K * (P * _Jet(W, w1, w2) - _Jet(om * dq, v1, v2))
    return f.v, f.g, f.h, K.v * (P.v * W + om * dq)


def _basis_points(model):
    """(q, p) at 500 seeded interior points, and for hatze also at both
    clamp ends of each point."""
    cls = ZajacParams if model == "zajac" else HatzeParams
    rows = _interior_points(model, n=500)
    points = [(float(x[0]), cls.from_canonical(*map(float, x))) for x in rows]
    if model == "hatze":
        points += [(q, p) for _, p in points for q in (p.q0 + 1e-12, 1.0 - 1e-12)]
    return points


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_basis_partials_match_the_jet_products(model):
    # Every order gives the rhs's own f, and orders 1 and 2 the same grad.
    # zajac's f is the jets' value expression on floats and its
    # base + q*slope rounds as the jets do, so f, grad and hess agree with
    # the jets exactly. hatze's f takes one power, W = V*r, where the jets'
    # W takes two, and its products sum the jets' terms in another order:
    # bound 1e-14, about 45 ulp, of the size of f's terms and of the
    # largest entry of grad and hess (measured at most 2.0e-15 in f and
    # 3.5e-15 in hess, at clamp ends, and 4.7e-15 in grad, at an interior
    # point).
    partials, rhs = _PARTIALS[model][::-1]
    bound = 0.0 if model == "zajac" else 1e-14
    for q, p in _basis_points(model):
        ref_f, ref_g, ref_h, size = _jet_partials(model, q, p)
        f0, g0, h0 = partials(q, p, 0)
        f1, g1, h1 = partials(q, p, 1)
        f, grad, hess = partials(q, p)
        assert g0 is None and h0 is None and h1 is None
        assert f0 == f1 == f == rhs(q, p) and np.array_equal(g1, grad)
        assert abs(f - ref_f) <= bound * size
        for got, ref in ((grad, ref_g), (hess, ref_h)):
            assert np.abs(got - ref).max() <= bound * np.abs(ref).max()


@pytest.mark.parametrize("model, order", [("zajac", 2), ("hatze", 2), ("zajac", 0), ("hatze", 0)],
                         ids=["zajac", "hatze", "zajac-order0", "hatze-order0"])
def test_a_solve_runs_jet_arithmetic_only_to_build_each_basis(model, order, monkeypatch):
    # a deterministic work guard: during analyze at order 2 on a panel, each
    # parameter object that derivs binds builds its basis once, all jet
    # arithmetic runs inside those builds, and no rhs evaluation runs any;
    # at order 0 every rhs evaluation still goes through the partials, and
    # none builds a basis or runs jet arithmetic
    counts = collections.Counter()
    inside = []  # where the running code is: "rhs", then "build" within it

    def counted(op):
        def run(self, other):
            counts[inside[-1] if inside else "outside"] += 1
            return op(self, other)
        return run

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(_Jet, name, counted(getattr(_Jet, name)))
    build, partials = getattr(models, f"_{model}_basis"), getattr(models, f"{model}_partials")
    built, bound = [], []

    def counting_build(p):
        built.append(p)
        inside.append("build")
        try:
            return build(p)
        finally:
            inside.pop()

    def recording_partials(q, p, order=2):
        bound.append(p)
        return partials(q, p, order)

    monkeypatch.setattr(models, f"_{model}_basis", counting_build)
    monkeypatch.setattr(models, f"{model}_partials", recording_partials)
    spec = getattr(models, f"{model}_model")()  # binds the recording partials

    def derivs(t, y, lam, order):
        inside.append("rhs")
        try:
            return spec.derivs(t, y, lam, order)
        finally:
            inside.pop()

    scenarios = all_zajac_scenarios() if model == "zajac" else all_hatze_scenarios()
    analyze(dataclasses.replace(spec, derivs=derivs), scenarios[0][1], make_grid(0.5, 201),
            order=order)
    if order == 0:
        assert len(bound) > 100 and not built and not counts
        return
    objects = {id(p) for p in bound}
    assert len(built) == len(objects) and {id(p) for p in built} == objects
    assert len(bound) > 100 * len(built)
    assert set(counts) == {"build"}


def test_derivs_raises_at_the_pole_on_every_call():
    spec = hatze_model()
    lam = np.array([0.5, 0.005, 10.0, 7.24, 3.0, 2.9, 2.9])  # ell_CErel = ell_rho
    for order in (0, 2, 0, 1, 2):
        with pytest.raises(PoleViolation):
            spec.derivs(0.0, np.array([0.3]), lam, order)


@pytest.mark.parametrize("cls", [ZajacParams, HatzeParams])
def test_ranges_follow_the_canonical_order(cls):
    # RANGES lists the fields in canonical order, NAMES renames those whose
    # canonical name differs; the spec, the CLI and bounds files read both
    spec = {ZajacParams: zajac_model, HatzeParams: hatze_model}[cls]()
    assert tuple(cls.NAMES.get(f, f) for f in cls.RANGES) == spec.canonical_order
    values = np.arange(1.0, len(cls.RANGES) + 1)
    assert [getattr(cls.from_canonical(*values), f) for f in cls.RANGES] == list(values)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("params", [ZajacParams(sigma=0.5), HatzeParams(sigma=0.5, q_init=0.5)],
                         ids=["zajac", "hatze"])
def test_validate_rejects_non_finite_fields(params, bad):
    params.validate()
    for field in params.RANGES:
        with pytest.raises(ParameterOutOfRange) as exc:
            dataclasses.replace(params, **{field: bad}).validate()
        assert exc.value.field == field


@pytest.mark.parametrize("params", [ZajacParams(sigma=0.5), HatzeParams(sigma=0.5, q_init=0.5),
                                    simplified_zajac_model().params_of(0.1, 0.5, 0.025)],
                         ids=["zajac", "hatze", "simplified-zajac"])
def test_parameter_points_are_frozen(params):
    # the cached rate factors, jets and partials basis can never go stale
    basis = params.partials_basis
    for field in params.RANGES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, field, 0.5)
    assert params.partials_basis is basis


def _params_of(model, cols):
    """Params from parameter columns (arrays) or from one row's values (floats)."""
    if model == "zajac":
        q_init, sigma, q0, tau, beta = cols
        return ZajacParams(sigma=sigma, q0=q0, tau=tau, beta=beta, q_init=q_init)
    q_init, sigma, q0, m, rho_c, nu, ell_rho, ell = cols
    return HatzeParams(sigma=sigma, q0=q0, m=m, rho_c=rho_c, nu=nu,
                       ell_rho=ell_rho, ell_ce_rel=ell, q_init=q_init)


def _zajac_rate_as_written(q, sigma, q0, tau, beta):
    # the affine form c0 - c1*q in its operand order, with no cached factors
    tau_free = tau * (1.0 - q0)
    c0 = (sigma + beta * q0 * (1.0 - sigma)) / tau_free
    c1 = (sigma * (1.0 - beta) + beta) / tau_free
    return c0 - c1 * q


def _hatze_rate_as_written(q, sigma, q0, m, rho_c, nu, ell_rho, ell):
    # the one-power form in its operand order, with no cached factors
    qc = np.minimum(np.maximum(q, q0 + HATZE_EPS), 1.0 - HATZE_EPS)
    rho = rho_c * (ell_rho - 1.0) / (ell_rho / ell - 1.0)
    free, excess = 1.0 - qc, qc - q0
    return nu * m / (1.0 - q0) * (free * excess) * (
        sigma * rho * (free / excess) ** (1.0 / nu) - 1.0)


def _zajac_rate_paper(q, sigma, q0, tau, beta):
    """The paper's bracket form and the magnitude its rounding scales with."""
    terms = (sigma * (1.0 - q0), -sigma * (1.0 - beta) * (q - q0), -beta * (q - q0))
    tau_free = tau * (1.0 - q0)
    return sum(terms) / tau_free, sum(np.abs(t) for t in terms) / tau_free


def _hatze_rate_paper(q, sigma, q0, m, rho_c, nu, ell_rho, ell):
    """The paper's two-power form and the magnitude its rounding scales with."""
    qc = np.minimum(np.maximum(q, q0 + HATZE_EPS), 1.0 - HATZE_EPS)
    rho = rho_c * (ell_rho - 1.0) / (ell_rho / ell - 1.0)
    gain = nu * m / (1.0 - q0)
    powers = gain * sigma * rho * (1.0 - qc) ** (1.0 + 1.0 / nu) * (qc - q0) ** (1.0 - 1.0 / nu)
    product = gain * (1.0 - qc) * (qc - q0)
    return powers - product, np.abs(powers) + np.abs(product)


_RATE_FORMS = {"zajac": (zajac_rhs, _zajac_rate_as_written, _zajac_rate_paper),
               "hatze": (hatze_rhs, _hatze_rate_as_written, _hatze_rate_paper)}


def _rhs_sample(model, rows=1000, seed=17):
    """Parameter rows from the model's built-in cuboid and activities in [0, 1),
    some below q0 or near 1: the hatze clamp acts there."""
    cuboid = builtin_cuboid(model)
    rng = np.random.default_rng(seed)
    return cuboid.scale(rng.random((rows, cuboid.n_params))), rng.random(rows)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_rhs_equals_the_formula_as_written_bit_for_bit(model):
    # the cached rate factors must keep every expression's operand order, on
    # contiguous parameter columns (the ensemble path) and on scalars
    rhs, as_written, _ = _RATE_FORMS[model]
    rows, q = _rhs_sample(model)
    cols = rows.T.copy()
    p = _params_of(model, cols)
    f = rhs(q, p)
    assert np.array_equal(f, as_written(q, *cols[1:]))
    assert np.array_equal(f, rhs(q, p))  # the second call runs on the cached factors
    scalar = np.array([rhs(float(qj), _params_of(model, [float(v) for v in row]))
                       for qj, row in zip(q, rows)])
    assert np.array_equal(scalar, [as_written(float(qj), *(float(v) for v in row[1:]))
                                   for qj, row in zip(q, rows)])
    if model == "zajac":
        # no powers: array and scalar arithmetic agree exactly. numpy's
        # vectorized float64 power may differ from the scalar one in the last
        # bit, so the hatze paths are each held to the formula instead.
        assert np.array_equal(f, scalar)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_rhs_agrees_with_the_papers_form(model):
    # An independent check of the rewritten forms. Each form rounds in
    # proportion to its terms' magnitude: the bracket's three terms for
    # zajac, and for hatze the two products gain*sigma*rho*free^a*excess^b
    # and gain*free*excess. At the clamp floor the power term exceeds the
    # other by up to 1e8, so the bound is taken relative to both terms.
    rhs, _, paper = _RATE_FORMS[model]
    rows, q = _rhs_sample(model, rows=36_864, seed=5)
    q[:64], q[64:128] = 0.0, 1.0  # both clamp ends
    cols = rows.T.copy()
    expected, magnitude = paper(q, *cols[1:])
    assert np.all(np.abs(rhs(q, _params_of(model, cols)) - expected) <= 1e-14 * magnitude)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_array_rhs_leaves_its_inputs_unchanged(model):
    rhs = _RATE_FORMS[model][0]
    rows, q = _rhs_sample(model)
    p = _params_of(model, rows.T.copy())
    q_before = q.copy()
    factors = [np.array(f, copy=True) for f in p.rate_factors]
    for _ in range(2):
        rhs(q, p)
    assert np.array_equal(q, q_before)
    assert all(np.array_equal(a, b) for a, b in zip(p.rate_factors, factors))


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_array_rhs_writes_its_fresh_result_into_out(model):
    # the batched solve hands each call a stage row of its stacked array;
    # whatever that row held, the rate written there is the fresh result
    rhs = _RATE_FORMS[model][0]
    rows, q = _rhs_sample(model)
    p = _params_of(model, rows.T.copy())
    out = np.full_like(q, np.nan)
    q_before = q.copy()
    assert rhs(q, p, out=out) is out
    assert np.array_equal(out, rhs(q, p))
    assert np.array_equal(q, q_before)


def test_hatze_rhs_at_the_clamp_ends_raises_no_numpy_warning():
    # the suite turns numpy warnings into errors; at the clamp ends excess or
    # free is 1e-12 and the ratio free/excess reaches 1e12 or 1e-12
    rows, _ = _rhs_sample("hatze")
    cols = rows.T.copy()
    p = _params_of("hatze", cols)
    for q in (np.zeros(len(rows)), cols[2] + HATZE_EPS, np.full(len(rows), 1.0 - HATZE_EPS),
              np.ones(len(rows))):
        assert np.all(np.isfinite(hatze_rhs(q, p)))
    for row in rows[:20]:
        ps = _params_of("hatze", [float(v) for v in row])
        for q in (0.0, ps.q0 + HATZE_EPS, 1.0 - HATZE_EPS, 1.0):
            assert math.isfinite(hatze_rhs(q, ps))


def test_cached_hatze_params_still_raise_at_the_pole():
    p = HatzeParams(sigma=0.5, ell_rho=2.9, ell_ce_rel=2.9)
    for _ in range(2):  # a failed factor computation is not cached
        with pytest.raises(PoleViolation):
            hatze_rhs(0.3, p)
    rows = builtin_cuboid("hatze").scale(np.random.default_rng(5).random((50, 8)))
    rows[17, 7] = rows[17, 6] + 0.1  # one row with ell_CErel past ell_rho
    p = _params_of("hatze", rows.T.copy())
    for _ in range(2):
        with pytest.raises(PoleViolation):
            hatze_rhs(np.full(50, 0.3), p)


def test_hatze_steady_state():
    p = HatzeParams(sigma=0.0, q0=0.005, q_init=0.01)
    assert hatze_steady_state(p) == pytest.approx(0.005, rel=1e-12)
    p = HatzeParams(sigma=0.1, q0=0.005, nu=3.0, rho_c=7.24, q_init=0.01)
    assert hatze_steady_state(p) == pytest.approx(0.27872596567038315, rel=1e-12)
    assert abs(hatze_rhs(hatze_steady_state(p), p)) < 1e-10


def test_hatze_params_validation():
    with pytest.raises(ValueError):
        HatzeParams(sigma=0.5, q0=0.01, q_init=0.01).validate()
    with pytest.raises(ValueError):
        HatzeParams(sigma=0.5, nu=1.0, q_init=0.5).validate()
    with pytest.raises(PoleViolation):
        HatzeParams(sigma=0.5, ell_ce_rel=3.0, q_init=0.5).validate()


def test_the_pole_has_one_message():
    # validate, the checked formula, the rhs and the partials report it alike
    p = HatzeParams(sigma=0.5, ell_ce_rel=3.0, ell_rho=2.9, q_init=0.5)
    messages = set()
    for call in (p.validate, lambda: hatze_rho(3.0, p.rho_c, 2.9),
                 lambda: hatze_rhs(0.3, p), lambda: hatze_partials(0.3, p)):
        with pytest.raises(PoleViolation) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"ell_CErel must lie in (0, ell_rho); got ell_CErel=3.0, ell_rho=2.9"}


# for each declared range and joint constraint: the fields of a point that
# fails it alone, its error class, the field a ParameterOutOfRange names, and
# the text; ranges are checked before joint constraints
_ONE_FAILURE = {
    ZajacParams: [
        ({"q_init": 1.5}, ParameterOutOfRange, "q_init", "q_Z0 must lie in [0, 1]; got q_Z0=1.5"),
        ({"sigma": -0.1}, ParameterOutOfRange, "sigma",
         "sigma must lie in [0, 1]; got sigma=-0.1"),
        ({"q0": 1.0}, ParameterOutOfRange, "q0", "q0 must lie in [0, 1); got q0=1.0"),
        ({"tau": 0.0}, ParameterOutOfRange, "tau", "tau must lie in (0, inf); got tau=0.0"),
        ({"beta": 0.0}, ParameterOutOfRange, "beta", "beta must lie in (0, inf); got beta=0.0"),
        ({"q0": 0.02, "q_init": 0.01}, ParameterOutOfRange, "q_init",
         "q0 must lie in [0, q_Z0]; got q0=0.02, q_Z0=0.01"),
    ],
    HatzeParams: [
        ({"q_init": 1.0}, ParameterOutOfRange, "q_init", "q_H0 must lie in (0, 1); got q_H0=1.0"),
        ({"sigma": 1.5}, ParameterOutOfRange, "sigma", "sigma must lie in [0, 1]; got sigma=1.5"),
        ({"q0": 0.0}, ParameterOutOfRange, "q0", "q0 must lie in (0, 1); got q0=0.0"),
        ({"m": 0.0}, ParameterOutOfRange, "m", "m must lie in (0, inf); got m=0.0"),
        ({"rho_c": -7.24}, ParameterOutOfRange, "rho_c",
         "rho_c must lie in (0, inf); got rho_c=-7.24"),
        ({"nu": 1.0}, ParameterOutOfRange, "nu", "nu must lie in (1, inf); got nu=1.0"),
        ({"ell_rho": 1.0}, ParameterOutOfRange, "ell_rho",
         "ell_rho must lie in (1, inf); got ell_rho=1.0"),
        ({"ell_ce_rel": 0.0}, ParameterOutOfRange, "ell_ce_rel",
         "ell_CErel must lie in (0, inf); got ell_CErel=0.0"),
        ({"q0": 0.01, "q_init": 0.01}, ParameterOutOfRange, "q_init",
         "q0 must lie in (0, q_H0); got q0=0.01, q_H0=0.01"),
        ({"ell_ce_rel": 2.9}, PoleViolation, None,
         "ell_CErel must lie in (0, ell_rho); got ell_CErel=2.9, ell_rho=2.9"),
    ],
}

# each model's rhs and partials check every field they read: all but the
# initial value
_RATES = {ZajacParams: (lambda p: zajac_rhs(0.3, p), lambda p: zajac_partials(0.3, p)),
          HatzeParams: (lambda p: hatze_rhs(0.3, p), lambda p: hatze_partials(0.3, p))}
# the other hatze formulas that check a field, by field: both read rho_c,
# ell_rho and the CE length (and so the pole), hatze_q_of_gamma q0 and nu too
_FORMULAS = (lambda p: hatze_rho(p.ell_ce_rel, p.rho_c, p.ell_rho),
             lambda p: hatze_q_of_gamma(0.3, p.ell_ce_rel, p))
_READ_BY = {"q0": _FORMULAS[1:2], "nu": _FORMULAS[1:2],
            **dict.fromkeys(("rho_c", "ell_rho", "ell_ce_rel"), _FORMULAS)}


@pytest.mark.parametrize("cls", [ZajacParams, HatzeParams], ids=["zajac", "hatze"])
def test_each_domain_condition_has_one_answer(cls):
    # validate and every formula that reads a condition's fields raise one
    # class with one text, which names each field by its canonical name
    canonical = set(cls.canonical_order())
    for fields, error, field, text in _ONE_FAILURE[cls]:
        p = cls(**{"sigma": 0.5, **fields})
        calls = [p.validate]
        if len(fields) == 1 and "q_init" not in fields:
            formulas = _RATES[cls]
            if cls is HatzeParams:
                formulas += _READ_BY.get(next(iter(fields)), ())
            calls += [functools.partial(f, p) for f in formulas]
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == text
            assert getattr(info.value, "field", None) == field
        names = set(re.findall(r"[A-Za-z_]\w*", text)) - {"must", "lie", "in", "got", "inf"}
        assert names <= canonical, text
    # every declared condition has its case
    assert len(_ONE_FAILURE[cls]) == len(cls.RANGES) + len(cls.ORDER)


@pytest.mark.parametrize("rhs,partials,p", [
    (zajac_rhs, zajac_partials, ZajacParams(sigma=0.5, tau=0.0)),
    (zajac_rhs, zajac_partials, ZajacParams(sigma=0.5, q0=1.0, q_init=1.0)),
    (zajac_rhs, zajac_partials, simplified_zajac_model().params_of(0.005, 0.5, 0.0)),
    (hatze_rhs, hatze_partials, HatzeParams(sigma=0.5, q0=1.0, q_init=0.5)),
    (hatze_rhs, hatze_partials, HatzeParams(sigma=0.5, nu=0.0)),
    *[(rhs, partials, cls(sigma=sigma)) for rhs, partials, cls in (
        (zajac_rhs, zajac_partials, ZajacParams), (hatze_rhs, hatze_partials, HatzeParams))
      for sigma in (1.5, -0.1)],
], ids=["zajac-tau", "zajac-q0", "simplified-tau", "hatze-q0", "hatze-nu",
        "zajac-sigma-1.5", "zajac-sigma--0.1", "hatze-sigma-1.5", "hatze-sigma--0.1"])
def test_rates_of_a_point_outside_the_domain_raise_validates_error(rhs, partials, p):
    # the rate factors divide by tau, 1 - q0 and nu, and are affine in a
    # sigma outside [0, 1]: a point that validate rejects gets its error
    # from them, not a ZeroDivisionError or a rate, at every order and on
    # every access
    with pytest.raises(ParameterOutOfRange) as expected:
        p.validate()
    calls = [lambda: rhs(0.3, p), lambda: rhs(np.array([0.2, 0.3]), p)]
    calls += [functools.partial(partials, 0.3, p, order) for order in (0, 1, 2)]
    for call in calls * 2:
        with pytest.raises(ParameterOutOfRange) as info:
            call()
        assert str(info.value) == str(expected.value)
        assert info.value.field == expected.value.field


_NAN_ARRAY = np.array([1.0, math.nan, 1.2])


@pytest.mark.parametrize("call", [
    lambda: hatze_rho(math.nan, 7.24, 2.9),
    lambda: hatze_rho(1.0, 7.24, math.nan),
    lambda: hatze_rho(_NAN_ARRAY, 7.24, 2.9),
    lambda: hatze_rho(np.ones(3), 7.24, _NAN_ARRAY + 1.0),
    lambda: hatze_q_of_gamma(0.3, math.nan, HatzeParams(sigma=0.5)),
    lambda: hatze_gamma_of_q(0.3, math.nan, HatzeParams(sigma=0.5)),
    lambda: hatze_gamma_of_q(0.3, _NAN_ARRAY, HatzeParams(sigma=0.5)),
    lambda: hatze_gamma_of_q(math.nan, 1.0, HatzeParams(sigma=0.5)),
    lambda: hatze_gamma_of_q(_NAN_ARRAY * 0.3, 1.0, HatzeParams(sigma=0.5)),
    lambda: hatze_gamma_of_q(0.3, 1.0, HatzeParams(sigma=0.5, q0=math.nan)),
    lambda: force_length(math.nan, ForceLengthRelation("bell", 0.3)),
    lambda: force_length(_NAN_ARRAY * 14.8, ForceLengthRelation("parabola", 0.5)),
], ids=["rho-ell", "rho-ell-rho", "rho-ell-array", "rho-ell-rho-array", "q-of-gamma-ell",
        "gamma-ell", "gamma-ell-array", "gamma-q", "gamma-q-array", "gamma-q0",
        "force-length", "force-length-array"])
def test_formula_checks_reject_nan(call):
    # each check is written as "not inside", which every comparison with NaN fails
    with pytest.raises((PoleViolation, DomainViolation, ValueError)):
        call()


def test_hatze_rho_rejects_a_nan_calcium_scale():
    with pytest.raises(ParameterOutOfRange) as exc:
        hatze_rho(1.0, math.nan, 2.9)
    assert exc.value.field == "rho_c"


def test_hatze_rho_rejects_a_negative_calcium_scale():
    with pytest.raises(ParameterOutOfRange) as exc:
        hatze_rho(1.0, -7.24, 2.9)
    assert exc.value.field == "rho_c"
    assert "rho_c must lie in (0, inf)" in str(exc.value)


def test_hatze_q_of_gamma_rejects_a_nan_exponent():
    with pytest.raises(ParameterOutOfRange) as exc:
        hatze_q_of_gamma(0.3, 1.0, HatzeParams(sigma=0.5, nu=math.nan))
    assert exc.value.field == "nu"


# ---------------------------------------------------------------------------
# scenario panels
# ---------------------------------------------------------------------------

# the published panels: rows (i)-(iv) of (initial activity, stimulation) at
# q0 = 0.005, tau = 0.025; hatze at m = 10, ell_rho = 2.9, ell_CErel = 1 and
# the (nu, rho_c) pairings (2, 9.10) and (3, 7.24), its row (i) starting just
# inside its open domain; the simplified model at q0 = 0, beta = 1
_ROWS = {"i": (0.005, 0.01), "ii": (0.05, 0.1), "iii": (0.2, 0.4), "iv": (0.5, 1.0)}
_PANELS = {f"zajac-{row}-{tag}": {"q_Z0": q, "sigma": s, "q0": 0.005, "tau": 0.025, "beta": beta}
           for beta, tag in ((1.0, "b1"), (1.0 / 3.0, "b13")) for row, (q, s) in _ROWS.items()}
_PANELS.update({
    f"hatze-{row}-nu{nu}": {"q_H0": q + 1e-5 if row == "i" else q, "sigma": s, "q0": 0.005,
                            "m": 10.0, "rho_c": rho_c, "nu": float(nu), "ell_rho": 2.9,
                            "ell_CErel": 1.0}
    for nu, rho_c in ((2, 9.10), (3, 7.24)) for row, (q, s) in _ROWS.items()})
_PANELS.update({f"simplified-zajac-{row}": {"q_Z0": q, "sigma": s, "tau": 0.025}
                for row, (q, s) in _ROWS.items()})


def _scenario_points():
    points = {f"zajac-{tag}": p for tag, p in all_zajac_scenarios()}
    points.update((f"hatze-{tag}", p) for tag, p in all_hatze_scenarios())
    points.update((f"simplified-zajac-{row}", simplified_zajac_scenario(row)) for row in _ROWS)
    return points


@pytest.mark.parametrize("label", _PANELS)
def test_scenario_panels_keep_their_published_values(label):
    point = _scenario_points()[label]
    assert list(point.as_dict().items()) == list(_PANELS[label].items())
    if label.startswith("simplified-zajac"):
        assert point.q0 == 0.0 and point.beta == 1.0
    point.validate()


# ---------------------------------------------------------------------------
# simplified model oracles
# ---------------------------------------------------------------------------


def test_simplified_solution_endpoints():
    assert simplified_zajac_solution(0.0, 0.7, 0.025, 0.05) == 0.05
    assert simplified_zajac_solution(10.0, 0.7, 0.025, 0.05) == pytest.approx(0.7)


def test_simplified_solution_at_one_time_constant():
    assert simplified_zajac_solution(0.025, 1.0, 0.025, 0.05) == pytest.approx(
        0.6505145308871298, rel=1e-12)


def test_simplified_sensitivities_at_zero():
    rel = simplified_zajac_sensitivities(0.0, 1.0, 0.025, 0.05)
    assert rel["sigma"] == 0.0
    assert rel["q_Z0"] == 1.0
    assert rel["tau"] == 0.0


def test_simplified_sensitivities_at_one_time_constant():
    rel = simplified_zajac_sensitivities(0.025, 1.0, 0.025, 0.05)
    assert rel["sigma"] == pytest.approx(0.9717239643617375, rel=1e-12)
    assert rel["q_Z0"] == pytest.approx(0.028276035638262534, rel=1e-12)
    assert rel["tau"] == pytest.approx(-0.5372446771269881, rel=1e-12)


def test_simplified_sensitivity_shares_sum_to_one():
    t = np.linspace(0.0, 0.2, 101)
    rel = simplified_zajac_sensitivities(t, 1.0, 0.025, 0.05)
    assert np.allclose(rel["sigma"] + rel["q_Z0"], 1.0, atol=1e-14)


def test_simplified_tau_sensitivity_negative_for_rising_activation():
    t = np.linspace(1e-4, 0.2, 50)
    rel = simplified_zajac_sensitivities(t, 1.0, 0.025, 0.05)
    assert np.all(rel["tau"] < 0.0)


@pytest.mark.filterwarnings("error")
def test_simplified_sensitivities_take_their_limits_far_beyond_tau():
    # t/tau up to 2000: the decaying form neither overflows nor divides
    # inf by inf, and the shares reach their limits 1 and 0
    t = np.array([0.0, 0.001, 0.2])
    rel = simplified_zajac_sensitivities(t, 1.0, 1e-4, 0.05)
    assert rel["sigma"][0] == 0.0 and rel["sigma"][-1] == 1.0
    assert rel["q_Z0"][0] == 1.0 and rel["q_Z0"][-1] == 0.0
    assert rel["tau"][-1] == 0.0
    assert np.allclose(rel["sigma"] + rel["q_Z0"], 1.0, atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_simplified_sensitivities_without_stimulation_stay_finite():
    # at sigma = 0 the state q_init e^(-t/tau) underflows beyond t/tau ~ 745,
    # while the shares keep their constant values
    t = np.array([0.0, 0.05, 0.1, 0.2])
    rel = simplified_zajac_sensitivities(t, 0.0, 1e-4, 0.05)
    assert np.array_equal(rel["sigma"], np.zeros(4))
    assert np.array_equal(rel["q_Z0"], np.ones(4))
    assert np.allclose(rel["tau"], t / 1e-4, rtol=1e-15)


def test_simplified_sensitivities_degenerate():
    with pytest.raises(DegenerateState):
        simplified_zajac_sensitivities(0.1, 0.0, 0.025, 0.0)


# ---------------------------------------------------------------------------
# force-length relations
# ---------------------------------------------------------------------------


def test_force_length_is_one_at_optimum():
    for kind, width in (("parabola", 0.56), ("bell", 0.32)):
        rel = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
        assert force_length(14.8, rel) == pytest.approx(1.0, rel=1e-14)


def test_parabola_root_one_width_from_optimum():
    rel = ForceLengthRelation(kind="parabola", width=0.56, ell_opt=1.0)
    assert force_length_relative(1.56, rel) == pytest.approx(0.0, abs=1e-15)
    assert force_length_relative(1.7, rel) == 0.0  # clipped, not negative


def test_bell_value_one_width_below_optimum():
    rel = ForceLengthRelation(kind="bell", width=0.32)
    assert force_length_relative(0.68, rel) == pytest.approx(
        np.exp(-1.0), rel=1e-12)


def test_bell_branches_take_the_module_exponents():
    # half a width from the optimum: exp(-(1/2)^3) below it, exp(-(1/2)^1.5) above
    assert (models.BELL_NU_ASC, models.BELL_NU_DES) == (3.0, 1.5)
    rel = ForceLengthRelation(kind="bell", width=0.32, ell_opt=1.0)
    assert force_length_relative(0.84, rel) == pytest.approx(math.exp(-0.5**3), rel=1e-12)
    assert force_length_relative(1.16, rel) == pytest.approx(math.exp(-0.5**1.5), rel=1e-12)


def test_force_length_bounds_and_errors():
    rel = ForceLengthRelation(kind="bell", width=0.32)
    ell = np.linspace(0.2, 2.0, 100)
    vals = force_length_relative(ell, rel)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with pytest.raises(ValueError):
        force_length(-1.0, rel)
    with pytest.raises(ValueError):
        ForceLengthRelation(kind="triangle", width=0.3)


def _central(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


@pytest.mark.parametrize("nu,rho_c,gamma", [(2.0, 9.07, 0.08), (3.0, 7.22, 0.28), (4.0, 7.22, 1.0)])
def test_log_activity_slopes_match_central_differences(nu, rho_c, gamma):
    # the optimizer's Newton and implicit Jacobian read these three
    # derivatives of log q; h = 1e-5 leaves truncation and rounding near 1e-10
    def point(rho_c):
        return HatzeParams(sigma=1.0, nu=nu, rho_c=rho_c, q_init=0.5)

    def log_q(ell, rho_c=rho_c):
        return np.log(hatze_q_of_gamma(gamma, ell, point(rho_c)))

    ell = np.array([0.7, 1.0, 1.03, 1.4])
    slope, curvature, cross = _hatze_log_q_slopes(gamma, ell, point(rho_c))
    np.testing.assert_allclose(slope, _central(log_q, ell, 1e-5), rtol=1e-7)
    np.testing.assert_allclose(
        curvature, _central(lambda e: _hatze_log_q_slopes(gamma, e, point(rho_c))[0], ell, 1e-5),
        rtol=1e-7)
    np.testing.assert_allclose(
        cross, _central(lambda r: _hatze_log_q_slopes(gamma, ell, point(rho_c * math.exp(r)))[0],
                        0.0, 1e-5), rtol=1e-7)


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
def test_force_length_log_slopes_match_central_differences(kind, width):
    def rel(width):
        return ForceLengthRelation(kind=kind, width=width)

    ell = np.array([1.005, 1.03, 1.2, 1.4])  # the descending branch
    slope, curvature, cross = _force_length_log_slopes(ell, rel(width))
    np.testing.assert_allclose(
        slope, _central(lambda e: np.log(force_length_relative(e, rel(width))), ell, 1e-6),
        rtol=1e-7)
    np.testing.assert_allclose(
        curvature, _central(lambda e: _force_length_log_slopes(e, rel(width))[0], ell, 1e-6),
        rtol=1e-7)
    np.testing.assert_allclose(
        cross, _central(lambda w: _force_length_log_slopes(ell, rel(width * math.exp(w)))[0],
                        0.0, 1e-5), rtol=1e-7)
    # the slope's inverse gives back each delta
    delta = _force_length_slope_root(-slope, rel(width))
    np.testing.assert_allclose(delta, ell - 1.0, rtol=1e-12)


def _leading_outputs_match(slopes):
    """Each shortened call ``slopes(n)`` returns the full call's first n
    outputs, bit for bit."""
    full = slopes(3)
    assert len(full) == 3
    for n in (1, 2):
        part = slopes(n)
        assert len(part) == n
        assert all(np.array_equal(a, b) for a, b in zip(part, full))


@pytest.mark.parametrize("nu", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("rho_c", [7.22, np.reshape([7.22, 9.07, 3.1], (-1, 1, 1))],
                         ids=["scalar", "column"])
def test_shortened_log_activity_slopes_are_the_full_calls_leading_outputs(nu, rho_c):
    # the optimizer's probes ask for the slope, its Newton steps for two
    # outputs: each must be what the full call returns
    rng = np.random.default_rng(31)
    ell = 1.0 + rng.uniform(0.0, 0.5, (6, 9))  # the force-length descending branch
    gamma = rng.uniform(0.05, 1.0, (6, 1))
    p = HatzeParams(sigma=1.0, nu=nu, rho_c=rho_c, q_init=0.5)
    _leading_outputs_match(lambda n: _hatze_log_q_slopes(gamma, ell, p, n))


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56),
                                        ("bell", np.reshape([0.25, 0.32, 0.45], (-1, 1, 1))),
                                        ("parabola", np.reshape([0.46, 0.56, 0.66], (-1, 1, 1)))])
def test_shortened_force_length_slopes_are_the_full_calls_leading_outputs(kind, width):
    rng = np.random.default_rng(32)
    ell = 1.0 + rng.uniform(0.0, 0.45, (6, 9))  # inside every parabola's support
    rel = ForceLengthRelation(kind=kind, width=width)
    _leading_outputs_match(lambda n: _force_length_log_slopes(ell, rel, n))


# ---------------------------------------------------------------------------
# cross-model trajectory invariants
# ---------------------------------------------------------------------------


def _integrate_scalar(rhs, q0, t_end=0.5, n=201):
    # tight tolerances: these tests probe model-path equivalence, so the
    # integration/interpolation error must sit well below the asserted bound
    grid = np.linspace(0.0, t_end, n)
    pr = OdeProblem(rhs=rhs, y0=np.array([q0]), output_grid=grid)
    return grid, integrate(pr, Tolerances(rel_tol=1e-10, abs_tol=1e-12)).values[:, 0]


def test_full_zajac_reduces_to_simplified_form():
    p = ZajacParams(sigma=0.8, q0=0.0, tau=0.025, beta=1.0, q_init=0.05)
    grid, q = _integrate_scalar(lambda t, y, out: np.copyto(out, zajac_rhs(y[0], p)), 0.05)
    exact = simplified_zajac_solution(grid, 0.8, 0.025, 0.05)
    assert np.max(np.abs(q - exact)) < 1e-8


def test_zajac_solution_stays_between_start_and_steady_state():
    for sigma, beta, q_init in ((0.9, 1.0, 0.05), (0.2, 0.5, 0.8), (0.0, 1.0, 0.3)):
        p = ZajacParams(sigma=sigma, q0=0.005, tau=0.025, beta=beta, q_init=q_init)
        _, q = _integrate_scalar(lambda t, y, out: np.copyto(out, zajac_rhs(y[0], p)), q_init)
        lo = min(q_init, zajac_steady_state(p)) - 1e-9
        hi = max(q_init, zajac_steady_state(p)) + 1e-9
        assert np.all((q >= lo) & (q <= hi))


def test_hatze_solution_stays_in_open_interval():
    for sigma, q_init in ((1.0, 0.01), (0.0, 0.9), (0.3, 0.5)):
        p = HatzeParams(sigma=sigma, q0=0.005, m=10.0, nu=3.0, rho_c=7.24,
                        q_init=q_init)
        _, q = _integrate_scalar(lambda t, y, out: np.copyto(out, hatze_rhs(y[0], p)), q_init)
        assert np.all(q >= p.q0 - 1e-9)
        assert np.all(q <= 1.0 + 1e-12)


def test_hatze_concentration_path_matches_direct_path():
    # integrating the concentration ODE and mapping through the activity
    # function must agree with integrating the activity ODE directly
    p = HatzeParams(sigma=0.4, q0=0.005, m=10.0, nu=3.0, rho_c=7.24,
                    ell_ce_rel=1.0, q_init=0.05)
    gamma0 = hatze_gamma_of_q(p.q_init, p.ell_ce_rel, p)
    grid, gamma = _integrate_scalar(
        lambda t, y, out: np.copyto(out, np.array([p.m * (p.sigma - y[0])])), gamma0)
    q_via_gamma = hatze_q_of_gamma(gamma, p.ell_ce_rel, p)
    _, q_direct = _integrate_scalar(lambda t, y, out: np.copyto(out, hatze_rhs(y[0], p)),
                                    p.q_init)
    assert np.max(np.abs(q_via_gamma - q_direct)) < 1e-6
