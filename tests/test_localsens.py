import dataclasses

import numpy as np
import pytest

from actsens import (
    HatzeParams,
    MissingDerivative,
    ModelSpec,
    NonFiniteState,
    ParameterOutOfRange,
    StepSizeUnderflow,
    Tolerances,
    ZajacParams,
    analyze,
    fd_first_order,
    fd_initial_condition,
    hatze_model,
    hatze_rhs,
    integrate,
    make_grid,
    normalize,
    second_order_fd,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    zajac_model,
    zajac_rhs,
)
from actsens import localsens
from actsens.localsens import SensitivityResult
from actsens.presets import (
    all_hatze_scenarios,
    all_zajac_scenarios,
    hatze_scenario,
    zajac_scenario,
)

FIG1 = simplified_zajac_model().params_of(0.05, 1.0, 0.025)


# ---------------------------------------------------------------------------
# toy models
# ---------------------------------------------------------------------------


def inert_param_model() -> ModelSpec:
    """Scalar decay whose second parameter never enters the rhs."""

    def derivs(t, y, lam, order):
        a = lam[0]
        f = np.array([-a * y[0]])
        if order == 0:
            return f, None, None
        grad = np.array([[-a, -y[0], 0.0]])  # over x = (y, a, unused)
        if order == 1:
            return f, grad, None
        hess = np.zeros((1, 3, 3))
        hess[0, 0, 1] = hess[0, 1, 0] = -1.0
        return f, grad, hess

    return ModelSpec(name="inert", param_names=("a", "unused"),
                     init_names=("y0",), derivs=derivs)


def affine_model() -> ModelSpec:
    """f = a*y + b: linear with zero state curvature."""

    def derivs(t, y, lam, order):
        a, b = lam
        f = np.array([a * y[0] + b])
        if order == 0:
            return f, None, None
        grad = np.array([[a, y[0], 1.0]])  # over x = (y, a, b)
        if order == 1:
            return f, grad, None
        hess = np.zeros((1, 3, 3))
        hess[0, 0, 1] = hess[0, 1, 0] = 1.0
        return f, grad, hess

    return ModelSpec(name="affine", param_names=("a", "b"),
                     init_names=("y0",), derivs=derivs)


def planar_model() -> ModelSpec:
    """Two-state nonlinear system exercising every block of the Hessian."""

    def derivs(t, y, lam, order):
        a, b, c = lam
        y1, y2 = y
        f = np.array([-a * y1 + b * y2**2, c * y1 * y2])
        if order == 0:
            return f, None, None
        # over x = (y1, y2, a, b, c)
        grad = np.array([[-a, 2 * b * y2, -y1, y2**2, 0.0],
                         [c * y2, c * y1, 0.0, 0.0, y1 * y2]])
        if order == 1:
            return f, grad, None
        hess = np.zeros((2, 5, 5))
        for k, u, v, value in [(0, 1, 1, 2 * b), (0, 0, 2, -1.0), (0, 1, 3, 2 * y2),
                               (1, 0, 1, c), (1, 1, 4, y1), (1, 0, 4, y2)]:
            hess[k, u, v] = hess[k, v, u] = value
        return f, grad, hess

    return ModelSpec(name="planar", param_names=("a", "b", "c"),
                     init_names=("y1_0", "y2_0"), derivs=derivs)


def no_hessian_model() -> ModelSpec:
    def derivs(t, y, lam, order):
        f = np.array([-lam[0] * y[0]])
        return f, np.array([[-lam[0], -y[0]]]), None

    return ModelSpec(name="nohess", param_names=("a",), init_names=("y0",),
                     derivs=derivs)


# ---------------------------------------------------------------------------
# closed-form oracle equivalence (simplified linear model)
# ---------------------------------------------------------------------------


def test_simplified_model_matches_closed_forms():
    grid = np.linspace(0.0, 0.2, 201)
    model = simplified_zajac_model()
    res = normalize(analyze(model, FIG1, grid, order=1))
    oracle = simplified_zajac_sensitivities(grid, 1.0, 0.025, 0.05)
    for i, name in enumerate(model.canonical_order):  # q_Z0, sigma, tau
        assert np.max(np.abs(res.s_rel[:, i, 0] - oracle[name])) < 1e-6


def test_initial_sensitivity_is_exponential_decay():
    grid = np.linspace(0.0, 0.2, 51)
    s0 = analyze(simplified_zajac_model(), FIG1, grid, order=1).s_raw[:, :1]
    assert s0[0, 0, 0] == 1.0
    assert np.max(np.abs(s0[:, 0, 0] - np.exp(-grid / 0.025))) < 1e-6


def test_initial_value_column_is_the_flow_derivative():
    # For a scalar autonomous model the flow's derivative in its start value
    # is dq(t)/dq_init = f(q(t))/f(q_init) (Hairer, Norsett & Wanner, *Solving
    # ODEs I*, sec. I.14), an oracle that needs only the computed state and
    # the rhs. No panel starts at its steady state, so f(q_init) != 0 on all
    # 16. Held to ten per-column scales, abs_tol + rel_tol * max_t|column|
    # (the Tolerances contract); the worst panel, hatze i-nu2, reads 1.86,
    # and zajac agrees to rounding.
    grid = np.linspace(0.0, 0.5, 201)
    tol = Tolerances()
    for model, panels, rhs in ((zajac_model(), all_zajac_scenarios(), zajac_rhs),
                               (hatze_model(), all_hatze_scenarios(), hatze_rhs)):
        for label, p in panels:
            res = analyze(model, p, grid, order=1)
            start_rate = rhs(p.q_init, p)
            assert start_rate != 0.0, label
            column = res.s_raw[:, 0, 0]
            scale = tol.abs_tol + tol.rel_tol * np.max(np.abs(column))
            error = np.max(np.abs(column - rhs(res.state[:, 0], p) / start_rate))
            assert error <= 10.0 * scale, f"{model.name} {label}: {error / scale:.2f} scales"


def test_sensitivities_start_at_their_initial_values():
    grid = np.array([0.0, 0.1])
    res = analyze(zajac_model(), zajac_scenario("ii"), grid, order=2)
    assert np.all(res.s_raw[0, 1:] == 0.0)
    assert np.all(res.s_raw[0, :1] == np.eye(1))
    assert np.all(res.r_raw[0] == 0.0)


def test_simplified_model_is_linear_in_stimulation():
    grid = np.linspace(0.0, 0.2, 21)
    res = analyze(simplified_zajac_model(), FIG1, grid, order=2)
    i = res.param_names.index("sigma")
    assert np.max(np.abs(res.r_raw[:, i, i, 0])) < 1e-12


# ---------------------------------------------------------------------------
# structural properties on the built-in models
# ---------------------------------------------------------------------------


def test_inert_parameter_has_zero_sensitivity():
    ps = {"y0": 1.0, "a": 2.0, "unused": 5.0}
    res = analyze(inert_param_model(), ps, np.linspace(0.0, 1.0, 11), order=1)
    assert np.max(np.abs(res.s_raw[:, 2, 0])) < 1e-12  # unused
    assert np.max(np.abs(res.s_raw[:, 1, 0])) > 0.01  # a


def test_zajac_beta_sensitivity_vanishes_at_full_stimulation():
    model = zajac_model()
    ps = zajac_scenario("iv", beta=1.0)  # sigma = 1
    grid = np.linspace(0.0, 0.25, 26)
    res = normalize(analyze(model, ps, grid))
    assert np.max(np.abs(res.s_rel[:, model.canonical_order.index("beta"), 0])) < 1e-10
    fd = fd_first_order(model, ps, grid)
    assert np.max(np.abs(fd[:, model.param_names.index("beta"), 0])) < 1e-6


def test_zajac_tau_sensitivity_negative_for_rising_activation():
    model = zajac_model()
    for row in ("ii", "iii", "iv"):
        ps = zajac_scenario(row, beta=1.0)
        grid = np.linspace(0.01, 0.3, 30)
        res = normalize(analyze(model, ps, grid))
        assert np.all(res.s_rel[:, model.canonical_order.index("tau"), 0] < 0.0)


def test_zajac_memory_of_initial_value_decays():
    # relative influence of the initial value drops below 5% within four
    # activation time constants on every scenario panel (within three only
    # for the boost-free column)
    model = zajac_model()
    grid = np.array([0.0755, 0.1005, 0.5])
    for label, ps in all_zajac_scenarios():
        res = normalize(analyze(model, ps, grid))
        s = res.s_rel[:, 0, 0]
        assert s[1] < 0.05, f"{label}: S_init(4 tau) = {s[1]:.4f}"
        assert np.all(np.diff(s) < 0.0)
        if label.endswith("b1"):
            assert s[0] < 0.05, f"{label}: S_init(3 tau) = {s[0]:.4f}"


def test_hatze_sigma_and_rho_c_relative_sensitivities_identical():
    model = hatze_model()
    ps = hatze_scenario("iii", nu=3.0)
    grid = np.linspace(0.0, 0.5, 51)
    res = normalize(analyze(model, ps, grid))
    i_s = model.canonical_order.index("sigma")
    i_r = model.canonical_order.index("rho_c")
    assert np.allclose(res.s_rel[:, i_s, 0], res.s_rel[:, i_r, 0], atol=1e-10)


def test_hatze_length_sensitivity_ratio_is_pole_elasticity():
    # the drive parameters enter through one product, so relative
    # sensitivities stay in fixed ratios; at optimal length the CE-length
    # to stimulation ratio equals ell_rho/(ell_rho - 1) and the pole itself
    # has no influence at all. Its partials cancel exactly at ell_CErel = 1,
    # so S and every second-order term but the one with the length itself
    # (the pole elasticity moves with ell_CErel) are exactly zero
    model = hatze_model()
    ps = hatze_scenario("iii", nu=3.0)
    grid = np.linspace(0.05, 0.5, 10)
    res = normalize(analyze(model, ps, grid, order=2))
    i_s = model.canonical_order.index("sigma")
    i_l = model.canonical_order.index("ell_CErel")
    i_p = model.canonical_order.index("ell_rho")
    ratio = res.s_rel[:, i_l, 0] / res.s_rel[:, i_s, 0]
    assert np.allclose(ratio, 2.9 / 1.9, rtol=1e-8)
    assert np.all(res.s_rel[:, i_p, 0] == 0.0)
    j_l, j_p = model.param_names.index("ell_CErel"), model.param_names.index("ell_rho")
    others = [j for j in range(model.n_params) if j != j_l]
    assert np.all(res.r_rel[:, others, j_p, 0] == 0.0)
    assert np.all(res.r_rel[:, j_p, others, 0] == 0.0)


# ---------------------------------------------------------------------------
# finite-difference equivalence
# ---------------------------------------------------------------------------


def test_first_order_matches_fd_on_scenarios():
    for model, ps, probes in (
        (zajac_model(), zajac_scenario("ii", beta=1.0 / 3.0), [0.025, 0.125]),
        (hatze_model(), hatze_scenario("ii", nu=2.0), [0.05, 0.3]),
    ):
        grid = np.array(probes)
        res = analyze(model, ps, grid)
        fd = fd_first_order(model, ps, grid, rel_step=1e-5)
        s = res.s_raw[:, model.dim:]  # the dynamic parameters
        assert np.allclose(fd, s, rtol=1e-3, atol=1e-3 * np.max(np.abs(s)))


def test_initial_condition_sensitivity_matches_fd():
    model = zajac_model()
    ps = zajac_scenario("iii", beta=1.0 / 3.0)
    grid = np.array([0.025, 0.125])
    s0 = analyze(model, ps, grid, order=1).s_raw[:, :model.dim]
    fd = fd_initial_condition(model, ps, grid)
    assert np.allclose(fd, s0, rtol=1e-3, atol=1e-8)


def test_affine_model_second_order_matches_fd_of_first_order():
    model = affine_model()
    ps = {"y0": 0.5, "a": -2.0, "b": 1.0}
    grid = np.linspace(0.1, 1.0, 4)
    res = analyze(model, ps, grid, order=2)
    oracle = second_order_fd(model, ps, grid, rel_step=1e-4)
    assert oracle.r_approximate
    scale = max(np.max(np.abs(res.r_raw)), 1.0)
    assert np.allclose(oracle.r_raw, res.r_raw, rtol=1e-4, atol=1e-6 * scale)
    # curvature in the state vanishes for an affine rhs: R_bb = 0
    ib = model.param_names.index("b")
    assert np.max(np.abs(res.r_raw[:, ib, ib, 0])) < 1e-10


def test_planar_model_sensitivities_match_fd():
    model = planar_model()
    ps = {"y1_0": 1.0, "y2_0": 0.5, "a": 1.2, "b": 0.4, "c": -0.8}
    grid = np.array([0.2, 0.7])
    res = analyze(model, ps, grid, order=2)
    fd = fd_first_order(model, ps, grid)
    assert np.allclose(fd, res.s_raw[:, 2:], rtol=1e-3, atol=1e-5)
    fdi = fd_initial_condition(model, ps, grid)
    assert np.allclose(fdi, res.s_raw[:, :2], rtol=1e-3, atol=1e-5)
    rfd = second_order_fd(model, ps, grid).r_raw
    scale = max(np.max(np.abs(res.r_raw)), 1.0)
    assert np.allclose(rfd, res.r_raw, rtol=1e-3, atol=1e-5 * scale)


def _built_points(model, oracle, point):
    """The canonical point of each system an oracle builds, in the order it
    first reaches the rhs: a solve's first rhs call is at t = 0 with the
    system's initial value."""
    seen = []

    def derivs(t, y, lam, order):
        x = (*y, *lam)
        if t == 0.0 and x not in seen:
            seen.append(x)
        return model.derivs(t, y, lam, order)

    oracle(dataclasses.replace(model, derivs=derivs), point)
    return seen


_PROBES = np.array([0.025, 0.125])
_ORACLES = {
    "fd_first_order": lambda m, p: fd_first_order(m, p, _PROBES),
    "fd_initial_condition": lambda m, p: fd_initial_condition(m, p, _PROBES),
    "second_order_fd": lambda m, p: second_order_fd(m, p, _PROBES),
}


@pytest.mark.parametrize("oracle", _ORACLES.values(), ids=_ORACLES.keys())
def test_fd_oracles_build_only_points_in_the_domain(oracle):
    # a perturbation that would leave the domain, joint constraints
    # included, is taken one-sided, on all 16 panels
    panels = [(zajac_model(), p) for _, p in all_zajac_scenarios()]
    panels += [(hatze_model(), p) for _, p in all_hatze_scenarios()]
    for model, point in panels:
        for x in _built_points(model, oracle, point):
            model.params_of(*x).validate()


@pytest.mark.parametrize("name, pair", [("q0", (0, -2)), ("q_Z0", (2, 0))], ids=["q0", "q_Z0"])
def test_fd_pairs_at_row_i_keep_q0_at_most_the_initial_value(name, pair):
    # zajac row (i) starts at q_Z0 = q0: q0 + h and q_Z0 - h would break
    # q0 <= q_Z0, so the pairs are (q0, q0 - 2h) and (q_Z0 + 2h, q_Z0)
    model, point = zajac_model(), zajac_scenario("i")
    x = point.values_for(model.canonical_order)
    i = model.canonical_order.index(name)
    h = 1e-5 * x[i]

    def oracle(m, p):
        localsens._central_differences(m, p, _PROBES, [i], 1e-5)

    expect = []
    for k in pair:
        xk = x.copy()
        xk[i] = x[i] + k * h
        expect.append(tuple(xk))
    assert _built_points(model, oracle, point) == expect


def test_fd_oracles_default_to_tight_tolerances(monkeypatch):
    # every solve of an oracle runs at 1e-8/1e-10, tighter than the
    # integrator's default, its first-order base run included
    received = []

    def recording(problem, tol=None):
        received.append(tol)
        return integrate(problem, tol)

    monkeypatch.setattr(localsens, "integrate", recording)
    model, ps, grid = hatze_model(), hatze_scenario("ii", nu=2.0), np.array([0.05, 0.3])
    for oracle, solves in ((fd_first_order, 7), (fd_initial_condition, 1), (second_order_fd, 8)):
        received.clear()
        oracle(model, ps, grid)
        assert [(t.rel_tol, t.abs_tol) for t in received] == [(1e-8, 1e-10)] * solves, oracle


def test_second_order_tensor_is_symmetric():
    model = hatze_model()
    ps = hatze_scenario("ii", nu=3.0)
    res = analyze(model, ps, np.linspace(0.0, 0.3, 7), order=2)
    assert np.array_equal(res.r_raw, res.r_raw.transpose(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# missing derivatives and the FD fallback
# ---------------------------------------------------------------------------


def test_missing_second_partials_raise_without_fallback():
    model = no_hessian_model()
    ps = {"y0": 1.0, "a": 2.0}
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(MissingDerivative):
        analyze(model, ps, grid, order=2)
    res = second_order_fd(model, ps, grid)
    assert res.r_approximate
    # d^2 y / da^2 of y0*exp(-a t) is y0 t^2 exp(-a t)
    expect = 1.0 * grid**2 * np.exp(-2.0 * grid)
    assert np.allclose(res.r_raw[:, 0, 0, 0], expect, rtol=1e-3, atol=1e-8)


def test_state_only_model_rejects_first_order():
    def derivs(t, y, lam, order):
        return np.array([-y[0]]), None, None

    model = ModelSpec(name="bare", param_names=("a",), init_names=("y0",),
                      derivs=derivs)
    ps = {"y0": 1.0, "a": 1.0}
    with pytest.raises(MissingDerivative):
        analyze(model, ps, np.linspace(0.0, 1.0, 3), order=1)


@pytest.mark.parametrize("order", [3, 1.5, -1])
def test_analyze_rejects_an_order_outside_0_1_2(order):
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        analyze(zajac_model(), zajac_scenario("ii"), np.linspace(0.0, 0.1, 3), order=order)


_GRID = np.linspace(0.0, 0.05, 3)


@pytest.mark.parametrize("call", [
    lambda p: analyze(zajac_model(), p, _GRID),
    lambda p: fd_first_order(zajac_model(), p, _GRID),
    lambda p: fd_initial_condition(zajac_model(), p, _GRID),
    lambda p: second_order_fd(zajac_model(), p, _GRID),
], ids=["analyze", "fd_first_order", "fd_initial_condition", "second_order_fd"])
@pytest.mark.parametrize("params, missing", [
    ({"sigma": 0.1}, "['q_Z0', 'q0', 'tau', 'beta']"),
    (hatze_scenario("ii"), "['q_Z0', 'tau', 'beta']"),
], ids=["mapping", "hatze-parameter-set"])
def test_a_point_without_the_models_parameters_raises_one_value_error(call, params, missing):
    with pytest.raises(ValueError) as exc:
        call(params)
    assert str(exc.value) == (f"params lack {missing} of the model's parameters "
                              "['q_Z0', 'sigma', 'q0', 'tau', 'beta']")


_POINTS = {
    "zajac": (zajac_model(), ZajacParams(sigma=0.1, beta=1.0 / 3.0, q_init=0.05),
              [0.025, 0.125]),
    "hatze": (hatze_model(), HatzeParams(sigma=0.1, rho_c=9.10, nu=2.0, q_init=0.05),
              [0.05, 0.3]),
    "simplified-zajac": (simplified_zajac_model(),
                         simplified_zajac_model().params_of(0.2, 0.4, 0.025), [0.025, 0.125]),
}


@pytest.mark.parametrize("call", [
    lambda m, p, g: analyze(m, p, g, order=0).state,
    lambda m, p, g: analyze(m, p, g, order=1).s_raw,
    lambda m, p, g: analyze(m, p, g, order=2).r_raw,
    lambda m, p, g: normalize(analyze(m, p, g, order=2)).r_rel,
    lambda m, p, g: fd_first_order(m, p, g),
    lambda m, p, g: fd_initial_condition(m, p, g),
    lambda m, p, g: second_order_fd(m, p, g).r_raw,
], ids=["analyze-0", "analyze-1", "analyze-2", "normalize", "fd_first_order",
        "fd_initial_condition", "second_order_fd"])
@pytest.mark.parametrize("model, point, grid", _POINTS.values(), ids=_POINTS.keys())
def test_a_parameter_object_reads_as_its_mapping(call, model, point, grid):
    # a scenario point is the model's parameter class; the drivers read it
    # by canonical name, exactly as the mapping of its values
    grid = np.array(grid)
    assert np.array_equal(call(model, point, grid), call(model, point.as_dict(), grid))


@pytest.mark.parametrize("call", [
    lambda p: analyze(simplified_zajac_model(), p, _GRID, order=0),
    lambda p: fd_first_order(simplified_zajac_model(), p, _GRID),
    lambda p: fd_initial_condition(simplified_zajac_model(), p, _GRID),
    lambda p: second_order_fd(simplified_zajac_model(), p, _GRID),
], ids=["analyze", "fd_first_order", "fd_initial_condition", "second_order_fd"])
@pytest.mark.parametrize("params, extra", [
    (ZajacParams(sigma=0.5, q0=0.01, beta=0.5, q_init=0.05), "['q0', 'beta']"),
    ({"q_Z0": 0.05, "sigma": 0.5, "tau": 0.025, "beta": 0.5}, "['beta']"),
], ids=["zajac-parameter-set", "mapping"])
def test_a_point_with_names_the_model_lacks_raises_one_value_error(call, params, extra):
    # no value given is dropped: the simplified model has no q0 or beta, so
    # solving at its fixed q0 = 0 and beta = 1 instead would be silent
    with pytest.raises(ValueError) as exc:
        call(params)
    assert str(exc.value) == (f"params give {extra}, which the model's parameters "
                              "['q_Z0', 'sigma', 'tau'] lack")


def test_a_point_of_another_type_raises_type_error():
    point = zajac_scenario("ii")
    with pytest.raises(TypeError, match="parameter object or mapping"):
        analyze(zajac_model(), point.values_for(zajac_model().canonical_order), _GRID)


@pytest.mark.parametrize("order, error", [(1, StepSizeUnderflow), (2, NonFiniteState)])
def test_a_time_constant_near_the_float_limit_fails_without_warnings(order, error):
    # at tau = 1e-120 the rate factors' Hessian (about 1/tau^3) overflows,
    # at order 1 too, where it is discarded: order 2 reports it at the start
    # point, order 1 fails on its rate of about 1e120/s; under the suite's
    # warnings-as-errors policy a stray numpy warning would fail this test
    point = dataclasses.replace(zajac_scenario("ii"), tau=1e-120)
    with pytest.raises(error) as exc:
        analyze(zajac_model(), point, np.linspace(0.0, 0.5, 11), order=order)
    if error is NonFiniteState:
        assert str(exc.value) == ("rhs or its partials are non-finite at t=0.0 for "
                                  "q_Z0=0.05, sigma=0.1, q0=0.005, tau=1e-120, beta=1.0")


@pytest.mark.parametrize("model, point, field", [
    # unchecked, the first solves to a flat 1.5, the second grows to 1.2e6 by t = 0.5 s
    (hatze_model(), HatzeParams(sigma=0.1, q_init=1.5), "q_init"),
    (zajac_model(), ZajacParams(sigma=0.1, beta=-1.0), "beta"),
], ids=["hatze-q-init-above-one", "zajac-negative-beta"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_point_outside_the_domain_is_rejected_before_the_solve(model, point, field, order):
    with pytest.raises(ParameterOutOfRange) as exc:
        analyze(model, point, _GRID, order=order)
    assert exc.value.field == field
    with pytest.raises(ParameterOutOfRange):  # the same point as a mapping
        analyze(model, point.as_dict(), _GRID, order=order)


# ---------------------------------------------------------------------------
# the augmented rhs's output array, rewritten by every call
# ---------------------------------------------------------------------------

PANEL_GRID = make_grid(0.5, 201)
PANELS = {f"zajac-{tag}": (zajac_model(), p) for tag, p in all_zajac_scenarios()}
PANELS.update({f"hatze-{tag}": (hatze_model(), p) for tag, p in all_hatze_scenarios()})


def _copy_every_rhs_result(monkeypatch):
    """Make every augmented system's rhs write into a fresh array, which is
    then copied into the row the solve gave it."""
    real = localsens._augmented_system

    def copying(*args, **kwargs):
        rhs, z0, triangle = real(*args, **kwargs)

        def fresh(t, z, out):
            result = np.empty_like(out)
            rhs(t, z, result)
            out[...] = result

        return fresh, z0, triangle

    monkeypatch.setattr(localsens, "_augmented_system", copying)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("model, point", PANELS.values(), ids=PANELS.keys())
def test_reused_rhs_output_solves_as_fresh_copies(monkeypatch, model, point, order):
    reused = analyze(model, point, PANEL_GRID, order=order)
    _copy_every_rhs_result(monkeypatch)
    copied = analyze(model, point, PANEL_GRID, order=order)
    for field in ("times", "state", "s_raw", "r_raw"):
        a, b = getattr(reused, field), getattr(copied, field)
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("oracle", [
    fd_first_order,
    lambda m, p, g: second_order_fd(m, p, g).r_raw,
], ids=["fd_first_order", "second_order_fd"])
@pytest.mark.parametrize("panel", ["zajac-ii-b13", "hatze-ii-nu2"])
def test_reused_rhs_output_keeps_the_fd_oracles(monkeypatch, oracle, panel):
    # each central difference has its two systems write the halves of its row
    model, point = PANELS[panel]
    grid = np.array([0.05, 0.3])
    reused = oracle(model, point, grid)
    _copy_every_rhs_result(monkeypatch)
    assert np.array_equal(reused, oracle(model, point, grid))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_arithmetic():
    res = SensitivityResult(
        times=np.array([0.0]), state=np.array([[4.0]]),
        param_names=("lam",), init_names=("y0",), point=np.array([4.0, 0.5]),
        s_raw=np.array([[[3.0], [2.0]]]),  # rows y0, lam
    )
    out = normalize(res)
    assert out.s_rel[0, 0, 0] == pytest.approx(3.0)
    assert out.s_rel[0, 1, 0] == pytest.approx(0.25)


@pytest.mark.parametrize("as_mapping", [False, True], ids=["parameter-object", "mapping"])
def test_the_result_carries_the_analyzed_point(as_mapping):
    # normalize scales by result.point, so it must be the point analyze
    # solved at, over the canonical order, whichever form the point came in
    model, ps = hatze_model(), hatze_scenario("ii")
    expect = np.array([ps.as_dict()[n] for n in model.canonical_order])
    point = ps.as_dict() if as_mapping else ps
    grid = np.linspace(0.0, 0.05, 3)
    for order in (0, 1, 2):
        assert np.array_equal(analyze(model, point, grid, order=order).point, expect), order
    assert np.array_equal(second_order_fd(model, point, grid).point, expect)


def test_normalize_flags_zero_parameter():
    model = zajac_model()
    ps = dataclasses.replace(zajac_scenario("ii"), sigma=0.0)
    res = normalize(analyze(model, ps, np.linspace(0.0, 0.1, 5)))
    i = model.canonical_order.index("sigma")
    assert "sigma" in res.zero_params
    assert np.all(res.s_rel[:, i, 0] == 0.0)


@pytest.mark.parametrize("model, point, zero", [
    (zajac_model(), dataclasses.replace(zajac_scenario("ii"), q_init=0.0, q0=0.0),
     ("q_Z0", "q0")),
    (simplified_zajac_model(), simplified_zajac_model().params_of(0.0, 0.1, 0.025), ("q_Z0",)),
], ids=["zajac", "simplified-zajac"])
def test_normalize_lists_every_zero_entry_of_the_point(model, point, zero):
    # an initial value of 0 zeroes its row as a dynamic parameter of 0 does,
    # and each is listed in canonical order (the grid starts after t = 0,
    # where a zero initial state is degenerate)
    res = normalize(analyze(model, point, np.linspace(0.01, 0.1, 5)))
    assert not res.degenerate.any()
    assert res.zero_params == zero
    for name in zero:
        assert np.all(res.s_rel[:, model.canonical_order.index(name), 0] == 0.0)


def test_normalize_flags_degenerate_state():
    # state crosses zero: relative sensitivity undefined there
    model = affine_model()
    ps = {"y0": 1.0, "a": 0.0, "b": -1.0}
    grid = np.array([0.0, 1.0, 2.0])  # y(t) = 1 - t hits 0 at t=1
    res = normalize(analyze(model, ps, grid))
    assert bool(res.degenerate[1, 0])
    assert np.isnan(res.s_rel[1, 0, 0])
    assert not res.degenerate[0, 0] and not res.degenerate[2, 0]


def test_normalize_scales_initial_condition_with_start_value():
    grid = np.linspace(0.0, 0.1, 5)
    res = normalize(analyze(simplified_zajac_model(), FIG1, grid))
    expect = np.exp(-grid / 0.025) * 0.05 / res.state[:, 0]
    assert np.allclose(res.s_rel[:, 0, 0], expect, atol=1e-9)
