import dataclasses

import numpy as np
import pytest

from actsens import (
    HatzeParams,
    MissingDerivative,
    ModelSpec,
    Tolerances,
    ZajacParams,
    analyze,
    fd_first_order,
    fd_initial_condition,
    hatze_model,
    normalize,
    second_order_fd,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    zajac_model,
)
from actsens.localsens import SensitivityResult
from actsens.presets import all_zajac_scenarios, hatze_scenario, zajac_scenario

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
    res = normalize(analyze(model, FIG1, grid, order=1), FIG1)
    oracle = simplified_zajac_sensitivities(grid, 1.0, 0.025, 0.05)
    for i, name in enumerate(model.canonical_order):  # q_Z0, sigma, tau
        assert np.max(np.abs(res.s_rel[:, i, 0] - oracle[name])) < 1e-6


def test_initial_sensitivity_is_exponential_decay():
    grid = np.linspace(0.0, 0.2, 51)
    s0 = analyze(simplified_zajac_model(), FIG1, grid, order=1).s_raw[:, :1]
    assert s0[0, 0, 0] == 1.0
    assert np.max(np.abs(s0[:, 0, 0] - np.exp(-grid / 0.025))) < 1e-6


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
    res = normalize(analyze(model, ps, grid), ps)
    assert np.max(np.abs(res.s_rel[:, model.canonical_order.index("beta"), 0])) < 1e-10
    fd = fd_first_order(model, ps, grid)
    assert np.max(np.abs(fd[:, model.param_names.index("beta"), 0])) < 1e-6


def test_zajac_tau_sensitivity_negative_for_rising_activation():
    model = zajac_model()
    for row in ("ii", "iii", "iv"):
        ps = zajac_scenario(row, beta=1.0)
        grid = np.linspace(0.01, 0.3, 30)
        res = normalize(analyze(model, ps, grid), ps)
        assert np.all(res.s_rel[:, model.canonical_order.index("tau"), 0] < 0.0)


def test_zajac_memory_of_initial_value_decays():
    # relative influence of the initial value drops below 5% within four
    # activation time constants on every scenario panel (within three only
    # for the boost-free column)
    model = zajac_model()
    grid = np.array([0.0755, 0.1005, 0.5])
    for label, ps in all_zajac_scenarios():
        res = normalize(analyze(model, ps, grid), ps)
        s = res.s_rel[:, 0, 0]
        assert s[1] < 0.05, f"{label}: S_init(4 tau) = {s[1]:.4f}"
        assert np.all(np.diff(s) < 0.0)
        if label.endswith("b1"):
            assert s[0] < 0.05, f"{label}: S_init(3 tau) = {s[0]:.4f}"


def test_hatze_sigma_and_rho_c_relative_sensitivities_identical():
    model = hatze_model()
    ps = hatze_scenario("iii", nu=3.0)
    grid = np.linspace(0.0, 0.5, 51)
    res = normalize(analyze(model, ps, grid), ps)
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
    res = normalize(analyze(model, ps, grid, order=2), ps)
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


def test_fd_oracles_default_to_tight_tolerances():
    # the oracles stay at 1e-8/1e-10 when the integrator's default loosens
    model = hatze_model()
    ps = hatze_scenario("ii", nu=2.0)
    grid = np.array([0.05, 0.3])
    tight = Tolerances(rel_tol=1e-8, abs_tol=1e-10)
    assert np.array_equal(fd_first_order(model, ps, grid),
                          fd_first_order(model, ps, grid, tol=tight))
    assert np.array_equal(fd_initial_condition(model, ps, grid),
                          fd_initial_condition(model, ps, grid, tol=tight))
    implicit, explicit = second_order_fd(model, ps, grid), second_order_fd(model, ps, grid, tol=tight)
    for field in ("state", "s_raw", "r_raw"):
        assert np.array_equal(getattr(implicit, field), getattr(explicit, field))


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
    lambda p: normalize(analyze(zajac_model(), zajac_scenario("ii"), _GRID), p),
    lambda p: fd_first_order(zajac_model(), p, _GRID),
    lambda p: fd_initial_condition(zajac_model(), p, _GRID),
    lambda p: second_order_fd(zajac_model(), p, _GRID),
], ids=["analyze", "normalize", "fd_first_order", "fd_initial_condition", "second_order_fd"])
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
    lambda m, p, g: normalize(analyze(m, p, g, order=2), p).r_rel,
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


def test_a_point_of_another_type_raises_type_error():
    point = zajac_scenario("ii")
    with pytest.raises(TypeError, match="parameter object or mapping"):
        analyze(zajac_model(), point.values_for(zajac_model().canonical_order), _GRID)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_arithmetic():
    res = SensitivityResult(
        times=np.array([0.0]), state=np.array([[4.0]]),
        param_names=("lam",), init_names=("y0",),
        s_raw=np.array([[[3.0], [2.0]]]),  # rows y0, lam
    )
    out = normalize(res, {"lam": 0.5, "y0": 4.0})
    assert out.s_rel[0, 0, 0] == pytest.approx(3.0)
    assert out.s_rel[0, 1, 0] == pytest.approx(0.25)


def test_normalize_flags_zero_parameter():
    model = zajac_model()
    ps = dataclasses.replace(zajac_scenario("ii"), sigma=0.0)
    res = normalize(analyze(model, ps, np.linspace(0.0, 0.1, 5)), ps)
    i = model.canonical_order.index("sigma")
    assert "sigma" in res.zero_params
    assert np.all(res.s_rel[:, i, 0] == 0.0)


def test_normalize_flags_degenerate_state():
    # state crosses zero: relative sensitivity undefined there
    model = affine_model()
    ps = {"y0": 1.0, "a": 0.0, "b": -1.0}
    grid = np.array([0.0, 1.0, 2.0])  # y(t) = 1 - t hits 0 at t=1
    res = normalize(analyze(model, ps, grid), ps)
    assert bool(res.degenerate[1, 0])
    assert np.isnan(res.s_rel[1, 0, 0])
    assert not res.degenerate[0, 0] and not res.degenerate[2, 0]


def test_normalize_scales_initial_condition_with_start_value():
    grid = np.linspace(0.0, 0.1, 5)
    res = normalize(analyze(simplified_zajac_model(), FIG1, grid), FIG1)
    expect = np.exp(-grid / 0.025) * 0.05 / res.state[:, 0]
    assert np.allclose(res.s_rel[:, 0, 0], expect, atol=1e-9)
