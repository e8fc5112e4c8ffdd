import numpy as np
import pytest

from actsens import (
    MissingDerivative,
    ModelDerivs,
    ModelSpec,
    ParameterSet,
    analyze,
    fd_first_order,
    fd_initial_condition,
    first_order,
    hatze_model,
    initial_condition_sensitivity,
    normalize,
    second_order,
    second_order_fd,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    zajac_model,
)
from actsens.localsens import SensitivityResult
from actsens.presets import all_zajac_scenarios, hatze_scenario, zajac_scenario

FIG1 = ParameterSet.from_dict({"q_Z0": 0.05, "sigma": 1.0, "tau": 0.025},
                              order=("q_Z0", "sigma", "tau"))


# ---------------------------------------------------------------------------
# toy models
# ---------------------------------------------------------------------------


def inert_param_model() -> ModelSpec:
    """Scalar decay whose second parameter never enters the rhs."""

    def derivs(t, y, lam, order):
        a = lam[0]
        f = np.array([-a * y[0]])
        if order == 0:
            return ModelDerivs(f=f)
        jac_y = np.array([[-a]])
        jac_p = np.array([[-y[0]], [0.0]])
        if order == 1:
            return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p)
        hess_yy = np.zeros((1, 1, 1))
        hess_py = np.array([[[-1.0]], [[0.0]]])
        hess_pp = np.zeros((2, 2, 1))
        return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p, hess_yy=hess_yy,
                           hess_py=hess_py, hess_pp=hess_pp)

    return ModelSpec(name="inert", param_names=("a", "unused"),
                     init_names=("y0",), derivs=derivs)


def affine_model() -> ModelSpec:
    """f = a*y + b: linear with zero state curvature."""

    def derivs(t, y, lam, order):
        a, b = lam
        f = np.array([a * y[0] + b])
        if order == 0:
            return ModelDerivs(f=f)
        jac_y = np.array([[a]])
        jac_p = np.array([[y[0]], [1.0]])
        if order == 1:
            return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p)
        return ModelDerivs(
            f=f, jac_y=jac_y, jac_p=jac_p,
            hess_yy=np.zeros((1, 1, 1)),
            hess_py=np.array([[[1.0]], [[0.0]]]),
            hess_pp=np.zeros((2, 2, 1)),
        )

    return ModelSpec(name="affine", param_names=("a", "b"),
                     init_names=("y0",), derivs=derivs)


def planar_model() -> ModelSpec:
    """Two-state nonlinear system exercising every tensor contraction."""

    def derivs(t, y, lam, order):
        a, b, c = lam
        y1, y2 = y
        f = np.array([-a * y1 + b * y2**2, c * y1 * y2])
        if order == 0:
            return ModelDerivs(f=f)
        jac_y = np.array([[-a, 2 * b * y2], [c * y2, c * y1]])
        jac_p = np.array([[-y1, 0.0], [y2**2, 0.0], [0.0, y1 * y2]])
        if order == 1:
            return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p)
        hess_yy = np.zeros((2, 2, 2))
        hess_yy[0, 1, 1] = 2 * b
        hess_yy[1, 0, 1] = hess_yy[1, 1, 0] = c
        hess_py = np.zeros((3, 2, 2))
        hess_py[0, 0, 0] = -1.0
        hess_py[1, 0, 1] = 2 * y2
        hess_py[2, 1, 0] = y2
        hess_py[2, 1, 1] = y1
        hess_pp = np.zeros((3, 3, 2))
        return ModelDerivs(f=f, jac_y=jac_y, jac_p=jac_p, hess_yy=hess_yy,
                           hess_py=hess_py, hess_pp=hess_pp)

    return ModelSpec(name="planar", param_names=("a", "b", "c"),
                     init_names=("y1_0", "y2_0"), state_names=("y1", "y2"),
                     derivs=derivs)


def no_hessian_model() -> ModelSpec:
    def derivs(t, y, lam, order):
        f = np.array([-lam[0] * y[0]])
        return ModelDerivs(f=f, jac_y=np.array([[-lam[0]]]),
                           jac_p=np.array([[-y[0]]]))

    return ModelSpec(name="nohess", param_names=("a",), init_names=("y0",),
                     derivs=derivs)


# ---------------------------------------------------------------------------
# closed-form oracle equivalence (simplified linear model)
# ---------------------------------------------------------------------------


def test_simplified_model_matches_closed_forms():
    grid = np.linspace(0.0, 0.2, 201)
    model = simplified_zajac_model()
    res = normalize(analyze(model, FIG1, grid, order=1, include_init=True), FIG1)
    oracle = simplified_zajac_sensitivities(grid, 1.0, 0.025, 0.05)
    assert np.max(np.abs(res.s_rel[:, 0, 0] - oracle["sigma"])) < 1e-6
    assert np.max(np.abs(res.s_rel[:, 1, 0] - oracle["tau"])) < 1e-6
    assert np.max(np.abs(res.s_init_rel[:, 0, 0] - oracle["q_Z0"])) < 1e-6


def test_initial_sensitivity_is_exponential_decay():
    grid = np.linspace(0.0, 0.2, 51)
    s0 = initial_condition_sensitivity(simplified_zajac_model(), FIG1, grid)
    assert s0[0, 0, 0] == 1.0
    assert np.max(np.abs(s0[:, 0, 0] - np.exp(-grid / 0.025))) < 1e-6


def test_sensitivities_start_at_their_initial_values():
    grid = np.array([0.0, 0.1])
    res = analyze(zajac_model(), zajac_scenario("ii"), grid, order=2,
                  include_init=True)
    assert np.all(res.s_raw[0] == 0.0)
    assert np.all(res.s_init_raw[0] == np.eye(1))
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
    ps = ParameterSet.from_dict({"y0": 1.0, "a": 2.0, "unused": 5.0},
                                order=("y0", "a", "unused"))
    res = first_order(inert_param_model(), ps, np.linspace(0.0, 1.0, 11))
    assert np.max(np.abs(res.s_raw[:, 1, 0])) < 1e-12
    assert np.max(np.abs(res.s_raw[:, 0, 0])) > 0.01


def test_zajac_beta_sensitivity_vanishes_at_full_stimulation():
    model = zajac_model()
    ps = zajac_scenario("iv", beta=1.0)  # sigma = 1
    grid = np.linspace(0.0, 0.25, 26)
    res = normalize(analyze(model, ps, grid, include_init=True), ps)
    ib = model.param_names.index("beta")
    assert np.max(np.abs(res.s_rel[:, ib, 0])) < 1e-10
    fd = fd_first_order(model, ps, grid)
    assert np.max(np.abs(fd[:, ib, 0])) < 1e-6


def test_zajac_tau_sensitivity_negative_for_rising_activation():
    model = zajac_model()
    for row in ("ii", "iii", "iv"):
        ps = zajac_scenario(row, beta=1.0)
        grid = np.linspace(0.01, 0.3, 30)
        res = normalize(analyze(model, ps, grid), ps)
        assert np.all(res.s_rel[:, model.param_names.index("tau"), 0] < 0.0)


def test_zajac_memory_of_initial_value_decays():
    # relative influence of the initial value drops below 5% within four
    # activation time constants on every scenario panel (within three only
    # for the boost-free column)
    model = zajac_model()
    grid = np.array([0.0755, 0.1005, 0.5])
    for label, ps in all_zajac_scenarios():
        res = normalize(analyze(model, ps, grid, include_init=True), ps)
        s = res.s_init_rel[:, 0, 0]
        assert s[1] < 0.05, f"{label}: S_init(4 tau) = {s[1]:.4f}"
        assert np.all(np.diff(s) < 0.0)
        if label.endswith("b1"):
            assert s[0] < 0.05, f"{label}: S_init(3 tau) = {s[0]:.4f}"


def test_hatze_sigma_and_rho_c_relative_sensitivities_identical():
    model = hatze_model()
    ps = hatze_scenario("iii", nu=3.0)
    grid = np.linspace(0.0, 0.5, 51)
    res = normalize(analyze(model, ps, grid), ps)
    i_s = model.param_names.index("sigma")
    i_r = model.param_names.index("rho_c")
    assert np.allclose(res.s_rel[:, i_s, 0], res.s_rel[:, i_r, 0], atol=1e-10)


def test_hatze_length_sensitivity_ratio_is_pole_elasticity():
    # the drive parameters enter through one product, so relative
    # sensitivities stay in fixed ratios; at optimal length the CE-length
    # to stimulation ratio equals ell_rho/(ell_rho - 1) and the pole itself
    # has no influence at all
    model = hatze_model()
    ps = hatze_scenario("iii", nu=3.0)
    grid = np.linspace(0.05, 0.5, 10)
    res = normalize(analyze(model, ps, grid), ps)
    i_s = model.param_names.index("sigma")
    i_l = model.param_names.index("ell_CErel")
    i_p = model.param_names.index("ell_rho")
    ratio = res.s_rel[:, i_l, 0] / res.s_rel[:, i_s, 0]
    assert np.allclose(ratio, 2.9 / 1.9, rtol=1e-8)
    assert np.max(np.abs(res.s_rel[:, i_p, 0])) < 1e-12


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
        scale = np.max(np.abs(res.s_raw))
        assert np.allclose(fd, res.s_raw, rtol=1e-3, atol=1e-3 * scale)


def test_initial_condition_sensitivity_matches_fd():
    model = zajac_model()
    ps = zajac_scenario("iii", beta=1.0 / 3.0)
    grid = np.array([0.025, 0.125])
    s0 = initial_condition_sensitivity(model, ps, grid)
    fd = fd_initial_condition(model, ps, grid)
    assert np.allclose(fd, s0, rtol=1e-3, atol=1e-8)


def test_affine_model_second_order_matches_fd_of_first_order():
    model = affine_model()
    ps = ParameterSet.from_dict({"y0": 0.5, "a": -2.0, "b": 1.0},
                                order=("y0", "a", "b"))
    grid = np.linspace(0.1, 1.0, 4)
    res = second_order(model, ps, grid)
    oracle = second_order_fd(model, ps, grid, rel_step=1e-4)
    assert oracle.r_approximate
    scale = max(np.max(np.abs(res.r_raw)), 1.0)
    assert np.allclose(oracle.r_raw, res.r_raw, rtol=1e-4, atol=1e-6 * scale)
    # curvature in the state vanishes for an affine rhs: R_bb = 0
    ib = model.param_names.index("b")
    assert np.max(np.abs(res.r_raw[:, ib, ib, 0])) < 1e-10


def test_planar_model_sensitivities_match_fd():
    model = planar_model()
    ps = ParameterSet.from_dict(
        {"y1_0": 1.0, "y2_0": 0.5, "a": 1.2, "b": 0.4, "c": -0.8},
        order=("y1_0", "y2_0", "a", "b", "c"))
    grid = np.array([0.2, 0.7])
    res = analyze(model, ps, grid, order=2, include_init=True)
    fd = fd_first_order(model, ps, grid)
    assert np.allclose(fd, res.s_raw, rtol=1e-3, atol=1e-5)
    fdi = fd_initial_condition(model, ps, grid)
    assert np.allclose(fdi, res.s_init_raw, rtol=1e-3, atol=1e-5)
    rfd = second_order_fd(model, ps, grid).r_raw
    scale = max(np.max(np.abs(res.r_raw)), 1.0)
    assert np.allclose(rfd, res.r_raw, rtol=1e-3, atol=1e-5 * scale)


def test_second_order_tensor_is_symmetric():
    model = hatze_model()
    ps = hatze_scenario("ii", nu=3.0)
    res = second_order(model, ps, np.linspace(0.0, 0.3, 7))
    assert np.array_equal(res.r_raw, res.r_raw.transpose(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# missing derivatives and the FD fallback
# ---------------------------------------------------------------------------


def test_missing_second_partials_raise_without_fallback():
    model = no_hessian_model()
    ps = ParameterSet.from_dict({"y0": 1.0, "a": 2.0}, order=("y0", "a"))
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(MissingDerivative):
        second_order(model, ps, grid)
    res = second_order_fd(model, ps, grid)
    assert res.r_approximate
    # d^2 y / da^2 of y0*exp(-a t) is y0 t^2 exp(-a t)
    expect = 1.0 * grid**2 * np.exp(-2.0 * grid)
    assert np.allclose(res.r_raw[:, 0, 0, 0], expect, rtol=1e-3, atol=1e-8)


def test_state_only_model_rejects_first_order():
    def derivs(t, y, lam, order):
        return ModelDerivs(f=np.array([-y[0]]))

    model = ModelSpec(name="bare", param_names=("a",), init_names=("y0",),
                      derivs=derivs)
    ps = ParameterSet.from_dict({"y0": 1.0, "a": 1.0}, order=("y0", "a"))
    with pytest.raises(MissingDerivative):
        first_order(model, ps, np.linspace(0.0, 1.0, 3))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_arithmetic():
    res = SensitivityResult(
        times=np.array([0.0]), state=np.array([[4.0]]),
        param_names=("lam",), init_names=("y0",),
        s_raw=np.array([[[2.0]]]),
    )
    out = normalize(res, {"lam": 0.5, "y0": 4.0})
    assert out.s_rel[0, 0, 0] == pytest.approx(0.25)


def test_normalize_flags_zero_parameter():
    model = zajac_model()
    ps = zajac_scenario("ii").with_value("sigma", 0.0)
    res = normalize(analyze(model, ps, np.linspace(0.0, 0.1, 5)), ps)
    i = model.param_names.index("sigma")
    assert "sigma" in res.zero_params
    assert np.all(res.s_rel[:, i, 0] == 0.0)


def test_normalize_flags_degenerate_state():
    # state crosses zero: relative sensitivity undefined there
    model = affine_model()
    ps = ParameterSet.from_dict({"y0": 1.0, "a": 0.0, "b": -1.0},
                                order=("y0", "a", "b"))
    grid = np.array([0.0, 1.0, 2.0])  # y(t) = 1 - t hits 0 at t=1
    res = normalize(analyze(model, ps, grid), ps)
    assert bool(res.degenerate[1, 0])
    assert np.isnan(res.s_rel[1, 0, 0])
    assert not res.degenerate[0, 0] and not res.degenerate[2, 0]


def test_normalize_scales_initial_condition_with_start_value():
    grid = np.linspace(0.0, 0.1, 5)
    res = normalize(analyze(simplified_zajac_model(), FIG1, grid,
                            include_init=True), FIG1)
    expect = np.exp(-grid / 0.025) * 0.05 / res.state[:, 0]
    assert np.allclose(res.s_init_rel[:, 0, 0], expect, atol=1e-9)
