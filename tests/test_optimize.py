import math

import numpy as np
import pytest

from actsens import (
    ForceLengthRelation,
    HatzeParams,
    MaxIterationsExceeded,
    NoInteriorMaximum,
    PoleViolation,
    ShiftTargets,
    FitProblem,
    fit_error,
    fit_shift_parameters,
    hatze_q_of_gamma,
    isometric_force,
    load_shift_targets,
    optimal_length_shift,
    run_table,
    synthesize_targets,
)
from actsens.optimize import (
    CALCIUM_CEILING,
    DEFAULT_BELL_STARTS,
    DEFAULT_ELL_OPT,
    DEFAULT_LEVELS,
    DEFAULT_PARABOLA_STARTS,
    NEWTON_RTOL,
    SHIFT_SEARCH_COARSE,
    SHIFT_SEARCH_SPAN,
    _argmax_force,
    _newton_peak,
    predicted_shifts,
)

BELL = ForceLengthRelation(kind="bell", width=0.32, nu_asc=3.0, nu_des=1.5,
                           ell_opt=14.8, f_max=1.0)
HATZE3 = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=3.25e4 * CALCIUM_CEILING,
                     ell_rho=2.9, q_init=0.5)


def brute_force_argmax(gamma, p, flr, resolution_mm=1e-3):
    """Exhaustive 1-micrometre grid scan over the search interval."""
    ells = np.arange(0.5 * flr.ell_opt, 1.5 * flr.ell_opt + resolution_mm,
                     resolution_mm)
    forces = isometric_force(gamma, ells, p, flr)
    return ells[int(np.argmax(forces))]


def zoom_max(fun, lo, width, xtol):
    """Derivative-free grid-zoom maximum of a unimodal ``fun`` on [lo, lo + width].

    An oracle for the Newton maximum that shares none of its slopes. ``lo``
    is a scalar or an array of independent brackets of one common ``width``,
    and ``fun`` maps probes with one more trailing axis (K per bracket) to
    their values. Each level keeps the two grid intervals around the best
    probe, so the width shrinks by 2/(K+1) until it is at most ``xtol``.
    K = ceil(2 sqrt(width/xtol)) - 1 makes two levels enough, and since
    neither depends on ``fun``, every bracket takes the same path batched or
    alone. Returns the best probe of the last level, whose grid step is at
    most xtol/2.
    """
    k = max(math.ceil(2.0 * math.sqrt(width / xtol)) - 1, 2)
    lo, grid = np.asarray(lo, dtype=float), np.arange(1, k + 1) / (k + 1)
    while width > xtol:
        best = np.argmax(fun(lo[..., None] + width * grid), axis=-1)
        lo, width = lo + width * best / (k + 1), width * 2.0 / (k + 1)
    mid = lo + 0.5 * width
    return float(mid) if mid.ndim == 0 else mid


# ---------------------------------------------------------------------------
# isometric force
# ---------------------------------------------------------------------------


def test_isometric_force_at_zero_stimulation():
    p = HatzeParams(sigma=0.0, q0=0.005, nu=3.0, rho_c=7.24, q_init=0.5)
    flr = ForceLengthRelation(kind="parabola", width=0.56, ell_opt=14.8,
                              f_max=100.0)
    for ell in (10.0, 14.8, 18.0):
        q = hatze_q_of_gamma(0.0, ell / 14.8, p)
        assert q == pytest.approx(0.005)
        expect = 100.0 * 0.005 * max(0.0, 1.0 - ((ell / 14.8 - 1.0) / 0.56) ** 2)
        assert isometric_force(0.0, ell, p, flr) == pytest.approx(expect, rel=1e-12)


def test_isometric_force_at_full_activation_and_optimum():
    p = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=7.24, q_init=0.5)
    x = 7.24**3
    expect = (0.005 + x) / (1.0 + x)
    assert expect == pytest.approx(0.9973850432420813, rel=1e-12)
    assert isometric_force(1.0, 14.8, p, BELL) == pytest.approx(expect, rel=1e-12)


def test_isometric_force_continuous_in_length():
    ells = np.linspace(7.5, 22.0, 2000)
    forces = isometric_force(0.4, ells, HATZE3, BELL)
    assert np.all(np.isfinite(forces))
    assert np.max(np.abs(np.diff(forces))) < 0.01  # no jumps on a fine grid


# ---------------------------------------------------------------------------
# optimal-length shift
# ---------------------------------------------------------------------------


def test_shift_is_zero_at_full_activation():
    assert optimal_length_shift(1.0, HATZE3, BELL) == pytest.approx(0.0, abs=1e-9)


def test_shift_vanishes_without_length_dependent_activation():
    # with the basic activity q0 near 1 the activity hardly depends on
    # length, so every level's force maximum sits at the force-length
    # optimum, against shifts of 0.09 to 4.6 mm at the usual q0
    flat = HatzeParams(sigma=1.0, q0=0.9999, nu=3.0, rho_c=HATZE3.rho_c, ell_rho=2.9,
                       q_init=0.99999)
    for kind, width in (("bell", 0.32), ("parabola", 0.56)):
        flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
        for gamma in (0.1, 0.4, 1.0):
            peak = _argmax_force((gamma,), flat, flr, SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE)[0]
            assert peak == pytest.approx(14.8, abs=1e-3)
            assert optimal_length_shift(gamma, flat, flr) == pytest.approx(0.0, abs=2e-4)


def test_shift_positive_below_full_activation():
    for kind, width in (("bell", 0.32), ("parabola", 0.56)):
        flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
        for gamma in DEFAULT_LEVELS:
            assert optimal_length_shift(gamma, HATZE3, flr) > 0.0


def test_refined_shift_matches_micrometre_grid():
    shift = optimal_length_shift(0.28, HATZE3, BELL)
    oracle = (brute_force_argmax(0.28, HATZE3, BELL)
              - brute_force_argmax(1.0, HATZE3, BELL))
    assert shift == pytest.approx(oracle, abs=2e-3)  # within 2 micrometres


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_refined_peak_within_half_xtol_of_nanometre_grid(kind, width, nu, rho0):
    # the oracle zooms on the micrometre grid's best point to xtol = 1 nm
    xtol = 1e-6
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
    p = HatzeParams(sigma=1.0, q0=0.005, nu=nu, rho_c=rho0 * CALCIUM_CEILING,
                    ell_rho=2.9, q_init=0.5)
    for gamma in (1.0, *DEFAULT_LEVELS):
        peak = _argmax_force((gamma,), p, flr, SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE)[0]
        near = brute_force_argmax(gamma, p, flr)
        truth = zoom_max(lambda x: isometric_force(gamma, x, p, flr), near - 2e-3, 4e-3, xtol)
        assert abs(peak - truth) <= xtol / 2


def test_boundary_maximum_raises(monkeypatch):
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", (0.9, 1.001))
    with pytest.raises(NoInteriorMaximum):
        optimal_length_shift(0.28, HATZE3, BELL)


def test_boundary_maximum_in_one_row_raises():
    # gamma = 1 and 0.55 peak inside (0.8, 1.15) * ell_opt, gamma = 0.08 beyond it
    span = (0.8, 1.15)
    _argmax_force((1.0, 0.55), HATZE3, BELL, span, 201)
    with pytest.raises(NoInteriorMaximum, match="0.08"):
        _argmax_force((1.0, 0.55, 0.08), HATZE3, BELL, span, 201)


@pytest.mark.parametrize("kind", ["bell", "parabola"])
def test_boundary_rows_of_a_batch_are_nan(kind):
    # a span below the force-length optimum puts every maximum on its upper
    # end; each row is NaN, and the refinement of their empty brackets warns
    # of nothing (warnings are errors in this suite)
    rho_c = np.reshape([HATZE3.rho_c, 2.0 * HATZE3.rho_c], (-1, 1, 1))
    p = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=rho_c, ell_rho=2.9, q_init=0.5)
    flr = ForceLengthRelation(kind=kind, width=0.32, ell_opt=14.8)
    assert np.isnan(_argmax_force((1.0, 0.08), p, flr, (0.2, 0.9), 201)).all()


def test_maximum_within_rounding_of_the_optimum_is_pinned_there():
    # at a tiny calcium scale the activity's slope is so small that the
    # bell's maximum lies within NEWTON_RTOL of u = 1 at gamma = 0.08, where
    # the force is flat to rounding; at 0.55 the Newton still resolves it
    p = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=1e2 * CALCIUM_CEILING, ell_rho=2.9,
                    q_init=0.5)
    low, mid = _argmax_force((0.08, 0.55), p, BELL, SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE)
    assert 0.0 < low - 14.8 <= NEWTON_RTOL * 14.8 * (1 + 1e-9)
    assert mid - 14.8 == pytest.approx(3.27e-8, rel=1e-2)


def test_maximum_the_scan_cannot_bracket_is_no_interior_maximum():
    # far along the nu = 2 parabola's degenerate valley the force is flat to
    # rounding over the scan, whose best point then need not bracket the
    # slope's root; the 0.22 level's does not here
    flat = HatzeParams(sigma=1.0, q0=0.005, nu=2.0, rho_c=1.46e11 * CALCIUM_CEILING,
                       ell_rho=2.9, q_init=0.5)
    wide = ForceLengthRelation(kind="parabola", width=7.1e5, ell_opt=14.8)
    with pytest.raises(NoInteriorMaximum, match="not bracketed.*0.22"):
        optimal_length_shift(0.22, flat, wide)
    # in a batch only that set's row is NaN
    rho_c = np.reshape([1.46e11 * CALCIUM_CEILING, HATZE3.rho_c], (-1, 1, 1))
    both = HatzeParams(sigma=1.0, q0=0.005, nu=2.0, rho_c=rho_c, ell_rho=2.9, q_init=0.5)
    flr = ForceLengthRelation(kind="parabola", width=np.reshape([7.1e5, 0.56], (-1, 1, 1)))
    peaks = _argmax_force((1.0, 0.22), both, flr, SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE)
    assert np.isnan(peaks[0]).all() and np.isfinite(peaks[1]).all()


@pytest.mark.parametrize("span", [(0.5, 3.0), (0.0, 1.5), (-0.5, 1.5)])
def test_span_outside_pole_interval_raises(span, monkeypatch):
    # ell_rho = 2.9: relative lengths must stay inside (0, 2.9)
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", span)
    with pytest.raises(PoleViolation):
        optimal_length_shift(0.28, HATZE3, BELL)


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_batched_argmax_equals_per_level_search(kind, width, nu, rho0):
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
    p = HatzeParams(sigma=1.0, q0=0.005, nu=nu, rho_c=rho0 * CALCIUM_CEILING,
                    ell_rho=2.9, q_init=0.5)
    levels = (1.0, *DEFAULT_LEVELS)
    batched = _argmax_force(levels, p, flr, (0.5, 1.5), 201)
    single = [_argmax_force((g,), p, flr, (0.5, 1.5), 201)[0] for g in levels]
    assert batched.tolist() == single


def test_zoom_array_brackets_match_scalar_runs():
    # peaks at different places in their brackets take different zoom paths
    centre = np.array([0.3, 1.7, -2.2, 5.0])
    lo = np.array([0.0, 1.0, -2.5, 4.9])
    fun = lambda x, c=centre[:, None]: np.exp(-np.abs(x - c) ** 1.5)
    rows = zoom_max(fun, lo, 1.0, 1e-6)
    for i in range(centre.size):
        alone = zoom_max(lambda x: fun(x, centre[i]), lo[i], 1.0, 1e-6)
        assert isinstance(alone, float)
        assert rows[i] == alone
        assert alone == pytest.approx(centre[i], abs=1e-6)


@pytest.mark.parametrize("ell_opt", [5.0, DEFAULT_ELL_OPT, 40.0])
@pytest.mark.parametrize("coarse", [51, SHIFT_SEARCH_COARSE, 1001])
@pytest.mark.parametrize("xtol", [1e-6, 1e-4, 1e-3, 0.05])
def test_zoom_reaches_xtol_in_two_levels(ell_opt, coarse, xtol):
    # on a bracket of two coarse steps, as _argmax_force's, K and the level
    # count follow from that width and xtol alone
    width = 2.0 * (SHIFT_SEARCH_SPAN[1] - SHIFT_SEARCH_SPAN[0]) * ell_opt / (coarse - 1)
    peak = 0.6180339887 * width  # an arbitrary point inside the bracket
    probes = []

    def fun(x):
        probes.append(x)
        return -np.abs(x - peak)

    found = zoom_max(fun, 0.0, width, xtol)
    k = math.ceil(2.0 * math.sqrt(width / xtol)) - 1
    assert len(probes) <= 2 and all(x.shape == (k,) for x in probes)
    assert (len(probes) == 0) == (width <= xtol)
    # the last level keeps two of its grid steps
    final_width = 2.0 * (probes[-1][1] - probes[-1][0]) if probes else width
    assert final_width <= xtol * (1 + 1e-9)
    assert abs(found - peak) <= xtol / 2


def test_newton_freezes_each_entry_at_its_own_root():
    # g = c - sqrt(u - 1) has the bell's singular slope at u = 1 and its
    # root at 1 + c^2; the first entry starts on its root (g = 0 exactly),
    # the last far right of a root near the bracket's end at 1
    c = np.array([0.5, 0.1, 0.003])
    calls = []

    def slopes(u, c=c):
        calls.append(u.copy())
        root = np.sqrt(u - 1.0)
        return c - root, -0.5 / root

    lo, hi = np.ones(3), np.full(3, 2.0)
    start = np.array([1.25, 1.5, 1.9])
    rows = _newton_peak(slopes, lo, hi, start, np.ones(3, dtype=bool))
    assert rows[0] == 1.25  # never thrown back to a bisection
    assert all(u[0] == 1.25 for u in calls)
    assert np.allclose(rows, 1.0 + c**2, rtol=NEWTON_RTOL, atol=0.0)
    assert len(calls) < 40
    for i in range(c.size):
        alone = _newton_peak(lambda u: slopes(u, c[i:i + 1]), lo[i:i + 1], hi[i:i + 1],
                             start[i:i + 1], np.ones(1, dtype=bool))
        assert alone[0] == rows[i]


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("ell_opt", [5.0, DEFAULT_ELL_OPT, 40.0])
@pytest.mark.parametrize("coarse", [51, SHIFT_SEARCH_COARSE, 1001])
def test_newton_peak_does_not_depend_on_the_coarse_grid(kind, width, ell_opt, coarse):
    # the scan only brackets the maximum; the force depends on ell/ell_opt
    # alone, so the relative peak is the same for every grid and ell_opt
    levels = (1.0, *DEFAULT_LEVELS)
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=ell_opt)
    ref = ForceLengthRelation(kind=kind, width=width, ell_opt=DEFAULT_ELL_OPT)
    peaks = _argmax_force(levels, HATZE3, flr, SHIFT_SEARCH_SPAN, coarse) / ell_opt
    expect = _argmax_force(levels, HATZE3, ref, SHIFT_SEARCH_SPAN,
                           SHIFT_SEARCH_COARSE) / DEFAULT_ELL_OPT
    np.testing.assert_allclose(peaks, expect, rtol=NEWTON_RTOL, atol=0.0)


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu", [2.0, 3.0, 4.0])
def test_shift_jacobian_matches_central_differences(kind, width, nu):
    targets = ShiftTargets(DEFAULT_LEVELS, tuple(0.0 for _ in DEFAULT_LEVELS))
    problem = FitProblem(targets=targets, flr_kind=kind, nu=nu)
    rho0, h = 5.27e4, 1e-5
    shifts, jac = predicted_shifts(width, rho0, problem, jacobian=True)
    assert shifts.tolist() == predicted_shifts(width, rho0, problem).tolist()
    for j, (dw, dr) in enumerate(((h, 0.0), (0.0, h))):
        up = predicted_shifts(width * math.exp(dw), rho0 * math.exp(dr), problem)
        down = predicted_shifts(width * math.exp(-dw), rho0 * math.exp(-dr), problem)
        np.testing.assert_allclose(jac[:, j], (up - down) / (2 * h), rtol=1e-6, atol=1e-8)
    # the batched Jacobian is each point's own
    widths, rho0s = np.array([width, 1.1 * width]), np.array([rho0, 0.9 * rho0])
    batched = predicted_shifts(widths, rho0s, problem, jacobian=True)[1]
    assert batched[0].tolist() == jac.tolist()


def test_shift_invariant_under_force_scaling():
    scaled = ForceLengthRelation(kind="bell", width=0.32, ell_opt=14.8,
                                 f_max=1234.5)
    assert optimal_length_shift(0.22, HATZE3, scaled) == pytest.approx(
        optimal_length_shift(0.22, HATZE3, BELL), abs=1e-9)


# ---------------------------------------------------------------------------
# fit objective
# ---------------------------------------------------------------------------


def test_fit_error_zero_on_self_consistent_targets():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    problem = FitProblem(targets=targets, flr_kind="bell", nu=3.0,
                         width_start=0.32)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.0, abs=1e-12)


def test_fit_error_single_level_divides_by_five():
    base = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell",
                              levels=(0.28,))
    shifted = ShiftTargets(levels=(0.28,), shifts_mm=(base.shifts_mm[0] + 0.1,))
    problem = FitProblem(targets=shifted, flr_kind="bell", nu=3.0,
                         width_start=0.32)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.1 / math.sqrt(5.0),
                                                             rel=1e-9)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.04472135954999579,
                                                             rel=1e-9)


def test_fit_error_constant_offset_over_five_levels():
    base = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    shifted = ShiftTargets(levels=base.levels,
                           shifts_mm=tuple(s - 0.25 for s in base.shifts_mm))
    problem = FitProblem(targets=shifted, flr_kind="bell", nu=3.0,
                         width_start=0.32)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.25, rel=1e-9)


def test_fit_error_invariant_under_level_permutation():
    base = synthesize_targets(width=0.35, rho0=4.0e4, nu=2.0, kind="bell")
    problem = FitProblem(targets=base, flr_kind="bell", nu=2.0, width_start=0.3)
    perm = ShiftTargets(levels=base.levels[::-1], shifts_mm=base.shifts_mm[::-1])
    problem_perm = FitProblem(targets=perm, flr_kind="bell", nu=2.0,
                              width_start=0.3)
    assert fit_error(0.3, 3.5e4, problem) == pytest.approx(
        fit_error(0.3, 3.5e4, problem_perm), rel=1e-12)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt search
# ---------------------------------------------------------------------------


def _lm(residuals, start, tol=1e-10, max_iter=200):
    """Drive the search alone: send each trial point its (r, J), or None."""
    import actsens.optimize as opt

    search = opt._levenberg_marquardt(np.asarray(start, dtype=float), tol, max_iter)
    theta = next(search)
    try:
        while True:
            theta = search.send(residuals(theta))
    except StopIteration as done:
        return done.value


def test_levenberg_marquardt_solves_linear_least_squares():
    a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0], [2.0, 2.0]])
    b = np.array([1.0, -2.0, 3.0, 0.5])
    theta, error, iterations = _lm(lambda t: (a @ t - b, a), [5.0, -5.0])
    expect = np.linalg.lstsq(a, b)[0]
    np.testing.assert_allclose(theta, expect, rtol=1e-10)
    assert error == pytest.approx(math.sqrt(np.sum((a @ expect - b) ** 2) / 5.0), rel=1e-12)
    assert iterations < 15


def test_levenberg_marquardt_rosenbrock():
    def residuals(t):
        x, y = t
        return np.array([10.0 * (y - x * x), 1.0 - x]), np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])

    theta, error, iterations = _lm(residuals, [-1.2, 1.0])
    np.testing.assert_allclose(theta, [1.0, 1.0], rtol=1e-10)
    assert error < 1e-10 and iterations < 100


def test_levenberg_marquardt_iteration_cap():
    # r0 = e^t0 decreases without end: every Gauss-Newton step in t0 is -1
    def drifting(t):
        return np.array([math.exp(t[0]), t[1]]), np.diag([math.exp(t[0]), 1.0])

    with pytest.raises(MaxIterationsExceeded):
        _lm(drifting, [0.0, 1.0], max_iter=50)


def test_levenberg_marquardt_infeasible_start_ends_the_search():
    with pytest.raises(ValueError, match="not finite at the start point"):
        _lm(lambda t: None, [0.0, 0.0])
    with pytest.raises(NoInteriorMaximum, match="injected"):
        _lm(lambda t: NoInteriorMaximum("injected"), [0.0, 0.0])
    with pytest.raises(ValueError, match="Jacobian is not finite"):
        _lm(lambda t: (np.ones(2), np.full((2, 2), np.nan)), [0.0, 0.0])


def test_levenberg_marquardt_steps_stay_in_the_trust_region():
    # the Gauss-Newton step from the start is 50 long; the damping rises
    # until each step lies within LM_MAX_STEP, and the search still converges
    import actsens.optimize as opt

    trials = []

    def residuals(t):
        trials.append(t.copy())
        return t - (50.0, -3.0), np.eye(2)

    theta, error, iterations = _lm(residuals, [0.0, 0.0])
    steps = np.abs(np.diff(trials, axis=0))
    assert steps.max() <= opt.LM_MAX_STEP and steps[0, 0] > 0.5 * opt.LM_MAX_STEP
    np.testing.assert_allclose(theta, [50.0, -3.0], rtol=1e-10)
    assert error < 1e-10 and iterations < 100


def test_levenberg_marquardt_stops_where_the_residuals_do_not_move():
    # a zero Jacobian column is damped on the unit scale: no step, no error
    theta, error, iterations = _lm(lambda t: (np.ones(2), np.zeros((2, 2))), [0.5, -0.5])
    assert theta.tolist() == [0.5, -0.5] and iterations == 1
    assert error == pytest.approx(math.sqrt(2.0 / 5.0))
    # one parameter without effect keeps its start while the other converges
    theta, error, _ = _lm(lambda t: (np.array([t[0] - 2.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])),
                          [0.0, 7.0])
    assert theta[0] == pytest.approx(2.0) and theta[1] == 7.0 and error < 1e-10


def test_levenberg_marquardt_treats_infeasible_trial_points_as_rejected_steps():
    # the minimum at t0 = 3 lies in the infeasible region t0 > 2, so steps
    # toward it are rejected and shrink until the search stops just inside
    for infeasible in (None, ValueError("beyond 2")):
        def residuals(t, infeasible=infeasible):
            return infeasible if t[0] > 2.0 else (t - (3.0, 1.0), np.eye(2))

        theta, error, _ = _lm(residuals, [0.0, 0.0], tol=1e-8)
        assert 2.0 - 1e-6 < theta[0] <= 2.0
        assert error == pytest.approx(math.hypot(3.0 - theta[0], 1.0 - theta[1]) / math.sqrt(5.0))


# ---------------------------------------------------------------------------
# fitting pipeline
# ---------------------------------------------------------------------------


def test_round_trip_recovers_generating_parameters():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell",
                                          nu=3.0, width_start=0.35))
    # exact maxima and Jacobians: the truth to near rounding, not to a grid
    assert fit.width == pytest.approx(0.32, rel=1e-10)
    assert fit.rho0 == pytest.approx(3.25e4, rel=1e-10)
    assert fit.error_mm < 1e-10


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_fit_recovers_each_cells_own_truth(kind, width, nu, rho0):
    targets = synthesize_targets(width=width, rho0=rho0, nu=nu, kind=kind)
    start = DEFAULT_BELL_STARTS[0] if kind == "bell" else DEFAULT_PARABOLA_STARTS[0]
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind=kind, nu=nu,
                                          width_start=start))
    assert fit.width == pytest.approx(width, rel=1e-9)
    assert fit.rho0 == pytest.approx(rho0, rel=1e-9)
    assert fit.error_mm < 1e-10


def test_fit_counts_objective_evaluations(monkeypatch):
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    calls = []
    counted = lambda *args, **kw: calls.append(args) or predicted_shifts(*args, **kw)
    monkeypatch.setattr(opt, "predicted_shifts", counted)
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell",
                                          nu=3.0, width_start=0.35))
    # the start, then one evaluation per step
    assert fit.objective_evals == len(calls) == fit.iterations + 1

    _set_starts(monkeypatch, (0.35,), (0.56,))
    cells = opt.run_table(targets, nus=(3.0,), kinds=("bell",))
    assert cells[0].objective_evals == fit.objective_evals


def test_run_table_layout_and_failure_reporting(monkeypatch):
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    _set_starts(monkeypatch, (0.25, 0.35), (0.46, 0.56))
    cells = run_table(targets, nus=(3.0,), kinds=("bell",))
    assert len(cells) == 2
    assert all(c.status == "ok" for c in cells)

    import actsens.optimize as opt

    def explode(width, rho0, problem, **kw):  # fails at the 0.25 start's first point only
        if np.any(np.asarray(width) == 0.25):
            raise ValueError("injected failure")
        return predicted_shifts(width, rho0, problem, **kw)

    monkeypatch.setattr(opt, "predicted_shifts", explode)
    failed = opt.run_table(targets, nus=(3.0,), kinds=("bell",))
    assert len(failed) == 2  # table still emitted
    assert "injected failure" in failed[0].status
    assert math.isnan(failed[0].width)
    assert failed[1] == cells[1]  # its lockstep sibling converges as before


def test_failed_trial_point_is_a_rejected_step(monkeypatch):
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    kw = dict(nus=(3.0,), kinds=("bell",))
    _set_starts(monkeypatch, (0.25, 0.35), (0.46, 0.56))
    cells = run_table(targets, **kw)
    rounds, failed = [], []

    def explode(width, rho0, problem, **kw):  # the 0.25 start's second point fails
        if np.ndim(width) and len(width) == 2:
            rounds.append(width[0])
        if len(rounds) == 2 and np.any(np.asarray(width) == rounds[1]):
            failed.append(rounds[1])
            raise ValueError("injected failure")
        return predicted_shifts(width, rho0, problem, **kw)

    monkeypatch.setattr(opt, "predicted_shifts", explode)
    again = opt.run_table(targets, **kw)
    assert failed  # the batch and then the point alone
    assert again[0].status == "ok" and again[0].width == pytest.approx(0.32, rel=1e-9)
    assert again[0].objective_evals > 2
    assert again[1] == cells[1]


def test_fit_from_a_far_start_converges():
    # from rho0 = 1e3, 130 times below the fitted value, the first
    # Gauss-Newton steps would leap out of the region where the maxima are
    # resolved (an earlier untrusted step overflowed exp); the trust region
    # brings every start to the same minimum
    targets = ShiftTargets(levels=(0.55, 0.28, 0.1), shifts_mm=(0.4, 0.9, 3.0))
    cells = run_table(targets, nus=(1.5,), kinds=("parabola",), rho0_start=1e3)
    assert all(c.status == "ok" for c in cells)
    assert max(c.error_mm for c in cells) - min(c.error_mm for c in cells) < 1e-8
    assert cells[0].error_mm == pytest.approx(0.0574, abs=1e-4)


def test_run_table_lets_programming_errors_propagate(monkeypatch):
    import actsens.optimize as opt

    def broken(width, rho0, problem, **kw):
        raise TypeError("injected bug")

    monkeypatch.setattr(opt, "predicted_shifts", broken)
    targets = ShiftTargets(levels=(0.28,), shifts_mm=(0.5,))
    _set_starts(monkeypatch, (0.25,), (0.46,))
    with pytest.raises(TypeError, match="injected bug"):
        opt.run_table(targets, nus=(3.0,), kinds=("bell",))


def _set_starts(monkeypatch, bell, parabola):
    """Set run_table's width starts for one test."""
    monkeypatch.setattr("actsens.optimize.DEFAULT_BELL_STARTS", bell)
    monkeypatch.setattr("actsens.optimize.DEFAULT_PARABOLA_STARTS", parabola)


def _recording_rounds(monkeypatch):
    """Patch the round evaluation to record every round's (widths, feasible)."""
    import actsens.optimize as opt

    calls, evaluate = [], opt._trial_residuals

    def recording(points, problem):
        values = evaluate(points, problem)
        calls.append(([math.exp(u[0]) for u in points], [v is not None for v in values]))
        return values

    monkeypatch.setattr(opt, "_trial_residuals", recording)
    return calls


#: Targets of a degenerate (nu = 2, parabola) cell: its fits run off along a
#: valley in which width and rho0 grow together, until their trial points
#: leave the region where the scan resolves the force maximum.
DEGENERATE = dict(width=0.29729915352635605, rho0=48251.625410948334, nu=3.0, kind="bell")


def test_lockstep_fits_equal_solo_fits(monkeypatch):
    # the starts end in different rounds, and meet infeasible trial points
    # in rounds where their siblings' points are feasible
    targets = synthesize_targets(**DEGENERATE)
    calls = _recording_rounds(monkeypatch)
    cells = run_table(targets, nus=(2.0,), kinds=("parabola",))
    assert len(cells) == 3 and all(c.status == "ok" for c in cells)
    assert len({c.iterations for c in cells}) > 1
    assert len(calls) == max(c.objective_evals for c in cells)  # one call per round
    assert any(not all(feasible) and any(feasible) for _, feasible in calls)

    for cell in cells:
        solo = fit_shift_parameters(FitProblem(targets=targets, flr_kind="parabola", nu=2.0,
                                               width_start=cell.width_start))
        assert (cell.width, cell.rho0, cell.error_mm) == (solo.width, solo.rho0, solo.error_mm)
        assert (cell.iterations, cell.objective_evals) == (solo.iterations,
                                                            solo.objective_evals)
    _set_starts(monkeypatch, (0.25, 0.35), (0.46, 0.56))
    pair = run_table(targets, nus=(2.0,), kinds=("parabola",))
    assert pair == cells[:2]


def test_degenerate_cell_ends_ok_within_a_bounded_number_of_rounds():
    targets = synthesize_targets(**DEGENERATE)
    cells = run_table(targets, nus=(2.0,), kinds=("parabola",))
    assert all(c.status == "ok" for c in cells)
    assert max(c.iterations for c in cells) < 2000
    assert min(c.width for c in cells) > 1e3  # far along the valley
    # the error is flat along the valley: every start ends at the same error
    errors = [c.error_mm for c in cells]
    assert max(errors) - min(errors) < 1e-8


def test_lockstep_iteration_cap_fails_only_its_own_fit(monkeypatch):
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    problems = [FitProblem(targets=targets, flr_kind="bell", nu=2.0, width_start=w)
                for w in (0.25, 0.35, 0.45)]
    # a cap that only the fastest of the three uncapped fits stays within
    counts = [fit.iterations for fit in opt._fit_lockstep(problems)]
    assert len(set(counts)) == 3
    order = np.argsort(counts)
    fastest, cap = order[0], (counts[order[0]] + counts[order[1]]) // 2
    monkeypatch.setattr(opt, "FIT_MAX_ITER", cap)
    outcomes = opt._fit_lockstep(problems)
    assert outcomes[fastest] == fit_shift_parameters(problems[fastest])
    for i in order[1:]:
        assert isinstance(outcomes[i], MaxIterationsExceeded)
        with pytest.raises(MaxIterationsExceeded):
            fit_shift_parameters(problems[i])


def test_targets_csv_roundtrip(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
    targets = load_shift_targets(path)
    assert targets.levels == (0.55, 0.28)
    assert targets.shifts_mm == (0.4, 0.9)

    bad = tmp_path / "bad.csv"
    bad.write_text("g,s\n0.5,0.4\n")
    with pytest.raises(ValueError):
        load_shift_targets(bad)


def test_targets_validation():
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5, 0.5), shifts_mm=(0.1, 0.2))
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5, 1.2), shifts_mm=(0.1, 0.2))
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5,), shifts_mm=(float("nan"),))
