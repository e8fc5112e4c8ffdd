import dataclasses
import math

import numpy as np
import pytest

from actsens import (
    ForceLengthRelation,
    HatzeParams,
    MaxIterationsExceeded,
    NoInteriorMaximum,
    ParameterOutOfRange,
    PoleViolation,
    ShiftTargets,
    FitProblem,
    FitResult,
    TableCell,
    fit_error,
    fit_shift_parameters,
    hatze_q_of_gamma,
    isometric_force,
    load_shift_targets,
    run_table,
    synthesize_targets,
)
from actsens.optimize import (
    CALCIUM_CEILING,
    DEFAULT_BELL_STARTS,
    DEFAULT_ELL_OPT,
    DEFAULT_LEVELS,
    DEFAULT_PARABOLA_STARTS,
    DEFAULT_RHO0_START,
    NEWTON_RTOL,
    SHIFT_SEARCH_COARSE,
    SHIFT_SEARCH_SPAN,
    _argmax_force,
    _newton_peak,
    predicted_shifts,
)

BELL = ForceLengthRelation(kind="bell", width=0.32, ell_opt=14.8)
HATZE3 = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=3.25e4 * CALCIUM_CEILING,
                     ell_rho=2.9, q_init=0.5)


def shifts_at(levels, width=0.32, rho0=3.25e4, kind="bell", nu=3.0):
    """The fit's shifts (mm) at ``levels`` for one (width, rho0); the
    defaults are the point of HATZE3 and BELL."""
    targets = ShiftTargets(tuple(levels), (0.0,) * len(levels))
    return predicted_shifts(width, rho0, FitProblem(targets=targets, flr_kind=kind, nu=nu))


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
    flr = ForceLengthRelation(kind="parabola", width=0.56, ell_opt=14.8)
    for ell in (10.0, 14.8, 18.0):
        q = hatze_q_of_gamma(0.0, ell / 14.8, p)
        assert q == pytest.approx(0.005)
        expect = 0.005 * max(0.0, 1.0 - ((ell / 14.8 - 1.0) / 0.56) ** 2)
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
    # a level's peak does not depend on the other levels of its scan
    here, ref = _argmax_force((1.0, 1.0), HATZE3, BELL)
    assert here - ref == pytest.approx(0.0, abs=1e-9)


def test_shift_vanishes_without_length_dependent_activation():
    # with the basic activity q0 near 1 the activity hardly depends on
    # length, so every level's force maximum sits at the force-length
    # optimum, against shifts of 0.09 to 4.6 mm at the usual q0
    flat = HatzeParams(sigma=1.0, q0=0.9999, nu=3.0, rho_c=HATZE3.rho_c, ell_rho=2.9,
                       q_init=0.99999)
    for kind, width in (("bell", 0.32), ("parabola", 0.56)):
        flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
        for gamma in (0.1, 0.4, 1.0):
            peak, ref = _argmax_force((gamma, 1.0), flat, flr)  # q0 is not the fit's
            assert peak == pytest.approx(14.8, abs=1e-3)
            assert peak - ref == pytest.approx(0.0, abs=2e-4)


def test_shift_positive_below_full_activation():
    for kind, width in (("bell", 0.32), ("parabola", 0.56)):
        assert (shifts_at(DEFAULT_LEVELS, width, kind=kind) > 0.0).all()


def test_refined_shift_matches_micrometre_grid():
    assert FitProblem(ShiftTargets((), ())).model(0.32, 3.25e4) == (HATZE3, BELL)
    (shift,) = shifts_at((0.28,))
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
        peak = _argmax_force((gamma,), p, flr)[0]
        near = brute_force_argmax(gamma, p, flr)
        truth = zoom_max(lambda x: isometric_force(gamma, x, p, flr), near - 2e-3, 4e-3, xtol)
        assert abs(peak - truth) <= xtol / 2


def test_boundary_maximum_raises(monkeypatch):
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", (0.9, 1.001))
    with pytest.raises(NoInteriorMaximum):
        shifts_at((0.28,))


def test_boundary_maximum_in_one_row_raises(monkeypatch):
    # gamma = 1 and 0.55 peak inside (0.8, 1.15) * ell_opt, gamma = 0.08 beyond it
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", (0.8, 1.15))
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_COARSE", 201)
    _argmax_force((1.0, 0.55), HATZE3, BELL)
    with pytest.raises(NoInteriorMaximum, match="0.08"):
        _argmax_force((1.0, 0.55, 0.08), HATZE3, BELL)


@pytest.mark.parametrize("kind", ["bell", "parabola"])
def test_boundary_rows_of_a_batch_are_nan(kind, monkeypatch):
    # a span below the force-length optimum puts every maximum on its upper
    # end; each row is NaN, and the refinement of their empty brackets warns
    # of nothing (warnings are errors in this suite)
    rho_c = np.reshape([HATZE3.rho_c, 2.0 * HATZE3.rho_c], (-1, 1, 1))
    p = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=rho_c, ell_rho=2.9, q_init=0.5)
    flr = ForceLengthRelation(kind=kind, width=0.32, ell_opt=14.8)
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", (0.2, 0.9))
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_COARSE", 201)
    assert np.isnan(_argmax_force((1.0, 0.08), p, flr)).all()


def test_maximum_within_rounding_of_the_optimum_is_pinned_there():
    # at a tiny calcium scale the activity's slope is so small that the
    # bell's maximum lies within NEWTON_RTOL of u = 1 at gamma = 0.08, where
    # the force is flat to rounding; at 0.55 the Newton still resolves it
    p = HatzeParams(sigma=1.0, q0=0.005, nu=3.0, rho_c=1e2 * CALCIUM_CEILING, ell_rho=2.9,
                    q_init=0.5)
    low, mid = _argmax_force((0.08, 0.55), p, BELL)
    assert 0.0 < low - 14.8 <= NEWTON_RTOL * 14.8 * (1 + 1e-9)
    assert mid - 14.8 == pytest.approx(3.27e-8, rel=1e-2)


def test_maximum_the_scan_cannot_bracket_is_no_interior_maximum():
    # far along the nu = 2 parabola's degenerate valley the force is flat to
    # rounding over the scan, whose best point then need not bracket the
    # slope's root; the 0.22 level's does not here
    with pytest.raises(NoInteriorMaximum, match="not bracketed.*0.22"):
        shifts_at((0.22,), width=7.1e5, rho0=1.46e11, kind="parabola", nu=2.0)
    # in a batch only that set's row is NaN
    rho_c = np.reshape([1.46e11 * CALCIUM_CEILING, HATZE3.rho_c], (-1, 1, 1))
    both = HatzeParams(sigma=1.0, q0=0.005, nu=2.0, rho_c=rho_c, ell_rho=2.9, q_init=0.5)
    flr = ForceLengthRelation(kind="parabola", width=np.reshape([7.1e5, 0.56], (-1, 1, 1)))
    peaks = _argmax_force((1.0, 0.22), both, flr)
    assert np.isnan(peaks[0]).all() and np.isfinite(peaks[1]).all()


@pytest.mark.parametrize("span", [(0.5, 3.0), (0.0, 1.5), (-0.5, 1.5)])
def test_span_outside_pole_interval_raises(span, monkeypatch):
    # ell_rho = 2.9: relative lengths must stay inside (0, 2.9); a span
    # reaching 0 leaves ell_CErel's own range, one reaching 2.9 hits the pole
    error = PoleViolation if span[0] > 0.0 else ParameterOutOfRange
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", span)
    with pytest.raises(error):
        shifts_at((0.28,))


def test_scan_grid_follows_the_search_constants_and_is_read_only(monkeypatch):
    # the grid is cached per (span, points, ell_opt) as the constants read at
    # the call, so patching either changes the next scan
    import actsens.optimize as opt

    scans, force = [], opt.isometric_force

    def recording(gamma, ell_ce, *args):
        scans.append(ell_ce)
        return force(gamma, ell_ce, *args)

    monkeypatch.setattr(opt, "isometric_force", recording)
    shifts_at((0.28,))
    assert scans[-1].size == SHIFT_SEARCH_COARSE
    monkeypatch.setattr(opt, "SHIFT_SEARCH_COARSE", 101)
    shifts_at((0.28,))
    assert scans[-1].size == 101
    monkeypatch.setattr(opt, "SHIFT_SEARCH_SPAN", (0.6, 1.4))
    shifts_at((0.28,))
    assert scans[-1].size == 101 and (scans[-1][0], scans[-1][-1]) == (0.6 * 14.8, 1.4 * 14.8)
    # scans with the same values share one grid, which no caller can write
    monkeypatch.setattr(opt, "SHIFT_SEARCH_SPAN", SHIFT_SEARCH_SPAN)
    monkeypatch.setattr(opt, "SHIFT_SEARCH_COARSE", SHIFT_SEARCH_COARSE)
    shifts_at((0.28,))
    assert scans[-1] is scans[0]
    for shared in opt._scan_grid(*SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE, 14.8):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_batched_argmax_equals_per_level_search(kind, width, nu, rho0, monkeypatch):
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
    p = HatzeParams(sigma=1.0, q0=0.005, nu=nu, rho_c=rho0 * CALCIUM_CEILING,
                    ell_rho=2.9, q_init=0.5)
    levels = (1.0, *DEFAULT_LEVELS)
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_SPAN", (0.5, 1.5))
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_COARSE", 201)
    batched = _argmax_force(levels, p, flr)
    single = [_argmax_force((g,), p, flr)[0] for g in levels]
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
def test_newton_peak_does_not_depend_on_the_coarse_grid(kind, width, ell_opt, coarse,
                                                        monkeypatch):
    # the scan only brackets the maximum; the force depends on ell/ell_opt
    # alone, so the relative peak is the same for every grid and ell_opt
    levels = (1.0, *DEFAULT_LEVELS)
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=ell_opt)
    ref = ForceLengthRelation(kind=kind, width=width, ell_opt=DEFAULT_ELL_OPT)
    expect = _argmax_force(levels, HATZE3, ref) / DEFAULT_ELL_OPT
    monkeypatch.setattr("actsens.optimize.SHIFT_SEARCH_COARSE", coarse)
    peaks = _argmax_force(levels, HATZE3, flr) / ell_opt
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


def _full_slopes(monkeypatch):
    """Patch both slope helpers to compute all three outputs and return the
    ones asked for."""
    import actsens.optimize as opt

    for name in ("_hatze_log_q_slopes", "_force_length_log_slopes"):
        full = getattr(opt, name)
        monkeypatch.setattr(opt, name, lambda *args, n=3, full=full: full(*args)[:n])


#: Point sets as (kind, nu, widths, rho0s): one point, or three with one row
#: without an interior maximum (the wide bell's scan-boundary maximum; the
#: degenerate parabola's unbracketed 0.22). Both bell sets hold a level
#: pinned at the optimum to rounding (rho0 = 100 at gamma = 0.08).
SLOPE_POINT_SETS = {
    "bell-pinned": ("bell", 3.0, 0.32, 100.0),
    "bell-three": ("bell", 3.0, [0.32, 0.32, 3.0], [3.25e4, 100.0, 3.25e4]),
    "parabola-three": ("parabola", 2.0, [0.56, 7.1e5, 0.46], [3.25e4, 1.46e11, 100.0]),
}


@pytest.mark.parametrize("name", list(SLOPE_POINT_SETS))
def test_shifts_and_jacobian_do_not_depend_on_the_slope_outputs_computed(name, monkeypatch):
    # each stage of the force search evaluates only the derivatives it reads;
    # computing all three everywhere must give the same bits
    kind, nu, widths, rho0s = SLOPE_POINT_SETS[name]
    levels = (0.55, 0.28, 0.22, 0.08)
    problem = FitProblem(targets=ShiftTargets(levels, (0.0,) * len(levels)), flr_kind=kind,
                         nu=nu)
    shifts, jac = predicted_shifts(widths, rho0s, problem, jacobian=True)
    assert np.isnan(shifts).any(axis=-1).sum() == np.ndim(widths)  # a NaN row in a set
    _full_slopes(monkeypatch)
    again = predicted_shifts(widths, rho0s, problem, jacobian=True)
    assert shifts.tobytes() == again[0].tobytes() and jac.tobytes() == again[1].tobytes()


# ---------------------------------------------------------------------------
# fit objective
# ---------------------------------------------------------------------------


def test_fit_error_zero_on_self_consistent_targets():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    problem = FitProblem(targets=targets, flr_kind="bell", nu=3.0)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.0, abs=1e-12)


def test_fit_error_single_level_divides_by_five():
    base = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell",
                              levels=(0.28,))
    shifted = ShiftTargets(levels=(0.28,), shifts_mm=(base.shifts_mm[0] + 0.1,))
    problem = FitProblem(targets=shifted, flr_kind="bell", nu=3.0)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.1 / math.sqrt(5.0),
                                                             rel=1e-9)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.04472135954999579,
                                                             rel=1e-9)


def test_fit_error_constant_offset_over_five_levels():
    base = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    shifted = ShiftTargets(levels=base.levels,
                           shifts_mm=tuple(s - 0.25 for s in base.shifts_mm))
    problem = FitProblem(targets=shifted, flr_kind="bell", nu=3.0)
    assert fit_error(0.32, 3.25e4, problem) == pytest.approx(0.25, rel=1e-9)


def test_fit_error_invariant_under_level_permutation():
    base = synthesize_targets(width=0.35, rho0=4.0e4, nu=2.0, kind="bell")
    problem = FitProblem(targets=base, flr_kind="bell", nu=2.0)
    perm = ShiftTargets(levels=base.levels[::-1], shifts_mm=base.shifts_mm[::-1])
    problem_perm = FitProblem(targets=perm, flr_kind="bell", nu=2.0)
    assert fit_error(0.3, 3.5e4, problem) == pytest.approx(
        fit_error(0.3, 3.5e4, problem_perm), rel=1e-12)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt search
# ---------------------------------------------------------------------------


def _lm(residuals, start, tol=1e-10, max_iter=200):
    """Drive the search alone, with FIT_TOL = tol and FIT_MAX_ITER = max_iter:
    send each trial point its (r, J), or None."""
    import actsens.optimize as opt

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(opt, "FIT_TOL", tol)
        monkeypatch.setattr(opt, "FIT_MAX_ITER", max_iter)
        search = opt._levenberg_marquardt(np.asarray(start, dtype=float))
        theta = next(search)
        try:
            while True:
                theta = search.send(residuals(theta))
        except StopIteration as done:
            return done.value


def test_levenberg_marquardt_solves_linear_least_squares():
    a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0], [2.0, 2.0]])
    b = np.array([1.0, -2.0, 3.0, 0.5])
    theta, error, iterations, determined = _lm(lambda t: (a @ t - b, a), [5.0, -5.0])
    expect = np.linalg.lstsq(a, b)[0]
    np.testing.assert_allclose(theta, expect, rtol=1e-10)
    assert error == pytest.approx(math.sqrt(np.sum((a @ expect - b) ** 2) / 5.0), rel=1e-12)
    assert iterations < 15 and determined


def test_levenberg_marquardt_rosenbrock():
    def residuals(t):
        x, y = t
        return np.array([10.0 * (y - x * x), 1.0 - x]), np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])

    theta, error, iterations, determined = _lm(residuals, [-1.2, 1.0])
    np.testing.assert_allclose(theta, [1.0, 1.0], rtol=1e-10)
    assert error < 1e-10 and iterations < 100 and determined


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

    theta, error, iterations, determined = _lm(residuals, [0.0, 0.0])
    steps = np.abs(np.diff(trials, axis=0))
    assert steps.max() <= opt.LM_MAX_STEP and steps[0, 0] > 0.5 * opt.LM_MAX_STEP
    np.testing.assert_allclose(theta, [50.0, -3.0], rtol=1e-10)
    assert error < 1e-10 and iterations < 100 and determined


def test_levenberg_marquardt_stops_where_the_residuals_do_not_move():
    # a zero Jacobian column is damped on the unit scale: no step, no error
    theta, error, iterations, determined = _lm(lambda t: (np.ones(2), np.zeros((2, 2))),
                                               [0.5, -0.5])
    assert theta.tolist() == [0.5, -0.5] and iterations == 1
    assert error == pytest.approx(math.sqrt(2.0 / 5.0))
    assert not determined  # a zero column determines nothing
    # one parameter without effect keeps its start while the other converges
    theta, error, _, determined = _lm(
        lambda t: (np.array([t[0] - 2.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])), [0.0, 7.0])
    assert theta[0] == pytest.approx(2.0) and theta[1] == 7.0 and error < 1e-10
    assert not determined


def test_levenberg_marquardt_stops_on_a_valley_with_parallel_columns():
    # r = e^-(t0 + t1) decreases without end along t0 + t1, and J's two
    # columns are equal: only t0 + t1 is determined. Once the error has
    # settled the search stops there instead of walking on to the step cap.
    def valley(t):
        e = math.exp(-(t[0] + t[1]))
        return np.array([e]), np.array([[-e, -e]])

    theta, error, iterations, determined = _lm(valley, [0.0, 0.0], max_iter=200)
    assert not determined and iterations < 200
    assert theta[0] == theta[1] and error < 1e-8
    assert error == pytest.approx(math.exp(-2.0 * theta[0]) / math.sqrt(5.0), rel=1e-12)


def test_levenberg_marquardt_treats_infeasible_trial_points_as_rejected_steps():
    # the minimum at t0 = 3 lies in the infeasible region t0 > 2, so steps
    # toward it are rejected and shrink until the search stops just inside
    for infeasible in (None, ValueError("beyond 2")):
        def residuals(t, infeasible=infeasible):
            return infeasible if t[0] > 2.0 else (t - (3.0, 1.0), np.eye(2))

        theta, error, _, determined = _lm(residuals, [0.0, 0.0], tol=1e-8)
        assert 2.0 - 1e-6 < theta[0] <= 2.0 and determined
        assert error == pytest.approx(math.hypot(3.0 - theta[0], 1.0 - theta[1]) / math.sqrt(5.0))


# ---------------------------------------------------------------------------
# fitting pipeline
# ---------------------------------------------------------------------------


def test_round_trip_recovers_generating_parameters():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=3.0), 0.35)
    # exact maxima and Jacobians: the truth to near rounding, not to a grid
    assert fit.width == pytest.approx(0.32, rel=1e-10)
    assert fit.rho0 == pytest.approx(3.25e4, rel=1e-10)
    assert fit.error_mm < 1e-10


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_fit_recovers_each_cells_own_truth(kind, width, nu, rho0):
    targets = synthesize_targets(width=width, rho0=rho0, nu=nu, kind=kind)
    start = DEFAULT_BELL_STARTS[0] if kind == "bell" else DEFAULT_PARABOLA_STARTS[0]
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind=kind, nu=nu), start)
    assert fit.width == pytest.approx(width, rel=1e-9)
    assert fit.rho0 == pytest.approx(rho0, rel=1e-9)
    assert fit.error_mm < 1e-10


def test_fit_counts_objective_evaluations(monkeypatch):
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    calls = []
    counted = lambda *args, **kw: calls.append(args) or predicted_shifts(*args, **kw)
    monkeypatch.setattr(opt, "predicted_shifts", counted)
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=3.0), 0.35)
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


def test_table_cell_is_a_fit_result_plus_its_cell(monkeypatch):
    # every FitResult field reaches the table with no second declaration
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    _set_starts(monkeypatch, (0.35,), (0.56,))
    (cell,) = run_table(targets, nus=(3.0,), kinds=("bell",))
    solo = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=3.0), 0.35)
    cell_fields = {f.name for f in dataclasses.fields(TableCell)}
    for field in dataclasses.fields(FitResult):
        assert field.name in cell_fields
        assert getattr(cell, field.name) == getattr(solo, field.name), field.name
    assert (cell.nu, cell.kind, cell.width_start, cell.status) == (3.0, "bell", 0.35, "ok")
    # a failed cell keeps every fit field at its FitResult default
    failed = TableCell(nu=3.0, kind="bell", width_start=0.35, status="ValueError: x")
    for field in dataclasses.fields(FitResult):
        assert repr(getattr(failed, field.name)) == repr(field.default), field.name


def test_run_table_rejects_a_start_that_is_not_positive(monkeypatch):
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    with pytest.raises(ValueError, match="rho0_start must be positive"):
        run_table(targets, rho0_start=0.0)
    _set_starts(monkeypatch, (0.25, -0.35), (0.46, 0.56))
    with pytest.raises(ValueError, match="width_start must be positive"):
        run_table(targets, nus=(3.0,), kinds=("bell",))


@pytest.mark.parametrize("bell,parabola,rho0_start,message", [
    ((0.25, 0.35), (0.46, -0.56), DEFAULT_RHO0_START, "width_start"),
    ((0.25, 0.0), (0.46, 0.56), DEFAULT_RHO0_START, "width_start"),
    ((0.25, 0.35), (0.46, 0.56), -1.0, "rho0_start"),
], ids=["parabola-width", "bell-width", "rho0"])
def test_a_start_that_is_not_positive_fails_before_the_first_round(
        monkeypatch, bell, parabola, rho0_start, message):
    # every start of every kind is checked before any kind's fit runs
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    _set_starts(monkeypatch, bell, parabola)
    calls = _recording_rounds(monkeypatch)
    with pytest.raises(ValueError, match=f"{message} must be positive"):
        run_table(targets, nus=(3.0,), rho0_start=rho0_start)
    assert calls == []


def test_an_unknown_kind_fails_before_the_first_round(monkeypatch):
    # the relation's own message, before any round of the valid kind ahead of it
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    calls = _recording_rounds(monkeypatch)
    with pytest.raises(ValueError, match="^kind must be 'parabola' or 'bell', got 'Bell'$"):
        run_table(targets, nus=(3.0,), kinds=("bell", "Bell"))
    assert calls == []


def test_run_table_fits_every_start_of_each_kind(monkeypatch):
    # a kind with more starts than the other keeps all of them; the slots of
    # the shorter kind past its last start are left out, start-major order kept
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    _set_starts(monkeypatch, (0.25, 0.35, 0.45, 0.55), DEFAULT_PARABOLA_STARTS)
    cells = run_table(targets, nus=(3.0,))
    assert [(c.kind, c.width_start) for c in cells] == [
        ("bell", 0.25), ("parabola", 0.46), ("bell", 0.35), ("parabola", 0.56),
        ("bell", 0.45), ("parabola", 0.66), ("bell", 0.55)]
    solo = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=3.0), 0.55)
    assert vars(cells[-1]) == {**vars(solo), "nu": 3.0, "kind": "bell", "width_start": 0.55,
                               "status": "ok"}


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


#: Targets of a degenerate (nu = 2, parabola) cell: at its fits' end points
#: J's columns are parallel, so only one combination of width and rho0 is
#: determined, along a valley in which both grow together.
DEGENERATE = dict(width=0.29729915352635605, rho0=48251.625410948334, nu=3.0, kind="bell")

#: Targets of a (nu = 2, bell) cell whose three starts end in different
#: rounds and meet trial points without an interior force maximum in rounds
#: where their siblings' points have one.
MIXED_FEASIBILITY = dict(width=0.39449813235544057, rho0=42570.681487883456, nu=3.0,
                         kind="bell")


def test_lockstep_fits_equal_solo_fits(monkeypatch):
    # the starts end in different rounds, and meet infeasible trial points
    # in rounds where their siblings' points are feasible
    targets = synthesize_targets(**MIXED_FEASIBILITY)
    calls = _recording_rounds(monkeypatch)
    cells = run_table(targets, nus=(2.0,), kinds=("bell",))
    assert len(cells) == 3 and all(c.status == "ok" for c in cells)
    assert len({c.iterations for c in cells}) > 1
    assert len(calls) == max(c.objective_evals for c in cells)  # one call per round
    assert any(not all(feasible) and any(feasible) for _, feasible in calls)

    for cell in cells:
        solo = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=2.0),
                                    cell.width_start)
        assert (cell.width, cell.rho0, cell.error_mm) == (solo.width, solo.rho0, solo.error_mm)
        assert (cell.iterations, cell.objective_evals) == (solo.iterations,
                                                            solo.objective_evals)
    _set_starts(monkeypatch, (0.25, 0.35), (0.46, 0.56))
    pair = run_table(targets, nus=(2.0,), kinds=("bell",))
    assert pair == cells[:2]


def test_degenerate_cell_ends_ok_within_a_bounded_number_of_rounds(monkeypatch):
    # once the error has settled, parallel columns end each fit, which is
    # reported as undetermined, long before the valley leaves the scan
    targets = synthesize_targets(**DEGENERATE)
    calls = _recording_rounds(monkeypatch)
    cells = run_table(targets, nus=(2.0,), kinds=("parabola",))
    assert all(c.status == "ok" and not c.determined for c in cells)
    assert len(calls) < 50 and max(c.iterations for c in cells) < 50
    # the error is flat along the valley: every start ends at the same error
    errors = [c.error_mm for c in cells]
    assert max(errors) - min(errors) < 1e-8


def test_fit_work_counters_are_pinned(monkeypatch):
    # the deterministic work of the degenerate cell and of criterion 7's
    # 18-cell table: a change that moves a fit's steps or its stop moves these
    calls = _recording_rounds(monkeypatch)
    run_table(synthesize_targets(**DEGENERATE), nus=(2.0,), kinds=("parabola",))
    assert len(calls) == 41
    calls.clear()
    cells = run_table(synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell"))
    assert len(calls) == 57 and sum(c.iterations for c in cells) == 139
    assert len(cells) == 18 and all(c.status == "ok" and c.determined for c in cells)


def test_force_search_work_counters_are_pinned(monkeypatch):
    # calls of the two slope helpers, and the entries they evaluate, over
    # criterion 7's 18-cell table: a change that moves the force search's
    # probes, Newton steps or Jacobians, or the fit's rounds, moves these
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    counts = {}
    for name in ("_hatze_log_q_slopes", "_force_length_log_slopes"):
        def counted(*args, name=name, slopes=getattr(opt, name)):
            out = slopes(*args)
            calls, entries = counts.get(name, (0, 0))
            counts[name] = (calls + 1, entries + np.size(out[0]))
            return out

        monkeypatch.setattr(opt, name, counted)
    run_table(targets)
    assert counts == {"_hatze_log_q_slopes": (334, 7398), "_force_length_log_slopes": (334, 7398)}


def test_lockstep_iteration_cap_fails_only_its_own_fit(monkeypatch):
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    problem = FitProblem(targets=targets, flr_kind="bell", nu=2.0)
    starts = [(w, DEFAULT_RHO0_START) for w in (0.25, 0.35, 0.45)]
    # a cap that only the fastest of the three uncapped fits stays within
    counts = [fit.iterations for fit in opt._fit_lockstep(problem, starts)]
    assert len(set(counts)) == 3
    order = np.argsort(counts)
    fastest, cap = order[0], (counts[order[0]] + counts[order[1]]) // 2
    monkeypatch.setattr(opt, "FIT_MAX_ITER", cap)
    outcomes = opt._fit_lockstep(problem, starts)
    assert outcomes[fastest] == fit_shift_parameters(problem, *starts[fastest])
    for i in order[1:]:
        assert isinstance(outcomes[i], MaxIterationsExceeded)
        with pytest.raises(MaxIterationsExceeded):
            fit_shift_parameters(problem, *starts[i])


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


def test_targets_csv_skips_blank_rows(tmp_path):
    # blank rows, or rows of empty fields, between data rows are skipped; a
    # later row's error still names its own line
    path = tmp_path / "targets.csv"
    path.write_text("gamma,shift_mm\n0.55,0.4\n\n , \n0.28,0.9\n\n")
    targets = load_shift_targets(path)
    assert targets.levels == (0.55, 0.28) and targets.shifts_mm == (0.4, 0.9)
    path.write_text("gamma,shift_mm\n0.55,0.4\n\n,\n0.28,far\n")
    with pytest.raises(ValueError, match=r"targets\.csv:5: could not convert"):
        load_shift_targets(path)


@pytest.mark.parametrize("header", ["gamma,shift_mm,note", "gamma,shift_mm,", "gamma"])
def test_targets_header_must_have_two_fields(tmp_path, header):
    # every row must have exactly two fields, so the header must too
    path = tmp_path / "targets.csv"
    path.write_text(f"{header}\n0.55,0.4\n")
    with pytest.raises(ValueError, match=r"targets\.csv:1: expected header 'gamma,shift_mm'"):
        load_shift_targets(path)


def test_targets_validation():
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5, 0.5), shifts_mm=(0.1, 0.2))
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5, 1.2), shifts_mm=(0.1, 0.2))
    with pytest.raises(ValueError):
        ShiftTargets(levels=(0.5,), shifts_mm=(float("nan"),))
