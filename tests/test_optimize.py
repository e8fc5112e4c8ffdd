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
    nelder_mead,
    optimal_length_shift,
    run_table,
    synthesize_targets,
)
from actsens.optimize import (
    CALCIUM_CEILING,
    DEFAULT_ELL_OPT,
    DEFAULT_LEVELS,
    SHIFT_SEARCH_COARSE,
    SHIFT_SEARCH_SPAN,
    SHIFT_SEARCH_XTOL_MM,
    _argmax_force,
    _zoom_max,
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
    # freezing the activity at its optimum-length value makes the force
    # maximum coincide with the force-length optimum for every level
    flr = ForceLengthRelation(kind="parabola", width=0.56, ell_opt=14.8)
    for gamma in (0.1, 0.4, 1.0):
        q_const = hatze_q_of_gamma(gamma, 1.0, HATZE3)
        fun = lambda ell: q_const * np.maximum(0.0, 1.0 - ((ell / 14.8 - 1.0) / 0.56) ** 2)
        peak = _zoom_max(fun, 0.5 * 14.8, 14.8, 1e-5)
        assert peak == pytest.approx(14.8, abs=1e-3)


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
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
    p = HatzeParams(sigma=1.0, q0=0.005, nu=nu, rho_c=rho0 * CALCIUM_CEILING,
                    ell_rho=2.9, q_init=0.5)
    for gamma in (1.0, *DEFAULT_LEVELS):
        peak = _argmax_force((gamma,), p, flr, SHIFT_SEARCH_SPAN, SHIFT_SEARCH_COARSE,
                             SHIFT_SEARCH_XTOL_MM)[0]
        near = brute_force_argmax(gamma, p, flr)
        ells = np.arange(near - 2e-3, near + 2e-3, 1e-6)
        truth = ells[np.argmax(isometric_force(gamma, ells, p, flr))]
        assert abs(peak - truth) <= SHIFT_SEARCH_XTOL_MM / 2


def test_boundary_maximum_raises():
    with pytest.raises(NoInteriorMaximum):
        optimal_length_shift(0.28, HATZE3, BELL, span=(0.9, 1.001))


def test_boundary_maximum_in_one_row_raises():
    # gamma = 1 and 0.55 peak inside (0.8, 1.15) * ell_opt, gamma = 0.08 beyond it
    span = (0.8, 1.15)
    _argmax_force((1.0, 0.55), HATZE3, BELL, span, 201, 1e-4)
    with pytest.raises(NoInteriorMaximum, match="0.08"):
        _argmax_force((1.0, 0.55, 0.08), HATZE3, BELL, span, 201, 1e-4)


@pytest.mark.parametrize("span", [(0.5, 3.0), (0.0, 1.5), (-0.5, 1.5)])
def test_span_outside_pole_interval_raises(span):
    # ell_rho = 2.9: relative lengths must stay inside (0, 2.9)
    with pytest.raises(PoleViolation):
        optimal_length_shift(0.28, HATZE3, BELL, span=span)


@pytest.mark.parametrize("kind,width", [("bell", 0.32), ("parabola", 0.56)])
@pytest.mark.parametrize("nu,rho0", [(2.0, 6.62e4), (3.0, 5.27e4), (4.0, 5.27e4)])
def test_batched_argmax_equals_per_level_search(kind, width, nu, rho0):
    flr = ForceLengthRelation(kind=kind, width=width, ell_opt=14.8)
    p = HatzeParams(sigma=1.0, q0=0.005, nu=nu, rho_c=rho0 * CALCIUM_CEILING,
                    ell_rho=2.9, q_init=0.5)
    levels = (1.0, *DEFAULT_LEVELS)
    batched = _argmax_force(levels, p, flr, (0.5, 1.5), 201, 1e-4)
    single = [_argmax_force((g,), p, flr, (0.5, 1.5), 201, 1e-4)[0] for g in levels]
    assert batched.tolist() == single


def test_zoom_array_brackets_match_scalar_runs():
    # peaks at different places in their brackets take different zoom paths
    centre = np.array([0.3, 1.7, -2.2, 5.0])
    lo = np.array([0.0, 1.0, -2.5, 4.9])
    fun = lambda x, c=centre[:, None]: np.exp(-np.abs(x - c) ** 1.5)
    rows = _zoom_max(fun, lo, 1.0, 1e-6)
    for i in range(centre.size):
        alone = _zoom_max(lambda x: fun(x, centre[i]), lo[i], 1.0, 1e-6)
        assert isinstance(alone, float)
        assert rows[i] == alone
        assert alone == pytest.approx(centre[i], abs=1e-6)


@pytest.mark.parametrize("ell_opt", [5.0, DEFAULT_ELL_OPT, 40.0])
@pytest.mark.parametrize("coarse", [51, SHIFT_SEARCH_COARSE, 1001])
@pytest.mark.parametrize("xtol", [1e-6, SHIFT_SEARCH_XTOL_MM, 1e-3, 0.05])
def test_zoom_reaches_xtol_in_two_levels(ell_opt, coarse, xtol):
    # the bracket of _argmax_force is two coarse steps wide; K and the level
    # count follow from that width and xtol alone
    width = 2.0 * (SHIFT_SEARCH_SPAN[1] - SHIFT_SEARCH_SPAN[0]) * ell_opt / (coarse - 1)
    peak = 0.6180339887 * width  # an arbitrary point inside the bracket
    probes = []

    def fun(x):
        probes.append(x)
        return -np.abs(x - peak)

    found = _zoom_max(fun, 0.0, width, xtol)
    k = math.ceil(2.0 * math.sqrt(width / xtol)) - 1
    assert len(probes) <= 2 and all(x.shape == (k,) for x in probes)
    assert (len(probes) == 0) == (width <= xtol)
    # the last level keeps two of its grid steps
    final_width = 2.0 * (probes[-1][1] - probes[-1][0]) if probes else width
    assert final_width <= xtol * (1 + 1e-9)
    assert abs(found - peak) <= xtol / 2


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
# simplex search
# ---------------------------------------------------------------------------


def test_nelder_mead_quadratic():
    res = nelder_mead(lambda x: (x[0] - 2.0) ** 2, np.array([0.0]))
    assert res.argmin[0] == pytest.approx(2.0, abs=1e-6)


def test_nelder_mead_rosenbrock():
    def rosenbrock(x):
        return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), initial_step=0.1)
    assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-4)
    assert res.iterations < 2000


def test_nelder_mead_invariant_under_monotone_rescaling():
    def f(x):
        return (x[0] - 0.3) ** 2 + (x[1] + 0.7) ** 2 + 1.0

    r1 = nelder_mead(f, np.array([1.0, 1.0]))
    r2 = nelder_mead(lambda x: 250.0 * f(x) + 13.0, np.array([1.0, 1.0]))
    assert np.allclose(r1.argmin, r2.argmin, atol=1e-6)


def test_nelder_mead_iteration_cap():
    def drifting(x):
        return float(x[0])  # unbounded descent never converges

    with pytest.raises(MaxIterationsExceeded):
        nelder_mead(drifting, np.array([0.0]), max_iter=50)


# ---------------------------------------------------------------------------
# fitting pipeline
# ---------------------------------------------------------------------------


def test_round_trip_recovers_generating_parameters():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell",
                                          nu=3.0, width_start=0.35))
    assert fit.width == pytest.approx(0.32, rel=0.01)
    assert fit.rho0 == pytest.approx(3.25e4, rel=0.01)
    assert fit.error_mm < 1e-6


def test_fit_counts_objective_evaluations(monkeypatch):
    import actsens.optimize as opt

    calls = []
    counted = lambda *args: calls.append(args) or fit_error(*args)
    monkeypatch.setattr(opt, "fit_error", counted)
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    fit = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell",
                                          nu=3.0, width_start=0.35))
    assert fit.objective_evals == len(calls) > fit.iterations

    cells = opt.run_table(targets, nus=(3.0,), kinds=("bell",),
                          bell_starts=(0.35,), parabola_starts=(0.56,))
    assert cells[0].objective_evals == fit.objective_evals


def test_run_table_layout_and_failure_reporting(monkeypatch):
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    cells = run_table(targets, nus=(3.0,), kinds=("bell",),
                      bell_starts=(0.25, 0.35), parabola_starts=(0.46, 0.56))
    assert len(cells) == 2
    assert all(c.status == "ok" for c in cells)

    import actsens.optimize as opt

    def explode(width, rho0, problem):  # fails at the 0.25 start's first point only
        if np.any(np.asarray(width) == 0.25):
            raise ValueError("injected failure")
        return fit_error(width, rho0, problem)

    monkeypatch.setattr(opt, "fit_error", explode)
    failed = opt.run_table(targets, nus=(3.0,), kinds=("bell",),
                           bell_starts=(0.25, 0.35), parabola_starts=(0.46, 0.56))
    assert len(failed) == 2  # table still emitted
    assert "injected failure" in failed[0].status
    assert math.isnan(failed[0].width)
    assert failed[1] == cells[1]  # its lockstep sibling converges as before


def test_run_table_lets_programming_errors_propagate(monkeypatch):
    import actsens.optimize as opt

    def broken(width, rho0, problem):
        raise TypeError("injected bug")

    monkeypatch.setattr(opt, "fit_error", broken)
    targets = ShiftTargets(levels=(0.28,), shifts_mm=(0.5,))
    with pytest.raises(TypeError, match="injected bug"):
        opt.run_table(targets, nus=(3.0,), kinds=("bell",),
                      bell_starts=(0.25,), parabola_starts=(0.46,))


def _recording_fit_error(monkeypatch):
    """Patch fit_error to record every batched call's (widths, errors)."""
    import actsens.optimize as opt

    calls = []

    def recording(width, rho0, problem):
        errors = fit_error(width, rho0, problem)
        calls.append((np.atleast_1d(width).tolist(), np.atleast_1d(errors).tolist()))
        return errors

    monkeypatch.setattr(opt, "fit_error", recording)
    return calls


def test_lockstep_fits_equal_solo_fits(monkeypatch):
    # criterion 7's targets in the (4, bell) cell: the three starts end after
    # different iteration counts, and the 0.45 start meets an infeasible
    # (+inf) trial point while its siblings' points are feasible
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    calls = _recording_fit_error(monkeypatch)
    cells = run_table(targets, nus=(4.0,), kinds=("bell",))
    assert len(cells) == 3 and all(c.status == "ok" for c in cells)
    assert len({c.iterations for c in cells}) == 3
    assert len(calls) == max(c.objective_evals for c in cells)  # one call per round
    infeasible = [w for widths, errors in calls for w, e in zip(widths, errors)
                  if e == math.inf]
    assert infeasible and all(w > 0.45 for w in infeasible)

    for cell in cells:
        solo = fit_shift_parameters(FitProblem(targets=targets, flr_kind="bell", nu=4.0,
                                               width_start=cell.width_start))
        assert (cell.width, cell.rho0, cell.error_mm) == (solo.width, solo.rho0, solo.error_mm)
        assert (cell.iterations, cell.objective_evals) == (solo.iterations,
                                                            solo.objective_evals)
    # without the sibling that meets the infeasible point, the others are unchanged
    pair = run_table(targets, nus=(4.0,), kinds=("bell",), bell_starts=(0.25, 0.35),
                     parabola_starts=(0.46, 0.56))
    assert pair == cells[:2]


def test_lockstep_iteration_cap_fails_only_its_own_fit():
    import actsens.optimize as opt

    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    problems = [FitProblem(targets=targets, flr_kind="bell", nu=4.0, width_start=w)
                for w in (0.25, 0.35, 0.45)]
    # a cap that only the fastest of the three uncapped fits stays within
    counts = [fit.iterations for fit in opt._fit_lockstep(problems)]
    assert len(set(counts)) == 3
    order = np.argsort(counts)
    fastest, cap = order[0], (counts[order[0]] + counts[order[1]]) // 2
    outcomes = opt._fit_lockstep(problems, max_iter=cap)
    assert outcomes[fastest] == fit_shift_parameters(problems[fastest])
    for i in order[1:]:
        assert isinstance(outcomes[i], MaxIterationsExceeded)
        with pytest.raises(MaxIterationsExceeded):
            fit_shift_parameters(problems[i], max_iter=cap)


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
