import dataclasses

import numpy as np
import pytest

from actsens import (
    NonFiniteState,
    OdeProblem,
    StepBudgetExceeded,
    StepSizeUnderflow,
    Tolerances,
    ZajacParams,
    analyze,
    integrate,
    make_grid,
    simplified_zajac_solution,
    zajac_rhs,
)
from actsens import localsens, odecore
from references import PANELS, closed_form


def test_zero_rhs_keeps_state_constant():
    grid = np.array([0.0, 0.1, 0.2])
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.zeros_like(y)), y0=np.array([0.3]),
                    output_grid=grid)
    tr = integrate(pr)
    assert np.all(tr.values == 0.3)


def test_linear_decay_matches_exponential():
    tau = 0.025
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, -y / tau), y0=np.array([1.0]),
                    output_grid=np.array([0.025]))
    tr = integrate(pr, Tolerances(rel_tol=1e-8, abs_tol=1e-10))
    assert tr.values[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_zajac_saturates_at_full_stimulation():
    # sigma=1, beta=1: steady state q0 + sigma*(1-q0) = 1
    p = ZajacParams(sigma=1.0, q0=0.005, tau=0.025, beta=1.0, q_init=0.005)
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.array([zajac_rhs(y[0], p)])),
                    y0=np.array([0.005]), output_grid=np.array([1.0]))
    tr = integrate(pr)
    assert tr.values[-1, 0] == pytest.approx(1.0, abs=1e-6)


def test_halving_tolerance_never_increases_error():
    sigma, tau, q_init = 1.0, 0.025, 0.05
    grid = np.linspace(0.0, 0.2, 41)
    exact = simplified_zajac_solution(grid, sigma, tau, q_init)
    errors = []
    for rel in (1e-5, 5e-6, 2.5e-6, 1.25e-6, 1e-8):
        pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, (sigma - y) / tau),
                        y0=np.array([q_init]), output_grid=grid)
        tr = integrate(pr, Tolerances(rel_tol=rel, abs_tol=rel * 1e-2))
        errors.append(np.max(np.abs(tr.values[:, 0] - exact)))
    assert all(e2 <= e1 * 1.001 for e1, e2 in zip(errors, errors[1:]))


def test_output_times_are_bit_identical_to_grid():
    grid = np.array([0.0, 1e-3, 0.0123456789, 0.1, 0.19999999, 0.2])
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, -y), y0=np.array([1.0]), output_grid=grid)
    tr = integrate(pr)
    assert np.array_equal(tr.times, grid)


def test_identical_inputs_give_identical_outputs():
    grid = np.linspace(0.0, 0.3, 17)
    def run():
        pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.sin(3 * t) - y ** 2),
                        y0=np.array([0.2]), output_grid=grid)
        return integrate(pr).values
    assert np.array_equal(run(), run())


def test_multidimensional_linear_system():
    # harmonic oscillator: closed-form rotation
    w = 5.0
    grid = np.linspace(0.0, 1.0, 11)
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.array([y[1], -w * w * y[0]])),
                    y0=np.array([1.0, 0.0]), output_grid=grid)
    tr = integrate(pr)
    assert np.allclose(tr.values[:, 0], np.cos(w * grid), atol=1e-6)
    assert np.allclose(tr.values[:, 1], -w * np.sin(w * grid), atol=1e-5)


def test_nonfinite_rhs_raises():
    # rhs goes NaN once t crosses 0.05
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.array([np.nan if t > 0.05 else 1.0])),
                    y0=np.array([1.0]), output_grid=np.array([0.1]))
    with pytest.raises(NonFiniteState):
        integrate(pr)


def _rhs_with_one_bad_call(bad_call, bad_value, times):
    """y' = 1 (whatever y), except that call number ``bad_call`` (0 is the
    start, attempt a makes calls 6a+1..6a+6, the last one at t + h) returns
    ``bad_value``; ``times`` collects the t of every call."""
    def rhs(t, y, out):
        times.append(t)
        out[0] = bad_value if len(times) - 1 == bad_call else 1.0
    return rhs


@pytest.mark.parametrize("stage, bad_call", [(1, 19), (6, 24)], ids=["k1", "k6"])
def test_nan_in_one_stage_raises_at_its_attempt(stage, bad_call):
    # y' = 1 has zero local error, so every attempt is accepted: attempt 3
    # starts where attempt 2's last stage (call 18) was evaluated. k[1] has
    # weight 0 in both the error estimate and the 5th-order solution, k[6]
    # is in the error estimate only; either NaN is reported, at that t.
    times = []
    pr = OdeProblem(rhs=_rhs_with_one_bad_call(bad_call, np.nan, times),
                    y0=np.array([1.0]), output_grid=np.array([1.0]))
    with pytest.raises(NonFiniteState) as exc:
        integrate(pr)
    assert len(times) == 25  # the check follows the attempt's last stage
    assert str(exc.value) == f"non-finite state produced near t={times[18]:.6e}"


def test_overflowing_error_norm_of_a_finite_state_is_a_rejected_step():
    # a huge but finite last stage of attempt 1 makes its squared error
    # ratios overflow (numpy warns of that overflow, as it always has): the
    # step is rejected and the solve goes on
    spiked = []

    def rhs(t, y, out):
        spiked.append(t)
        np.copyto(out, np.array([1e200]) if len(spiked) - 1 == 12 else -y)

    grid = np.array([0.0, 0.5, 1.0])
    with np.errstate(over="ignore"):
        tr = integrate(OdeProblem(rhs=rhs, y0=np.array([1.0]), output_grid=grid))
    assert len(spiked) > 13
    assert tr.values[:, 0] == pytest.approx(np.exp(-grid), rel=1e-6)


def test_overflowing_state_raises():
    # y_new = 1e308 + h * 1e308 overflows; its infinite error scale would
    # make the error ratio 0, so the state itself must be checked
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.array([1e308])), y0=np.array([1e308]),
                    output_grid=np.array([1000.0]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        integrate(pr)


def test_blowup_triggers_step_underflow():
    # y' = y^2 from y=1 blows up at t=1; cannot integrate past it
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, y ** 2), y0=np.array([1.0]),
                    output_grid=np.array([2.0]))
    with pytest.raises((StepSizeUnderflow, NonFiniteState)):
        integrate(pr)


def test_stiff_solve_stops_at_the_step_budget(monkeypatch):
    # y' = -1e4 y keeps the explicit step near 3.3e-4 by stability: about
    # 3,000 attempts over 1 s, so a budget of 50 ends it early
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, -1e4 * y), y0=np.array([1.0]),
                    output_grid=np.array([1.0]))
    assert integrate(pr).values[-1, 0] == pytest.approx(0.0, abs=1e-8)
    monkeypatch.setattr(odecore, "MAX_STEP_ATTEMPTS", 50)  # read when integrate is called
    with pytest.raises(StepBudgetExceeded,
                       match=r"^50 step attempts reached only t=\S+ of 1 at step size \S+:"):
        integrate(pr)


def test_problem_validation():
    good = dict(rhs=lambda t, y, out: np.copyto(out, -y), y0=np.array([1.0]))
    with pytest.raises(ValueError):  # a first time before t = 0
        OdeProblem(**good, output_grid=np.array([-1e-300, 0.1])).validate()
    with pytest.raises(ValueError):
        OdeProblem(**good, output_grid=np.array([0.0, 0.0, 0.1])).validate()
    with pytest.raises(ValueError):  # no time after t = 0
        OdeProblem(**good, output_grid=np.array([0.0])).validate()


def test_grid_starting_after_zero_solves_from_zero():
    # y0 is the state at t = 0, whatever the first output time; the step
    # sequence depends only on the grid's last time, so the values equal
    # the tail of a solve whose grid includes 0
    full = np.array([0.0, 0.05, 0.1, 0.2])

    def solve(grid):
        return integrate(OdeProblem(rhs=lambda t, y, out: np.copyto(out, -y), y0=np.array([1.0]),
                                    output_grid=grid))

    late = solve(full[1:])
    assert np.array_equal(late.times, full[1:])
    assert np.array_equal(late.values, solve(full).values[1:])
    assert late.values[:, 0] == pytest.approx(np.exp(-full[1:]), rel=1e-6)


@pytest.mark.parametrize("grid", [[0.0, np.nan, 0.2], [np.nan, 0.1], [0.0, np.nan]],
                         ids=["inner", "first", "last"])
def test_nan_output_time_is_rejected(grid):
    problem = OdeProblem(rhs=lambda t, y, out: np.copyto(out, -y), y0=np.array([1.0]),
                         output_grid=np.array(grid))
    with pytest.raises(ValueError):
        problem.validate()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_tol=0.0).validate()


def test_rhs_dimension_mismatch_rejected():
    pr = OdeProblem(rhs=lambda t, y, out: np.copyto(out, np.array([1.0, 2.0])), y0=np.array([0.0]),
                    output_grid=np.array([1.0]))
    with pytest.raises(ValueError):
        integrate(pr)


def test_an_rhs_that_leaves_its_row_unwritten_fails_at_the_start():
    pr = OdeProblem(rhs=lambda t, y, out: None, y0=np.array([1.0]), output_grid=np.array([1.0]))
    with pytest.raises(NonFiniteState, match="at t=0.0"):
        integrate(pr)


def test_rhs_writes_into_the_seven_stage_rows_of_one_stacked_array():
    # each call gets one of the rows k1..k7 of the solve's (8, M) array, so
    # integrate copies no stage
    rows = []

    def rhs(t, y, out):
        rows.append((out.base is None, out.__array_interface__["data"][0]))
        np.copyto(out, -y)

    integrate(OdeProblem(rhs=rhs, y0=np.array([1.0, 2.0]), output_grid=np.array([1.0])))
    assert not any(owns for owns, _ in rows)
    addresses = sorted({address for _, address in rows})
    assert len(addresses) == 7 and np.all(np.diff(addresses) == 2 * 8)  # consecutive rows


# ---------------------------------------------------------------------------
# the step's coefficient table against the Dormand-Prince tableau
# ---------------------------------------------------------------------------
#
# _STEP's columns weigh the stacked rows (y, k1, ..., k7); its rows form the
# inputs of stages 2-6, y_new and the error estimate. An off-by-one row or
# column in that layout fails one of these.


def test_each_stage_row_sums_to_its_node_over_earlier_stages_only():
    for s, (row, c) in enumerate(zip(odecore._STEP[:5], odecore._C[1:]), 2):
        assert row[1:].sum() == pytest.approx(c, abs=1e-15), s
        assert not row[s:].any(), s  # stage s reads k1..k(s-1)


def test_solution_weights_sum_to_one_and_error_weights_to_zero():
    y_new, err = odecore._STEP[5], odecore._STEP[6]
    assert y_new[1:].sum() == pytest.approx(1.0, abs=1e-15)
    assert err[1:].sum() == pytest.approx(0.0, abs=1e-15)
    assert y_new[7] == 0.0 and err[7] != 0.0  # k7 enters the error estimate only


def test_y_enters_every_input_with_weight_one_and_the_error_with_zero():
    assert odecore._STEP[:, 0].tolist() == [1.0] * 6 + [0.0]


@pytest.mark.parametrize("h", [1.0, 0.01])
def test_dense_weights_at_the_step_ends_are_y_and_the_solution_row(h):
    start, end = odecore._dense_weights(np.array([0.0, 1.0]), h)
    assert start.tolist() == [1.0] + [0.0] * 7
    assert end[0] == 1.0
    assert np.allclose(end[1:], h * odecore._STEP[5, 1:], rtol=0.0, atol=1e-15 * h)


def test_make_grid():
    g = make_grid(0.5, 6)
    assert np.allclose(g, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        make_grid(0.5, 1)


# ---------------------------------------------------------------------------
# the 16 scenario panels against their closed forms
# ---------------------------------------------------------------------------

PANEL_GRID = make_grid(0.5, 501)


def _state_solve(model, pset, tol):
    """State-only solve of one panel on PANEL_GRID and its rhs evaluation count."""
    calls = []

    def derivs(*args):
        calls.append(None)
        return model.derivs(*args)

    counted = dataclasses.replace(model, derivs=derivs)
    return analyze(counted, pset, PANEL_GRID, order=0, tol=tol).state[:, 0], len(calls)


@pytest.mark.parametrize("model, pset", PANELS.values(), ids=PANELS.keys())
def test_panel_grid_error_meets_the_default_contract(model, pset):
    # the Tolerances contract: every grid value within 10 tolerance scales
    tol = Tolerances()
    state, _ = _state_solve(model, pset, tol)
    exact = closed_form(model, pset, PANEL_GRID)
    bound = 10.0 * (tol.abs_tol + tol.rel_tol * np.abs(exact))
    assert np.all(np.abs(state - exact) <= bound)


def test_tolerances_docstring_states_the_measured_panel_errors():
    # the worst state error on the panels, in tolerance scales, at the
    # default and at 1e-8/1e-10, as the Tolerances docstring prints them
    def worst(tol):
        errors = []
        for model, pset in PANELS.values():
            state, _ = _state_solve(model, pset, tol)
            exact = closed_form(model, pset, PANEL_GRID)
            scale = tol.abs_tol + tol.rel_tol * np.abs(exact)
            errors.append(np.max(np.abs(state - exact) / scale))
        return max(errors)

    default, tight = worst(Tolerances()), worst(Tolerances(rel_tol=1e-8, abs_tol=1e-10))
    text = " ".join(Tolerances.__doc__.split())
    assert (f"the worst value is {default:.1f} scales at the default and {tight:.1f} "
            "at 1e-8/1e-10") in text


def test_dense_output_keeps_the_step_sequence():
    # filling the grid from the continuous extension costs no rhs evaluation:
    # at 1e-8/1e-10 the panels take as many as with the cubic Hermite
    # interpolant before it; the looser default spends the accuracy it frees
    def rhs_evals(tol):
        return sum(_state_solve(m, p, tol)[1] for m, p in PANELS.values())

    assert rhs_evals(Tolerances(rel_tol=1e-8, abs_tol=1e-10)) == 4630
    assert rhs_evals(Tolerances()) == 3184


def test_panel_work_counters_are_pinned(monkeypatch):
    # the deterministic work of the 16 panels' local solves on the
    # benchmark's grid: a change that moves the step sequence moves these
    solves = []

    def counting(problem, tol=None):
        calls = []

        def rhs(t, z, out):
            calls.append(None)
            return problem.rhs(t, z, out)

        solves.append(calls)
        return integrate(dataclasses.replace(problem, rhs=rhs), tol)

    monkeypatch.setattr(localsens, "integrate", counting)
    grid = make_grid(0.5, 201)
    evals, attempts, largest = [], [], 0
    for order in (0, 1, 2):
        solves.clear()
        for model, pset in PANELS.values():
            analyze(model, pset, grid, order=order)
        # one call at the start, then six per step attempt
        assert len(solves) == 16 and all((len(c) - 1) % 6 == 0 for c in solves)
        evals.append(sum(len(c) for c in solves))
        attempts.append(sum((len(c) - 1) // 6 for c in solves))
        largest = max(largest, max((len(c) - 1) // 6 for c in solves))
    assert evals == [3184, 6046, 7708]
    assert attempts == [528, 1005, 1282]
    # the step budget is far above any panel's solve
    assert largest == 119 and odecore.MAX_STEP_ATTEMPTS >= 100 * largest
