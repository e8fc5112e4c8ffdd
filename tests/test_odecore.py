import dataclasses

import numpy as np
import pytest

from actsens import (
    NonFiniteState,
    OdeProblem,
    StepSizeUnderflow,
    Tolerances,
    ZajacParams,
    analyze,
    hatze_gamma_of_q,
    hatze_model,
    hatze_q_of_gamma,
    integrate,
    make_grid,
    simplified_zajac_solution,
    zajac_model,
    zajac_rhs,
    zajac_steady_state,
)
from actsens.presets import all_hatze_scenarios, all_zajac_scenarios


def test_zero_rhs_keeps_state_constant():
    grid = np.array([0.0, 0.1, 0.2])
    pr = OdeProblem(rhs=lambda t, y: np.zeros_like(y), y0=np.array([0.3]), output_grid=grid)
    tr = integrate(pr)
    assert np.all(tr.values == 0.3)


def test_linear_decay_matches_exponential():
    tau = 0.025
    pr = OdeProblem(rhs=lambda t, y: -y / tau, y0=np.array([1.0]), output_grid=np.array([0.025]))
    tr = integrate(pr, Tolerances(rel_tol=1e-8, abs_tol=1e-10))
    assert tr.values[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_zajac_saturates_at_full_stimulation():
    # sigma=1, beta=1: steady state q0 + sigma*(1-q0) = 1
    p = ZajacParams(sigma=1.0, q0=0.005, tau=0.025, beta=1.0, q_init=0.005)
    pr = OdeProblem(rhs=lambda t, y: np.array([zajac_rhs(y[0], p)]),
                    y0=np.array([0.005]), output_grid=np.array([1.0]))
    tr = integrate(pr)
    assert tr.values[-1, 0] == pytest.approx(1.0, abs=1e-6)


def test_halving_tolerance_never_increases_error():
    sigma, tau, q_init = 1.0, 0.025, 0.05
    grid = np.linspace(0.0, 0.2, 41)
    exact = simplified_zajac_solution(grid, sigma, tau, q_init)
    errors = []
    for rel in (1e-5, 5e-6, 2.5e-6, 1.25e-6, 1e-8):
        pr = OdeProblem(rhs=lambda t, y: (sigma - y) / tau, y0=np.array([q_init]),
                        output_grid=grid)
        tr = integrate(pr, Tolerances(rel_tol=rel, abs_tol=rel * 1e-2))
        errors.append(np.max(np.abs(tr.values[:, 0] - exact)))
    assert all(e2 <= e1 * 1.001 for e1, e2 in zip(errors, errors[1:]))


def test_output_times_are_bit_identical_to_grid():
    grid = np.array([0.0, 1e-3, 0.0123456789, 0.1, 0.19999999, 0.2])
    pr = OdeProblem(rhs=lambda t, y: -y, y0=np.array([1.0]), output_grid=grid)
    tr = integrate(pr)
    assert np.array_equal(tr.times, grid)


def test_identical_inputs_give_identical_outputs():
    grid = np.linspace(0.0, 0.3, 17)
    def run():
        pr = OdeProblem(rhs=lambda t, y: np.array([np.sin(3 * t) - y[0] ** 2]),
                        y0=np.array([0.2]), output_grid=grid)
        return integrate(pr).values
    assert np.array_equal(run(), run())


def test_multidimensional_linear_system():
    # harmonic oscillator: closed-form rotation
    w = 5.0
    grid = np.linspace(0.0, 1.0, 11)
    pr = OdeProblem(rhs=lambda t, y: np.array([y[1], -w * w * y[0]]),
                    y0=np.array([1.0, 0.0]), output_grid=grid)
    tr = integrate(pr)
    assert np.allclose(tr.values[:, 0], np.cos(w * grid), atol=1e-6)
    assert np.allclose(tr.values[:, 1], -w * np.sin(w * grid), atol=1e-5)


def test_nonfinite_rhs_raises():
    # rhs goes NaN once t crosses 0.05
    pr = OdeProblem(rhs=lambda t, y: np.array([np.nan if t > 0.05 else 1.0]),
                    y0=np.array([1.0]), output_grid=np.array([0.1]))
    with pytest.raises(NonFiniteState):
        integrate(pr)


def test_blowup_triggers_step_underflow():
    # y' = y^2 from y=1 blows up at t=1; cannot integrate past it
    pr = OdeProblem(rhs=lambda t, y: y ** 2, y0=np.array([1.0]), output_grid=np.array([2.0]))
    with pytest.raises((StepSizeUnderflow, NonFiniteState)):
        integrate(pr)


def test_problem_validation():
    good = dict(rhs=lambda t, y: -y, y0=np.array([1.0]))
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
        return integrate(OdeProblem(rhs=lambda t, y: -y, y0=np.array([1.0]), output_grid=grid))

    late = solve(full[1:])
    assert np.array_equal(late.times, full[1:])
    assert np.array_equal(late.values, solve(full).values[1:])
    assert late.values[:, 0] == pytest.approx(np.exp(-full[1:]), rel=1e-6)


@pytest.mark.parametrize("grid", [[0.0, np.nan, 0.2], [np.nan, 0.1], [0.0, np.nan]],
                         ids=["inner", "first", "last"])
def test_nan_output_time_is_rejected(grid):
    problem = OdeProblem(rhs=lambda t, y: -y, y0=np.array([1.0]), output_grid=np.array(grid))
    with pytest.raises(ValueError):
        problem.validate()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_tol=0.0).validate()


def test_rhs_dimension_mismatch_rejected():
    pr = OdeProblem(rhs=lambda t, y: np.array([1.0, 2.0]), y0=np.array([0.0]),
                    output_grid=np.array([1.0]))
    with pytest.raises(ValueError):
        integrate(pr)


def test_make_grid():
    g = make_grid(0.5, 6)
    assert np.allclose(g, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        make_grid(0.5, 1)


# ---------------------------------------------------------------------------
# the 16 scenario panels against their closed forms
# ---------------------------------------------------------------------------

PANEL_GRID = make_grid(0.5, 501)
PANELS = {f"zajac-{tag}": (zajac_model(), pset) for tag, pset in all_zajac_scenarios()}
PANELS.update({f"hatze-{tag}": (hatze_model(), pset) for tag, pset in all_hatze_scenarios()})


def _closed_form(model, p, t):
    """Exact activity at constant stimulation: linear decay to the steady
    state (zajac), or linear calcium dynamics mapped through the saturation
    (hatze)."""
    if model.name == "zajac":
        k = (p.sigma * (1.0 - p.beta) + p.beta) / (p.tau * (1.0 - p.q0))
        q_ss = zajac_steady_state(p)
        return q_ss + (p.q_init - q_ss) * np.exp(-k * t)
    gamma0 = hatze_gamma_of_q(p.q_init, p.ell_ce_rel, p)
    return hatze_q_of_gamma(p.sigma + (gamma0 - p.sigma) * np.exp(-p.m * t), p.ell_ce_rel, p)


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
    exact = _closed_form(model, pset, PANEL_GRID)
    bound = 10.0 * (tol.abs_tol + tol.rel_tol * np.abs(exact))
    assert np.all(np.abs(state - exact) <= bound)


def test_dense_output_keeps_the_step_sequence():
    # filling the grid from the continuous extension costs no rhs evaluation:
    # at 1e-8/1e-10 the panels take as many as with the cubic Hermite
    # interpolant before it; the looser default spends the accuracy it frees
    def rhs_evals(tol):
        return sum(_state_solve(m, p, tol)[1] for m, p in PANELS.values())

    assert rhs_evals(Tolerances(rel_tol=1e-8, abs_tol=1e-10)) == 4630
    assert rhs_evals(Tolerances()) == 3184
