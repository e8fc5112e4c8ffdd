import numpy as np
import pytest

from actsens import (
    NonFiniteState,
    OdeProblem,
    StepSizeUnderflow,
    Tolerances,
    ZajacParams,
    integrate,
    make_grid,
    simplified_zajac_solution,
    zajac_rhs,
)


def test_zero_rhs_keeps_state_constant():
    grid = np.array([0.0, 0.1, 0.2])
    pr = OdeProblem(rhs=lambda t, y: np.zeros_like(y), y0=np.array([0.3]),
                    t_span=(0.0, 0.2), output_grid=grid)
    tr = integrate(pr)
    assert np.all(tr.values == 0.3)


def test_linear_decay_matches_exponential():
    tau = 0.025
    pr = OdeProblem(rhs=lambda t, y: -y / tau, y0=np.array([1.0]),
                    t_span=(0.0, 0.025), output_grid=np.array([0.025]))
    tr = integrate(pr)
    assert tr.values[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_zajac_saturates_at_full_stimulation():
    # sigma=1, beta=1: steady state q0 + sigma*(1-q0) = 1
    p = ZajacParams(sigma=1.0, q0=0.005, tau=0.025, beta=1.0, q_init=0.005)
    pr = OdeProblem(rhs=lambda t, y: np.array([zajac_rhs(y[0], p)]),
                    y0=np.array([0.005]), t_span=(0.0, 1.0),
                    output_grid=np.array([1.0]))
    tr = integrate(pr)
    assert tr.values[-1, 0] == pytest.approx(1.0, abs=1e-6)


def test_halving_tolerance_never_increases_error():
    sigma, tau, q_init = 1.0, 0.025, 0.05
    grid = np.linspace(0.0, 0.2, 41)
    exact = simplified_zajac_solution(grid, sigma, tau, q_init)
    errors = []
    for rel in (1e-5, 5e-6, 2.5e-6, 1.25e-6, 1e-8):
        pr = OdeProblem(rhs=lambda t, y: (sigma - y) / tau, y0=np.array([q_init]),
                        t_span=(0.0, 0.2), output_grid=grid)
        tr = integrate(pr, Tolerances(rel_tol=rel, abs_tol=rel * 1e-2))
        errors.append(np.max(np.abs(tr.values[:, 0] - exact)))
    assert all(e2 <= e1 * 1.001 for e1, e2 in zip(errors, errors[1:]))


def test_output_times_are_bit_identical_to_grid():
    grid = np.array([0.0, 1e-3, 0.0123456789, 0.1, 0.19999999, 0.2])
    pr = OdeProblem(rhs=lambda t, y: -y, y0=np.array([1.0]),
                    t_span=(0.0, 0.2), output_grid=grid)
    tr = integrate(pr)
    assert np.array_equal(tr.times, grid)


def test_identical_inputs_give_identical_outputs():
    grid = np.linspace(0.0, 0.3, 17)
    def run():
        pr = OdeProblem(rhs=lambda t, y: np.array([np.sin(3 * t) - y[0] ** 2]),
                        y0=np.array([0.2]), t_span=(0.0, 0.3), output_grid=grid)
        return integrate(pr).values
    assert np.array_equal(run(), run())


def test_multidimensional_linear_system():
    # harmonic oscillator: closed-form rotation
    w = 5.0
    grid = np.linspace(0.0, 1.0, 11)
    pr = OdeProblem(rhs=lambda t, y: np.array([y[1], -w * w * y[0]]),
                    y0=np.array([1.0, 0.0]), t_span=(0.0, 1.0), output_grid=grid)
    tr = integrate(pr)
    assert np.allclose(tr.values[:, 0], np.cos(w * grid), atol=1e-6)
    assert np.allclose(tr.values[:, 1], -w * np.sin(w * grid), atol=1e-5)


def test_nonfinite_rhs_raises():
    # rhs goes NaN once t crosses 0.05
    pr = OdeProblem(rhs=lambda t, y: np.array([np.nan if t > 0.05 else 1.0]),
                    y0=np.array([1.0]), t_span=(0.0, 0.1),
                    output_grid=np.array([0.1]))
    with pytest.raises(NonFiniteState):
        integrate(pr)


def test_blowup_triggers_step_underflow():
    # y' = y^2 from y=1 blows up at t=1; cannot integrate past it
    pr = OdeProblem(rhs=lambda t, y: y ** 2, y0=np.array([1.0]),
                    t_span=(0.0, 2.0), output_grid=np.array([2.0]))
    with pytest.raises((StepSizeUnderflow, NonFiniteState)):
        integrate(pr)


def test_problem_validation():
    good = dict(rhs=lambda t, y: -y, y0=np.array([1.0]))
    with pytest.raises(ValueError):
        OdeProblem(**good, t_span=(0.2, 0.1), output_grid=np.array([0.15])).validate()
    with pytest.raises(ValueError):
        OdeProblem(**good, t_span=(0.0, 0.2),
                   output_grid=np.array([0.0, 0.0, 0.1])).validate()
    with pytest.raises(ValueError):
        OdeProblem(**good, t_span=(0.0, 0.2),
                   output_grid=np.array([0.1, 0.3])).validate()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_tol=0.0).validate()


def test_rhs_dimension_mismatch_rejected():
    pr = OdeProblem(rhs=lambda t, y: np.array([1.0, 2.0]), y0=np.array([0.0]),
                    t_span=(0.0, 1.0), output_grid=np.array([1.0]))
    with pytest.raises(ValueError):
        integrate(pr)


def test_make_grid():
    g = make_grid(0.5, 6)
    assert np.allclose(g, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        make_grid(0.5, 1)
