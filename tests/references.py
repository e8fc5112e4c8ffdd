"""Test fixtures and oracles shared by the test modules: the 16 scenario
panels, and closed forms that are independent of the code they check."""

import numpy as np

from actsens import hatze_gamma_of_q, hatze_model, hatze_q_of_gamma, zajac_model
from actsens.presets import SCENARIO_ROWS, hatze_scenario, zajac_scenario


def all_zajac_scenarios():
    """The eight linear-model panels as (tag, point): rows (i)-(iv) x beta in {1, 1/3}."""
    return [(f"{row}-{tag}", zajac_scenario(row, beta))
            for beta, tag in ((1.0, "b1"), (1.0 / 3.0, "b13")) for row in SCENARIO_ROWS]


def all_hatze_scenarios():
    """The eight nonlinear-model panels as (tag, point): rows (i)-(iv) x nu in {2, 3}."""
    return [(f"{row}-nu{int(nu)}", hatze_scenario(row, nu))
            for nu in (2.0, 3.0) for row in SCENARIO_ROWS]


#: The 16 panels, "zajac-<tag>" or "hatze-<tag>" -> (model, point).
PANELS = {f"zajac-{tag}": (zajac_model(), p) for tag, p in all_zajac_scenarios()}
PANELS.update({f"hatze-{tag}": (hatze_model(), p) for tag, p in all_hatze_scenarios()})


def zajac_steady_state(p):
    """Saturation level q0 + (1-q0)/((1-beta) + beta/sigma); q0 for sigma = 0."""
    if p.sigma == 0.0:
        return p.q0
    return p.q0 + (1.0 - p.q0) / ((1.0 - p.beta) + p.beta / p.sigma)


def closed_form(model, p, t):
    """Exact activity at constant stimulation: linear decay to the steady
    state (zajac), or linear calcium dynamics mapped through the saturation
    (hatze)."""
    if model.name == "zajac":
        k = (p.sigma * (1.0 - p.beta) + p.beta) / (p.tau * (1.0 - p.q0))
        q_ss = zajac_steady_state(p)
        return q_ss + (p.q_init - q_ss) * np.exp(-k * t)
    gamma0 = hatze_gamma_of_q(p.q_init, p.ell_ce_rel, p)
    return hatze_q_of_gamma(p.sigma + (gamma0 - p.sigma) * np.exp(-p.m * t), p.ell_ce_rel, p)
