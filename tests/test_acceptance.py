"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values. The expensive global-analysis results are computed
once and shared between the criteria that need them.
"""

import time
from collections import defaultdict

import numpy as np

from actsens import (
    ParameterCuboid,
    analyze,
    analyze_global,
    build_sample_matrices,
    evaluate_family,
    fd_first_order,
    fd_initial_condition,
    hatze_model,
    normalize,
    run_table,
    second_order_fd,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    synthesize_targets,
    vbs_tsi,
    zajac_model,
)
from actsens.models import ForceLengthRelation, HatzeParams
from actsens.optimize import (
    CALCIUM_CEILING,
    DEFAULT_LEVELS,
    isometric_force,
    optimal_length_shift,
)
from actsens.presets import (
    all_hatze_scenarios,
    all_zajac_scenarios,
    family_evaluator,
    builtin_cuboid,
    row_validity,
)

GLOBAL_SEED = 42
GLOBAL_N = 2048
_cache: dict = {}


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _global_results():
    if "global" not in _cache:
        grid = np.linspace(0.0, 0.5, 101)
        t0 = time.perf_counter()
        out = {}
        for model in ("zajac", "hatze"):
            out[model] = analyze_global(
                family_evaluator(model), builtin_cuboid(model),
                n=GLOBAL_N, seed=GLOBAL_SEED, grid=grid,
                validity=row_validity(model),
            )
        _cache["global"] = out
        _cache["global_runtime"] = time.perf_counter() - t0
    return _cache["global"]


def _scenario_sensitivities(order):
    key = ("scen", order)
    if key not in _cache:
        grid = np.linspace(0.0, 0.5, 201)
        panels = {}
        for model, scen in ((zajac_model(), all_zajac_scenarios()),
                            (hatze_model(), all_hatze_scenarios())):
            for label, ps in scen:
                res = normalize(analyze(model, ps, grid, order=order), ps)
                panels[(model.name, label)] = (model, ps, res)
        _cache[key] = panels
    return _cache[key]


# ---------------------------------------------------------------------------
# 1. analytic-oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_analytic_oracle_equivalence():
    grid = np.linspace(0.0, 0.2, 201)
    model = simplified_zajac_model()
    params = model.params_of(0.05, 1.0, 0.025)  # q_Z0, sigma, tau
    t0 = time.perf_counter()
    res = normalize(analyze(model, params, grid), params)
    oracle = simplified_zajac_sensitivities(grid, 1.0, 0.025, 0.05)
    errs = {name: np.max(np.abs(res.s_rel[:, i, 0] - oracle[name]))
            for i, name in enumerate(model.canonical_order)}
    runtime = time.perf_counter() - t0
    worst = max(errs.values())
    _report(1, "analytic-oracle equivalence",
            worst < 1e-6 and runtime < 1.0,
            f"max |numeric - closed form| = {worst:.2e} (tol 1e-6), "
            f"runtime {runtime:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 2. finite-difference cross-check
# ---------------------------------------------------------------------------


def test_criterion_2_finite_difference_cross_check():
    t0 = time.perf_counter()
    worst1 = worst2 = 0.0
    for model, scenarios, probes in (
        (zajac_model(), all_zajac_scenarios(), (0.025, 0.125)),
        (hatze_model(), all_hatze_scenarios(), (0.05, 0.3)),
    ):
        grid = np.array(probes)
        for label, ps in scenarios:
            res = analyze(model, ps, grid, order=2)
            s_init, s = res.s_raw[:, :1], res.s_raw[:, 1:]
            # relative error with a floor so structural zeros compare fairly
            scale1 = 1e-3 * max(1.0, np.max(np.abs(s)))
            fd = fd_first_order(model, ps, grid, rel_step=1e-5)
            worst1 = max(worst1, np.max(
                np.abs(fd - s) / np.maximum(np.abs(s), scale1)))
            fdi = fd_initial_condition(model, ps, grid, rel_step=1e-5)
            worst1 = max(worst1, np.max(
                np.abs(fdi - s_init) / np.maximum(np.abs(s_init), scale1)))
            rfd = second_order_fd(model, ps, grid).r_raw
            scale2 = 1e-2 * max(1.0, np.max(np.abs(res.r_raw)))
            worst2 = max(worst2, np.max(
                np.abs(rfd - res.r_raw) / np.maximum(np.abs(res.r_raw), scale2)))
    runtime = time.perf_counter() - t0
    _report(2, "finite-difference cross-check",
            worst1 < 1e-3 and worst2 < 1e-2 and runtime < 30.0,
            f"16 panels: first-order rel err {worst1:.2e} (tol 1e-3), "
            f"second-order rel err {worst2:.2e} (tol 1e-2), "
            f"runtime {runtime:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. structural sign/null checks
# ---------------------------------------------------------------------------


def test_criterion_3_structural_checks():
    panels = _scenario_sensitivities(order=1)
    zmodel = zajac_model()
    hmodel = hatze_model()
    i_beta = zmodel.canonical_order.index("beta")
    i_tau = zmodel.canonical_order.index("tau")
    i_sig = hmodel.canonical_order.index("sigma")
    i_rho = hmodel.canonical_order.index("rho_c")
    details = []
    ok = True

    # beta has no influence at full stimulation
    beta_max = max(np.max(np.abs(res.s_rel[:, i_beta, 0]))
                   for (m, label), (_, _, res) in panels.items()
                   if m == "zajac" and label.startswith("iv"))
    ok &= beta_max < 1e-10
    details.append(f"max|S_beta| at sigma=1: {beta_max:.1e}")

    # raising the time constant decelerates a rising activation
    tau_max = max(np.max(res.s_rel[1:, i_tau, 0])
                  for (m, _), (_, _, res) in panels.items() if m == "zajac")
    ok &= tau_max < 0.0
    details.append(f"max S_tau (rising): {tau_max:.1e}")

    # stimulation and calcium scale share one product
    pair_dev = max(np.max(np.abs(res.s_rel[:, i_sig, 0] - res.s_rel[:, i_rho, 0]))
                   for (m, _), (_, _, res) in panels.items() if m == "hatze")
    ok &= pair_dev < 1e-9
    details.append(f"max|S_sigma - S_rho_c|: {pair_dev:.1e}")

    # initial-value share starts at one and is forgotten past three
    # activation time constants
    init_start_dev = max(abs(res.s_rel[0, 0, 0] - 1.0)
                         for (_, _, res) in panels.values())
    ok &= init_start_dev < 1e-12
    details.append(f"max|S_init(0)-1|: {init_start_dev:.1e}")

    grid = _scenario_sensitivities(order=1)[("zajac", "i-b1")][2].times
    beyond = grid > 3 * 0.025
    memory_max = max(np.max(res.s_rel[beyond, 0, 0])
                     for (m, _), (_, _, res) in panels.items() if m == "zajac")
    ok &= memory_max < 0.05
    details.append(f"max S_init beyond 3*tau: {memory_max:.4f} (bound 0.05; "
                   "slow-deactivation panels satisfy it only beyond ~4*tau, "
                   "see the Tests paragraph of README.md)")

    _report(3, "structural sign/null checks", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. second-order magnitudes
# ---------------------------------------------------------------------------


def test_criterion_4_second_order_magnitudes():
    panels = _scenario_sensitivities(order=2)
    zmodel = zajac_model()
    ib = zmodel.param_names.index("beta")
    isg = zmodel.param_names.index("sigma")
    rbb_max = rbs_min = 0.0
    z_max = h_max = 0.0
    for (m, _), (_, _, res) in panels.items():
        if m == "zajac":
            rbb_max = max(rbb_max, np.max(np.abs(res.r_rel[:, ib, ib, 0])))
            rbs_min = min(rbs_min, np.min(res.r_rel[:, ib, isg, 0]))
            z_max = max(z_max, np.nanmax(np.abs(res.r_rel)))
        else:
            h_max = max(h_max, np.nanmax(np.abs(res.r_rel)))
    ok = (1.2 <= rbb_max <= 2.0) and (-1.0 <= rbs_min <= -0.6) and h_max >= 5 * z_max
    _report(4, "second-order magnitudes", ok,
            f"max|R_beta,beta| = {rbb_max:.3f} (in [1.2, 2.0]), "
            f"min R_beta,sigma = {rbs_min:.3f} (in [-1.0, -0.6]), "
            f"nonlinear/linear ratio = {h_max / z_max:.1f} (>= 5)")


# ---------------------------------------------------------------------------
# 5. global-sensitivity properties
# ---------------------------------------------------------------------------


def test_criterion_5_global_properties():
    t0 = time.perf_counter()
    results = _global_results()
    details = []
    ok = True
    for model, res in results.items():
        defined = ~res.undefined
        sum_vbs = res.vbs[:, defined].sum(axis=0).max()
        sum_tsi = res.tsi[:, defined].sum(axis=0).min()
        pair = np.max(res.vbs[:, defined] - res.tsi[:, defined])
        ok &= sum_vbs <= 1.05 and sum_tsi >= 0.95 and pair <= 0.05
        details.append(f"{model}: sum VBS <= {sum_vbs:.3f}, "
                       f"sum TSI >= {sum_tsi:.3f}, max VBS-TSI {pair:.3f}")

    # analytic test models with known limits
    grid = np.array([0.0, 1.0])
    def run(fun, cuboid):
        m = build_sample_matrices(cuboid, n=GLOBAL_N, seed=GLOBAL_SEED)
        fam = evaluate_family(
            lambda rows, g: np.repeat(fun(rows)[:, None], g.size, axis=1), m, grid)
        return vbs_tsi(fam, m)

    unit3 = ParameterCuboid.from_dict(
        {"x1": (0.0, 1.0), "x2": (0.0, 1.0), "x3": (0.0, 1.0)})
    unit2 = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0)})
    r = run(lambda rows: rows[:, 0], unit3)
    dev = max(abs(r.vbs[0, 0] - 1), abs(r.tsi[0, 0] - 1),
              *(abs(r.vbs[i, 0]) for i in (1, 2)),
              *(abs(r.tsi[i, 0]) for i in (1, 2)))
    ok &= dev < 0.05
    details.append(f"identity model dev {dev:.3f}")
    r = run(lambda rows: rows[:, 0] + rows[:, 1], unit2)
    dev = max(abs(r.vbs[0, 0] - 0.5), abs(r.vbs[1, 0] - 0.5),
              abs(r.tsi[0, 0] - 0.5), abs(r.tsi[1, 0] - 0.5))
    ok &= dev < 0.05
    details.append(f"additive dev {dev:.3f}")
    r = run(lambda rows: (rows[:, 0] - 0.5) * (rows[:, 1] - 0.5), unit2)
    dev = max(abs(r.vbs[0, 0]), abs(r.vbs[1, 0]),
              abs(r.tsi[0, 0] - 1), abs(r.tsi[1, 0] - 1))
    ok &= dev < 0.05
    details.append(f"interaction dev {dev:.3f}")

    runtime = time.perf_counter() - t0
    ok &= runtime < 120.0
    details.append(f"runtime {runtime:.1f}s (< 120s)")
    _report(5, "global-sensitivity properties", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. importance ordering
# ---------------------------------------------------------------------------


def test_criterion_6_importance_ordering():
    results = _global_results()
    details = []
    ok = True

    z = results["zajac"]
    tsi = {n: z.tsi[i, -1] for i, n in enumerate(z.param_names)}
    z_ok = (tsi["sigma"] > tsi["beta"]
            and all(tsi["beta"] > tsi[n] for n in ("tau", "q0", "q_Z0")))
    ok &= z_ok
    details.append("zajac steady-state TSI: "
                   + " > ".join(f"{n}={tsi[n]:.3f}"
                                for n in ("sigma", "beta", "tau", "q0", "q_Z0")))

    h = results["hatze"]
    tsi_h = {n: h.tsi[i, -1] for i, n in enumerate(h.param_names)}
    h_ok = tsi_h["sigma"] > tsi_h["ell_CErel"] and tsi_h["rho_c"] < 0.1
    ok &= h_ok
    details.append(f"hatze: sigma={tsi_h['sigma']:.3f} > "
                   f"ell_CErel={tsi_h['ell_CErel']:.3f}, "
                   f"rho_c={tsi_h['rho_c']:.3f} < 0.1")

    vbs0_z = z.vbs[z.param_names.index("q_Z0"), 0]
    vbs0_h = h.vbs[h.param_names.index("q_H0"), 0]
    ok &= vbs0_z > 0.9 and vbs0_h > 0.9
    details.append(f"initial-value VBS at t=0: {vbs0_z:.3f} / {vbs0_h:.3f} (> 0.9)")

    _report(6, "importance ordering", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. optimizer round-trip and table layout
# ---------------------------------------------------------------------------


def test_criterion_7_optimizer_round_trip():
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    cells = run_table(targets)
    details = []
    ok = len(cells) == 18 and all(c.status == "ok" for c in cells)
    layout = {(c.nu, c.kind, c.width_start) for c in cells}
    expected = {(nu, "bell", w) for nu in (2.0, 3.0, 4.0) for w in (0.25, 0.35, 0.45)}
    expected |= {(nu, "parabola", w) for nu in (2.0, 3.0, 4.0)
                 for w in (0.46, 0.56, 0.66)}
    ok &= layout == expected
    details.append(f"{len(cells)} cells in the 3x2x3 layout, all converged")

    roundtrip = [c for c in cells if c.nu == 3.0 and c.kind == "bell"]
    w_err = max(abs(c.width - 0.32) / 0.32 for c in roundtrip)
    r_err = max(abs(c.rho0 - 3.25e4) / 3.25e4 for c in roundtrip)
    e_max = max(c.error_mm for c in roundtrip)
    ok &= w_err < 0.01 and r_err < 0.01 and e_max < 1e-6
    details.append(f"round-trip: width err {w_err:.2e}, rho0 err {r_err:.2e} "
                   f"(< 1%), error {e_max:.1e} mm (< 1e-6)")

    groups = defaultdict(list)
    for c in cells:
        groups[(c.nu, c.kind)].append(c)
    spread = 0.0
    for group in groups.values():
        ws = [c.width for c in group]
        rs = [c.rho0 for c in group]
        spread = max(spread, (max(ws) - min(ws)) / min(ws),
                     (max(rs) - min(rs)) / min(rs))
    ok &= spread < 0.01
    details.append(f"start-independence spread {spread:.2e} (< 1%)")

    _report(7, "optimizer round-trip", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. shift-prediction oracle
# ---------------------------------------------------------------------------


def test_criterion_8_shift_prediction_oracle():
    rho0 = {2.0: 6.62e4, 3.0: 5.27e4, 4.0: 5.27e4}
    width = {"bell": 0.32, "parabola": 0.56}
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (2.0, 3.0, 4.0):
        for kind in ("bell", "parabola"):
            flr = ForceLengthRelation(kind=kind, width=width[kind], ell_opt=14.8)
            p = HatzeParams(sigma=1.0, q0=0.005, nu=nu,
                            rho_c=rho0[nu] * CALCIUM_CEILING,
                            ell_rho=2.9, q_init=0.5)
            ells = np.arange(0.5 * 14.8, 1.5 * 14.8 + 1e-3, 1e-3)
            ref = ells[int(np.argmax(isometric_force(1.0, ells, p, flr)))]
            for gamma in DEFAULT_LEVELS:
                refined = optimal_length_shift(gamma, p, flr)
                brute = ells[int(np.argmax(
                    isometric_force(gamma, ells, p, flr)))] - ref
                worst = max(worst, abs(refined - brute))
    runtime = time.perf_counter() - t0
    _report(8, "shift-prediction oracle",
            worst < 2e-3 and runtime < 10.0,
            f"30 configurations: max |refined - micrometre grid| = "
            f"{worst * 1000:.2f} um (< 2 um), runtime {runtime:.1f}s (< 10s)")
