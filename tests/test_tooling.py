"""The benchmark reaches the package by attribute (tracer hooks) and checks
its output with correctness gates; a change that breaks either must fail
here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from actsens import cli, localsens, optimize, presets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_for_test(monkeypatch, name, path):
    """Import ``path`` as module ``name`` until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _hooked():
    return (cli.main, cli._MODELS.copy(), cli.family_evaluator, localsens.integrate,
            presets.integrate, presets.zajac_rhs, presets.hatze_rhs, cli.run_table,
            optimize.fit_shift_parameters, optimize.fit_error, optimize._argmax_force,
            optimize.isometric_force)


def test_tracer_installs_on_every_hooked_name_and_restores(tmp_path, monkeypatch):
    tracer = _import_for_test(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")
    originals = _hooked()
    spans = tracer.Tracer()
    hooks = tracer.Instrumentation(spans)
    try:
        hooks.install()
        assert cli.main is not originals[0]
        assert cli.main(["local-sens", "--model", "hatze", "--second-order",
                         "--t-end", "0.05", "--points", "3",
                         "--output", str(tmp_path / "local")]) == 0
        local_rhs_evals = spans.counts["rhs_evals"]
        local_aug_rhs = spans.summary()["localsens.aug_rhs"]["calls"]
        # every model factory goes through the tracer's wrapper
        for name in cli._MODELS:
            before = spans.summary()["models.derivs"]["calls"]
            assert cli.main(["simulate", "--model", name, "--t-end", "0.05",
                             "--points", "3", "--output", str(tmp_path / name)]) == 0
            assert spans.summary()["models.derivs"]["calls"] > before, name
        # the global path of each built-in: the ensemble evaluator, its
        # batched rhs and solve
        for name in presets.BUILTIN_MODELS:
            before = spans.summary().get("models.batch_rhs", {}).get("calls", 0)
            assert cli.main(["global-sens", "--model", name, "--n", "4",
                             "--t-end", "0.05", "--points", "3",
                             "--output", str(tmp_path / f"global-{name}")]) == 0
            assert spans.summary()["models.batch_rhs"]["calls"] > before, name
        # the optimizer path: lockstep fits through the hooked argmax and force
        targets = tmp_path / "targets.csv"
        targets.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
        assert cli.main(["optimize", "--targets", str(targets), "--nu", "3", "--kind", "bell",
                         "--output", str(tmp_path / "fit")]) == 0
        assert spans.summary()["optimize.argmax"]["calls"] > 0
    finally:
        hooks.restore()
    assert _hooked() == originals
    summary = spans.summary()
    assert summary["models.derivs"]["calls"] > 0
    assert local_rhs_evals == local_aug_rhs > 0
    assert spans.counts["rows_evaluated"] == 2 * 4 * (5 + 1) + 2 * 4 * (8 + 1)  # N = 5, 8
    assert summary["presets.rhs"]["calls"] == summary["models.batch_rhs"]["calls"]


@pytest.mark.parametrize("kind", ["zajac-simulate", "zajac-local-sens", "zajac-local-sens-2",
                                  "hatze-local-sens"])
def test_local_panel_gates_pass(tmp_path, monkeypatch, kind):
    # every gated kind: the gates are the benchmark's only readers of a
    # scenario point (as_dict, values_for and fd_first_order on it)
    # workloads.py imports its sibling reference.py as a top-level module
    _import_for_test(monkeypatch, "reference", PERFBENCH / "reference.py")
    workloads = _import_for_test(monkeypatch, "perfbench_workloads",
                                 PERFBENCH / "workloads.py")
    panels = workloads.LocalPanels(seed=1, work=tmp_path)
    item = next(it for it in panels.pass_items(0) if it.kind == kind)
    gate = panels._zajac if item.meta["model"] == "zajac" else panels._hatze
    assert cli.main(item.argv) == 0
    err, ok = gate(item)
    assert ok, f"{kind} {item.argv}: reference deviation {err:.3e}"


def test_shift_fit_gates_pass(tmp_path, monkeypatch):
    _import_for_test(monkeypatch, "reference", PERFBENCH / "reference.py")
    workloads = _import_for_test(monkeypatch, "perfbench_workloads",
                                 PERFBENCH / "workloads.py")
    fits = workloads.ShiftFit(seed=1, work=tmp_path)
    item = next(it for it in fits.pass_items(0) if it.meta["match"])
    assert cli.main(item.argv) == 0
    assert fits.item_ok(item)
    assert fits.check_pass([item])[1] == []


def test_global_ensemble_gates_pass(tmp_path, monkeypatch):
    _import_for_test(monkeypatch, "reference", PERFBENCH / "reference.py")
    workloads = _import_for_test(monkeypatch, "perfbench_workloads",
                                 PERFBENCH / "workloads.py")
    ensemble = workloads.GlobalEnsemble(seed=1, work=tmp_path)
    item = next(it for it in ensemble.pass_items(0) if it.kind == "hatze-global")
    assert cli.main(item.argv) == 0
    assert ensemble.check_pass([item])[1] == []  # VBS <= TSI + 10/sqrt(n)
    assert ensemble.final_check([item], cli.main)[1] == []
