"""The benchmark tracer hooks package names by attribute; a refactor that
renames or deletes one of them must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

from actsens import cli, localsens, presets

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    return (cli.main, cli._MODELS.copy(), cli.family_evaluator, localsens.integrate,
            presets.integrate, presets.zajac_rhs, presets.hatze_rhs)


def test_tracer_installs_on_every_hooked_name_and_restores(tmp_path):
    tracer = _load_tracer()
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
        # the global path: the ensemble evaluator, its batched rhs and solve
        assert cli.main(["global-sens", "--model", "hatze", "--n", "4",
                         "--t-end", "0.05", "--points", "3",
                         "--output", str(tmp_path / "global")]) == 0
    finally:
        hooks.restore()
    assert _hooked() == originals
    summary = spans.summary()
    assert summary["models.derivs"]["calls"] > 0
    assert local_rhs_evals == summary["localsens.aug_rhs"]["calls"] > 0
    assert summary["models.batch_rhs"]["calls"] > 0
    assert spans.counts["rows_evaluated"] == 2 * 4 * (8 + 1)  # hatze: N = 8
    assert summary["presets.rhs"]["calls"] == summary["models.batch_rhs"]["calls"]
