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


def test_tracer_installs_on_every_hooked_name_and_restores(tmp_path):
    tracer = _load_tracer()
    originals = (cli.main, cli._MODELS.copy(), localsens.integrate,
                 presets.zajac_rhs, presets.hatze_rhs)
    spans = tracer.Tracer()
    hooks = tracer.Instrumentation(spans)
    try:
        hooks.install()
        assert cli.main is not originals[0]
        assert cli.main(["local-sens", "--model", "hatze", "--second-order",
                         "--t-end", "0.05", "--points", "3",
                         "--output", str(tmp_path)]) == 0
    finally:
        hooks.restore()
    assert (cli.main, cli._MODELS, localsens.integrate,
            presets.zajac_rhs, presets.hatze_rhs) == originals
    summary = spans.summary()
    assert summary["models.derivs"]["calls"] > 0
    assert spans.counts["rhs_evals"] == summary["localsens.aug_rhs"]["calls"] > 0
