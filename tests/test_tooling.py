"""The benchmark reaches the package by attribute (tracer hooks) and checks
its output with correctness gates; a change that breaks either must fail
here, not only in a benchmark run. The package's imports are checked here
too: numpy is its one runtime dependency, and each module's export list
matches the package's. So are the tests' own tools: the benchmark pairs'
summary and the corpus update."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from actsens import cli, localsens, optimize, presets
from bench_pairs import summarize
from output_corpus import compare_trees, update_tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actsens"


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
            optimize.isometric_force, optimize.hatze_q_of_gamma, optimize.force_length)


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
        # state.csv, s_rel.csv, r_rel.csv and the manifest, each through the
        # module-level writer names the tracer wraps
        local_writes = spans.summary()["cli.write"]["calls"]
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
        # the optimizer path: lockstep fits through the hooked argmax and
        # force, whose scan goes through the checked static formulas
        targets = tmp_path / "targets.csv"
        targets.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
        static = spans.summary().get("models.static", {}).get("calls", 0)
        assert cli.main(["optimize", "--targets", str(targets), "--nu", "3", "--kind", "bell",
                         "--output", str(tmp_path / "fit")]) == 0
        assert spans.summary()["optimize.argmax"]["calls"] > 0
        assert spans.summary()["models.static"]["calls"] > static
    finally:
        hooks.restore()
    assert _hooked() == originals
    summary = spans.summary()
    assert summary["models.derivs"]["calls"] > 0
    assert local_rhs_evals == local_aug_rhs > 0
    assert local_writes == 4
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


def _imported(node) -> list:
    """The top-level modules an import statement names; "" for a relative one."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [""] if node.level else [node.module.partition(".")[0]]
    return []


def test_the_package_imports_only_the_standard_library_and_numpy():
    # matplotlib is optional (the plots extra): only cli._plot imports it,
    # and only when a plot is asked for
    allowed = set(sys.stdlib_module_names) | {"numpy", ""}
    plotting = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> the innermost function that holds it
        for fn in ast.walk(tree):  # breadth first: an inner function comes later
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, f"{path.stem}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            for module in _imported(node):
                if module == "matplotlib":
                    plotting.add(owner.get(node, path.stem))
                else:
                    assert module in allowed, f"{path.name}:{node.lineno} imports {module}"
    assert plotting == {"cli._plot"}


def test_pyproject_version_is_the_package_version():
    # every manifest.txt writes actsens.__version__; the package metadata
    # must name the same release
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import actsens

    with (PACKAGE.parents[1] / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == actsens.__version__


def test_the_package_exports_exactly_the_public_api_readme_lists():
    # every name of ``import actsens`` but its submodules, against the
    # backquoted names of README's "Public API" section
    import types

    import actsens

    exported = {name for name, value in vars(actsens).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == exported


def test_each_module_exports_what_the_package_imports_from_it():
    # a module's __all__ is the names ``import actsens`` takes from it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {node.module: {alias.name for alias in node.names}
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
    declared = {}
    for name in imported:
        module = importlib.import_module(f"actsens.{name}")
        if hasattr(module, "__all__"):
            assert len(module.__all__) == len(set(module.__all__)), name
            declared[name] = set(module.__all__)
    assert set(declared) == {"globalsens", "localsens", "models", "odecore", "optimize"}
    assert declared == {name: imported[name] for name in declared}


def test_corpus_update_rewrites_only_what_moved(tmp_path):
    corpus, fresh = tmp_path / "corpus", tmp_path / "fresh"

    def write(root, rel, text):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)

    csv = "t_seconds,V\n0,1\n1,{}\n"
    write(corpus, "kept/global.csv", csv.format(2))
    write(fresh, "kept/global.csv", csv.format("2.0000000000000004"))  # within the bound
    write(corpus, "kept/manifest.txt", "version = 0.1.0\nn = 4\n")
    write(fresh, "kept/manifest.txt", "version = 0.2.0\nn = 4\n")  # not compared
    write(corpus, "moved/global.csv", csv.format(2))
    write(fresh, "moved/global.csv", csv.format(2.5))
    write(fresh, "new/manifest.txt", "n = 8\n")
    write(corpus, "gone/deeper/manifest.txt", "n = 4\n")
    written, deleted = update_tree(fresh, corpus)
    assert written == ["moved/global.csv", "new/manifest.txt"]
    assert deleted == ["gone/deeper/manifest.txt"]
    assert sorted(p.relative_to(corpus).as_posix() for p in corpus.rglob("*")) == [
        "kept", "kept/global.csv", "kept/manifest.txt", "moved", "moved/global.csv",
        "new", "new/manifest.txt"]
    assert (corpus / "kept/global.csv").read_text() == csv.format(2)
    assert (corpus / "kept/manifest.txt").read_text().startswith("version = 0.1.0")
    assert (corpus / "moved/global.csv").read_bytes() == (fresh / "moved/global.csv").read_bytes()
    assert not [p for d in compare_trees(corpus, fresh) for p in d.problems]
    assert update_tree(fresh, corpus) == ([], [])


def _bench_result(ref, rss, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"ref_items_per_s": {"value": ref}, "peak_rss_mb": {"value": rss}}}


def test_bench_pairs_summary_on_fixed_numbers():
    pairs = [(_bench_result(10.0, 5.0), _bench_result(11.0, 5.0)),
             (_bench_result(12.0, 5.0), _bench_result(11.0, 4.0)),
             (_bench_result(14.0, 5.0), _bench_result(15.0, 6.0, failed=2)),
             (_bench_result(16.0, 5.0, correct=False), _bench_result(17.0, 4.0))]
    lines = summarize(pairs, [{"name": "ref_items_per_s", "better": "higher", "bound": 0.25},
                              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                              {"name": "setup_s", "better": "lower", "bound": 0.25}]).splitlines()
    # medians and quartiles by linear interpolation; a tie wins for neither
    assert lines[1].split() == ["ref_items_per_s", "13", "(11.5-14.5)", "13", "(11-15.5)",
                                "3/4", "(higher", "is", "better)"]
    assert lines[2].split() == ["peak_rss_mb", "5", "(5-5)", "4.5", "(4-5.25)",
                                "2/4", "(lower", "is", "better)"]
    assert lines[3].split() == ["setup_s", "no", "pair", "reports", "it"]
    assert lines[4:] == ["FLAG pair 3 new: correct True, failed 2",
                         "FLAG pair 4 old: correct False, failed 0"]
    assert summarize(pairs[:2], [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
                     ).splitlines()[-1] == "every run correct, 0 failed operations"
    # the old Q1-Q3 spread of 3 is wider than 0.2 x 13; a new median of 4.5
    # against 5 is worse, if higher is better, by more than 0.05 x 5 but
    # not by more than 0.1 x 5
    lines = summarize(pairs, [{"name": "ref_items_per_s", "better": "higher", "bound": 0.2},
                              {"name": "peak_rss_mb", "better": "higher", "bound": 0.05},
                              {"name": "peak_rss_mb", "better": "higher", "bound": 0.1}]
                      ).splitlines()
    assert lines[1].endswith("3/4 (higher is better)  unresolved")
    assert lines[2].endswith("1/4 (higher is better)  worse beyond bound")
    assert lines[3].endswith("1/4 (higher is better)")
