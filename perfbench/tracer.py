"""Span tracing of the actsens layers, from outside the package.

Each layer is reached through a module-level name (``actsens.cli.analyze``,
``actsens.presets.integrate``, ...). :class:`Instrumentation` swaps those
names for wrappers that record a span (name, start, end, parent) and restores
every original afterwards. Spans are kept in flat arrays in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

#: Package modules, used as the layer names (a span's layer is its name's prefix).
LAYERS = ("cli", "localsens", "globalsens", "presets", "optimize", "models", "odecore")

# Computed float64 traffic of integrate()'s own array expressions, counted
# from its source: M-length operands read or written per Dormand-Prince step
# attempt (stages, error norm, FSAL copy) and per dense-output grid point
# (Hermite interpolant). It ignores caches and the rhs's work.
_STEP_OPERANDS = 108
_OUTPUT_OPERANDS = 23


class Tracer:
    """Spans in flat arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_exit=None):
        """Return fn recording one span per call; on_exit(args, kwargs, result) may count."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


class Instrumentation:
    """Installs span wrappers on the actsens layer boundaries and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, target, key, replacement):
        is_dict = isinstance(target, dict)
        original = target[key] if is_dict else getattr(target, key)
        self._saved.append((target, key, original))
        if is_dict:
            target[key] = replacement(original)
        else:
            setattr(target, key, replacement(original))

    def _span(self, name, on_exit=None):
        return lambda fn: self.tracer.wrap(name, fn, on_exit)

    def restore(self) -> None:
        """Put every original back and check that it is back."""
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        for target, key, original in self._saved:
            now = target[key] if isinstance(target, dict) else getattr(target, key)
            if now is not original:
                raise RuntimeError(f"failed to restore {key}")
        self._saved.clear()

    def install(self) -> None:
        from actsens import cli, globalsens, localsens, optimize, presets

        tr, count = self.tracer, self.tracer.counts
        span, patch = self._span, self._patch

        # cli: the entry point and its CSV/manifest writers
        patch(cli, "main", span("cli.main"))
        patch(cli, "write_csv", span("cli.write"))
        patch(cli, "write_manifest", span("cli.write"))

        # localsens: analyze by order, normalize; models: ModelSpec.derivs
        def analyze(fn):
            by_order = {k: tr.wrap(f"localsens.analyze.order{k}", fn) for k in (0, 1, 2)}
            return lambda *a, **kw: by_order[kw.get("order", 1)](*a, **kw)

        patch(cli, "analyze", analyze)
        patch(cli, "normalize", span("localsens.normalize"))

        def model_factory(entry):
            factory, canonical = entry

            def traced_factory():
                spec = factory()
                return dataclasses.replace(spec, derivs=tr.wrap("models.derivs", spec.derivs))

            return traced_factory, canonical

        for key in list(cli._MODELS):
            patch(cli._MODELS, key, model_factory)

        # odecore: each solve, with its rhs evaluations as child spans owned
        # by the layer that supplied the rhs
        def count_rhs(*_):
            count["rhs_evals"] += 1

        def integrate(rhs_span):
            def replace(fn):
                solve = tr.wrap("odecore.integrate", fn)

                def traced(problem, tol=None):
                    before = count["rhs_evals"]
                    rhs = tr.wrap(rhs_span, problem.rhs, count_rhs)
                    try:
                        return solve(dataclasses.replace(problem, rhs=rhs), tol)
                    finally:
                        evals = count["rhs_evals"] - before
                        attempts = max(evals - 1, 0) // 6
                        count["solves"] += 1
                        count["step_attempts"] += attempts
                        count["computed_bytes"] += 8 * np.size(problem.y0) * (
                            _STEP_OPERANDS * attempts
                            + _OUTPUT_OPERANDS * np.size(problem.output_grid))

                return traced

            return replace

        patch(localsens, "integrate", integrate("localsens.aug_rhs"))
        patch(presets, "integrate", integrate("presets.rhs"))

        # presets: batched rhs of the ensemble evaluator and its fallback solves
        patch(presets, "zajac_rhs", span("models.batch_rhs"))
        patch(presets, "hatze_rhs", span("models.batch_rhs"))

        def batch_integrate(fn):
            def counted(*a, **kw):
                count["batch_solves"] += 1
                return fn(*a, **kw)
            return counted

        patch(presets, "_batch_integrate", batch_integrate)

        def family_evaluator(fn):
            def traced_factory(*a, **kw):
                evaluate = fn(*a, **kw)

                def counted(rows, grid):
                    count["rows_evaluated"] += np.shape(rows)[0]
                    before = count["batch_solves"]
                    try:
                        return evaluate(rows, grid)
                    finally:
                        count["fallback_solves"] += max(count["batch_solves"] - before - 1, 0)

                return tr.wrap("presets.evaluate", counted)

            return traced_factory

        patch(cli, "family_evaluator", family_evaluator)

        # globalsens: the three stages of analyze_global
        def useful_rows(args, kwargs, _result):
            m = args[1] if len(args) > 1 else kwargs["matrices"]
            count["useful_rows"] += 2 * m.n * (m.cuboid.n_params + 1)

        patch(globalsens, "build_sample_matrices", span("globalsens.sample"))
        patch(globalsens, "evaluate_family", span("globalsens.evaluate", useful_rows))
        patch(globalsens, "vbs_tsi", span("globalsens.reduce"))

        # optimize: fits, objective, argmax scans and the force model
        def fit_done(_args, _kwargs, result):
            count["fits"] += 1
            count["nm_iterations"] += result.iterations

        def objective(fn):
            traced = tr.wrap("optimize.objective", fn)

            def counted(*a, **kw):
                count["objective_evals"] += 1
                try:
                    return traced(*a, **kw)
                except optimize.NoInteriorMaximum:
                    count["infeasible_evals"] += 1
                    raise

            return counted

        def force(fn):
            traced = tr.wrap("optimize.isometric_force", fn)

            def counted(gamma, ell_ce, *a, **kw):
                if np.ndim(ell_ce) == 0:
                    count["scalar_force_calls"] += 1
                return traced(gamma, ell_ce, *a, **kw)

            return counted

        patch(cli, "run_table", span("optimize.run_table"))
        patch(optimize, "fit_shift_parameters", span("optimize.fit", fit_done))
        patch(optimize, "fit_error", objective)
        patch(optimize, "_argmax_force", span("optimize.argmax"))
        patch(optimize, "isometric_force", force)
        patch(optimize, "hatze_q_of_gamma", span("models.static"))
        patch(optimize, "force_length", span("models.static"))


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s = tracer.summary()
    c = tracer.counts

    def total(name, key="s"):
        return s.get(name, {}).get(key, 0.0)

    def calls(name):
        return int(s.get(name, {}).get("calls", 0))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "models.derivs_calls": (calls("models.derivs"), "count"),
        "models.derivs_s": (total("models.derivs"), "s"),
        "models.batch_rhs_calls": (calls("models.batch_rhs"), "count"),
        "models.batch_rhs_s": (total("models.batch_rhs"), "s"),
        "odecore.solves": (c["solves"], "count"),
        "odecore.rhs_evals": (c["rhs_evals"], "count"),
        "odecore.step_attempts": (c["step_attempts"], "count"),
        "odecore.self_s": (total("odecore.integrate", "self_s"), "s"),
        "odecore.computed_mb_moved": (c["computed_bytes"] / 1e6, "MB"),
        "localsens.analyze_calls": (sum(calls(f"localsens.analyze.order{k}") for k in (0, 1, 2)),
                                    "count"),
        "localsens.aug_rhs_calls": (calls("localsens.aug_rhs"), "count"),
        "localsens.analyze_s.order0": (total("localsens.analyze.order0"), "s"),
        "localsens.analyze_s.order1": (total("localsens.analyze.order1"), "s"),
        "localsens.analyze_s.order2": (total("localsens.analyze.order2"), "s"),
        "localsens.aug_rhs_self_s": (total("localsens.aug_rhs", "self_s"), "s"),
        "localsens.normalize_s": (total("localsens.normalize"), "s"),
        "globalsens.sample_s": (total("globalsens.sample"), "s"),
        "globalsens.evaluate_s": (total("globalsens.evaluate"), "s"),
        "globalsens.reduce_s": (total("globalsens.reduce"), "s"),
        "globalsens.rows_evaluated": (c["rows_evaluated"], "count"),
        "globalsens.useful_row_ratio": (ratio(c["useful_rows"], c["rows_evaluated"]), "ratio"),
        "presets.fallback_solves": (c["fallback_solves"], "count"),
        "optimize.fits": (c["fits"], "count"),
        "optimize.nm_iterations": (c["nm_iterations"], "count"),
        "optimize.objective_evals": (c["objective_evals"], "count"),
        "optimize.infeasible_ratio": (ratio(c["infeasible_evals"], c["objective_evals"]), "ratio"),
        "optimize.coarse_scans": (calls("optimize.argmax"), "count"),
        "optimize.scalar_force_calls": (c["scalar_force_calls"], "count"),
        "optimize.isometric_force_s": (total("optimize.isometric_force"), "s"),
        "optimize.objective_s": (total("optimize.objective"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer), "s")
    m["trace.spans"] = (len(tracer.name_id), "count")
    return m


#: The end-to-end metric and workload each layer metric should move (first
#: matching name prefix wins).
MOVES = (
    ("models.derivs", "ref_items_per_s on local-panels"),
    ("models.batch_rhs", "ref_items_per_s on global-ensemble"),
    ("models.", "ref_items_per_s on every workload"),
    ("odecore.", "ref_items_per_s on local-panels and global-ensemble, opposite weight"),
    ("localsens.", "ref_items_per_s on local-panels"),
    ("globalsens.", "ref_items_per_s and fail_ratio on global-ensemble"),
    ("presets.", "ref_items_per_s and fail_ratio on global-ensemble"),
    ("optimize.", "ref_items_per_s on shift-fit"),
    ("cli.", "ref_items_per_s on local-panels"),
    ("trace.", "nothing: size of the trace itself"),
)


def moves(name: str) -> str:
    return next(target for prefix, target in MOVES if name.startswith(prefix))


#: Counters that must repeat exactly between two traced passes of the same inputs.
DETERMINISTIC = (
    "models.derivs_calls", "models.batch_rhs_calls", "localsens.analyze_calls",
    "localsens.aug_rhs_calls", "odecore.solves",
    "odecore.rhs_evals", "odecore.step_attempts", "odecore.computed_mb_moved",
    "globalsens.rows_evaluated", "presets.fallback_solves", "optimize.fits",
    "optimize.nm_iterations", "optimize.objective_evals", "optimize.coarse_scans",
    "optimize.scalar_force_calls", "cli.bytes_written", "trace.spans",
)
