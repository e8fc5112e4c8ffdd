"""Benchmark of the actsens command line, driven in-process through actsens.cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload local-panels --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): local-panels,
global-ensemble, shift-fit. One item is one CLI command; a pass is the fixed
list of commands a workload generates from its seed.

--trace 0 measures end to end: whole passes until --seconds of pass time
(default: run_seconds of BENCHMARK.json) and at least 3 passes, closed loop
with one caller, with 15 set-up probes (fresh processes) spread over the run
in step with the passes. The shared CPU's speed drifts by up to 2x while a run
goes on, so every timed command and set-up probe is also converted to
reference seconds by speed.SpeedProbe, and every set-up probe by the time of
a bare interpreter start beside it; the gated figures are in those:
ref_items_per_s (commands over their summed reference time) and setup_s
(median reference set-up time). The wall-clock figures (items_per_s,
item_p50_s, item_tail_s, setup_wall_s) and the run's CPU slowdown are printed
beside them. --trace 1 runs the same pass untraced, traced, untraced and traced,
reports the per-layer numbers of the first traced pass, checks that the
deterministic counters of the two traced passes agree, notes the tracing
overhead (mean traced minus mean untraced pass wall) and writes the spans to
perfbench/out/.

Correctness gates run outside the timed region; a failed gate sets
"correct": false and the exit code to 1. A table of every metric with unit
and sample count is printed first and saved with the environment to
perfbench/out/result-<workload>-trace<0|1>.json; the last stdout line is the
JSON result, carrying the metrics BENCHMARK.json lists for that mode.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracer import DETERMINISTIC, Instrumentation, Tracer, layer_metrics, moves
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
# Set-up is process start-up and imports, which the shared host slows
# differently from speed.SpeedProbe's kernels (in one set of ten runs the
# kernel-scaled set-up time fell by 20 % while the kernels' slowdown held).
# Each probe is scaled instead by a fresh interpreter that imports numpy,
# timed right before and after it: REF_START_S is that command's time on the
# reference CPU (2.1 GHz x86-64 vCPU, numpy 2).
REF_START_CMD = (sys.executable, "-c", "import numpy")
REF_START_S = 0.16
# the tail is the highest percentile with at least ten samples beyond it
TAIL_BEYOND = 10
# a run averages over at least three passes (shift-fit draws new truths per pass)
MIN_PASSES = 3
# passes stop starting after this long, whatever --seconds says
MAX_TIMED_S = 120.0


def import_actsens():
    """Import the package from this checkout's src/ or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import actsens
        import actsens.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import actsens from {SRC}: {exc}")
    if Path(actsens.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: actsens was imported from {actsens.__file__}, not {SRC}")
    return actsens


@dataclass
class PassResult:
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ref_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "PassResult") -> None:
        self.wall += other.wall
        self.latencies += other.latencies
        self.ref_times += other.ref_times
        self.attempted += other.attempted
        self.failed += other.failed
        self.ref_err = max(self.ref_err, other.ref_err)
        self.problems += other.problems


def call_cli(cli, argv) -> tuple[int, float, float, str]:
    """Run one command; returns (exit code, start and end of main, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed item, not a dead benchmark
            traceback.print_exc()
            code = -1
        t1 = perf_counter()
    return code, t0, t1, sink.getvalue()


def run_pass(cli, wl, items, probe: SpeedProbe | None = None) -> PassResult:
    """One pass of the items; with a probe, each command's speed is sampled too."""
    res = PassResult()
    codes, spans = [], []
    t0 = perf_counter()
    with probe.sampling() if probe else contextlib.nullcontext():
        for it in items:
            if probe:
                probe.edge()
            code, start, end, log = call_cli(cli, it.argv)
            if probe:
                probe.edge()
            codes.append((code, log))
            spans.append((start, end))
    res.wall = perf_counter() - t0
    res.latencies = [end - start for start, end in spans]
    if probe:
        res.ref_times = [probe.ref_seconds(start, end) for start, end in spans]
    for it, (code, log) in zip(items, codes):
        res.attempted += 1
        try:
            ok = code == 0 and wl.item_ok(it)
        except (OSError, ValueError, KeyError) as exc:
            ok, log = False, f"{log}\n{exc!r}"
        if not ok:
            res.failed += 1
            res.problems.append(f"{it.argv} exited {code}: {log.strip()[-500:]}")
    if res.failed == 0:
        res.ref_err, problems = wl.check_pass(items)
        res.problems += problems
    return res


def final_check(cli, wl, items, total: PassResult) -> None:
    """Run the workload's end-of-run gates on its last pass and merge the outcome."""
    if total.failed:
        total.problems.append("final gates skipped: commands failed")
        return
    err, problems = wl.final_check(items, lambda argv: call_cli(cli, argv)[0])
    total.add(PassResult(ref_err=err, problems=problems))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": threads, "machine": platform.machine(), "seed": seed,
    }


def wall_of(cmd) -> float:
    t0 = perf_counter()
    # no timeout: Popen.wait(timeout) polls in 50 ms sleeps, which would
    # round every probe up to the next poll
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_times(args, count: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds of `count` fresh processes that import actsens
    and build the inputs, each between two timed REF_START_CMD starts."""
    times = []
    before = wall_of(REF_START_CMD) if count > 0 else 0.0
    for r in range(count):
        work = OUT / f"probe-{r}"
        wall = wall_of([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        str(work), "--workload", args.workload, "--seed", str(args.seed)])
        after = wall_of(REF_START_CMD)
        times.append((wall, wall * 2.0 * REF_START_S / (before + after)))
        before = after
        shutil.rmtree(work, ignore_errors=True)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:  # no percentile above the median has them
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(cli, wl, args) -> tuple[dict, PassResult]:
    total = PassResult()
    speed = SpeedProbe()
    setup: list[tuple[float, float]] = []
    k, last = 0, None
    started = perf_counter()
    while True:
        last = wl.pass_items(k)
        res = run_pass(cli, wl, last, speed)
        total.add(res)
        k += 1
        # set-up probes are spread over the run in step with the passes
        due = math.ceil(SETUP_PROBES * min(total.wall / args.seconds, 1.0))
        setup += setup_times(args, due - len(setup))
        enough = total.wall >= args.seconds and k >= MIN_PASSES
        if enough or perf_counter() - started >= MAX_TIMED_S:
            break
    setup += setup_times(args, SETUP_PROBES - len(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final_check(cli, wl, last, total)

    n = len(total.latencies)
    tail_s, tail_pct = tail(total.latencies)
    metrics = {
        "setup_s": (statistics.median(r for _, r in setup), "s", len(setup)),
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s", len(setup)),
        "ref_items_per_s": (n / sum(total.ref_times), "1/s", n),
        # time inside main only, so the probe's edge samples are left out
        "items_per_s": (n / sum(total.latencies), "1/s", n),
        "item_p50_s": (statistics.median(total.latencies), "s", n),
        "item_tail_s": (tail_s, "s", n),
        "fail_ratio": (total.failed / total.attempted, "ratio", total.attempted),
        "ref_err": (total.ref_err, "1", k),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    notes = {"passes": k, "timed_s": total.wall, "items_per_pass": len(last),
             "cpu_slowdown": speed.slowdown(), "speed_samples": len(speed.starts),
             "tail_percentile": tail_pct, "ref_err": wl.ref_err_means}
    return {"metrics": metrics, "notes": notes}, total


def per_layer(cli, wl) -> tuple[dict, PassResult]:
    """Untraced and traced passes of the same items, alternating, two of each."""
    items = wl.pass_items(0)
    total = PassResult()
    walls = {False: [], True: []}
    reps = []
    for traced in (False, True, False, True):
        if not traced:
            res = run_pass(cli, wl, items)
        else:
            tracer = Tracer()
            inst = Instrumentation(tracer)
            inst.install()
            try:
                res = run_pass(cli, wl, items)
            finally:
                inst.restore()
            written = sum(f.stat().st_size for it in items for f in it.out.iterdir())
            reps.append(layer_metrics(tracer, written))
            if len(reps) == 1:
                tracer.write(OUT / f"trace-{wl.name}.npz")
                spans = tracer.summary()
        walls[traced].append(res.wall)
        total.add(res)
    final_check(cli, wl, items, total)
    for key in DETERMINISTIC:
        if reps[0][key] != reps[1][key]:
            total.problems.append(f"counter {key} differs between traced passes: "
                                  f"{reps[0][key][0]} vs {reps[1][key][0]}")
    metrics = {k: (v, unit, 1) for k, (v, unit) in reps[0].items()}
    traced_wall, untraced_wall = statistics.mean(walls[True]), statistics.mean(walls[False])
    notes = {"items_per_pass": len(items), "traced_wall_s": traced_wall,
             "untraced_wall_s": untraced_wall,
             "trace_overhead_s": traced_wall - untraced_wall, "spans": spans}
    return {"metrics": metrics, "notes": notes}, total


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.setup_probe:
        import_actsens()
        wl = WORKLOADS[args.workload](args.seed, Path(args.setup_probe))
        wl.build()
        wl.pass_items(0)
        return 0

    actsens = import_actsens()
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    wl.build()
    cli = actsens.cli
    for it in wl.warmup_items():
        call_cli(cli, it.argv)

    if args.trace:
        result, total = per_layer(cli, wl)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        result, total = end_to_end(cli, wl, args)
        wanted = [m["name"] for m in spec["end_to_end"]]
    correct = total.failed == 0 and not total.problems
    env = environment(args.seed)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  correct {correct}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':34} {'value':>14} {'unit':>6} {'samples':>8}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:34} {value:14.6g} {unit:>6} {n:>8}"
              + (f"   moves {moves(name)}" if args.trace else ""))
    for key, value in result["notes"].items():
        if key != "spans":
            print(f"note {key} = {value}")
    for problem in total.problems:
        print(f"FAIL {problem}")
    (OUT / f"result-{wl.name}-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": total.attempted,
        "failed": total.failed, "environment": env, "problems": total.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in result["metrics"].items()},
        "notes": result["notes"],
    }, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": total.attempted, "failed": total.failed,
        "metrics": {k: {"value": result["metrics"][k][0], "unit": result["metrics"][k][1]}
                    for k in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
