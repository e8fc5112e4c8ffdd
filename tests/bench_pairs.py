"""Alternating before/after pairs of the benchmark on two checkouts.

Run from the repository root:

    python tests/bench_pairs.py OLD NEW --workload W --pairs N [--seconds S] [--seed 11]

Each pair runs ``perfbench/run.py --workload W --seed SEED --trace 0`` once
in each checkout, each run in a fresh process on that checkout's own
``src``, one at a time. The first pair runs OLD first, the second NEW
first, and so on, so that a drift of the shared CPU's speed falls on both
sides alike. ``--seconds`` is passed on when given; without it each run
takes its checkout's ``run_seconds``. For each end-to-end metric of this
repository's ``BENCHMARK.json`` the report gives each side's median and
Q1-Q3 over the pairs and in how many pairs NEW was better (ties count for
neither side). Against the metric's ``bound`` it marks the metric
``worse beyond bound`` when NEW's median is worse than OLD's by more than
bound x OLD's median, and ``unresolved`` when OLD's own Q1-Q3 spread is
wider than that. It flags every run that is not ``correct`` or has failed
operations. :func:`summarize` builds the report from the runs'
results alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _median_quartiles(values) -> str:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.4g} ({q1:.4g}-{q3:.4g})"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> str:
    """The report of alternating pairs.

    ``pairs`` holds one (old, new) pair of results per pair, each the JSON
    object that ``perfbench/run.py`` prints last; ``metrics`` holds the
    end-to-end entries of ``BENCHMARK.json``, each with its ``name``,
    ``better`` ("higher" or "lower") and relative ``bound``. A metric counts
    only the pairs in which both runs report it.
    """
    lines = [f"{'metric':18} {'old median (Q1-Q3)':>26} {'new median (Q1-Q3)':>26}  new better"]
    for spec in metrics:
        metric, direction, bound = spec["name"], spec["better"], spec["bound"]
        both = [(old["metrics"][metric]["value"], new["metrics"][metric]["value"])
                for old, new in pairs
                if metric in old.get("metrics", {}) and metric in new.get("metrics", {})]
        if not both:
            lines.append(f"{metric:18} no pair reports it")
            continue
        old, new = np.array(both).T
        sign = 1.0 if direction == "higher" else -1.0
        wins = int(np.sum(sign * (new - old) > 0.0))
        q1, median, q3 = np.percentile(old, [25, 50, 75])
        allowed = bound * abs(median)
        marks = [mark for mark, hit in (
            ("worse beyond bound", sign * (np.median(new) - median) < -allowed),
            ("unresolved", q3 - q1 > allowed)) if hit]
        lines.append(f"{metric:18} {_median_quartiles(old):>26} {_median_quartiles(new):>26}"
                     f"  {wins}/{len(both)} ({direction} is better)"
                     + "".join(f"  {mark}" for mark in marks))
    flags = [f"FLAG pair {i} {side}: correct {run.get('correct')}, failed {run.get('failed')}"
             for i, pair in enumerate(pairs, 1) for side, run in zip(("old", "new"), pair)
             if run.get("correct") is not True or run.get("failed") != 0]
    return "\n".join(lines + (flags or ["every run correct, 0 failed operations"]))


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark run in ``tree``; its last stdout line, or a stand-in without metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(done.stderr, file=sys.stderr)
        return {"correct": False, "failed": None, "exit_code": done.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in metrics]

    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        runs = {side: run_once(trees[side], args.workload, args.seed, args.seconds)
                for side in order}
        pairs.append((runs["old"], runs["new"]))
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{side} {m} {runs[side].get('metrics', {}).get(m, {}).get('value', float('nan')):.4g}"
            for side in ("old", "new") for m in names), flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(summarize(pairs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
