"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --workloads local-panels,shift-fit --seeds 1-10 \
        --trace 0 --output perfbench/out/collect.json

Runs go seed by seed, each seed over every workload. Each run's full result
file (every metric with unit and sample count, the environment, the notes) is
kept with the exact command that produced it. For each workload and metric
the summary gives the per-seed values, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    summary = {"command": " ".join(["python3", "perfbench/collect.py"] + sys.argv[1:]),
               "workloads": {}}
    ok = True
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    values = {w: {} for w in workloads}
    # seeds outermost, so a drift of the machine's speed during the
    # collection touches every workload alike
    for seed in args.seeds:
        for workload in workloads:
            cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads((HERE / "out" / f"result-{workload}-trace{args.trace}.json")
                                .read_text())
            ok &= proc.returncode == 0 and line["correct"]
            runs[workload].append({"command": " ".join(cmd), "exit": proc.returncode, **result})
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(workload, seed, proc.returncode, line["correct"],
                  {k: round(v["value"], 5) for k, v in line["metrics"].items()}, flush=True)
    for workload in workloads:
        print(workload)
        stats = {}
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            median = statistics.median(vals)
            stats[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median if median else 0.0, "values": vals}
            print(f"  {name:34} median {median:.6g}  spread {stats[name]['spread']:.4f}")
        summary["workloads"][workload] = {"metrics": stats, "runs": runs[workload]}
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
