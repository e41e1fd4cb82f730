"""Run the benchmark over several seeds; report medians, quartile spreads and drift.

    python3 perfbench/spread.py --workloads verify-sweep,curves --seeds 1-10 \
        [--trace-seeds 1,2] [--against OLD.json] [--out NEW.json]

Each run is `run.py --workload W --seed S --seconds <run_seconds>` with
run_seconds from BENCHMARK.json. For every end-to-end metric the spread is
(Q3 - Q1) / median over the seeds, the quartiles taken by
statistics.quantiles(values, n=4); it is printed next to the metric's bound.
--against compares each median with the one stored in an earlier --out file
and flags a change worse than the bound. --trace-seeds adds traced runs,
whose per-layer metrics are stored per seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = HERE.parent / ".perfbench" / "results"  # where run.py keeps each run's full record


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output:\n{proc.stdout}")
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--against", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []
    before = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else {}

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        end_to_end = {}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs], metric["bound"])
            end_to_end[name] = stats
            line = (f"{workload:<15} {name:<12} median={stats['median']:<12.6g} {metric['unit']:<4} "
                    f"spread={stats['spread']:.4f} bound={metric['bound']} (a third: {metric['bound'] / 3:.4f})")
            old = before.get(workload, {}).get("end_to_end", {}).get(name)
            if old:
                change = stats["median"] / old["median"] - 1.0
                worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
                line += f" change={change:+.4f}{' WORSE THAN BOUND' if worse else ''}"
            print(line, flush=True)
        per_layer = {seed: run_once(workload, seed, 1)["metrics"] for seed in trace_seeds}
        record = RESULTS / f"{workload}-seed{seeds[0]}-trace0.json"
        env = json.loads(record.read_text(encoding="utf-8"))["env"]
        summary[workload] = {"env": env, "seeds": seeds, "end_to_end": end_to_end, "per_layer": per_layer}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
