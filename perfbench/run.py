"""groversim benchmark: drives the CLI end to end and reports per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the source tree under ../src. Every run
starts fresh processes with BLAS pinned to one thread:

- set-up probes: SETUP_PROBES processes that each import groversim.cli and
  build its parser (setup_s is their median, from spawn to "ready");
- one load process (child.py) that runs one warm-up pass of the workload's
  invocations through groversim.cli.main, then whole passes back to back,
  for S seconds in all. wall_s is the sum of each invocation's median time.

Every invocation is an operation. It fails on a non-zero exit code, when its
output files differ between passes or from an earlier run of the same source
tree, or when workloads.py's evaluator disagrees with them. The checks are
not timed. With --trace 1 the load process alternates untraced and traced
passes, and the run reports per-layer metrics instead of end-to-end ones.
--workload all runs every workload in turn and prints one row per workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record goes to
.perfbench/results/<workload>-seed<N>-trace<T>.json at the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

BLAS_THREADS = "1"
SETUP_PROBES = 5
PROBE = "import groversim.cli as c; c.build_parser(); print('ready', flush=True)"
MODULES = ("cli", "search", "kernels", "states", "analytics", "ansatz", "minimize")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
COUNTERS = (
    ("search.subsets", "count"),
    ("kernels.steps", "count"),
    ("kernels.bytes_computed", "B"),
    ("minimize.attempts", "count"),
    ("minimize.verified", "count"),
    ("minimize.oracle_calls", "count"),
    ("cli.bytes_written", "B"),
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["minimize.hit_ratio"] = "ratio"
    units["minimize.run_minimization.p50_ms"] = "ms"
    units["minimize.run_minimization.p90_ms"] = "ms"
    for module in MODULES:
        units[f"import.{module}.self_s"] = "s"
    units["import.numpy.cumulative_s"] = "s"
    units["import.groversim.cumulative_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_probe(env: dict[str, str], importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until the CLI parser is built."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", PROBE]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed:\n{err}")
    return elapsed, err


def import_times(stderr: str) -> dict[str, float]:
    """Per-module seconds from `python -X importtime`: self for groversim modules, cumulative for packages."""
    self_s, cumulative_s = {}, {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        self_s[name], cumulative_s[name] = int(parts[0]) * 1e-6, int(parts[1]) * 1e-6
    out = {f"import.{m}.self_s": self_s.get(f"groversim.{m}", 0.0) for m in MODULES}
    out["import.numpy.cumulative_s"] = cumulative_s.get("numpy", 0.0)
    out["import.groversim.cumulative_s"] = cumulative_s.get("groversim", 0.0)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "groversim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def count_failures(plan, result: dict, work_dir: Path, known: list | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over every pass, with what went wrong."""
    reference = result["warmup"]["digests"]
    problems = []
    if known is not None and known != reference:
        problems.append("output digests differ from an earlier run of this source tree")
    verdicts = []
    for invocation in plan.invocations:
        try:
            invocation.check(work_dir)
            verdicts.append(True)
        except Exception as exc:  # any error reading an output fails that operation
            problems.append(f"{invocation.argv[0]}: {type(exc).__name__}: {exc}")
            verdicts.append(False)
    attempted = failed = 0
    for record in [result["warmup"], *result["passes"]]:
        for i, code in enumerate(record["codes"]):
            attempted += 1
            same = record["digests"][i] == reference[i]
            failed += not (code == 0 and same and verdicts[i] and (known is None or known[i] == reference[i]))
            command = plan.invocations[i].argv[0]
            if code != 0:
                problems.append(f"{command} exited {code}")
            if not same:
                problems.append(f"{command}: output differs from the warm-up pass")
    return attempted, failed, list(dict.fromkeys(problems))


def pass_wall(result: dict, traced: bool) -> tuple[float, int]:
    """One pass's wall time: the sum over its invocations of each one's median time in the run.

    Other tenants of the host slow this machine for seconds at a time. A
    median per invocation leaves out a burst that hit only a few of its
    calls, where a whole pass time carries every burst inside it.
    """
    passes = [p["times"] for p in result["passes"] if p["traced"] == traced]
    return sum(statistics.median(times) for times in zip(*passes)), len(passes)


def end_to_end(plan, result: dict, setups: list[float]) -> dict:
    wall, passes = pass_wall(result, traced=False)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall, passes),
        "work_per_s": (plan.work / wall, passes),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def per_layer(result: dict, imports: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes, and whether their counts repeated exactly."""
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    first = traced[0]
    repeat = all(t["calls"] == first["calls"] and t["counts"] == first["counts"] for t in traced)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = first["calls"][name]
        out[f"{name}.self_s"] = statistics.median(t["self_s"][name] for t in traced)
    for counter, _ in COUNTERS:
        out[counter] = first["counts"].get(counter, 0)
    attempts = out["minimize.attempts"]
    out["minimize.hit_ratio"] = out["minimize.verified"] / attempts if attempts else 0.0
    ms = [x for t in traced for x in t["minimization_ms"]]
    cuts = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else [0.0] * 9
    out["minimize.run_minimization.p50_ms"] = cuts[4]
    out["minimize.run_minimization.p90_ms"] = cuts[8]
    for key in imports[0]:
        out[key] = statistics.median(i[key] for i in imports)
    out["trace_overhead_s"] = pass_wall(result, traced=True)[0] - pass_wall(result, traced=False)[0]
    return out, repeat


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    plan = WORKLOADS[name](seed)
    env = child_env()
    setups = [setup_probe(env, importtime=False)[0] for _ in range(SETUP_PROBES)]
    imports = [import_times(setup_probe(env, importtime=True)[1]) for _ in range(SETUP_PROBES if trace else 0)]

    work_dir = STATE_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        spec = {
            "invocations": [{"argv": inv.argv, "outputs": inv.outputs} for inv in plan.invocations],
            "seconds": seconds,
            "trace": trace,
            "result": str(work_dir / "result.json"),
        }
        (work_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(work_dir / "spec.json")],
                              cwd=work_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=seconds + 120)
        if proc.returncode != 0:
            raise RuntimeError(f"load process exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads((work_dir / "result.json").read_text(encoding="utf-8"))

        digest = source_digest()
        known_path = STATE_DIR / "digests.json"
        known_all = json.loads(known_path.read_text(encoding="utf-8")) if known_path.exists() else {}
        argv_digest = hashlib.sha256(json.dumps(spec["invocations"]).encode()).hexdigest()[:16]
        key = f"{name}/seed{seed}/{argv_digest}"
        known = known_all.get(digest, {}).get(key)
        attempted, failed, problems = count_failures(plan, result, work_dir, known)
        if known is None and failed == 0:
            known_all.setdefault(digest, {})[key] = result["warmup"]["digests"]
            known_path.write_text(json.dumps(known_all, indent=1, sort_keys=True), encoding="utf-8")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    layers, repeat = per_layer(result, imports) if trace else ({}, True)
    if not repeat:
        problems.append("per-layer counts differ between traced passes of one run")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work": {"per_pass": plan.work, "throughput": plan.throughput},
        "invocations": [inv.argv for inv in plan.invocations],
        "env": {
            **result["env"],
            "commit": git_commit(),
            "source_sha256": digest,
            "blas_threads_pinned": BLAS_THREADS,
        },
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end(plan, result, setups),
        "per_layer": layers,
        "output_sha256": result["warmup"]["digests"],
        "pass_wall_s": [[p["wall_s"], p["traced"]] for p in result["passes"]],
        "invocation_s": [p["times"] for p in result["passes"] if not p["traced"]],
        "setup_probe_s": setups,
    }
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    units = dict(END_TO_END)
    cells = []
    for metric, (value, samples) in record["end_to_end"].items():
        label = record["work"]["throughput"] if metric == "work_per_s" else metric
        cells.append(f"{label}={value:.6g} {units[metric]} (n={samples})")
    ratio = record["failed"] / record["attempted"]
    cells.append(f"fail_ratio={ratio:.6g} ({record['failed']}/{record['attempted']} operations)")
    print(f"{record['workload']:<15} " + "  ".join(cells))
    for metric, value in record["per_layer"].items():
        print(f"    {metric:<52} {value:<14.6g} {PER_LAYER[metric]}")
    for problem in record["problems"]:
        print(f"    problem: {problem}")


def metrics_of(record: dict, trace: bool) -> dict:
    if trace:
        return {m: {"value": v, "unit": PER_LAYER[m]} for m, v in record["per_layer"].items()}
    units = dict(END_TO_END)
    return {m: {"value": v, "unit": units[m]} for m, (v, _) in record["end_to_end"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "groversim" / "cli.py").is_file():
        print(f"error: no groversim source tree at {SRC}", file=sys.stderr)
        return 2
    for var in ("GROVERSIM_KERNELS", "GROVERSIM_THREADS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))  # the large-state check uses the subspace model

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    env = records[0]["env"]
    print("env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    for record in records:
        print_record(record)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in metrics_of(r, args.trace).items()}
    else:
        metrics = metrics_of(records[0], args.trace)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
