"""One benchmark run's load generator, started by run.py in a fresh process.

Usage: python3 child.py SPEC.json

The spec names the CLI invocations of one pass, the seconds to measure and
whether to trace. The child imports groversim.cli once, runs one warm-up
pass, then runs passes back to back (a closed loop with one client) for as
many whole passes as fit in the seconds (the warm-up pass included),
timing each cli.main call from outside the program. With tracing, passes
alternate untraced and traced so both see the same machine state. Output
digests are taken after each pass, outside the timed region. The result
goes to the JSON file the spec names.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def _call(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_pass(cli, invocations: list[dict], tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.install()
    codes, times = [], []
    for invocation in invocations:
        start = time.perf_counter()
        codes.append(_call(cli, invocation["argv"]))
        times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
    record = {
        "traced": tracer is not None,
        "wall_s": sum(times),
        "times": times,
        "codes": codes,
        "digests": [[_digest(Path(name)) for name in inv["outputs"]] for inv in invocations],
    }
    if tracer is not None:
        outputs = [Path(name) for inv in invocations for name in inv["outputs"]]
        record["layers"] = tracer.summary()
        record["layers"]["counts"]["cli.bytes_written"] = sum(p.stat().st_size for p in outputs if p.exists())
    return record


def _numpy_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead
        blas_name = blas_version = None
    return {"numpy": np.__version__, "blas": blas_name, "blas_version": blas_version}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import groversim.cli as cli

    invocations = spec["invocations"]
    tracer = Tracer() if spec["trace"] else None
    start = time.perf_counter()
    warmup = run_pass(cli, invocations, None)
    warm = time.perf_counter()
    passes = []
    for rounds in itertools.count(1):
        passes.append(run_pass(cli, invocations, None))
        if tracer is not None:
            passes.append(run_pass(cli, invocations, tracer))
        now = time.perf_counter()
        if now - start + (now - warm) / rounds > spec["seconds"]:  # another round would overrun
            break
    result = {
        "env": {
            "python": platform.python_version(),
            **_numpy_record(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
        },
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
