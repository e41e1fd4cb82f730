"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of CLI invocations (one
"pass"), states how much logical work one pass does, and checks every
file the program wrote against an evaluator that does not share the
measured code path: closed forms and table minima recomputed here, and
the 4-D subspace model for the dense large-state trace. Each workload is dominated by a different layer, so a
change to one layer should move one workload and leave the others alone:

- verify-sweep:   the dense all-subsets kernel (kernels.average_trajectory);
- minimize-seeds: thousands of tiny calls (Born sampler, MarkedSet, evolve);
- large-state:    one 2**20-amplitude vector (kernels.success_trajectory,
                  ansatz.prepare_ansatz_state);
- curves:         the CLI's own formatting and CSV writing.
"""
from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEVIATION_LIMIT = 1e-10
CLOSED_FORM_ATOL = 1e-12

VERIFY_CALLS = (("7,8", "1,2"), ("6", "3"), ("5", "4"))
VERIFY_TAU = 8
VERIFY_RANDOM_STATES = 1
MINIMIZE_CALLS = 4  # invocations per start
MINIMIZE_RUNS = 20  # seeds per invocation
LARGE_N = 20
LARGE_TAU = 250
CURVES_MAX_N = 20
CURVES_FC_POINTS = 20001
CURVES_GRID_POINTS = 301


class CheckError(Exception):
    """An output file disagrees with the benchmark's own evaluator."""


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Plan:
    invocations: list[Invocation]
    work: int
    throughput: str  # what work_per_s means on this workload


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def closed_form_average(dim: int, r: int, tau: int, fc: float) -> float:
    s2 = math.sin(math.acos(1.0 - 2.0 * r / dim) * (tau + 0.5)) ** 2
    return ((dim * s2 - r) * fc + (r - s2)) / (dim - 1)


def _angles(rng: random.Random) -> list[str]:
    """--alpha/--beta/--theta near the uniform state, so f_c stays above 0.9 up to n=20.

    A narrow range keeps the cost of an ansatz-start minimize nearly the same
    for every seed, so seeds vary the inputs more than the amount of work.
    """
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    beta = alpha + rng.uniform(-0.1, 0.1)
    theta = rng.uniform(0.76, 0.81)
    return ["--alpha", repr(alpha), "--beta", repr(beta), "--theta", repr(theta)]


def verify_sweep(seed: int) -> Plan:
    invocations = []
    trajectories = 0
    for i, (ns, rs) in enumerate(VERIFY_CALLS):
        cells = [(int(n), int(r)) for n in ns.split(",") for r in rs.split(",")]
        trajectories += sum(math.comb(2**n, r) for n, r in cells) * (2 + VERIFY_RANDOM_STATES)
        out = f"verify{i}.csv"
        argv = ["verify-average", "--n", ns, "--r", rs, "--tau", str(VERIFY_TAU),
                "--states", str(VERIFY_RANDOM_STATES), "--seed", str(seed), "--out", out]
        invocations.append(Invocation(argv, [out], lambda d, out=out, cells=cells: _check_verify(d / out, cells)))
    return Plan(invocations, trajectories, "subsets_per_s")


def _check_verify(path: Path, cells: list[tuple[int, int]]) -> None:
    rows = _csv_rows(path)
    states = 2 + VERIFY_RANDOM_STATES
    _require(len(rows) == len(cells) * states * (VERIFY_TAU + 1),
             f"{path.name}: {len(rows)} rows for {len(cells)} cells")
    for row in rows:
        n, r, tau = int(row["n"]), int(row["r"]), int(row["tau"])
        dim = 2**n
        fc = float(row["fc"])
        if row["state_kind"] == "basis":
            _require(abs(fc - 1.0 / dim) <= CLOSED_FORM_ATOL, f"{path.name}: basis f_c {fc}")
        elif row["state_kind"] == "uniform":
            _require(abs(fc - 1.0) <= CLOSED_FORM_ATOL, f"{path.name}: uniform f_c {fc}")
        deviation = abs(float(row["brute"]) - closed_form_average(dim, r, tau, fc))
        _require(float(row["deviation"]) <= DEVIATION_LIMIT and deviation <= DEVIATION_LIMIT,
                 f"{path.name}: n={n} r={r} tau={tau} deviates by {deviation:.3e}")


def minimize_seeds(seed: int) -> Plan:
    rng = random.Random(seed)
    starts = (("14", ["--uniform"]), ("12", _angles(rng)))
    invocations = []
    for n, start in starts:
        for call in range(MINIMIZE_CALLS):
            out = f"minimize_n{n}_{call}"
            runs = [str(s) for s in rng.sample(range(2**31), MINIMIZE_RUNS)]
            argv = ["minimize", "--generator", "uniform", "--objective-n", n,
                    "--objective-seed", str(seed), "--seeds", ",".join(runs), *start, "--out", out]
            invocations.append(Invocation(
                argv, [out + ".json", out + "_summary.csv"],
                lambda d, out=out, n=int(n): _check_minimize(d / (out + ".json"), n, seed),
            ))
    return Plan(invocations, MINIMIZE_RUNS * len(invocations), "runs_per_s")


def _check_minimize(path: Path, n: int, objective_seed: int) -> None:
    dim = 2**n
    minimum = float(np.random.default_rng([objective_seed, dim]).uniform(0.0, 1.0, size=dim).min())
    payload = json.loads(path.read_text(encoding="utf-8"))
    _require(payload["true_minimum"] == minimum, f"{path.name}: true_minimum {payload['true_minimum']}")
    _require(len(payload["reports"]) == MINIMIZE_RUNS, f"{path.name}: {len(payload['reports'])} reports")
    for report in payload["reports"]:
        if report["converged"]:
            _require(report["result_value"] == minimum,
                     f"{path.name}: seed {report['seed']} converged to {report['result_value']}")


def large_state(seed: int) -> Plan:
    rng = random.Random(seed)
    marked = sorted(rng.sample(range(2**LARGE_N), 3))
    invocations = []
    for label, start in (("uniform", ["--uniform"]), ("ansatz", _angles(rng))):
        out = f"large_{label}.json"
        argv = ["run", "--n", str(LARGE_N), "--marked", ",".join(map(str, marked)),
                "--tau", str(LARGE_TAU), *start, "--out", out]
        invocations.append(Invocation(argv, [out], lambda d, out=out: _check_large(d / out)))
    return Plan(invocations, LARGE_TAU * len(invocations), "steps_per_s")


def _check_large(path: Path) -> None:
    # The 4-D invariant-subspace model evaluates the same trace without the dense vector.
    from groversim.search import MarkedSet, SearchConfig, evolve_subspace, subspace_decompose
    from groversim.states import PureState

    payload = json.loads(path.read_text(encoding="utf-8"))
    meta, trace = payload["meta"], payload["report"]["per_iteration_success"]
    n, tau = meta["n"], meta["tau"]
    if meta["initial"] == "uniform":
        amps = np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128)
    else:
        qubit = [cmath.exp(1j * meta["alpha"]) * math.cos(meta["theta"]),
                 cmath.exp(1j * meta["beta"]) * math.sin(meta["theta"])]
        amps = np.ones(1, dtype=np.complex128)
        for _ in range(n):
            amps = np.kron(amps, qubit)
    marked = MarkedSet(tuple(meta["marked"]))
    coords = subspace_decompose(PureState(n, amps), marked)
    _require(len(trace) == tau + 1, f"{path.name}: {len(trace)} trace entries for tau={tau}")
    for t, dense in enumerate(trace):
        model = evolve_subspace(coords, SearchConfig(n, marked.r, t)).success_mass()
        _require(abs(dense - model) <= DEVIATION_LIMIT,
                 f"{path.name}: step {t} dense {dense} vs subspace {model}")


def curves(seed: int) -> Plan:
    rng = random.Random(seed)
    n = rng.randint(8, CURVES_MAX_N)
    rs = sorted(rng.sample(range(1, 65), 5))
    phase_n = rng.randint(2, 12)
    mixing_ns = sorted(rng.sample(range(1, 17), 3))
    fc_argv = ["optimal-curves", "--n", str(n), "--r", ",".join(map(str, rs)),
               "--fc-grid", f"0:1:{CURVES_FC_POINTS}", "--out", "curves_fc.csv"]
    grid_argv = ["ansatz-grid", "--n", str(phase_n), "--mixing-n", ",".join(map(str, mixing_ns)),
                 "--points", str(CURVES_GRID_POINTS), "--out", "curves_ansatz"]
    invocations = [
        Invocation(fc_argv, ["curves_fc.csv"], lambda d: _check_optimal(d / "curves_fc.csv", n, rs)),
        Invocation(grid_argv, ["curves_ansatz_phases.csv", "curves_ansatz_mixing.csv"],
                   lambda d: _check_ansatz(d, phase_n, mixing_ns)),
    ]
    rows = len(rs) * CURVES_FC_POINTS + CURVES_GRID_POINTS**2 + len(mixing_ns) * CURVES_GRID_POINTS
    return Plan(invocations, rows, "rows_per_s")


def _check_rows(path: Path, expected_rows: int, value: Callable[[dict], float], column: str) -> None:
    rows = _csv_rows(path)
    _require(len(rows) == expected_rows, f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        got, want = float(row[column]), value(row)
        _require(abs(got - want) <= CLOSED_FORM_ATOL, f"{path.name}: {row} vs {want}")


def _check_optimal(path: Path, n: int, rs: list[int]) -> None:
    dim = 2**n
    _check_rows(path, len(rs) * CURVES_FC_POINTS,
                lambda row: ((dim - int(row["r"])) * float(row["fc"]) + int(row["r"]) - 1) / (dim - 1),
                "p_opt")


def _check_ansatz(directory: Path, phase_n: int, mixing_ns: list[int]) -> None:
    def phases(row):
        total = cmath.exp(1j * float(row["alpha"])) + cmath.exp(1j * float(row["beta"]))
        return abs(total**phase_n) ** 2 / 4**phase_n

    def mixing(row):
        theta, n = float(row["theta"]), int(row["n"])
        return (math.cos(theta) + math.sin(theta)) ** (2 * n) / 2**n

    _check_rows(directory / "curves_ansatz_phases.csv", CURVES_GRID_POINTS**2, phases, "p")
    _check_rows(directory / "curves_ansatz_mixing.csv", len(mixing_ns) * CURVES_GRID_POINTS, mixing, "p")


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "minimize-seeds": minimize_seeds,
    "large-state": large_state,
    "curves": curves,
}
