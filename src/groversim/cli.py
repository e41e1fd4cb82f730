"""Command-line front end: experiment runners and curve-data emitters.

Every command is deterministic given its flags (seeds included): rerun
with the same arguments, get byte-identical files. CSV files carry a
'# key=value' metadata prelude, then an RFC-4180 body with a header row
and floats at 17 significant digits. JSON files carry the same metadata
under "meta". Writes are atomic (temp file + rename).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import closed_form_average, coherence_fraction, optimal_average
from .ansatz import (
    LocalGateParams,
    optimal_success_vs_mixing,
    optimal_success_vs_phases,
    prepare_ansatz_state,
)
from .minimize import (
    GENERATOR_KINDS,
    ObjectiveTable,
    SearchSchedule,
    make_objective,
    run_minimization,
)
from .search import (
    ENUMERATION_CAP,
    EnumerationCapError,
    MarkedSet,
    average_trajectory_over_all_sets,
    run_search,
)
from .states import MAX_QUBITS, PureState, basis_state, equal_superposition

DEVIATION_THRESHOLD = 1e-10


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path: Path, meta: dict, header: list[str], rows) -> None:
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={_fmt(meta[key])}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_table(path: Path, fmt: str, meta: dict, header: list[str], rows) -> None:
    if fmt == "csv":
        _write_csv(path, meta, header, rows)
    else:
        _write_json(path, {"meta": meta, "columns": header, "rows": [list(r) for r in rows]})


def _meta(command: str, params: dict) -> dict:
    return {"tool": "groversim", "version": __version__, "command": command, **params}


def _parse_int_list(text: str, name: str, minimum: int = 0) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of ints, got {text!r}")
    if not values:
        raise ValueError(f"{name} must be non-empty")
    for v in values:
        if v < minimum:
            raise ValueError(f"{name} entries must be >= {minimum}, got {v}")
    return values


def _parse_grid(text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    return np.linspace(start, stop, count)


def _random_state(n: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return PureState(n, amps)


def _ansatz_params(args) -> LocalGateParams | None:
    """Ansatz parameters from --alpha/--beta/--theta, or None for the uniform state."""
    angles = (args.alpha, args.beta, args.theta)
    if all(a is None for a in angles):
        return None
    if args.uniform:
        raise ValueError("--uniform cannot be combined with --alpha/--beta/--theta")
    if any(a is None for a in angles):
        raise ValueError("--alpha, --beta, --theta must be given together")
    return LocalGateParams(*angles)


def _initial_state(args, n: int) -> tuple[PureState, dict]:
    """Build the prepared state from --alpha/--beta/--theta or --uniform."""
    params = _ansatz_params(args)
    if params is None:
        return equal_superposition(n), {"initial": "uniform"}
    return prepare_ansatz_state(n, params), {
        "initial": "ansatz",
        "alpha": params.alpha,
        "beta": params.beta,
        "theta": params.theta,
    }


def cmd_verify_average(args) -> int:
    """Sweep brute-force subset averages against the closed form."""
    ns = _parse_int_list(args.n, "--n", minimum=1)
    rs = _parse_int_list(args.r, "--r", minimum=1)
    for n in ns:
        if n > MAX_QUBITS:
            raise ValueError(f"--n entries must be <= {MAX_QUBITS}, got {n}")
    if args.tau < 0:
        raise ValueError(f"--tau must be >= 0, got {args.tau}")
    if args.states < 0:
        raise ValueError(f"--states must be >= 0, got {args.states}")

    cells = [(n, r) for n in ns for r in rs if r <= 2**n]

    def sweep_cell(cell: tuple[int, int]) -> list[tuple]:
        n, r = cell
        dim = 2**n
        rng = np.random.default_rng([args.seed, n, r])
        states = [("basis", basis_state(n)), ("uniform", equal_superposition(n))]
        states += [("random", _random_state(n, rng)) for _ in range(args.states)]
        rows = []
        for state_id, (kind, psi) in enumerate(states):
            fc = coherence_fraction(psi)
            brute = average_trajectory_over_all_sets(psi, r, args.tau, cap=args.cap)
            for tau in range(args.tau + 1):
                closed = closed_form_average(dim, r, tau, fc)
                rows.append(
                    (n, r, tau, state_id, kind, fc, float(brute[tau]), closed,
                     abs(float(brute[tau]) - closed))
                )
        return rows

    rows = [row for cell in cells for row in sweep_cell(cell)]
    max_dev = max((row[-1] for row in rows), default=0.0)

    meta = _meta(
        "verify-average",
        {
            "n": ns, "r": rs, "tau": args.tau, "states": args.states,
            "seed": args.seed, "cap": args.cap, "format": args.format,
            "max_deviation": max_dev, "threshold": DEVIATION_THRESHOLD,
        },
    )
    header = ["n", "r", "tau", "state_id", "state_kind", "fc", "brute", "closed", "deviation"]
    _write_table(Path(args.out), args.format, meta, header, rows)

    ok = max_dev <= DEVIATION_THRESHOLD
    print(
        f"verify-average: {len(rows)} rows, max deviation {max_dev:.3e} "
        f"(threshold {DEVIATION_THRESHOLD:.0e}) -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_optimal_curves(args) -> int:
    """Idealized optimal average success vs coherence fraction, per r."""
    if not 1 <= args.n <= MAX_QUBITS:
        raise ValueError(f"--n must lie in [1, {MAX_QUBITS}], got {args.n}")
    dim = 2**args.n
    rs = _parse_int_list(args.r, "--r", minimum=1)
    for r in rs:
        if r > dim:
            raise ValueError(f"--r entries must be <= {dim}, got {r}")
    fc_grid = _parse_grid(args.fc_grid)
    if fc_grid.min() < 0.0 or fc_grid.max() > 1.0:
        raise ValueError("--fc-grid must stay inside [0, 1]")

    rows = [
        (r, float(fc), optimal_average(dim, r, float(fc)))
        for r in rs
        for fc in fc_grid
    ]
    meta = _meta(
        "optimal-curves",
        {"n": args.n, "r": rs, "fc_grid": args.fc_grid, "format": args.format},
    )
    _write_table(Path(args.out), args.format, meta, ["r", "fc", "p_opt"], rows)
    print(f"optimal-curves: wrote {len(rows)} rows for N={dim}, r in {rs}")
    return 0


def cmd_ansatz_grid(args) -> int:
    """Two gridded slices of the ansatz optimum: phase plane and mixing angle."""
    if not 1 <= args.n <= MAX_QUBITS:
        raise ValueError(f"--n must lie in [1, {MAX_QUBITS}], got {args.n}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    mix_ns = _parse_int_list(args.mixing_n, "--mixing-n", minimum=1)

    phase_axis = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    phase_rows = [
        (args.n, float(a), float(b), optimal_success_vs_phases(args.n, float(a), float(b)))
        for a in phase_axis
        for b in phase_axis
    ]
    theta_axis = np.linspace(0.0, math.pi / 2.0, args.points)
    mixing_rows = [
        (n, float(t), optimal_success_vs_mixing(n, float(t)))
        for n in mix_ns
        for t in theta_axis
    ]

    suffix = "csv" if args.format == "csv" else "json"
    base = Path(args.out)
    phases_path = base.with_name(base.name + f"_phases.{suffix}")
    mixing_path = base.with_name(base.name + f"_mixing.{suffix}")
    common = {"points": args.points, "format": args.format}
    _write_table(
        phases_path, args.format,
        _meta("ansatz-grid", {**common, "block": "phases", "n": args.n}),
        ["n", "alpha", "beta", "p"], phase_rows,
    )
    _write_table(
        mixing_path, args.format,
        _meta("ansatz-grid", {**common, "block": "mixing", "n": mix_ns}),
        ["n", "theta", "p"], mixing_rows,
    )
    print(
        f"ansatz-grid: wrote {len(phase_rows)} phase rows to {phases_path.name}, "
        f"{len(mixing_rows)} mixing rows to {mixing_path.name}"
    )
    return 0


def cmd_run(args) -> int:
    """One search run with the success trace recorded every step."""
    if not 1 <= args.n <= MAX_QUBITS:
        raise ValueError(f"--n must lie in [1, {MAX_QUBITS}], got {args.n}")
    if args.tau < 0:
        raise ValueError(f"--tau must be >= 0, got {args.tau}")
    marked = MarkedSet(tuple(_parse_int_list(args.marked, "--marked", minimum=0)))
    marked.validate_for(2**args.n)
    state, state_meta = _initial_state(args, args.n)

    report = run_search(state, marked, args.tau)
    payload = {
        "meta": _meta("run", {"n": args.n, "tau": args.tau, "marked": list(marked.indices), **state_meta}),
        "initial_fc": coherence_fraction(state),
        "report": report.to_dict(),
    }
    if args.out:
        _write_json(Path(args.out), payload)
        print(f"run: final success {report.final_success:.6f} after tau={args.tau}; wrote {args.out}")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_minimize(args) -> int:
    """Threshold-descent minimization over seeds, with an aggregate summary."""
    if args.objective:
        table = ObjectiveTable.from_csv(args.objective)
        objective_meta = {"objective": str(args.objective)}
    else:
        if not 1 <= args.objective_n <= MAX_QUBITS:
            raise ValueError(f"--objective-n must lie in [1, {MAX_QUBITS}], got {args.objective_n}")
        table = make_objective(args.generator, args.objective_n, args.objective_seed)
        objective_meta = {
            "objective": f"generator:{args.generator}",
            "objective_n": args.objective_n,
            "objective_seed": args.objective_seed,
        }
    seeds = _parse_int_list(args.seeds, "--seeds", minimum=0)
    schedule = SearchSchedule(
        growth=args.growth,
        initial_reach=args.initial_reach,
        max_oracle_calls=args.budget,
    )
    init_params = _ansatz_params(args)

    reports = [run_minimization(table, init_params, schedule, seed) for seed in seeds]
    true_min = float(table.values.min())
    hits = [rep.result_value == true_min for rep in reports]
    rate = sum(hits) / len(reports)

    meta = _meta(
        "minimize",
        {
            **objective_meta,
            "n": table.n, "seeds": seeds, "growth": schedule.growth,
            "initial_reach": schedule.initial_reach, "budget": schedule.max_oracle_calls,
            "initial": "uniform" if init_params is None else "ansatz",
        },
    )
    payload = {
        "meta": meta,
        "true_minimum": true_min,
        "success_rate": rate,
        "reports": [rep.to_dict() for rep in reports],
    }
    base = Path(args.out)
    json_path = base.with_name(base.name + ".json")
    csv_path = base.with_name(base.name + "_summary.csv")
    _write_json(json_path, payload)

    rows = [
        (rep.seed, rep.result_index, rep.result_value, rep.oracle_calls_used,
         rep.converged, rep.stop_reason, hit)
        for rep, hit in zip(reports, hits)
    ]
    rows.append(("aggregate", "", "", sum(r.oracle_calls_used for r in reports), "", "", rate))
    _write_csv(
        csv_path, meta,
        ["seed", "result_index", "result_value", "oracle_calls_used",
         "converged", "stop_reason", "found_minimum"],
        rows,
    )
    print(
        f"minimize: {sum(hits)}/{len(reports)} seeds reached the minimum "
        f"({rate:.3f}); wrote {json_path.name}, {csv_path.name}"
    )
    return 0


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="ansatz phase alpha (radians)")
    sub.add_argument("--beta", type=float, default=None, help="ansatz phase beta (radians)")
    sub.add_argument("--theta", type=float, default=None, help="ansatz mixing angle in [0, pi/2]")
    sub.add_argument("--uniform", action="store_true", help="use the uniform initial state")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groversim",
        description="Grover search simulation and closed-form analytics for arbitrary initial states.",
    )
    parser.add_argument("--version", action="version", version=f"groversim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "verify-average",
        help="check the all-subsets brute-force average against the closed form",
    )
    p.add_argument("--n", default="1,2,3,4,5", help="comma-separated qubit counts")
    p.add_argument("--r", default="1,2,3", help="comma-separated marked-set sizes")
    p.add_argument("--tau", type=int, default=8, help="largest step count (sweeps 0..tau)")
    p.add_argument("--states", type=int, default=20, help="random initial states per cell")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed for the random states")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="subset enumeration cap")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify_average)

    p = subs.add_parser(
        "optimal-curves",
        help="idealized optimal average success vs coherence fraction",
    )
    p.add_argument("--n", type=int, default=5, help="qubit count (N = 2**n)")
    p.add_argument("--r", default="1,2,3,4,10", help="comma-separated marked-set sizes")
    p.add_argument("--fc-grid", default="0:1:101", help="coherence-fraction grid start:stop:count")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_optimal_curves)

    p = subs.add_parser(
        "ansatz-grid",
        help="gridded ansatz optimum: phase plane at theta=pi/4 and mixing-angle slice",
    )
    p.add_argument("--n", type=int, default=2, help="qubit count for the phase block")
    p.add_argument("--mixing-n", default="2,3,4", help="qubit counts for the mixing block")
    p.add_argument("--points", type=int, default=101, help="grid points per axis")
    p.add_argument("--out", required=True, help="output prefix; writes <out>_phases and <out>_mixing")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ansatz_grid)

    p = subs.add_parser("run", help="single search run with per-step success trace")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--marked", required=True, help="comma-separated marked indices")
    p.add_argument("--tau", type=int, required=True, help="number of Grover steps")
    _add_state_flags(p)
    p.add_argument("--out", default=None, help="output JSON file (stdout when omitted)")
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("minimize", help="threshold-descent minimization over seeds")
    p.add_argument("--objective", default=None, help="objective CSV file (index,value with header)")
    p.add_argument("--generator", choices=GENERATOR_KINDS, default="permutation",
                   help="built-in objective generator (ignored when --objective is given)")
    p.add_argument("--objective-n", type=int, default=6, help="generator qubit count")
    p.add_argument("--objective-seed", type=int, default=0, help="generator seed")
    p.add_argument("--seeds", default="0", help="comma-separated run seeds")
    p.add_argument("--budget", type=int, default=None, help="oracle-call budget (unlimited when omitted)")
    p.add_argument("--growth", type=float, default=6.0 / 5.0, help="reach growth factor in (1, 4/3]")
    p.add_argument("--initial-reach", type=float, default=1.0, help="starting reach (>= 1)")
    _add_state_flags(p)
    p.add_argument("--out", required=True, help="output prefix; writes <out>.json and <out>_summary.csv")
    p.set_defaults(func=cmd_minimize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
