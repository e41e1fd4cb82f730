import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groversim
from groversim import (
    basis_state,
    cli,
    coherence_fraction,
    equal_superposition,
    kernels,
    optimal_average,
    optimal_success_vs_mixing,
    optimal_success_vs_phases,
)
from groversim.cli import build_parser, main
from groversim.states import NORM_ATOL
from conftest import random_state


def read_csv(path):
    meta, rows = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\r\n").partition("=")
                meta[key] = value
            else:
                rows.append(next(csv.reader([line])))
    header, data = rows[0], rows[1:]
    return meta, header, data


def test_verify_small_grid_passes(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(["verify-average", "--n", "1,2", "--r", "1,2", "--tau", "2",
                 "--states", "2", "--out", str(out)])
    assert code == 0
    meta, header, data = read_csv(out)
    assert float(meta["max_deviation"]) <= 1e-10
    assert header[:3] == ["n", "r", "tau"]
    # 2 cells at n=1 (r=1,2) + 2 cells at n=2, each 4 states x 3 taus
    assert len(data) == 4 * 4 * 3


def test_verify_contains_the_hand_checked_row(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify-average", "--n", "2", "--r", "1", "--tau", "1",
                 "--states", "0", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    at = {name: header.index(name) for name in header}
    row = next(
        r for r in data
        if r[at["tau"]] == "1" and r[at["state_kind"]] == "basis"
    )
    assert float(row[at["brute"]]) == pytest.approx(0.25, abs=1e-12)
    assert float(row[at["closed"]]) == pytest.approx(0.25, abs=1e-12)


def test_verify_rejects_r_zero(tmp_path, capsys):
    code = main(["verify-average", "--r", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_reports_cap_excess(tmp_path, capsys):
    code = main(["verify-average", "--n", "5", "--r", "3", "--tau", "1",
                 "--states", "1", "--cap", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_verify_json_format(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify-average", "--n", "1", "--r", "1", "--tau", "1",
                 "--states", "1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "verify-average"
    assert payload["columns"][0] == "n"
    assert len(payload["rows"]) == 3 * 2


def test_optimal_curves_endpoints(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["optimal-curves", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert header == ["r", "fc", "p_opt"]
    by_r = {}
    for r_str, fc_str, p_str in data:
        by_r.setdefault(int(r_str), []).append((float(fc_str), float(p_str)))
    assert set(by_r) == {1, 2, 3, 4, 10}
    for r, points in by_r.items():
        assert len(points) == 101
        assert points[0] == (0.0, pytest.approx((r - 1) / 31, abs=1e-15))
        assert points[-1] == (1.0, pytest.approx(1.0, abs=1e-15))


def test_optimal_curves_rejects_bad_grid(tmp_path, capsys):
    assert main(["optimal-curves", "--fc-grid", "0:2:11", "--out", str(tmp_path / "c.csv")]) == 2
    assert "fc-grid" in capsys.readouterr().err


def test_ansatz_grid_anchors(tmp_path):
    assert main(["ansatz-grid", "--points", "11", "--out", str(tmp_path / "grid")]) == 0
    _, pheader, pdata = read_csv(tmp_path / "grid_phases.csv")
    assert pheader == ["n", "alpha", "beta", "p"]
    assert len(pdata) == 121
    first = pdata[0]
    assert (float(first[1]), float(first[2])) == (0.0, 0.0)
    assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    _, mheader, mdata = read_csv(tmp_path / "grid_mixing.csv")
    assert mheader == ["n", "theta", "p"]
    for n_str, theta_str, p_str in mdata:
        n, theta, p = int(n_str), float(theta_str), float(p_str)
        if theta == 0.0:
            assert p == pytest.approx(2.0**-n, abs=1e-14)
        if abs(theta - math.pi / 4) < 1e-12:
            assert p == pytest.approx(1.0, abs=1e-12)


def test_run_standard_grover_case(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--n", "2", "--marked", "2", "--tau", "1",
                 "--uniform", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final_success"] == pytest.approx(1.0, abs=1e-12)
    assert payload["report"]["per_iteration_success"][0] == pytest.approx(0.25, abs=1e-12)
    assert payload["initial_fc"] == pytest.approx(1.0, abs=1e-12)


def test_run_zero_steps_reports_initial_mass(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--n", "2", "--marked", "1,3", "--tau", "0",
                 "--alpha", "0", "--beta", "0", "--theta", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final_success"] == pytest.approx(0.0, abs=1e-14)


def test_run_rejects_out_of_range_marked(tmp_path, capsys):
    assert main(["run", "--n", "2", "--marked", "4", "--tau", "1", "--uniform",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_run_rejects_partial_ansatz_flags(tmp_path, capsys):
    assert main(["run", "--n", "2", "--marked", "1", "--tau", "1",
                 "--alpha", "0.5", "--out", str(tmp_path / "r.json")]) == 2
    assert "together" in capsys.readouterr().err


def test_run_streams_its_trace(tmp_path, capsys):
    # encoded as one string, the trace peaked at about 150 B per step traced; in pieces, at about 50
    import tracemalloc

    tau = 50_000
    argv = ["run", "--n", "1", "--marked", "0", "--tau", str(tau)]
    out = tmp_path / "run.json"
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * tau
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def _run_peak(tau: int, out: Path) -> int:
    """tracemalloc's peak over one `run` to a file at n = 1 with tau steps.

    The cycle collector is off meanwhile: left on, it frees cyclic garbage
    at a point that moves with tau.
    """
    import gc
    import tracemalloc

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert main(["run", "--n", "1", "--marked", "0", "--tau", str(tau), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_run_memory_does_not_grow_with_its_trace(tmp_path, capsys):
    out = tmp_path / "run.json"
    _run_peak(10, out)  # first-use allocations
    small = _run_peak(1_000, out)
    assert _run_peak(200_000, out) < small + 8 * 1024


def test_run_trace_stays_exact_over_a_million_steps(tmp_path, capsys):
    # N = 2, r = 1 from the uniform state: the success mass is 1/2 at every step
    out = tmp_path / "run.json"
    assert main(["run", "--n", "1", "--marked", "0", "--tau", "1000000", "--out", str(out)]) == 0
    trace = np.array(json.loads(out.read_text())["report"]["per_iteration_success"])
    assert trace.shape == (1_000_001,)
    assert np.abs(trace - 0.5).max() <= 2.3e-16


def test_mini_json_is_one_dumps_of_a_non_ascii_objective_name(tmp_path):
    obj = tmp_path / "naïve ψ \"q\".csv"
    obj.write_text("index,value\n0,4\n1,9\n2,-2\n3,6\n")
    assert main(["minimize", "--objective", str(obj), "--seeds", "0,1,2", "--out", str(tmp_path / "mini")]) == 0
    text = (tmp_path / "mini.json").read_bytes().decode("ascii")
    payload = json.loads(text)
    assert payload["meta"]["objective"] == str(obj) and len(payload["reports"]) == 3
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_mini_json_is_written_report_by_report(tmp_path, monkeypatch):
    written = {}
    atomic_write = cli._atomic_write

    def recording(path, chunks):
        pieces = written[path.name] = []
        atomic_write(path, (pieces.append(chunk) or chunk for chunk in chunks))

    monkeypatch.setattr(cli, "_atomic_write", recording)
    seeds = ",".join(map(str, range(50)))
    assert main(["minimize", "--objective-n", "6", "--seeds", seeds, "--out", str(tmp_path / "mini")]) == 0
    text = (tmp_path / "mini.json").read_text()
    assert "".join(written["mini.json"]) == text
    _, *body, _ = written["mini.json"]
    reports = json.loads(text)["reports"]
    longest = max(len(json.dumps(rep, sort_keys=True, indent=2).replace("\n", "\n    ")) for rep in reports)
    assert len(body) == len(reports) == 50
    assert max(map(len, body)) <= longest + len(",\n    ")


_REPORTS = st.builds(
    groversim.MinimizationReport,
    result_index=st.integers(0, 2**20),
    result_value=st.one_of(st.sampled_from([-0.0, 0.0]), st.floats()),
    threshold_history=st.one_of(
        st.tuples(st.tuples(st.integers(0, 2**20), st.floats())),
        st.lists(st.tuples(st.integers(0, 2**20), st.floats()), min_size=1, max_size=60).map(tuple),
    ),
    oracle_calls_used=st.integers(0, 2**40),
    converged=st.booleans(),
    stop_reason=st.one_of(st.sampled_from(["empty_marked_set", "budget_exhausted"]), st.text()),
    seed=st.one_of(st.integers(0, 2**31), st.integers(0, 2**256)),
)


@given(_REPORTS)
def test_a_mini_json_report_is_spelled_as_the_encoder_spells_it(rep):
    assert cli._report_text(rep) == cli._JSON.encode(rep.to_dict()).replace("\n", "\n    ")


def test_minimize_constant_objective(tmp_path):
    assert main(["minimize", "--generator", "constant", "--objective-n", "3",
                 "--seeds", "0,1", "--out", str(tmp_path / "mini")]) == 0
    payload = json.loads((tmp_path / "mini.json").read_text())
    assert payload["success_rate"] == 1.0
    for rep in payload["reports"]:
        assert rep["stop_reason"] == "empty_marked_set"
        assert rep["converged"] is True


def test_minimize_summary_has_aggregate_row(tmp_path):
    assert main(["minimize", "--objective-n", "4", "--seeds", "0,1,2",
                 "--out", str(tmp_path / "mini")]) == 0
    _, header, data = read_csv(tmp_path / "mini_summary.csv")
    assert header[0] == "seed"
    assert len(data) == 4
    assert data[-1][0] == "aggregate"
    rate = float(data[-1][header.index("found_minimum")])
    assert 0.0 <= rate <= 1.0


@pytest.mark.parametrize("start", [["--uniform"], ["--alpha", "0.3", "--beta", "1.1", "--theta", "0.6"]],
                         ids=["uniform", "ansatz"])
def test_minimize_seeds_share_a_start_but_no_state(tmp_path, start):
    def reports(seeds: str) -> list:
        out = tmp_path / f"mini_{seeds}"
        assert main(["minimize", "--generator", "uniform", "--objective-n", "7", "--seeds", seeds,
                     *start, "--out", str(out)]) == 0
        return json.loads(out.with_name(out.name + ".json").read_text())["reports"]

    assert reports("1,2,3") == reports("1") + reports("2") + reports("3")


def test_minimize_reruns_from_the_meta_it_writes(tmp_path):
    # the ansatz angles are in the meta, so the file alone says how to run it again
    start = ["--alpha", "0.3", "--beta", "1.1", "--theta", "0.6"]
    assert main(["minimize", "--objective-n", "6", "--seeds", "0,1,2,3", "--budget", "60", *start,
                 "--out", str(tmp_path / "first")]) == 0
    first = json.loads((tmp_path / "first.json").read_text())
    meta = first["meta"]
    assert [meta[key] for key in ("initial", "alpha", "beta", "theta")] == ["ansatz", 0.3, 1.1, 0.6]
    argv = ["minimize", "--generator", meta["objective"].removeprefix("generator:")]
    for key, value in meta.items():
        if key not in {"tool", "version", "command", "objective", "initial", "n"}:
            text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
            argv += [f"--{key.replace('_', '-')}", text]
    assert main(argv + ["--out", str(tmp_path / "again")]) == 0
    assert json.loads((tmp_path / "again.json").read_text()) == first


def test_minimize_reads_objective_files(tmp_path):
    obj = tmp_path / "obj.csv"
    obj.write_text("index,value\n0,4\n1,9\n2,-2\n3,6\n")
    assert main(["minimize", "--objective", str(obj), "--seeds", "0",
                 "--out", str(tmp_path / "mini")]) == 0
    payload = json.loads((tmp_path / "mini.json").read_text())
    assert payload["true_minimum"] == -2.0
    assert payload["reports"][0]["result_index"] == 2


def test_minimize_rejects_missing_objective_file(tmp_path, capsys):
    assert main(["minimize", "--objective", str(tmp_path / "nope.csv"),
                 "--seeds", "0", "--out", str(tmp_path / "mini")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("body, says", [
    ("0,4\n1\n", "line 3 is not 'index,value'"),
    ("0,4\n1,nan\n", "finite"),
    ("0,4\n1,x\n", "line 3 is not 'index,value'"),
    ("0,4\n1," + "9" * 200_000 + "\n", "line 3 is not 'index,value'"),
    ("0,4\n0,9\n", "cover 0..1"),
    ("0,4\n2,9\n", "cover 0..1"),
    (None, "No such file"),
])
def test_bad_objective_files_name_the_flag(tmp_path, monkeypatch, capsys, body, says):
    monkeypatch.chdir(tmp_path)
    if body is not None:
        Path("obj.csv").write_text("index,value\n" + body)
    assert main(["minimize", "--objective", "obj.csv", "--seeds", "0", "--out", "out/mini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --objective ") and says in err
    assert not Path("out").exists()


@pytest.mark.parametrize("command", [
    ["run", "--n", "4", "--marked", "1", "--tau", "1"],
    ["minimize", "--objective-n", "4", "--seeds", "0"],
])
def test_uniform_conflicts_with_ansatz_angles(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(command + ["--uniform", "--alpha", "0.1", "--beta", "0.2",
                           "--theta", "0.7", "--out", str(out)]) == 2
    assert "--uniform cannot be combined with --alpha/--beta/--theta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("objective_n", ["-1", "21"])
def test_minimize_rejects_out_of_range_objective_n(tmp_path, capsys, objective_n):
    assert main(["minimize", "--objective-n", objective_n, "--seeds", "0",
                 "--out", str(tmp_path / "mini")]) == 2
    assert "--objective-n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


RUN_ANSATZ = ["run", "--n", "2", "--marked", "1", "--tau", "1", "--alpha", "0"]


@pytest.mark.parametrize("beta", ["-1e-3", "-1E+2", "-.5e1", "-2.e-1"])
def test_a_negative_value_in_exponent_notation_is_a_value(tmp_path, beta):
    assert main(RUN_ANSATZ + ["--beta", beta, "--theta", "0.5", "--out", str(tmp_path / "spaced.json")]) == 0
    assert main(RUN_ANSATZ + [f"--beta={beta}", "--theta", "0.5", "--out", str(tmp_path / "joined.json")]) == 0
    assert (tmp_path / "spaced.json").read_bytes() == (tmp_path / "joined.json").read_bytes()
    assert json.loads((tmp_path / "spaced.json").read_text())["meta"]["beta"] == float(beta)


@pytest.mark.parametrize("command, says", [
    (RUN_ANSATZ + ["--beta", "0", "--theta", "-1e-3"], "--theta mixing angle must lie in [0, pi/2], got -0.001"),
    (["minimize", "--objective-n", "3", "--growth", "-1e-3"],
     "--growth growth factor must lie in (1, 4/3], got -0.001"),
])
def test_a_negative_exponent_value_gets_its_range_message(tmp_path, capsys, command, says):
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", [
    (["minimize", "--objective-n", "3", "--budget", "0"], "--budget"),
    (["minimize", "--objective-n", "3", "--growth", "2"], "--growth"),
    (["minimize", "--objective-n", "3", "--initial-reach", "0.5"], "--initial-reach"),
    (["minimize", "--objective-n", "3", "--alpha", "0", "--beta", "0", "--theta", "3"], "--theta"),
    (["run", "--n", "3", "--marked", "1", "--tau", "1",
      "--alpha", "0", "--beta", "0", "--theta", "3"], "--theta"),
    (["verify-average", "--n", "2", "--r", "1", "--cap", "-1"], "--cap"),
    (["verify-average", "--n", "2", "--r", "1", "--seed", "-1"], "--seed"),
    (["minimize", "--objective-n", "3", "--objective-seed", "-5"], "--objective-seed"),
    (["optimal-curves", "--fc-grid", "0:1:x"], "--fc-grid"),
    (["optimal-curves", "--fc-grid", "a:1:3"], "--fc-grid"),
    (["run", "--n", "3", "--marked", "1,1", "--tau", "1", "--uniform"], "--marked"),
    (["run", "--n", "3", "--marked", "8", "--tau", "1", "--uniform"], "--marked"),
    (["ansatz-grid", "--mixing-n", "2000"], "--mixing-n"),
    (["run", "--n", "3", "--marked", "1", "--tau", "2",
      "--alpha", "nan", "--beta", "0", "--theta", "0.5"], "--alpha"),
    (["run", "--n", "3", "--marked", "1", "--tau", "2",
      "--alpha", "0", "--beta", "inf", "--theta", "0.5"], "--beta"),
    (["run", "--n", "21", "--marked", "1", "--tau", "1", "--uniform"], "--n"),
    (["run", "--n", "3", "--marked", "1", "--tau", "-1", "--uniform"], "--tau"),
    (["minimize", "--objective-n", "3", "--initial-reach", "inf"], "--initial-reach"),
    (["optimal-curves", "--n", "3", "--r", "9"], "--r"),
    (["optimal-curves", "--r", ","], "--r"),
    (["optimal-curves", "--fc-grid", "0:1:1"], "--fc-grid"),
    # subset ranks are int64, so no cap above 2**63 - 1 can be honoured
    (["verify-average", "--n", "2", "--r", "1", "--cap", str(2**63)], "--cap"),
])
def test_bad_values_name_their_flag(tmp_path, capsys, command, flag):
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the functions that do each command's work, stubbed where no work may be done; minimize checks --out
# once its objective is loaded, as its angle flags are checked against the objective's qubit count
WORK = ("average_trajectories", "optimal_average", "_phase_plane_rows", "optimal_success_vs_mixing",
        "search_trace", "_minimizations")
VERIFY = ["verify-average", "--n", "1", "--r", "1", "--tau", "2", "--states", "1"]
RUN = ["run", "--n", "1", "--marked", "0", "--tau", "1"]


@pytest.mark.parametrize("command, out, says", [
    (VERIFY, "", "must name a file, got ''"),
    (["optimal-curves"], "", "must name a file, got ''"),
    (["ansatz-grid"], "", "must name a file, got ''"),
    (["minimize"], "", "must name a file, got ''"),
    (RUN, "/", "must name a file, got '/'"),
    (VERIFY, "d", "'d' is a directory"),
    (["optimal-curves"], "d", "'d' is a directory"),
    (RUN, "d", "'d' is a directory"),
    (["ansatz-grid"], "d/..", "must name a file, got 'd/..'"),
    (["minimize"], "d/..", "must name a file, got 'd/..'"),
    (["ansatz-grid"], "g", "'g_phases.csv' is a directory"),
    (["minimize"], "mini", "'mini.json' is a directory"),
    # the parent is a file: once every command did all its work before this failed, naming no flag
    (VERIFY, "f/x", "'f' is not a directory"),
    (["optimal-curves"], "f/x", "'f' is not a directory"),
    (["ansatz-grid"], "f/g", "'f' is not a directory"),
    (RUN, "f/x", "'f' is not a directory"),
    (["minimize"], "f/mini", "'f' is not a directory"),
    # a file further up: mkdir names the directory it was asked to make, not the file in its way
    (RUN, "f/a/b/x", "'f' is not a directory"),
    (["ansatz-grid"], "f/a/g", "'f' is not a directory"),
])
def test_bad_out_names_the_flag(tmp_path, monkeypatch, capsys, command, out, says):
    # refused before any work: a command once did all its work, then failed to write with a message naming no flag
    ran = []
    for name in WORK:
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: ran.append(name))
    monkeypatch.chdir(tmp_path)
    for directory in ("d", "g_phases.csv", "mini.json"):
        Path(directory).mkdir()
    Path("f").write_text("")
    tree = sorted(tmp_path.rglob("*"))
    assert main(command + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out {says}\n"
    assert ran == [] and sorted(tmp_path.rglob("*")) == tree


def test_run_with_an_empty_out_prints_its_report(capsys):
    argv = ["run", "--n", "1", "--marked", "0", "--tau", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", ""]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("command", [
    [],
    ["frobnicate"],
    ["run", "--n", "3", "--tau", "1", "--out", "{out}"],
    ["run", "--n", "3", "--marked", "1", "--tau", "1", "--bogus", "1", "--out", "{out}"],
    ["verify-average", "--n", "2"],
])
def test_usage_errors_return_2(tmp_path, capsys, command):
    assert main([arg.replace("{out}", str(tmp_path / "out")) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "usage:" not in captured.err + captured.out
    assert list(tmp_path.iterdir()) == []


# Valid values for the flags a command requires, so the flag under test is the only bad one.
REQUIRED = {"run": ["--n", "3", "--marked", "1", "--tau", "1"]}


def _typed_actions():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type not in (None, str)
    ]


# "x" is a good output path, so --out is left to test_bad_out_names_the_flag
@pytest.mark.parametrize("command, flag", [(c, a.option_strings[0]) for c, a in _typed_actions() if a.dest != "out"])
def test_every_typed_flag_rejects_a_non_number(tmp_path, capsys, command, flag):
    argv = [command, *REQUIRED.get(command, []), flag, "x", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_no_flag_takes_an_unchecked_number():
    # A bare int or float type accepts any number, so its flag's range would go unchecked.
    assert [(c, a.option_strings[0]) for c, a in _typed_actions() if a.type in (int, float)] == []


def _run_module(args, cwd, env=None):
    """Run `python -m groversim.cli` on the imported copy of the package, in env (else this one)."""
    env = dict(os.environ if env is None else env)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(groversim.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    return subprocess.run([sys.executable, "-m", "groversim.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_process_exit_codes(tmp_path):
    proc = _run_module(["minimize", "--objective-n", "3", "--budget", "0", "--out", "X"], tmp_path)
    assert proc.returncode == 2
    assert "error: --budget " in proc.stderr
    assert list(tmp_path.iterdir()) == []
    proc = _run_module(["--version"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"groversim {groversim.__version__}"


def test_run_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    # an ansatz start once went through numpy's complex multiply, whose rounding varies by SIMD target
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    probe = ("from numpy._core._multiarray_umath import __cpu_dispatch__ as d, __cpu_features__ as f; "
             "print(' '.join(t for t in d if f.get(t)))")
    targets = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                             check=True).stdout.strip()
    for n in (5, 20):
        argv = ["run", "--n", str(n), "--marked", "1", "--tau", "20",
                "--alpha", "0.3", "--beta", "1.1", "--theta", "0.6"]
        default = _run_module(argv, tmp_path, env)
        baseline = _run_module(argv, tmp_path, {**env, "NPY_DISABLE_CPU_FEATURES": targets})
        assert default.returncode == baseline.returncode == 0, default.stderr + baseline.stderr
        assert default.stdout == baseline.stdout


def test_verify_without_a_valid_cell_is_a_usage_error(tmp_path, capsys):
    assert main(["verify-average", "--n", "3", "--r", "9", "--out", str(tmp_path / "v.csv")]) == 2
    assert "--r" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_skips_cells_with_r_above_the_dimension(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify-average", "--n", "1,2", "--r", "3", "--tau", "0",
                 "--states", "0", "--out", str(out)]) == 0
    _, _, data = read_csv(out)
    assert {(row[0], row[1]) for row in data} == {("2", "3")}


def test_outputs_are_byte_identical_on_rerun(tmp_path):
    args = ["minimize", "--objective-n", "3", "--seeds", "0,1,2,3", "--out", str(tmp_path / "a")]
    assert main(args) == 0
    first = ((tmp_path / "a.json").read_bytes(), (tmp_path / "a_summary.csv").read_bytes())
    assert main(args) == 0
    second = ((tmp_path / "a.json").read_bytes(), (tmp_path / "a_summary.csv").read_bytes())
    assert first == second


def test_csv_numbers_round_trip(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["optimal-curves", "--fc-grid", "0:1:7", "--r", "3", "--out", str(out)]) == 0
    _, _, data = read_csv(out)
    for _, fc_str, p_str in data:
        assert float(p_str) == optimal_average(32, 3, float(fc_str))


fractions = st.floats(0.0, 1.0, allow_nan=False)


@given(n=st.integers(1, 20), data=st.data(), start=fractions, stop=fractions, count=st.integers(2, 40))
def test_curves_equal_the_pointwise_closed_form_bit_for_bit(n, data, start, stop, count):
    # The grid may run downward (start > stop) or collapse to one value.
    rs = data.draw(st.lists(st.integers(1, 2**n), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "c.csv"
        assert main(["optimal-curves", "--n", str(n), "--r", ",".join(map(str, rs)),
                     "--fc-grid", f"{start!r}:{stop!r}:{count}", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
    assert [int(r) for r, _, _ in rows] == [r for r in rs for _ in range(count)]
    for r, fc, p in rows:
        assert float(p) == optimal_average(2**n, int(r), float(fc))


@given(n=st.integers(1, 20), mixing_n=st.lists(st.integers(1, 20), min_size=1, max_size=3),
       points=st.integers(2, 24))
def test_ansatz_grid_equals_the_pointwise_slices_bit_for_bit(n, mixing_n, points):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid"
        assert main(["ansatz-grid", "--n", str(n), "--mixing-n", ",".join(map(str, mixing_n)),
                     "--points", str(points), "--out", str(out)]) == 0
        _, _, phase_rows = read_csv(Path(tmp) / "grid_phases.csv")
        _, _, mixing_rows = read_csv(Path(tmp) / "grid_mixing.csv")
    assert len(phase_rows) == points**2
    for m, alpha, beta, p in phase_rows:
        assert float(p) == optimal_success_vs_phases(int(m), float(alpha), float(beta))
    assert [int(m) for m, _, _ in mixing_rows] == [m for m in mixing_n for _ in range(points)]
    for m, theta, p in mixing_rows:
        assert float(p) == optimal_success_vs_mixing(int(m), float(theta))


@pytest.mark.parametrize("command, flag", [
    (["ansatz-grid", "--points", "100000"], "--points"),
    (["ansatz-grid", "--points", "3163"], "--points"),
    (["optimal-curves", "--fc-grid", "0:1:1000000000"], "--fc-grid"),
    (["optimal-curves", "--fc-grid", "0:1:10000001"], "--fc-grid"),
    (["run", "--n", "3", "--marked", "1", "--tau", "10000000"], "--tau"),
])
def test_oversized_tables_are_refused_at_parse_time(command, flag):
    # The converter refuses the flag, so nothing is built for the huge value.
    with pytest.raises(argparse.ArgumentError) as excinfo:
        build_parser().parse_args(command + ["--out", "unused"])
    assert excinfo.value.argument_name == flag
    assert "cap of 10,000,000" in excinfo.value.message


@pytest.mark.parametrize("command, flags", [
    (["optimal-curves", "--n", "10", "--r", ",".join(["1"] * 501), "--fc-grid", "0:1:20000"],
     "--r with --fc-grid"),
    (["ansatz-grid", "--mixing-n", ",".join(["2"] * 3200), "--points", "3162"],
     "--mixing-n with --points"),
])
def test_oversized_products_of_flags_are_refused_before_building(tmp_path, capsys, command, flags):
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags} would make a table of ")
    assert list(tmp_path.iterdir()) == []


def test_oversized_verify_tables_are_refused_before_any_cell(tmp_path, capsys, monkeypatch):
    # 1 cell x (2 + 2 states) x 3 step counts = 12 rows, over a cap of 11.
    monkeypatch.setattr(cli, "ENUMERATION_CAP", 11)
    ran = []
    monkeypatch.setattr(cli, "average_trajectories", lambda *a, **k: ran.append(a))
    argv = ["verify-average", "--n", "2", "--r", "1", "--tau", "2", "--out", str(tmp_path / "v.csv")]
    assert main(argv + ["--states", "2"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --n, --r, --states and --tau would make a table of 12 rows, more than the cap of 11")
    assert ran == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(cli, "ENUMERATION_CAP", 12)
    monkeypatch.setattr(cli, "average_trajectories", kernels.average_trajectories)
    assert main(argv + ["--states", "2"]) == 0
    assert len(read_csv(tmp_path / "v.csv")[2]) == 12


def test_verify_checks_the_cap_of_every_cell_before_the_first(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "average_trajectories", lambda *a, **k: ran.append(a))
    assert main(["verify-average", "--n", "4", "--r", "1,2", "--cap", "100", "--states", "0",
                 "--tau", "1", "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err == "error: --cap C(16, 2) = 120 subsets exceeds the enumeration cap 100\n"
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_vast_cells_are_refused_without_their_exact_count(tmp_path, capsys):
    # C(2**20, 2**19) has 315,653 digits; working it out exactly takes about 11 s
    argv = ["verify-average", "--n", "20", "--r", "524288", "--out", str(tmp_path / "v.csv")]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "error: --cap C(1048576, 524288) = 2**63 or more subsets exceeds the enumeration cap 10000000\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, r, cap", [(4, 2, 100), (5, 3, 10), (20, 524288, 10_000_000), (7, 64, 2**63 - 1)])
def test_the_cli_reports_the_library_cap_message(tmp_path, capsys, n, r, cap):
    with pytest.raises(groversim.EnumerationCapError) as excinfo:
        groversim.average_over_all_sets(groversim.equal_superposition(n), r, 1, cap=cap)
    assert main(["verify-average", "--n", str(n), "--r", str(r), "--cap", str(cap), "--states", "0",
                 "--tau", "1", "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err == f"error: --cap {excinfo.value}\n"


def test_largest_tables_within_the_cap_are_accepted():
    args = build_parser().parse_args(["ansatz-grid", "--points", "3162", "--out", "unused"])
    assert args.points == 3162
    args = build_parser().parse_args(["optimal-curves", "--fc-grid", "0:1:10000000", "--out", "unused"])
    assert args.fc_grid == "0:1:10000000"
    args = build_parser().parse_args(["run", "--n", "3", "--marked", "1", "--tau", "9999999"])
    assert args.tau == 9999999


# no command writes a table of no rows (each writes two or more), so none is here; the ids keep the cases' names
@pytest.mark.parametrize("rows", [
    [(1, 2, 0.5, "basis", True, None, 1e-17)],
    [(n, -n * 0.1, float(n) / 3, "uniform", n % 2 == 0) for n in range(50)],
    [(5e-324, 1e-310, -0.0, 1e16, 1e17, 1e22, math.nan, math.inf, -math.inf, 'say "hi"', "naïve ψ")],
], ids=["rows1", "rows2", "rows3"])
def test_json_tables_stream_the_layout_of_one_dumps(tmp_path, rows):
    meta = {"tool": "groversim", "n": [1, 2], "format": "json", "threshold": 1e-10}
    header = list("abcdefghijk")[: len(rows[0])]
    cli._write_table(tmp_path / "t.json", "json", meta, header, iter(rows))
    assert (tmp_path / "t.json").read_text() == json.dumps(
        {"meta": meta, "columns": header, "rows": [list(row) for row in rows]}, sort_keys=True, indent=2) + "\n"


def test_json_tables_are_written_row_by_row(tmp_path):
    # built as one document, these 2 * 10^5 rows peaked at 108 MiB traced; streamed, at 0.03
    import tracemalloc

    rows = ((i, i / 7.0, 1.0 - i / 11.0) for i in range(200_000))
    tracemalloc.start()
    try:
        cli._write_table(tmp_path / "t.json", "json", {"n": 1}, ["i", "x", "y"], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(json.loads((tmp_path / "t.json").read_text())["rows"]) == 200_000


def _spelled(values) -> str:
    """cli._spell's texts of the values, a line each."""
    cells = cli._spell(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _formatted(values) -> str:
    return "".join(cli._FLOAT(value) + "\n" for value in np.asarray(values, dtype=np.float64).tolist())


@given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1.0, exclude_max=True)), max_size=40))
def test_spell_is_format_on_any_floats(values):
    # NaN, infinities, subnormals and -0.0 go to _FLOAT; [1e-4, 1) is spelled from the digits
    assert _spelled(values) == _formatted(values)


def test_spell_is_format_on_ties_decades_and_curves():
    # x = m / 2**(p + 1) with m odd is a tie of the 17-digit rounding: x * 10**p = m * 5**p / 2
    ties = []
    for p in range(17, 21):
        low, high = 2 ** (p + 1) * 10.0 ** (16 - p), 2 ** (p + 1) * 10.0 ** (17 - p)
        m = np.arange(math.ceil(low) | 1, high, 2 * max(1, int(high - low) // 5000))
        ties.append(m / 2.0 ** (p + 1))
    ties = np.concatenate(ties)
    assert ties.min() >= 1e-4 and ties.max() < 1.0 and len(ties) > 9000
    decades = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    values = [ties, decades]
    values += [np.nextafter(v, direction) for v in (ties, decades) for direction in (0.0, 2.0)]
    grid = np.linspace(0.0, 1.0, 20_001)
    values += [optimal_average(2**n, n, grid) for n in range(1, 21)]
    values = np.concatenate(values)
    assert _spelled(values) == _formatted(values)


def test_json_curve_tables_build_no_encoder_per_row(tmp_path, monkeypatch):
    # one JSONEncoder.encode per row made JSON tables about 10x slower than CSV
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.json, "dumps", counted(json.dumps))
    for name in ("encode", "iterencode"):
        monkeypatch.setattr(json.JSONEncoder, name, counted(getattr(json.JSONEncoder, name)))
    counts = []
    for points in (10, 10_000):
        calls.clear()
        out = tmp_path / f"c{points}.json"
        assert main(["optimal-curves", "--n", "6", "--r", "1,3", "--fc-grid", f"0:1:{points}",
                     "--format", "json", "--out", str(out)]) == 0
        counts.append(len(calls))
    assert len(json.loads(out.read_text())["rows"]) == 20_000
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_tables_are_written_block_by_block(tmp_path, fmt):
    # beyond the grid, one line's values and the spelled axis (8 + 8 + 24 bytes a point),
    # the traced peak does not grow with the table; holding texts, it grew by 157 bytes a point
    import gc
    import tracemalloc

    def peak(points: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["optimal-curves", "--n", "10", "--r", "3", "--fc-grid", f"0:1:{points}",
                         "--format", fmt, "--out", str(tmp_path / "c")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # first-use allocations
    small, large = peak(20_000), peak(200_000)
    assert large - small < 40 * 180_000 + 2**20  # and one piece of texts (_SPELL_ROWS values)


def test_json_and_csv_curve_tables_hold_the_same_numbers(tmp_path):
    # a JSON float is repr(x); a CSV float has 17 digits, so float() of it is x again
    for fmt in ("csv", "json"):
        assert main(["ansatz-grid", "--n", "12", "--points", "301", "--format", fmt,
                     "--out", str(tmp_path / "g")]) == 0
    for block, rows in (("phases", 301**2), ("mixing", 3 * 301)):
        _, header, csv_rows = read_csv(tmp_path / f"g_{block}.csv")
        table = json.loads((tmp_path / f"g_{block}.json").read_text())
        assert table["columns"] == header and len(table["rows"]) == rows
        for json_row, csv_row in zip(table["rows"], csv_rows):
            assert json_row == [int(csv_row[0]), *map(float, csv_row[1:])], csv_row


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_tables_are_written_row_by_row(tmp_path, monkeypatch, fmt):
    # holding every row, 2 * 10^4 states peaked at 4.7 MiB traced; groups of
    # 2048 states keep the stepping workspace far below that
    import tracemalloc

    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 4096)
    argv = ["verify-average", "--n", "1", "--r", "1", "--tau", "0", "--format", fmt, "--out", str(tmp_path / "v")]
    assert main(argv + ["--states", "1"]) == 0  # numpy.random's one-time set-up, about 1 MiB
    for states in (2000, 20000):
        tracemalloc.start()
        try:
            assert main(argv + ["--states", str(states)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{states} states"
    assert [p.name for p in tmp_path.iterdir()] == ["v"]
    if fmt == "json":
        assert len(json.loads((tmp_path / "v").read_text())["rows"]) == 20002
    else:
        assert len(read_csv(tmp_path / "v")[2]) == 20002


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_sweep_leaves_neither_table_nor_body(tmp_path, monkeypatch, fmt):
    seen = []

    def fail_on_the_second_cell(group, r, tau_max):
        if group.shape[1] == 4:
            seen.append([p.name for p in tmp_path.iterdir()])
            raise RuntimeError("stopped mid-sweep")
        return kernels.average_trajectories(group, r, tau_max)

    monkeypatch.setattr(cli, "average_trajectories", fail_on_the_second_cell)
    with pytest.raises(RuntimeError, match="stopped mid-sweep"):
        main(["verify-average", "--n", "1,2", "--r", "1", "--tau", "1", "--states", "3",
              "--format", fmt, "--out", str(tmp_path / "v")])
    # the first cell's rows were written to a body file that no name points to
    assert seen == [[]] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_failed_run_leaves_neither_trace_nor_spool(tmp_path, monkeypatch, capsys, to_file):
    seen, search_trace = [], cli.search_trace

    def fail_after_the_first_list(state, marked, tau):
        config, chunks = search_trace(state, marked, tau)

        def failing():
            yield next(chunks)
            seen.append([p.name for p in tmp_path.iterdir()])
            raise RuntimeError("stopped mid-trace")
        return config, failing()

    monkeypatch.setattr(cli, "search_trace", fail_after_the_first_list)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a run to stdout spools its trace
    out = ["--out", str(tmp_path / "run.json")] if to_file else []
    with pytest.raises(RuntimeError, match="stopped mid-trace"):
        main(["run", "--n", "1", "--marked", "0", "--tau", "2000", *out])
    # the first list went to a spool that no name points to, and nothing to stdout
    assert seen == [[]] and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_verify_draws_each_state_into_its_row_of_the_group(tmp_path, monkeypatch):
    # rows 0 and 1 are the basis and the uniform state, then come the random states in the order the
    # cell's generator draws them, spread over 3 groups; drawing holds half a row beside the group
    import tracemalloc

    n, seed, states = 10, 7, 10
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 4 * 2**n)  # 4 states a group, for r = 1 and r = 2
    argv = ["verify-average", "--n", str(n), "--r", "1,2", "--tau", "0", "--states", str(states),
            "--seed", str(seed), "--out", str(tmp_path / "v")]
    assert main(argv) == 0  # numpy.random's and the norm's one-time set-up
    # per cell: the groups handed over, the traced memory just before the group buffer is made, and
    # the traced peak, less that buffer, when the first group is handed over
    groups, starts, peaks = [], [], []
    group_size = cli.group_size

    def mark_the_cell_start(dim, r, tau_max):
        groups.append([])
        starts.append(0)  # the lists grow before the peak is reset, so their growth is not counted
        tracemalloc.reset_peak()
        starts[-1] = tracemalloc.get_traced_memory()[0]
        return group_size(dim, r, tau_max)

    def capture(group, r, tau_max):
        if not groups[-1]:
            peaks.append(tracemalloc.get_traced_memory()[1] - sys.getsizeof(group.base))
        groups[-1].append(group.copy())
        return kernels.average_trajectories(group, r, tau_max)

    monkeypatch.setattr(cli, "group_size", mark_the_cell_start)
    monkeypatch.setattr(cli, "average_trajectories", capture)
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    for r, cell, start, peak in zip((1, 2), groups, starts, peaks, strict=True):
        assert [len(group) for group in cell] == [4, 4, 4]
        assert peak - start <= 2**n * 8 + 1024  # half a row
        rows = np.concatenate(cell)
        rng = np.random.default_rng([seed, n, r])
        expected = [basis_state(n), equal_superposition(n)] + [random_state(n, rng) for _ in range(states)]
        for row, psi in zip(rows, expected, strict=True):
            np.testing.assert_array_equal(row, psi.amplitudes, strict=True)
            assert abs(np.vdot(row, row).real - 1.0) <= NORM_ATOL


@settings(deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 5), states=st.integers(0, 5), fmt=st.sampled_from(["csv", "json"]))
def test_the_fc_column_is_coherence_fraction_bit_for_bit(n, seed, states, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "v"
        assert main(["verify-average", "--n", str(n), "--r", "1", "--tau", "0", "--states", str(states),
                     "--seed", str(seed), "--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            fcs = [row[5] for row in json.loads(out.read_text())["rows"]]
        else:
            fcs = [float(row[5]) for row in read_csv(out)[2]]
    rng = np.random.default_rng([seed, n, 1])
    expected = [basis_state(n), equal_superposition(n)] + [random_state(n, rng) for _ in range(states)]
    assert fcs == [coherence_fraction(psi) for psi in expected]


def test_ansatz_grid_body_is_the_public_plane_cell_by_cell(tmp_path):
    points = 301
    assert main(["ansatz-grid", "--n", "12", "--mixing-n", "1", "--points", str(points),
                 "--out", str(tmp_path / "g")]) == 0
    axis = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False).tolist()
    plane = groversim.optimal_success_phase_plane(12, axis)
    expected = "".join(
        f"12,{format(a, '.17g')},{format(b, '.17g')},{format(p, '.17g')}\r\n"
        for a, row in zip(axis, plane) for b, p in zip(axis, row)
    )
    text = (tmp_path / "g_phases.csv").read_bytes().decode()
    assert text.endswith("n,alpha,beta,p\r\n" + expected)


def test_a_warm_main_builds_no_parser(tmp_path, monkeypatch):
    # building the parser cost more than a small run itself: 0.65-0.9 ms against 0.3 ms
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = ["run", "--n", "1", "--marked", "0", "--tau", "1", "--out", str(tmp_path / "run.json")]
    assert main(argv) == 0
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(argv) == 0
    assert main(["run", "--n", "21", "--marked", "0", "--tau", "1"]) == 2
    assert built == []
    build_parser()
    assert len(built) == 6  # the command parser and one per subcommand


def test_one_parser_outlives_errors_and_help(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "run-uniform" / "run.json"
    assert main(["frobnicate"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0
    assert main(["run", "--n", "x", "--marked", "1", "--tau", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: groversim run ")
    usage, bad_n = captured.err.splitlines()
    assert usage.startswith("error: command invalid choice: ") and bad_n == "error: --n 'x' is not an int"
    out = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--marked", "1,5", "--tau", "4", "--uniform", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_build_parser_returns_a_new_parser():
    first, second = build_parser(), build_parser()
    assert first is not second and cli._parser() not in (first, second)
    assert cli._parser() is cli._parser()


def test_a_patched_cap_is_not_kept_by_the_shared_parser(tmp_path, monkeypatch):
    # --cap's default is read per call, so a parser first built under a patched cap does not keep it
    argv = ["verify-average", "--n", "2", "--r", "1", "--tau", "0", "--states", "0", "--out", str(tmp_path / "v.csv")]
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "ENUMERATION_CAP", 11)
    assert main(argv) == 0
    assert read_csv(tmp_path / "v.csv")[0]["cap"] == "11"
    monkeypatch.undo()
    assert main(argv) == 0
    assert read_csv(tmp_path / "v.csv")[0]["cap"] == "10000000"
