import csv
import json
import math

import pytest

from groversim.cli import main


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


@pytest.mark.parametrize("command, flag", [
    (["minimize", "--objective-n", "3", "--budget", "0"], "--budget"),
    (["minimize", "--objective-n", "3", "--growth", "2"], "--growth"),
    (["minimize", "--objective-n", "3", "--initial-reach", "0.5"], "--initial-reach"),
    (["minimize", "--objective-n", "3", "--alpha", "0", "--beta", "0", "--theta", "3"], "--theta"),
    (["run", "--n", "3", "--marked", "1", "--tau", "1",
      "--alpha", "0", "--beta", "0", "--theta", "3"], "--theta"),
    (["verify-average", "--n", "2", "--r", "1", "--cap", "-1"], "--cap"),
])
def test_bad_values_name_their_flag(tmp_path, capsys, command, flag):
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    from groversim import optimal_average
    for _, fc_str, p_str in data:
        assert float(p_str) == optimal_average(32, 3, float(fc_str))
