import dataclasses
import json
import math

import numpy as np
import pytest

from groversim import (
    MarkedSet,
    ObjectiveTable,
    SearchSchedule,
    basis_state,
    closed_form_average,
    equal_superposition,
    exponential_search,
    make_objective,
    minimization_success_closed_form,
    run_minimization,
    sample_measurement,
    threshold_marked_set,
)

# ----------------------------------------------------------- objective tables

def test_table_infers_qubit_count():
    t = ObjectiveTable.from_values([3.0, 1.0, 2.0, 0.0])
    assert t.n == 2 and t.dimension == 4
    assert t.argmin_set() == (3,)


def test_table_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        ObjectiveTable.from_values([1.0, 2.0, 3.0])


def test_table_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        ObjectiveTable.from_values([0.0, math.inf])


def test_table_argmin_set_includes_ties():
    t = ObjectiveTable.from_values([2.0, 1.0, 1.0, 5.0])
    assert t.argmin_set() == (1, 2)


def test_table_csv_round_trip(tmp_path):
    p = tmp_path / "obj.csv"
    p.write_text("index,value\n0,3.5\n1,-1.25\n2,0\n3,7\n")
    t = ObjectiveTable.from_csv(p)
    np.testing.assert_array_equal(t.values, [3.5, -1.25, 0.0, 7.0])


def test_table_csv_requires_header_and_full_coverage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,3.5\n1,2.0\n")
    with pytest.raises(ValueError, match="header"):
        ObjectiveTable.from_csv(p)
    p.write_text("index,value\n0,3.5\n0,2.0\n")
    with pytest.raises(ValueError, match="cover"):
        ObjectiveTable.from_csv(p)


def test_generators_are_deterministic():
    a = make_objective("permutation", 4, 7)
    b = make_objective("permutation", 4, 7)
    np.testing.assert_array_equal(a.values, b.values)
    assert sorted(a.values) == list(range(16))
    u = make_objective("uniform", 3, 0)
    assert u.values.shape == (8,)
    c = make_objective("constant", 2, 0)
    assert np.all(c.values == 0.0)
    with pytest.raises(ValueError, match="unknown"):
        make_objective("sorted", 2, 0)


@pytest.mark.parametrize("n", [-1, 0, 21, 2.0])
def test_generators_reject_bad_qubit_counts(n):
    with pytest.raises(ValueError, match="qubit count"):
        make_objective("permutation", n, 0)


# ------------------------------------------------------------- marking oracle

def test_threshold_marks_strictly_below():
    t = ObjectiveTable.from_values([3.0, 1.0, 2.0, 0.0])
    assert threshold_marked_set(t, 2.0).indices == (1, 3)
    assert threshold_marked_set(t, math.inf).indices == (0, 1, 2, 3)
    assert threshold_marked_set(t, 0.0) is None


# ----------------------------------------------------------------- sampling

def test_sampling_a_basis_state_is_certain():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_measurement(basis_state(3, 5), rng) == 5


def test_sampling_matches_born_frequencies():
    rng = np.random.default_rng(42)
    s = equal_superposition(1)
    freq = sum(sample_measurement(s, rng) == 0 for _ in range(100_000)) / 100_000
    assert abs(freq - 0.5) < 0.01


def test_sampling_is_deterministic_per_seed():
    s = equal_superposition(3)
    rng = np.random.default_rng(9)
    first = [sample_measurement(s, rng) for _ in range(5)]
    rng = np.random.default_rng(9)
    second = [sample_measurement(s, rng) for _ in range(5)]
    assert first == second


# --------------------------------------------------------- exponential search

def test_search_with_everything_marked_needs_no_iterations():
    rng = np.random.default_rng(0)
    out = exponential_search(equal_superposition(2), MarkedSet((0, 1, 2, 3)), SearchSchedule(), rng)
    assert out.verified and out.oracle_calls == 0


def test_search_finds_a_single_target_cheaply():
    calls = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        out = exponential_search(equal_superposition(2), MarkedSet((3,)), SearchSchedule(), rng)
        assert out.verified
        assert out.index == 3
        calls.append(out.oracle_calls)
    assert np.mean(calls) < 2 * math.sqrt(4)  # comfortably O(sqrt N)


def test_search_respects_its_budget():
    # initial state orthogonal to the marked item makes early hits unlikely
    for seed in range(10):
        rng = np.random.default_rng(seed)
        out = exponential_search(basis_state(2, 0), MarkedSet((2,)), SearchSchedule(max_oracle_calls=1), rng)
        assert out.oracle_calls <= 1
        if not out.verified:
            assert out.index != 2


def test_empty_marked_set_is_unrepresentable():
    with pytest.raises(ValueError):
        MarkedSet(())


def test_schedule_validation():
    with pytest.raises(ValueError, match="growth"):
        SearchSchedule(growth=1.0)
    with pytest.raises(ValueError, match="growth"):
        SearchSchedule(growth=1.5)
    with pytest.raises(ValueError, match="reach"):
        SearchSchedule(initial_reach=0.5)
    for reach in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="reach"):
            SearchSchedule(initial_reach=reach)
    with pytest.raises(ValueError, match="budget"):
        SearchSchedule(max_oracle_calls=0)


# ---------------------------------------------------------- threshold descent

def test_two_element_table_is_solved_exactly():
    t = ObjectiveTable.from_values([5.0, 3.0])
    rep = run_minimization(t, seed=0)
    assert rep.result_index == 1
    assert rep.result_value == 3.0
    assert rep.converged
    assert rep.stop_reason == "empty_marked_set"


def test_constant_table_converges_immediately():
    t = make_objective("constant", 3, 0)
    rep = run_minimization(t, seed=5)
    assert rep.converged and rep.stop_reason == "empty_marked_set"
    assert rep.result_value == 0.0
    assert len(rep.threshold_history) == 1
    assert rep.oracle_calls_used == 0


def test_threshold_history_strictly_decreases():
    t = make_objective("permutation", 5, 3)
    for seed in range(20):
        rep = run_minimization(t, seed=seed)
        values = [d for _, d in rep.threshold_history]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert rep.result_value == values[-1]


def test_budget_exhaustion_is_reported():
    vals = [1.0] * 16
    vals[9] = 0.0
    t = ObjectiveTable.from_values(vals)
    rep = run_minimization(t, schedule=SearchSchedule(max_oracle_calls=2), seed=1)
    assert rep.stop_reason == "budget_exhausted"
    assert not rep.converged
    assert rep.oracle_calls_used == 2
    assert rep.result_value == 1.0
    # a run ends only by emptying its marked set or by spending the whole
    # budget: exponential search clamps its last attempt to the calls left
    reasons = set()
    for table in (t, make_objective("permutation", 6, 2), make_objective("uniform", 8, 5)):
        for budget in (1, 2, 3, 5, 8, 13, 40):
            for seed in range(12):
                rep = run_minimization(table, schedule=SearchSchedule(max_oracle_calls=budget), seed=seed)
                reasons.add(rep.stop_reason)
                assert rep.stop_reason in ("empty_marked_set", "budget_exhausted")
                assert rep.converged == (rep.stop_reason == "empty_marked_set")
                if rep.stop_reason == "budget_exhausted":
                    assert rep.oracle_calls_used == budget
                else:
                    assert rep.oracle_calls_used <= budget
                    assert rep.result_value == table.values.min()
    assert reasons == {"empty_marked_set", "budget_exhausted"}


def test_reports_are_reproducible_per_seed():
    t = make_objective("permutation", 4, 11)
    a = run_minimization(t, seed=21)
    b = run_minimization(t, seed=21)
    assert a == b
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.seed == 21


def test_report_is_frozen():
    t = ObjectiveTable.from_values([5.0, 3.0])
    rep = run_minimization(t, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.result_index = 0


def test_closed_form_is_the_r1_specialization():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(2 ** rng.integers(1, 8))
        tau = int(rng.integers(0, 12))
        fc = float(rng.uniform(0.0, 1.0))
        assert minimization_success_closed_form(dim, tau, fc) == closed_form_average(dim, 1, tau, fc)


def test_closed_form_hand_value():
    # dim=4, one step, perfectly coherent: certain success
    assert minimization_success_closed_form(4, 1, 1.0) == pytest.approx(1.0, abs=1e-12)
