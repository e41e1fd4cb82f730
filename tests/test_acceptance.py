"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear. Every threshold here is asserted, so a red criterion fails the
suite; the printed line carries the measured margin either way.
"""
import itertools
import json
import math

import numpy as np
import pytest

from groversim import (
    LocalGateParams,
    MarkedSet,
    SearchConfig,
    SearchSchedule,
    StateMixture,
    ansatz_coherence_fraction,
    average_over_all_sets,
    average_trajectory_over_all_sets,
    closed_form_average,
    closed_form_average_mixture,
    coherence_fraction,
    coherence_fraction_density,
    equal_superposition,
    evolve_subspace,
    grover_iterate,
    l1_coherence,
    make_objective,
    measure_counterexample_report,
    minimization_success_closed_form,
    mixing_angle,
    optimal_average,
    optimal_iterations,
    prepare_ansatz_state,
    rewritten_optimal_average,
    run_minimization,
    subspace_basis,
    subspace_decompose,
    subspace_reconstruct,
    success_mass,
    success_probability,
)
from groversim.cli import main as cli_main
from test_analytics import nonneg_density
from conftest import random_state


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def cells(max_n: int = 5, rs=(1, 2, 3)):
    for n in range(1, max_n + 1):
        for r in rs:
            if r <= 2**n:
                yield n, r


def test_criterion_1_closed_form_equals_brute_force():
    worst = 0.0
    for n, r in cells():
        rng = np.random.default_rng([101, n, r])
        for _ in range(20):
            psi = random_state(n, rng)
            fc = coherence_fraction(psi)
            for tau in range(9):
                brute = average_over_all_sets(psi, r, tau)
                closed = closed_form_average(2**n, r, tau, fc)
                worst = max(worst, abs(brute - closed))
    # one cell past the reach of a full state-vector step per subset:
    # C(1024, 2) = 523,776 marked sets
    psi = random_state(10, np.random.default_rng([101, 10, 2]))
    fc = coherence_fraction(psi)
    brute = average_trajectory_over_all_sets(psi, 2, 8)
    for tau in range(9):
        worst = max(worst, abs(brute[tau] - closed_form_average(1024, 2, tau, fc)))
    ok = worst <= 1e-10
    report(1, "subset-average closed form", ok, f"max deviation {worst:.3e} <= 1e-10")


def test_criterion_2_idealization_gap():
    worst_ratio = 0.0
    for n, r in cells():
        dim = 2**n
        tau = optimal_iterations(dim, r)
        bound = 1.0 - math.sin(mixing_angle(dim, r) * (tau + 0.5)) ** 2 + 1e-10
        rng = np.random.default_rng([202, n, r])
        states = [equal_superposition(n)] + [random_state(n, rng) for _ in range(5)]
        for psi in states:
            gap = abs(
                average_over_all_sets(psi, r, tau)
                - optimal_average(dim, r, coherence_fraction(psi))
            )
            worst_ratio = max(worst_ratio, gap / bound)
    coherent_gaps = []
    for n in (6, 7, 8):  # N >= 64, r = 1, fc = 1
        dim = 2**n
        tau = optimal_iterations(dim, 1)
        gap = abs(average_over_all_sets(equal_superposition(n), 1, tau) - 1.0)
        coherent_gaps.append(gap)
    ok = worst_ratio <= 1.0 and max(coherent_gaps) <= 0.05
    report(
        2, "idealized optimum gap", ok,
        f"worst gap/bound {worst_ratio:.3f} <= 1, coherent gap {max(coherent_gaps):.4f} <= 0.05",
    )


def test_criterion_3_optimal_curve_data(tmp_path):
    out = tmp_path / "curves.csv"
    code = cli_main(["optimal-curves", "--out", str(out)])
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("r,")
    ]
    dim = 32
    worst = 0.0
    seen_r = set()
    for r_str, fc_str, p_str in rows:
        r, fc, p = int(r_str), float(fc_str), float(p_str)
        seen_r.add(r)
        expected = (dim - r) / (dim - 1) * fc + (r - 1) / (dim - 1)
        worst = max(worst, abs(p - expected))
        if fc == 0.0:
            worst = max(worst, abs(p - (r - 1) / 31))
        if fc == 1.0:
            worst = max(worst, abs(p - 1.0))
    ok = code == 0 and seen_r == {1, 2, 3, 4, 10} and worst <= 1e-12
    report(3, "optimal-curve emission", ok, f"affine/endpoint deviation {worst:.3e} <= 1e-12")


def test_criterion_4_counterexample_values():
    rep = measure_counterexample_report()
    values = (
        rep.separable_fraction,
        rep.entangled_fraction,
        rep.incoherent_fraction,
        rep.coherent_fraction,
    )
    worst = max(abs(v - 0.5) for v in values)
    ok = worst <= 1e-12 and rep.entanglement_blind and rep.coherence_blind
    report(4, "witness fractions", ok, f"max |f_c - 1/2| = {worst:.3e} <= 1e-12")


def test_criterion_5_l1_relation():
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    worst_opt = 0.0
    for dim in (2, 4, 8, 16):
        for _ in range(50):
            rho = nonneg_density(dim, rng)
            fc = coherence_fraction_density(rho)
            worst_rel = max(worst_rel, abs(dim * (fc - 1.0 / dim) - l1_coherence(rho)))
            r = int(rng.integers(1, dim + 1))
            worst_opt = max(
                worst_opt,
                abs(rewritten_optimal_average(dim, r, rho) - optimal_average(dim, r, fc)),
            )
    ok = worst_rel <= 1e-10 and worst_opt <= 1e-12
    report(
        5, "l1 relation", ok,
        f"relation deviation {worst_rel:.3e} <= 1e-10, rewritten form {worst_opt:.3e} <= 1e-12",
    )


def test_criterion_6_ansatz_closed_forms():
    from groversim import optimal_success_vs_mixing, optimal_success_vs_phases

    worst = 0.0
    alphas = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    betas = np.linspace(-math.pi, math.pi, 10, endpoint=False)
    thetas = np.linspace(0.0, math.pi / 2, 10)
    for n in range(1, 5):
        for a, b, t in itertools.product(alphas, betas, thetas):
            p = LocalGateParams(float(a), float(b), float(t))
            worst = max(
                worst,
                abs(
                    ansatz_coherence_fraction(n, p)
                    - coherence_fraction(prepare_ansatz_state(n, p))
                ),
            )
    anchor = 0.0
    for n in (1, 2, 3, 4):
        for a in (0.0, 1.1, 4.4):
            anchor = max(anchor, abs(optimal_success_vs_phases(n, a, a) - 1.0))
        anchor = max(anchor, abs(optimal_success_vs_mixing(n, math.pi / 4) - 1.0))
        anchor = max(anchor, abs(optimal_success_vs_mixing(n, 0.0) - 2.0**-n))
    ok = worst <= 1e-12 and anchor <= 1e-12
    report(
        6, "ansatz closed forms", ok,
        f"grid deviation {worst:.3e} <= 1e-12, anchors {anchor:.3e} <= 1e-12",
    )


def test_criterion_7_mixture_linearity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        comps = tuple((float(w), random_state(n, rng)) for w in weights)
        mix = StateMixture(comps)
        r = int(rng.integers(1, min(4, 2**n) + 1))
        tau = int(rng.integers(0, 6))
        dim = 2**n
        direct = closed_form_average_mixture(dim, r, tau, mix)
        weighted_closed = math.fsum(
            w * closed_form_average(dim, r, tau, coherence_fraction(s)) for w, s in comps
        )
        weighted_brute = math.fsum(
            w * average_over_all_sets(s, r, tau) for w, s in comps
        )
        worst = max(worst, abs(direct - weighted_closed), abs(direct - weighted_brute))
    ok = worst <= 1e-10
    report(7, "mixture linearity", ok, f"max deviation {worst:.3e} <= 1e-10")


def test_criterion_8_subspace_model():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        dim = 2**n
        psi = random_state(n, rng)
        r = int(rng.integers(1, dim + 1))
        marked = MarkedSet(tuple(int(i) for i in rng.choice(dim, size=r, replace=False)))
        tau = int(rng.integers(0, 9))
        coords = evolve_subspace(
            subspace_decompose(psi, marked), SearchConfig(n, r, tau)
        )
        # success probability through the 4 coordinates
        worst = max(worst, abs(coords.success_mass() - success_probability(psi, marked, tau)))
        # full evolved vector reassembled from the evolved coordinates
        rebuilt = subspace_reconstruct(coords, subspace_basis(psi, marked))
        evolved = grover_iterate(psi, marked, tau).amplitudes
        worst = max(worst, float(np.abs(rebuilt - evolved).max()))
        # the marked/unmarked mean amplitudes behind the coordinates
        sel = np.zeros(dim, dtype=bool)
        sel[list(marked.indices)] = True
        worst = max(worst, abs(coords.c_eta_m - math.sqrt(r) * evolved[sel].mean()))
        if r < dim:
            worst = max(
                worst, abs(coords.c_eta_u - math.sqrt(dim - r) * evolved[~sel].mean())
            )
    ok = worst <= 1e-10
    report(8, "invariant-subspace evolution", ok, f"max deviation {worst:.3e} <= 1e-10")


def test_criterion_9_minimization_statistics():
    table = make_objective("permutation", 6, 0)
    lo = float(table.values.min())
    budget = int(50 * math.sqrt(64))
    sched = SearchSchedule(max_oracle_calls=budget)
    wins64 = sum(
        run_minimization(table, None, sched, seed).result_value == lo for seed in range(100)
    )
    table16 = make_objective("permutation", 4, 0)
    lo16 = float(table16.values.min())
    wins16 = sum(
        run_minimization(table16, None, SearchSchedule(), seed).result_value == lo16
        for seed in range(500)
    )
    rng = np.random.default_rng(909)
    exact = all(
        minimization_success_closed_form(dim, tau, fc)
        == closed_form_average(dim, 1, tau, fc)
        for dim, tau, fc in (
            (int(2 ** rng.integers(1, 9)), int(rng.integers(0, 10)), float(rng.uniform()))
            for _ in range(100)
        )
    )
    ok = wins64 >= 90 and wins16 >= 495 and exact
    report(
        9, "threshold-descent statistics", ok,
        f"N=64 budget {budget}: {wins64}/100 (>=90); N=16 unlimited: {wins16}/500 (>=495); "
        f"closed-form specialization exact: {exact}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    commands = {
        "verify": ["verify-average", "--n", "1,2,3", "--r", "1,2", "--tau", "3",
                   "--states", "4", "--out", str(tmp_path / "verify.csv")],
        "curves": ["optimal-curves", "--out", str(tmp_path / "curves.csv")],
        "ansatz": ["ansatz-grid", "--points", "21", "--out", str(tmp_path / "grid")],
        "run": ["run", "--n", "3", "--marked", "1,6", "--tau", "2", "--uniform",
                "--out", str(tmp_path / "run.json")],
        "minimize": ["minimize", "--objective-n", "4", "--seeds", "0,1,2,3,4",
                     "--budget", "40", "--out", str(tmp_path / "mini")],
    }
    produced = {
        "verify": ["verify.csv"],
        "curves": ["curves.csv"],
        "ansatz": ["grid_phases.csv", "grid_mixing.csv"],
        "run": ["run.json"],
        "minimize": ["mini.json", "mini_summary.csv"],
    }
    stable = True
    for name, argv in commands.items():
        assert cli_main(list(argv)) == 0
        first = {f: (tmp_path / f).read_bytes() for f in produced[name]}
        assert cli_main(list(argv)) == 0
        second = {f: (tmp_path / f).read_bytes() for f in produced[name]}
        stable = stable and first == second
    report(10, "reproducible outputs", stable, "all five commands byte-identical on rerun")


def test_acceptance_runtime_envelope():
    # criterion 1 carries a soft runtime bound; the sweep above plus this
    # smoke re-run must sit far inside two minutes
    import time

    start = time.time()
    psi = equal_superposition(5)
    average_over_all_sets(psi, 3, 8)
    elapsed = time.time() - start
    assert elapsed < 30.0
