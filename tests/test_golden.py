"""Checked-in CLI outputs: every command, at tiny sizes, must reproduce them byte for byte.

A change that moves any output byte shows up here as an explicit diff
against tests/golden/<case>/. To record new outputs on purpose, run
`PYTHONPATH=src python tests/test_golden.py CASE ...` and review the diff;
with no CASE it records every case.

Every case runs with tests/golden/inputs/ as the working directory, so an
input file is named relative to it: the metadata records the name as given.
"""
import argparse
import itertools
import json
import os
import re
import sys
from pathlib import Path

import pytest

from groversim.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# case -> (argv with "{out}" for the output path, files the command writes)
CASES = {
    "verify-average-csv": (
        ["verify-average", "--n", "1,2", "--r", "1,2", "--tau", "2", "--states", "1",
         "--seed", "3", "--out", "{out}/verify.csv"],
        ["verify.csv"],
    ),
    "verify-average-json": (
        ["verify-average", "--n", "2", "--r", "1", "--tau", "1", "--states", "1",
         "--format", "json", "--out", "{out}/verify.json"],
        ["verify.json"],
    ),
    "optimal-curves": (
        ["optimal-curves", "--n", "3", "--r", "1,2,8", "--fc-grid", "0:1:5",
         "--out", "{out}/curves.csv"],
        ["curves.csv"],
    ),
    "ansatz-grid": (
        ["ansatz-grid", "--n", "2", "--mixing-n", "2,3", "--points", "5", "--out", "{out}/grid"],
        ["grid_phases.csv", "grid_mixing.csv"],
    ),
    "optimal-curves-json": (
        ["optimal-curves", "--n", "4", "--r", "1,3,16", "--fc-grid", "0.25:0.75:5",
         "--format", "json", "--out", "{out}/curves.json"],
        ["curves.json"],
    ),
    "optimal-curves-edge": (
        ["optimal-curves", "--n", "20", "--r", "1,1048576", "--fc-grid", "1:0:7",
         "--out", "{out}/curves.csv"],
        ["curves.csv"],
    ),
    "ansatz-grid-json": (
        ["ansatz-grid", "--n", "3", "--mixing-n", "1,4", "--points", "4",
         "--format", "json", "--out", "{out}/grid"],
        ["grid_phases.json", "grid_mixing.json"],
    ),
    "ansatz-grid-edge": (
        ["ansatz-grid", "--n", "20", "--mixing-n", "1,20", "--points", "7", "--out", "{out}/grid"],
        ["grid_phases.csv", "grid_mixing.csv"],
    ),
    "run-uniform": (
        ["run", "--n", "3", "--marked", "1,5", "--tau", "4", "--uniform", "--out", "{out}/run.json"],
        ["run.json"],
    ),
    "run-ansatz": (
        ["run", "--n", "3", "--marked", "2", "--tau", "3",
         "--alpha", "0.3", "--beta", "1.1", "--theta", "0.6", "--out", "{out}/run.json"],
        ["run.json"],
    ),
    "minimize": (
        ["minimize", "--objective-n", "4", "--seeds", "0,1,2", "--out", "{out}/mini"],
        ["mini.json", "mini_summary.csv"],
    ),
    "minimize-ansatz-budget": (
        ["minimize", "--objective-n", "5", "--generator", "uniform", "--seeds", "0,1",
         "--budget", "2", "--alpha", "0.1", "--beta", "0.2", "--theta", "0.7", "--out", "{out}/mini"],
        ["mini.json", "mini_summary.csv"],
    ),
    "minimize-objective": (
        ["minimize", "--objective", "objective.csv", "--seeds", "0,1,2,3", "--out", "{out}/mini"],
        ["mini.json", "mini_summary.csv"],
    ),
}


def _run_case(case: str, out: Path) -> list[str]:
    argv, files = CASES[case]
    assert main([arg.replace("{out}", str(out)) for arg in argv]) == 0
    return files


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, monkeypatch, case):
    monkeypatch.chdir(INPUTS)
    files = _run_case(case, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def test_every_case_twice_in_one_process_in_either_order(tmp_path, monkeypatch):
    # one parser serves every main call in a process, so no call may leave state that moves a later output
    monkeypatch.chdir(INPUTS)
    forward = sorted(CASES)
    for turn, cases in enumerate([forward, forward[::-1]]):
        for case in cases:
            out = tmp_path / f"{turn}-{case}"
            for name in _run_case(case, out):
                assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), (turn, case, name)


GOLDEN_FILES = [f"{case}/{name}" for case, (_, files) in sorted(CASES.items()) for name in files]


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_files_keep_the_layout_of_their_format(name):
    # a join or frame slip must show here too, not only in the diff of a golden recorded on purpose
    text = (GOLDEN / name).read_bytes().decode("ascii")
    if name.endswith(".json"):
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        return
    assert text.endswith("\r\n")
    lines = text[:-2].split("\r\n")
    prelude = list(itertools.takewhile(lambda line: line.startswith("# "), lines))
    assert prelude and all(re.fullmatch(r"# [a-z_]+=[^\r\n=]*", line) for line in prelude)
    assert prelude == sorted(prelude)
    header, *rows = lines[len(prelude):]
    assert re.fullmatch(r"[a-z_]+(,[a-z_]+)*", header) and rows
    for row in rows:
        assert "\r" not in row and "\n" not in row and not row.startswith("#")
        assert row.count(",") == header.count(","), row


@pytest.mark.parametrize("case", ["run-uniform", "run-ansatz"])
def test_run_prints_the_bytes_it_would_write(capsys, case):
    argv, (name,) = CASES[case]
    at = argv.index("--out")
    assert main(argv[:at] + argv[at + 2:]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / case / name).read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_get_the_mode_the_umask_leaves(tmp_path, monkeypatch, umask):
    # one case per command; a file made by open() would get 0666 & ~umask
    monkeypatch.chdir(INPUTS)
    cases = {CASES[case][0][0]: case for case in reversed(list(CASES))}
    old = os.umask(umask)
    try:
        for command, case in cases.items():
            out = tmp_path / case
            for name in _run_case(case, out):
                assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, f"{command}: {name}"
    finally:
        os.umask(old)
    assert set(cases) == {command for command, _ in _output_forms()}


def test_writing_an_output_file_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # setting the umask, even for a moment, changes it for every thread of the process
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.chdir(INPUTS)
    monkeypatch.setattr(os, "umask", refuse)
    files = _run_case("optimal-curves", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def _output_forms():
    """(command, --format value) for every output the CLI writes; None where it has no --format."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    forms = set()
    for command, sub in subparsers.choices.items():
        fmt = next((a for a in sub._actions if "--format" in a.option_strings), None)
        forms.update((command, choice) for choice in (fmt.choices if fmt else [None]))
    return forms


def test_every_output_form_has_a_golden_case():
    parser = build_parser()
    pinned = set()
    for argv, _ in CASES.values():
        args = parser.parse_args([arg.replace("{out}", "out") for arg in argv])
        pinned.add((args.command, getattr(args, "format", None)))
    assert _output_forms() - pinned == set()


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    os.chdir(INPUTS)
    for case in sorted(sys.argv[1:] or CASES):
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        _run_case(case, target)
        print(f"wrote {target}", file=sys.stderr)
