"""Command-line front end: experiment runners and curve-data emitters.

Every command is deterministic given its flags (seeds included): rerun
with the same arguments, get byte-identical files. CSV files carry a
'# key=value' metadata prelude, then a header row and CRLF-terminated
body lines. Every field is a number or a bare word, so no field needs
RFC-4180 quoting; floats carry 17 significant digits. JSON files carry
the same metadata under "meta", and each float as its shortest repr, as
json.dumps writes it. Writes are atomic (temp file + rename).

Every file, mini.json included, is a frame (head, tail) around rows joined by
one joiner (_body). A JSON frame is _json_frame's, _JSON's text split at the
placeholder _BODY, so _JSON places every bracket of a frame; mini.json's reports
are spelled by _report_text in _JSON's layout. A CSV frame is the prelude and
header, and the last row's CRLF. _write_late spools a body whose frame is known
only once it is spent. _spell gives _FLOAT's text of a whole float64 column, and
_write_curves builds each block of curve rows as one byte matrix.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import closed_form_average, coherence_fraction, optimal_average
from .ansatz import (
    LocalGateParams,
    _phase_plane_rows,
    optimal_success_vs_mixing,
    prepare_ansatz_state,
)
from .kernels import MAX_SUBSETS, average_trajectories, group_size
from .minimize import (
    GENERATOR_KINDS,
    ObjectiveTable,
    SearchSchedule,
    _minimizations,
    make_objective,
)
from .search import (
    ENUMERATION_CAP,
    EnumerationCapError,
    MarkedSet,
    RunReport,
    check_enumeration_cap,
    search_trace,
)
from .states import PureState, check_qubit_count, equal_superposition

DEVIATION_THRESHOLD = 1e-10
_FLOAT = "{:.17g}".format  # the text of every float written to a CSV file
_CHUNK_ROWS = 1024  # table rows joined into one string before it is written
_SPELL_ROWS = 8 * _CHUNK_ROWS  # curve values spelled at once (_write_curves), so no whole column of texts is held
_CELL_WIDTH = 24  # the longest text of a float64, as _FLOAT or repr spells it: "-2.2250738585072014e-308"
_COPY_CHARS = 1 << 13  # a spooled text is read back this much at a time
_JSON = json.JSONEncoder(sort_keys=True, indent=2)  # the spelling of every JSON document and cell
_BODY = "\0"  # holds the place of a file's streamed body in its JSON payload (_json_frame)


# _spell's constants. A value x in [1e-4, 1) has the decimal exponent e = -4 + the number of
# _DECADES at or below x: each is the double just above its power of ten, so no double lies
# between the two. _SCALES[e + 4] = 10**(16 - e), an exact double.
_DECADES = np.array([1e-3, 1e-2, 1e-1])
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])
_SPLITTER = 2.0**27 + 1  # Veltkamp's constant: a double splits into two halves of at most 26 bits


def _split(a):
    """Veltkamp's split of a float64 array: (hi, lo) with a == hi + lo exactly."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _text_cells(texts) -> np.ndarray:
    """The ASCII texts as the rows of a NUL-padded uint8 matrix, as wide as the longest."""
    cells = np.array(texts, dtype=np.bytes_)
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def _texts(spell, values: np.ndarray, kept: dict | None) -> list[str]:
    """spell(value) for each value of a float64 array.

    With kept, a dict the caller holds, each text is kept there by its
    value's bits, and a value met again is not spelled again.
    """
    if kept is None:
        return list(map(spell, values.tolist()))
    keys = values.view(np.int64).tolist()
    if missing := set(keys).difference(kept):
        bits = np.fromiter(missing, dtype=np.int64, count=len(missing))
        kept.update(zip(bits.tolist(), map(spell, bits.view(np.float64).tolist())))
    return list(map(kept.__getitem__, keys))


def _spell(values, kept: dict | None = None) -> np.ndarray:
    """_FLOAT's text of each value of a float64 array, as the rows of a NUL-padded uint8 matrix.

    On [1e-4, 1) the text is "0.", the exponent's leading zeros and the 17
    digits D = round(x * 10**(16 - e)), without trailing zeros. The product
    is formed exactly as hi + lo (Dekker's error-free product); above 2**53,
    hi is an even integer, so D = hi + rint(lo), and rint's ties to even are
    _FLOAT's ties to even. Every other value, and a D that rounds up to 18
    digits, is spelled by _FLOAT itself, through _texts with kept. The
    matrix is 22 bytes wide, or as wide as the widest of those texts.
    """
    x = np.asarray(values, dtype=np.float64)
    fast = (x >= 1e-4) & (x < 1.0)
    v = np.where(fast, x, 0.5)
    decade = np.searchsorted(_DECADES, v, side="right")  # e + 4
    scale = _SCALES[decade]
    hi = v * scale
    (v_hi, v_lo), (scale_hi, scale_lo) = _split(v), _split(scale)
    lo = ((v_hi * scale_hi - hi) + v_hi * scale_lo + v_lo * scale_hi) + v_lo * scale_lo
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= digits < 10**17
    # The text as columns: "0.", three places for the leading zeros, then the 17 digits, taken
    # from the end of D's two 9-digit halves into rows 4 to 21; row 4 gets the first half's 0.
    count = x.size
    text = np.empty((22, count), dtype=np.uint8)
    halves = np.empty((2, count), dtype=np.uint32)
    halves[0] = digits // 10**9
    halves[1] = digits - halves[0] * np.int64(10**9)
    places = text[4:].reshape(2, 9, count)
    for place in range(8, -1, -1):
        tens = halves // 10
        places[:, place] = halves - tens * 10
        halves = tens
    # a digit is kept when it or a digit after it is not 0: trailing zeros become NUL
    rest = np.empty((17, count), dtype=np.uint8)  # the largest digit from each place to the end
    rest[16] = text[21]
    for row in range(15, -1, -1):
        np.maximum(rest[row + 1], text[5 + row], out=rest[row])
    text[5:] += ord("0")
    text[5:] *= rest != 0
    text[0], text[1] = ord("0"), ord(".")
    np.multiply(np.arange(3)[:, None] < 3 - decade, ord("0"), out=text[2:5], casting="unsafe")
    cells = np.ascontiguousarray(text.T)
    if (others := np.flatnonzero(~fast)).size:
        spelled = _text_cells(_texts(_FLOAT, x[others], kept))
        if spelled.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, spelled.shape[1] - cells.shape[1])))
        cells[others] = 0
        cells[others, : spelled.shape[1]] = spelled
    return cells


def _repr_cells(values, kept: dict | None = None) -> np.ndarray:
    """float.__repr__ of each value of a float64 array, through _texts with kept, laid out as _spell's."""
    return _text_cells(_texts(float.__repr__, np.ascontiguousarray(values, dtype=np.float64), kept))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT(value)
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _atomic_write(path: Path, chunks) -> None:
    """Write the text chunks to a new dot-file beside path, then rename it to path.

    The file is created with mode 0666 and the kernel takes the umask off,
    so it gets the mode open() would give path itself.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_frame(payload) -> tuple[str, str]:
    """The frame of a JSON file: _JSON's text of payload, split where it holds _BODY."""
    head, tail = _JSON.encode(payload).split(_JSON.encode(_BODY))
    return head, tail + "\n"


def _json_cell(value) -> str:
    """_JSON's text for one scalar; a finite float or an int is spelled without the encoder."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return int.__repr__(value) if type(value) is int else _JSON.encode(value)


# Per format: cell text, the texts of a float64 array as a byte matrix (_spell), cell separator and
# row joiner; JSON's as _JSON lays out the value of "rows", [[_BODY]] (_table_frame).
_Layout = namedtuple("_Layout", "cell reals sep join")
_LAYOUTS = {
    "csv": _Layout(_fmt, _spell, ",", "\r\n"),
    "json": _Layout(_json_cell, _repr_cells, ",\n      ", "\n    ],\n    [\n      "),
}


def _body(join: str, chunks):
    """A body in pieces: chunks, iterables of row texts, joined by join."""
    opening = ""
    for chunk in chunks:
        yield opening + join.join(chunk)
        opening = join


def _table_body(fmt: str, rows):
    """The body of rows, an iterable of flat rows of scalars, _CHUNK_ROWS rows to a chunk."""
    layout = _LAYOUTS[fmt]
    texts = (layout.sep.join(map(layout.cell, row)) for row in rows)
    return _body(layout.join, iter(lambda: list(itertools.islice(texts, _CHUNK_ROWS)), []))


def _table_frame(fmt: str, meta: dict, header: list[str]) -> tuple[str, str]:
    """A table's frame: CSV's '# key=value' prelude, header row and last CRLF, or JSON's columns, meta and rows."""
    if fmt == "csv":
        prelude = "".join(f"# {key}={_fmt(meta[key])}\r\n" for key in sorted(meta))
        return prelude + ",".join(header) + "\r\n", "\r\n"
    return _json_frame({"columns": header, "meta": meta, "rows": [[_BODY]]})


def _write(path: Path | None, frame: tuple[str, str], body) -> None:
    """Write the frame's head, the body pieces as they come and its tail: atomically to path, or to stdout."""
    head, tail = frame
    text = itertools.chain([head], body, [tail])
    if path is None:
        sys.stdout.writelines(text)
    else:
        _atomic_write(path, text)


def _write_late(path: Path | None, frame, body) -> None:
    """_write a file whose frame is known only once its body is spent: frame() gives it then.

    The body goes as it comes to an unnamed temporary file beside path, or in the system's
    temporary directory for None, which the system deletes however the run ends. It is read
    back _COPY_CHARS at a time, so the body is never held in memory.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=path and path.parent) as spool:
        spool.writelines(body)
        spool.seek(0)
        _write(path, frame(), iter(lambda: spool.read(_COPY_CHARS), ""))


def _write_table(path: Path, fmt: str, meta: dict, header: list[str], rows) -> None:
    """Write rows, an iterable of flat rows, to the file as they come, as CSV or JSON."""
    _write(path, _table_frame(fmt, meta, header), _table_body(fmt, rows))


def _write_curves(path: Path, fmt: str, meta: dict, header: list[str], prefixes: list, axis: np.ndarray,
                  blocks) -> None:
    """Write the rows (*prefix, x, value) of a curve table: per prefix, a line of rows with x running along axis.

    blocks gives the values of the rows in order, as (values, index) for the
    next index.size rows, each taking values[index] (index in row order), or
    (values, None) for the next len(values) rows. Each block's values are
    spelled once by the format's reals: a table whose values repeat (the
    phase plane) passes each block's distinct values with an index, and the
    texts formatted one by one for such blocks are kept for the whole table.
    A block without an index is spelled _SPELL_ROWS values at a time. The
    prefixes and the axis are spelled once per table.

    Rows are built _CHUNK_ROWS at a time as one NUL-padded byte matrix, each
    row its joiner, prefix cells, axis cell, separator and value, and the NULs
    are deleted. A chunk's first row has no joiner: _body puts one between chunks.
    """
    layout = _LAYOUTS[fmt]
    heads = _text_cells([layout.join + "".join(layout.cell(v) + layout.sep for v in prefix) for prefix in prefixes])
    axis_cells = np.zeros((len(axis), _CELL_WIDTH), dtype=np.uint8)
    for first in range(0, len(axis), _SPELL_ROWS):
        cells = layout.reals(axis[first : first + _SPELL_ROWS])
        axis_cells[first : first + len(cells), : cells.shape[1]] = cells
    sep = np.frombuffer(layout.sep.encode(), dtype=np.uint8)
    joiner = len(layout.join)
    kept = {}  # the texts of the repeating blocks' values that reals formats one by one

    def pieces():
        for values, index in blocks:
            if index is not None:
                yield layout.reals(values, kept), index.ravel()
                continue
            for first in range(0, len(values), _SPELL_ROWS):
                piece = values[first : first + _SPELL_ROWS]
                yield layout.reals(piece), np.arange(len(piece))

    def chunks():
        done = 0  # rows built
        for cells, index in pieces():
            for first in range(0, len(index), _CHUNK_ROWS):
                part = index[first : first + _CHUNK_ROWS]
                line, x = np.divmod(np.arange(done, done + len(part)), len(axis))
                matrix = np.concatenate([heads.take(line, axis=0), axis_cells.take(x, axis=0),
                                         np.broadcast_to(sep, (len(part), len(sep))), cells.take(part, axis=0)],
                                        axis=1)
                matrix[0, :joiner] = 0
                done += len(part)
                yield [matrix.tobytes().translate(None, b"\0").decode("ascii")]

    _write(path, _table_frame(fmt, meta, header), _body(layout.join, chunks()))


def _meta(command: str, params: dict) -> dict:
    return {"tool": "groversim", "version": __version__, "command": command, **params}


# Flag converters, for argparse's type=. Each turns a flag's text into its value.
# A ValueError, raised here or by the library object a converter builds, becomes
# an argparse error, so the message the user sees starts with the flag's name.


def _flag_type(convert):
    """Let argparse report convert's ValueError as a usage error of the flag."""
    def checked(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


def _number(kind, minimum=None, maximum=None):
    @_flag_type
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"{text!r} is not {'an int' if kind is int else 'a number'}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be <= {maximum}, got {value}")
        return value
    return convert


_int, _float = _number(int), _number(float)


def _list_of(convert):
    @_flag_type
    def convert_list(text: str) -> list:
        values = [convert(part) for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError(f"must be a non-empty comma-separated list, got {text!r}")
        return values
    return convert_list


def _field_of(cls, name: str, parse, **others):
    """Check one field by building cls(**others, name=value); return the field."""
    return _flag_type(lambda text: getattr(cls(**{**others, name: parse(text)}), name))


_qubits = _flag_type(lambda text: check_qubit_count(_int(text)))
_marked = _flag_type(lambda text: MarkedSet(tuple(_list_of(_int)(text))))


def _check_rows(rows: int, flags: str = "") -> None:
    """Refuse a table of more than ENUMERATION_CAP rows before any of it is built.

    A flag converter leaves flags empty: argparse names the flag for it.
    """
    if rows > ENUMERATION_CAP:
        message = f"would make a table of {rows:,} rows, more than the cap of {ENUMERATION_CAP:,}"
        raise ValueError(f"{flags} {message}" if flags else message)


def _grid_spec(text: str) -> tuple[float, float, int]:
    """start, stop and count of a start:stop:count grid; allocates nothing."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"must look like start:stop:count, got {text!r}")
    start, stop, count = _float(parts[0]), _float(parts[1]), _int(parts[2])
    if count < 2:
        raise ValueError(f"needs at least 2 points, got {count}")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ValueError(f"must stay inside [0, 1], got {text!r}")
    _check_rows(count)  # one row per point for each --r entry
    return start, stop, count


@_flag_type
def _fc_grid(text: str) -> str:
    """Check the grid; keep the text, which the metadata records."""
    _grid_spec(text)
    return text


@_flag_type
def _out(text: str) -> str:
    """--out: a path that ends in a name. Its command checks the files it makes of it (_outputs)."""
    if Path(text).name in ("", ".."):
        raise ValueError(f"must name a file, got {text!r}")
    return text


_out_or_stdout = _flag_type(lambda text: _out(text) if text else None)  # run --out "" writes to stdout


def _outputs(out: str, *suffixes: str) -> list[Path]:
    """The files out names with each suffix ("" for out itself), none a directory, their directory made.

    Each command that writes files calls it once, after its input checks and before any work.
    """
    base = Path(out)
    paths = [base.with_name(base.name + suffix) for suffix in suffixes]
    if directory := next(filter(Path.is_dir, paths), None):
        raise ValueError(f"--out {str(directory)!r} is a directory")
    try:
        base.parent.mkdir(parents=True, exist_ok=True)  # the one place a directory is made
    except OSError as exc:  # mkdir names the path it could not make, not the file in its way
        nearest = next(filter(Path.exists, base.parents), None)
        if nearest is not None and not nearest.is_dir():
            raise ValueError(f"--out {str(nearest)!r} is not a directory") from None
        raise ValueError(f"--out cannot make directory {exc.filename!r}: {exc.strerror}") from None
    return paths


@_flag_type
def _steps(text: str) -> int:
    """--tau of run: its trace holds tau + 1 values."""
    tau = _number(int, 0)(text)
    _check_rows(tau + 1)
    return tau


@_flag_type
def _points(text: str) -> int:
    """--points of ansatz-grid: its phase table has points**2 rows."""
    points = _number(int, 2)(text)
    _check_rows(points * points)
    return points


def _start_state(args, n: int) -> tuple[PureState, dict]:
    """The ansatz state of --alpha/--beta/--theta, else the uniform one; with its metadata."""
    angles = (args.alpha, args.beta, args.theta)
    if all(a is None for a in angles):
        return equal_superposition(n), {"initial": "uniform"}
    if args.uniform:
        raise ValueError("--uniform cannot be combined with --alpha/--beta/--theta")
    if any(a is None for a in angles):
        raise ValueError("--alpha, --beta, --theta must be given together")
    params = LocalGateParams(*angles)
    return prepare_ansatz_state(n, params), {"initial": "ansatz", **asdict(params)}


def cmd_verify_average(args) -> int:
    """Sweep brute-force subset averages against the closed form."""
    cells = [(n, r) for n in args.n for r in args.r if r <= 2**n]
    if not cells:
        raise ValueError(f"every --r entry exceeds N = 2**n = {2**max(args.n)} for the largest --n")
    per_cell = 2 + args.states  # the basis state, the uniform one, then the random ones
    row_count = len(cells) * per_cell * (args.tau + 1)
    _check_rows(row_count, "--n, --r, --states and --tau")
    cap = ENUMERATION_CAP if args.cap is None else args.cap
    for n, r in cells:
        try:
            check_enumeration_cap(2**n, r, cap)
        except EnumerationCapError as exc:
            raise ValueError(f"--cap {exc}") from None
    (path,) = _outputs(args.out, "")

    header = ["n", "r", "tau", "state_id", "state_kind", "fc", "brute", "closed", "deviation"]
    taus = range(args.tau + 1)
    max_dev = 0.0

    def cell_rows(n: int, r: int):
        """The cell's rows, state by state; the states are stepped in groups, each over one enumeration.

        Each state is drawn straight into its row of the group, and its f_c is |sum_x a_x|^2 / N
        in Python floats, as coherence_fraction computes it.
        """
        nonlocal max_dev
        dim = 2**n
        rng = np.random.default_rng([args.seed, n, r])
        size = min(group_size(dim, r, args.tau), per_cell)
        group = np.empty((size, dim), dtype=np.complex128)
        for first in range(0, per_cell, size):
            count = min(size, per_cell - first)
            for state_id in range(first, first + count):
                row = group[state_id - first]
                if state_id == 0:
                    row[:] = 0.0
                    row[0] = 1.0
                elif state_id == 1:
                    row[:] = 1.0 / math.sqrt(dim)
                else:
                    row.real = rng.normal(size=dim)
                    row.imag = rng.normal(size=dim)
                    row /= np.linalg.norm(row)
            fcs = np.array([abs(t) ** 2 / dim for t in group[:count].sum(axis=1).tolist()])
            brute = average_trajectories(group[:count], r, args.tau)
            closed = np.stack([closed_form_average(dim, r, tau, fcs) for tau in taus], axis=1)
            deviation = np.abs(brute - closed)
            max_dev = max(max_dev, float(deviation.max()))
            for j, fc in enumerate(fcs.tolist()):
                state_id = first + j
                kind = ("basis", "uniform")[state_id] if state_id < 2 else "random"
                values = zip(brute[j].tolist(), closed[j].tolist(), deviation[j].tolist())
                for tau, (b, c, d) in zip(taus, values):
                    yield (n, r, tau, state_id, kind, fc, b, c, d)

    def frame() -> tuple[str, str]:
        meta = _meta(
            "verify-average",
            {
                "n": args.n, "r": args.r, "tau": args.tau, "states": args.states,
                "seed": args.seed, "cap": cap, "format": args.format,
                "max_deviation": max_dev, "threshold": DEVIATION_THRESHOLD,
            },
        )
        return _table_frame(args.format, meta, header)

    rows = (row for cell in cells for row in cell_rows(*cell))
    _write_late(path, frame, _table_body(args.format, rows))

    ok = max_dev <= DEVIATION_THRESHOLD
    print(
        f"verify-average: {row_count} rows, max deviation {max_dev:.3e} "
        f"(threshold {DEVIATION_THRESHOLD:.0e}) -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_optimal_curves(args) -> int:
    """Idealized optimal average success vs coherence fraction, per r."""
    dim = 2**args.n
    for r in args.r:
        if r > dim:
            raise ValueError(f"--r entries must be <= {dim}, got {r}")
    start, stop, count = _grid_spec(args.fc_grid)
    rows = len(args.r) * count
    _check_rows(rows, "--r with --fc-grid")
    (path,) = _outputs(args.out, "")
    fc_grid = np.linspace(start, stop, count)

    meta = _meta(
        "optimal-curves",
        {"n": args.n, "r": args.r, "fc_grid": args.fc_grid, "format": args.format},
    )
    _write_curves(
        path, args.format, meta, ["r", "fc", "p_opt"], [(r,) for r in args.r], fc_grid,
        ((optimal_average(dim, r, fc_grid), None) for r in args.r),
    )
    print(f"optimal-curves: wrote {rows} rows for N={dim}, r in {args.r}")
    return 0


def cmd_ansatz_grid(args) -> int:
    """Two gridded slices of the ansatz optimum: phase plane and mixing angle."""
    mixing_rows = len(args.mixing_n) * args.points
    _check_rows(mixing_rows, "--mixing-n with --points")
    phases_path, mixing_path = _outputs(args.out, f"_phases.{args.format}", f"_mixing.{args.format}")
    phase_axis = np.linspace(0.0, 2.0 * math.pi, args.points, endpoint=False)
    theta_axis = np.linspace(0.0, math.pi / 2.0, args.points)

    common = {"points": args.points, "format": args.format}
    _write_curves(
        phases_path, args.format,
        _meta("ansatz-grid", {**common, "block": "phases", "n": args.n}),
        ["n", "alpha", "beta", "p"], [(args.n, alpha) for alpha in phase_axis.tolist()], phase_axis,
        _phase_plane_rows(args.n, phase_axis),
    )
    thetas = theta_axis.tolist()
    _write_curves(
        mixing_path, args.format,
        _meta("ansatz-grid", {**common, "block": "mixing", "n": args.mixing_n}),
        ["n", "theta", "p"], [(n,) for n in args.mixing_n], theta_axis,
        ((np.array([optimal_success_vs_mixing(n, t) for t in thetas]), None) for n in args.mixing_n),
    )
    print(
        f"ansatz-grid: wrote {args.points**2} phase rows to {phases_path.name}, "
        f"{mixing_rows} mixing rows to {mixing_path.name}"
    )
    return 0


def cmd_run(args) -> int:
    """One search run with the success trace recorded every step.

    The trace is spooled as it is stepped, each value spelled as _JSON spells a
    finite float and joined by the JSON cell separator, as deep as the trace's.
    Its final value then completes the report, which _json_frame spells around it.
    """
    marked = args.marked
    try:
        marked.validate_for(2**args.n)
    except ValueError as exc:
        raise ValueError(f"--marked {exc}") from None
    state, state_meta = _start_state(args, args.n)
    (path,) = _outputs(args.out, "") if args.out else (None,)
    config, chunks = search_trace(state, marked, args.tau)
    final = math.nan

    def trace_texts():
        nonlocal final
        for chunk in chunks:
            final = chunk[-1]
            yield map(float.__repr__, chunk)

    def frame() -> tuple[str, str]:
        return _json_frame({
            "meta": _meta("run", {"n": args.n, "tau": args.tau, "marked": list(marked.indices), **state_meta}),
            "initial_fc": coherence_fraction(state),
            "report": RunReport(config, marked, final, (_BODY,)).to_dict(),
        })

    _write_late(path, frame, _body(_LAYOUTS["json"].sep, trace_texts()))
    if path:
        print(f"run: final success {final:.6f} after tau={args.tau}; wrote {args.out}")
    return 0


# one mini.json report, laid out as _JSON lays out its sorted fields one level deep in "reports"
_REPORT = (
    '{{\n      "converged": {},\n      "oracle_calls_used": {},\n      "result_index": {},'
    '\n      "result_value": {},\n      "seed": {},\n      "stop_reason": {},'
    '\n      "threshold_history": [\n        [\n          {}\n        ]\n      ]\n    }}'
)


def _report_text(rep) -> str:
    """_JSON's text of rep.to_dict() one level deeper, spelled field by field without the encoder."""
    history = "\n        ],\n        [\n          ".join(
        f"{_json_cell(x)},\n          {_json_cell(d)}" for x, d in rep.threshold_history
    )
    return _REPORT.format(
        "true" if rep.converged else "false", _json_cell(rep.oracle_calls_used), _json_cell(rep.result_index),
        _json_cell(rep.result_value), _json_cell(rep.seed), json.encoder.encode_basestring_ascii(rep.stop_reason),
        history,
    )


def cmd_minimize(args) -> int:
    """Threshold-descent minimization over seeds, with an aggregate summary."""
    if args.objective:
        try:
            table = ObjectiveTable.from_csv(args.objective)
        except (ValueError, OSError) as exc:
            raise ValueError(f"--objective {exc}") from None
        objective_meta = {"objective": str(args.objective)}
    else:
        table = make_objective(args.generator, args.objective_n, args.objective_seed)
        objective_meta = {
            "objective": f"generator:{args.generator}",
            "objective_n": args.objective_n,
            "objective_seed": args.objective_seed,
        }
    schedule = SearchSchedule(
        growth=args.growth,
        initial_reach=args.initial_reach,
        max_oracle_calls=args.budget,
    )
    prep, state_meta = _start_state(args, table.n)
    json_path, csv_path = _outputs(args.out, ".json", "_summary.csv")

    reports = _minimizations(table, prep, schedule, args.seeds)
    true_min = float(table.values.min())
    hits = [rep.result_value == true_min for rep in reports]
    rate = sum(hits) / len(reports)

    meta = _meta(
        "minimize",
        {
            **objective_meta,
            "n": table.n, "seeds": args.seeds, "growth": schedule.growth,
            "initial_reach": schedule.initial_reach, "budget": schedule.max_oracle_calls,
            **state_meta,
        },
    )
    texts = ([_report_text(rep)] for rep in reports)
    frame = _json_frame({"meta": meta, "true_minimum": true_min, "success_rate": rate, "reports": [_BODY]})
    _write(json_path, frame, _body(",\n    ", texts))

    rows = [
        (rep.seed, rep.result_index, rep.result_value, rep.oracle_calls_used,
         rep.converged, rep.stop_reason, hit)
        for rep, hit in zip(reports, hits)
    ]
    rows.append(("aggregate", "", "", sum(r.oracle_calls_used for r in reports), "", "", rate))
    _write_table(
        csv_path, "csv", meta,
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
    def angle(name: str):
        return _field_of(LocalGateParams, name, _float, alpha=0.0, beta=0.0, theta=0.0)

    sub.add_argument("--alpha", type=angle("alpha"), default=None, help="ansatz phase alpha (radians)")
    sub.add_argument("--beta", type=angle("beta"), default=None, help="ansatz phase beta (radians)")
    sub.add_argument("--theta", type=angle("theta"), default=None, help="ansatz mixing angle in [0, pi/2]")
    sub.add_argument("--uniform", action="store_true", help="use the uniform initial state")


class _Parser(argparse.ArgumentParser):
    """Raise every usage error as ArgumentError, which main reports, rather than exiting; take a negative
    number, exponent included, for a value ("--beta -1e-3"). Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, exit_on_error=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groversim",
        description="Grover search simulation and closed-form analytics for arbitrary initial states.",
    )
    parser.add_argument("--version", action="version", version=f"groversim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "verify-average",
        help="check the all-subsets brute-force average against the closed form",
    )
    p.add_argument("--n", type=_list_of(_qubits), default="1,2,3,4,5", help="comma-separated qubit counts")
    p.add_argument("--r", type=_list_of(_number(int, 1)), default="1,2,3",
                   help="comma-separated marked-set sizes")
    p.add_argument("--tau", type=_number(int, 0), default=8, help="largest step count (sweeps 0..tau)")
    p.add_argument("--states", type=_number(int, 0), default=20, help="random initial states per cell")
    p.add_argument("--seed", type=_number(int, 0), default=0, help="base RNG seed for the random states")
    p.add_argument("--cap", type=_number(int, 1, MAX_SUBSETS), default=None,
                   help="subset enumeration cap")
    p.add_argument("--out", type=_out, required=True, help="output file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_verify_average)

    p = subs.add_parser(
        "optimal-curves",
        help="idealized optimal average success vs coherence fraction",
    )
    p.add_argument("--n", type=_qubits, default=5, help="qubit count (N = 2**n)")
    p.add_argument("--r", type=_list_of(_number(int, 1)), default="1,2,3,4,10",
                   help="comma-separated marked-set sizes")
    p.add_argument("--fc-grid", type=_fc_grid, default="0:1:101",
                   help="coherence-fraction grid start:stop:count")
    p.add_argument("--out", type=_out, required=True, help="output file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_optimal_curves)

    p = subs.add_parser(
        "ansatz-grid",
        help="gridded ansatz optimum: phase plane at theta=pi/4 and mixing-angle slice",
    )
    p.add_argument("--n", type=_qubits, default=2, help="qubit count for the phase block")
    p.add_argument("--mixing-n", type=_list_of(_qubits), default="2,3,4",
                   help="qubit counts for the mixing block")
    p.add_argument("--points", type=_points, default=101, help="grid points per axis")
    p.add_argument("--out", type=_out, required=True,
                   help="output prefix; writes <out>_phases and <out>_mixing")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ansatz_grid)

    p = subs.add_parser("run", help="single search run with per-step success trace")
    p.add_argument("--n", type=_qubits, required=True, help="qubit count")
    p.add_argument("--marked", type=_marked, required=True, help="comma-separated marked indices")
    p.add_argument("--tau", type=_steps, required=True, help="number of Grover steps")
    _add_state_flags(p)
    p.add_argument("--out", type=_out_or_stdout, default=None, help="output JSON file (stdout when omitted)")
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("minimize", help="threshold-descent minimization over seeds")
    p.add_argument("--objective", default=None, help="objective CSV file (index,value with header)")
    p.add_argument("--generator", choices=GENERATOR_KINDS, default="permutation",
                   help="built-in objective generator (ignored when --objective is given)")
    p.add_argument("--objective-n", type=_qubits, default=6, help="generator qubit count")
    p.add_argument("--objective-seed", type=_number(int, 0), default=0, help="generator seed")
    p.add_argument("--seeds", type=_list_of(_number(int, 0)), default="0", help="comma-separated run seeds")
    p.add_argument("--budget", type=_field_of(SearchSchedule, "max_oracle_calls", _int), default=None,
                   help="oracle-call budget (unlimited when omitted)")
    p.add_argument("--growth", type=_field_of(SearchSchedule, "growth", _float), default=6.0 / 5.0,
                   help="reach growth factor in (1, 4/3]")
    p.add_argument("--initial-reach", type=_field_of(SearchSchedule, "initial_reach", _float), default=1.0,
                   help="starting reach (>= 1)")
    _add_state_flags(p)
    p.add_argument("--out", type=_out, required=True,
                   help="output prefix; writes <out>.json and <out>_summary.csv")
    p.set_defaults(func=cmd_minimize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built by the first main call and kept for every later one."""
    return build_parser()


def main(argv=None) -> int:
    """Run the command argv names; return its exit code, 2 for a usage or input error.

    Every call in a process parses with one parser, built on the first call. Sharing
    it is safe: parse_args makes a new Namespace per call, and each flag converter
    keeps no state and reads what it checks against (module globals such as
    ENUMERATION_CAP) when it is called. The one value fixed when the parser is built
    is --cap's maximum, MAX_SUBSETS, a constant; --cap's default, ENUMERATION_CAP,
    is read by the command, so a patched cap is not kept past its patch.
    """
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        message = " ".join(filter(None, (exc.argument_name, exc.message)))
    except (ValueError, OSError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
