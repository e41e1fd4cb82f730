"""Check cli._spell against _FLOAT on millions of floats; exit 1 on the first block that differs.

    PYTHONPATH=src python tests/sweep_spelling.py [--seed N]

2,000,000 values uniform on [1e-4, 1), where _spell makes the digits
itself, then 1,000,000 random float64 bit patterns, which reach every
path. Its name keeps it out of tier-1's collection; CI runs it on each
SIMD dispatch setting, as the output must not depend on it.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from groversim.cli import _FLOAT, _spell

BLOCK = 1 << 16


def spelled(values: np.ndarray) -> bytes:
    cells = _spell(values)
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0")


def formatted(values: np.ndarray) -> bytes:
    return "".join(_FLOAT(value) + "\n" for value in values.tolist()).encode("ascii")


def sweep(name: str, draw, count: int) -> bool:
    for first in range(0, count, BLOCK):
        values = draw(min(BLOCK, count - first))
        if spelled(values) != formatted(values):
            bad = next(v for v in values.tolist() if spelled(np.array([v])) != formatted(np.array([v])))
            print(f"{name}: {bad!r} is spelled {spelled(np.array([bad]))!r}, not {formatted(np.array([bad]))!r}")
            return False
    print(f"{name}: {count:,} values, every text equal")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    rng = np.random.default_rng(parser.parse_args().seed)
    ok = sweep("uniform on [1e-4, 1)", lambda size: rng.uniform(1e-4, 1.0, size), 2_000_000)
    ok &= sweep("bit patterns", lambda size: rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),
                1_000_000)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
