#!/usr/bin/env python3
"""Report how far the numbers of two `golden_outputs.sh` trees differ.

Usage: scripts/compare_outputs.py A B

A and B are OUT_DIRs written by `scripts/golden_outputs.sh` from two source
trees.  For every run and every output file its manifest lists (except
config_resolved.json, which records the output path), the CSV cells or JSON
leaves are matched by position and key.  Prints one line per file: the
largest difference |a - b| over its numeric fields, divided by the largest
magnitude among the file's finite numeric fields in either tree (so a value
near zero beside values of order one does not read as a large change), or
FAIL with the first mismatch when a non-numeric field differs, a NaN became
a number or a number became NaN (naming the field), a file is missing, or
the files have a different shape.  Exits 1 if any file fails.
A changed checksum whose file reports a difference at rounding level
(around 1e-15) changed in its last digits only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    pass


def _number(value):
    """value as a float if it is a number (JSON) or reads as one (CSV text), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _numeric_pairs(a, b, where: str):
    """Yield the matched numeric leaves (x, y) of a and b; Mismatch on anything else, or on a
    NaN matched with a number."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where}: keys {sorted(a)} != {sorted(b)}")
        for k in a:
            yield from _numeric_pairs(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _numeric_pairs(x, y, f"{where}[{i}]")
    else:
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            if math.isnan(x) != math.isnan(y):
                change = "a NaN became a number" if math.isnan(x) else "a number became NaN"
                raise Mismatch(f"{where}: {a!r} -> {b!r}, {change}")
            yield x, y
        elif a != b:
            raise Mismatch(f"{where}: {a!r} != {b!r}")


def _compare(a, b, where: str) -> float:
    """Largest |x - y| of the numeric leaves of a and b over the largest finite |x| or |y|."""
    pairs = list(_numeric_pairs(a, b, where))
    scale = max((abs(v) for pair in pairs for v in pair if math.isfinite(v)), default=0.0)
    worst = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(x - y) / scale)
    return worst


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _outputs(tree: Path) -> dict[str, Path]:
    """'run/file' -> path for every output a run manifest of the tree lists."""
    found = {}
    for manifest in sorted(tree.glob("*/run_manifest.json")):
        for name in json.loads(manifest.read_text())["outputs"]:
            if name != "config_resolved.json":
                found[f"{manifest.parent.name}/{name}"] = manifest.parent / name
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    left, right = (_outputs(Path(p)) for p in argv)
    failed = False
    for key in sorted(left.keys() | right.keys()):
        if key not in left or key not in right:
            print(f"{key} FAIL: only in {'A' if key in left else 'B'}")
            failed = True
            continue
        try:
            print(f"{key} {_compare(_load(left[key]), _load(right[key]), key):.3g}")
        except Mismatch as err:
            print(f"{key} FAIL: {err}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
