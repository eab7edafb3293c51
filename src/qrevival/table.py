"""CSV tables and JSON files: the text formats of the stage files.

A table is a header row plus data rows of the same length. Floats are
written at 12 significant digits (`%.12g`), every other cell with `str`;
rows go through `csv.writer`, so lines end in `\\r\\n`. Reading returns the
cells as strings and leaves their parsing to the caller.

A JSON file is one value with an indent of 2, sorted keys and a final
newline. `positive_real` and `count` check the numbers read from one: `true`
is an int to Python, and its `json` reads `Infinity`, `NaN` and any integer.
"""

import csv
import json
import sys


def _cell(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def read_table(path, header=None):
    """(header, rows) of a CSV table, every cell a string.

    Raises ValueError on an empty file, on a header other than `header`
    (when given) and on a row whose length differs from the header's.
    """
    with open(path, newline="") as f:
        r = csv.reader(f)
        got = next(r, None)
        if got is None or (header is not None and got != list(header)):
            raise ValueError(f"bad header {got!r} in {path}")
        rows = list(r)
    for row in rows:
        if len(row) != len(got):
            raise ValueError(f"bad row {row!r} in {path}")
    return got, rows


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def positive_real(name: str, value) -> float:
    """`value` as a float; ValueError unless it is a non-bool int or float in (0, max float]."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def count(name: str, value, minimum: int) -> None:
    """ValueError unless `value` is an int >= minimum (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
