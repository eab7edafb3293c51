"""CSV tables and JSON files: the text formats of the stage files.

A table is a header row plus data rows of the same length. One row format per
table writes a float column at 12 significant digits (`%.12g`), any other with
`str`, and ends lines in `\\r\\n`; no cell holds a comma, quote or newline, so
the bytes are those of `csv.writer`. `read_table` checks each row's width by
its comma count, then splits the whole body at commas once into columns of
string cells, each parsed whole by its stage reader; it unquotes nothing, so a
quoted cell fails its column's parse. Neither side builds a list or tuple per row.

A JSON file is one value with an indent of 2, sorted keys and a final
newline. Every JSON reader holds a document to one rule: it is an object
whose keys are all known and include the required ones (`check_keys`), and
`from_doc` builds a dataclass from such an object. `positive_real` and
`count` check the numbers read from one: `true` is an int to Python, and its
`json` reads `Infinity`, `NaN` and any integer.
"""

import itertools
import json
import sys
from dataclasses import MISSING

import numpy as np

FLOAT_CELL, EOL = "%.12g", "\r\n"        # of every table writer: a float cell, a line end


def write_table(path, header, columns) -> None:
    """Header row, then row i of the equal-length `columns` (arrays or lists) per line.

    One `%` formats the table: the row format once per row, on the cells gathered in
    row-major order by slice assignment, which raises ValueError on columns of unequal length."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join(FLOAT_CELL if c.dtype.kind == "f" else "%s" for c in columns) + EOL
    k, n = len(columns), len(columns[0])
    cells = [None] * (k * n)
    for j, c in enumerate(columns):
        cells[j::k] = c.tolist()
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + EOL + (fmt * n) % tuple(cells))


def read_table(path, header=None):
    """(header, columns) of a CSV table, each column a tuple of string cells.

    Raises ValueError on an empty file, on a header other than `header`
    (when given) and on a row whose length differs from the header's.
    """
    with open(path, newline="") as f:
        lines = f.read().splitlines()
    got = lines[0].split(",") if lines else None
    if got is None or (header is not None and got != list(header)):
        raise ValueError(f"bad header {got!r} in {path}")
    k = len(got)
    if set(map(str.count, lines, itertools.repeat(","))) != {k - 1}:
        row = next(line for line in lines if line.count(",") != k - 1).split(",")
        raise ValueError(f"bad row {row!r} in {path}")
    cells = ",".join(lines).split(",")
    return got, [tuple(cells[j::k]) for j in range(k, 2 * k)]


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON value in `path`; ValueError naming the path on bad UTF-8 or bad JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:                    # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON: {e}") from e


def check_keys(obj, allowed, required, where: str) -> None:
    """ValueError unless `obj` is a dict with keys in `allowed` and all of `required`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValueError(f"missing keys {missing} in {where}")


def from_doc(cls, doc, where: str, **nested):
    """cls(**doc), its keys checked against the dataclass fields of cls.

    A field without a default is required; `nested` maps a key to the
    function that builds the field's value from the JSON value. A value the
    constructor (or a nested builder) rejects raises ValueError prefixed
    with `where`.
    """
    fields = cls.__dataclass_fields__
    required = [k for k, f in fields.items()
                if f.default is MISSING and f.default_factory is MISSING]
    check_keys(doc, fields, required, where)
    try:
        return cls(**{k: nested[k](v) if k in nested else v for k, v in doc.items()})
    except (ValueError, TypeError) as e:
        raise ValueError(f"{where}: {e}") from e


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
