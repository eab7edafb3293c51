"""CSV tables: the one text format of the stage files.

A table is a header row plus data rows of the same length. Floats are
written at 12 significant digits (`%.12g`), every other cell with `str`;
rows go through `csv.writer`, so lines end in `\\r\\n`. Reading returns the
cells as strings and leaves their parsing to the caller.
"""

import csv


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
