"""The CSV and JSON codec: the column-at-a-time writer against the per-cell csv.writer
rule, the whole-table reader against the cells written and the per-line reader, and the
JSON writer against json.dump."""

import csv
import dataclasses
import gc
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrevival import cli, table
from qrevival import memory_metric as mm

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf, 1.0]
_COLUMN = {
    "float": st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True)),
    "int": st.integers(-10 ** 12, 10 ** 12),
    "str": st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8),
}


def _per_cell_bytes(path, header, columns) -> bytes:
    """What csv.writer writes with a float cell at %.12g and any other cell through str."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
                    for row in zip(*columns))
    with open(path, "rb") as f:
        return f.read()


def _per_line_read_table(path, header=None):
    """read_table as one list per line: the reference the whole-table reader must match."""
    with open(path) as f:
        got, *rows = [line.split(",") for line in f.read().splitlines()] or [None]
    if got is None or (header is not None and got != list(header)):
        raise ValueError(f"bad header {got!r} in {path}")
    for row in rows:
        if len(row) != len(got):
            raise ValueError(f"bad row {row!r} in {path}")
    return got, list(zip(*rows)) or [()] * len(got)


def _outcome(read, path, header):
    try:
        return read(path, header)
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=80)
@given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(_COLUMN)), min_size=1, max_size=5),
       n=st.integers(0, 12))
def test_write_table_matches_per_cell_csv_writer(tmp_path, data, kinds, n):
    columns = [data.draw(st.lists(_COLUMN[k], min_size=n, max_size=n)) for k in kinds]
    header = [f"c{j}" for j in range(len(kinds))]
    path = os.path.join(tmp_path, "new.csv")
    # float and int columns as numpy arrays, the way the stage writers pass them
    table.write_table(path, header, [c if k == "str" else np.array(c, dtype=k)
                                     for k, c in zip(kinds, columns)])
    with open(path, "rb") as f:
        written = f.read()
    assert written == _per_cell_bytes(os.path.join(tmp_path, "old.csv"), header, columns)
    # read back, each column is the tuple of the cells written
    cells = [tuple(f"{v:.12g}" if isinstance(v, float) else str(v) for v in c) for c in columns]
    assert table.read_table(path, header) == (header, cells)
    lf = os.path.join(tmp_path, "lf.csv")
    with open(lf, "wb") as f:
        f.write(written.replace(b"\r\n", b"\n"))
    assert table.read_table(lf, header) == (header, cells)


@pytest.mark.parametrize("segments", [[], [(3, 7), (12, 15)]])
def test_segments_csv_matches_per_cell_csv_writer(tmp_path, segments):
    report = mm.RevivalReport(n_rev=len(segments), n_eval=20, score=len(segments) / 20,
                              segments=segments, epsilon=0.015)
    path = os.path.join(tmp_path, "segments.csv")
    mm.write_segments_csv(report, path)
    with open(path, "rb") as f:
        got = f.read()
    assert got == _per_cell_bytes(os.path.join(tmp_path, "old.csv"), ["t1", "t2"],
                                  list(zip(*segments)) or [[], []])
    if not segments:
        assert got == b"t1,t2\r\n"


def test_float_columns_parse_as_float_does(tmp_path):
    cells = ("1", "-0", "2.5", "nan", "inf", "1e-320")
    path = os.path.join(tmp_path, "p.csv")
    with open(path, "w") as f:
        f.write("t_index,y_hat\n" + "".join(f"{i},{v}\n" for i, v in enumerate(cells)))
    _, (t_index, y_hat) = table.read_table(path)
    assert y_hat == cells
    want = np.array([float(v) for v in cells])
    assert np.array(y_hat, dtype=float).tobytes() == want.tobytes()
    # the predictions reader parses its y_hat column the same way, and rejects
    # the non-finite values only after parsing them
    with open(path, "w") as f:
        f.write("t_index,y_hat\n0,1\n1,-0\n2,2.5\n3,1e-320\n")
    _, preds = cli.read_predictions(path)
    assert preds.tobytes() == np.array([1.0, -0.0, 2.5, 1e-320]).tobytes()
    for bad in ("nan", "inf"):
        with open(path, "w") as f:
            f.write(f"t_index,y_hat\n0,1\n1,{bad}\n")
        with pytest.raises(ValueError, match="non-finite y_hat"):
            cli.read_predictions(path)
    with open(path, "w") as f:
        f.write("t_index,y_hat\n0,1\n1,half\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'half'"):
        cli.read_predictions(path)
    with open(path, "w") as f:
        f.write("t_index,y_hat\n")
    assert table.read_table(path) == (["t_index", "y_hat"], [(), ()])


# every line boundary of str.splitlines
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# each one draw: any cell of up to 3 characters over "ab1.-é", and any line end, one
# break or a run of two making an empty line
_CELL = st.sampled_from(["".join(c) for m in range(4)
                         for c in itertools.product("ab1.-é", repeat=m)])
_END = st.sampled_from(_BREAKS + [a + b for a in _BREAKS for b in _BREAKS])


@settings(max_examples=300)
@given(data=st.data(), k=st.integers(1, 3), header_end=_END,
       rows=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)), _END), max_size=6),
       trailing=st.booleans(), given_header=st.sampled_from(["none", "own", "other"]))
def test_read_table_matches_per_line_reader(tmp_path, data, k, header_end, rows, trailing,
                                            given_header):
    # rows mostly of the header's width k (None), some wider, narrower or empty, and line
    # breaks of every kind; the table's shape is drawn first, then all its cells at once
    widths = [k] + [k if w is None else w for w, _ in rows]
    cells = iter(data.draw(st.lists(_CELL, min_size=sum(widths), max_size=sum(widths))))
    lines = [",".join(itertools.islice(cells, w)) for w in widths]
    ends = [header_end] + [end for _, end in rows]
    text = "".join(line + end for line, end in zip(lines, ends))
    if not trailing:
        text = text.rstrip("".join(_BREAKS))
    path = os.path.join(tmp_path, "t.csv")
    with open(path, "wb") as f:
        f.write(text.encode("utf-8"))
    header = {"none": None, "own": lines[0].split(","), "other": ["x"] * k}[given_header]
    assert _outcome(table.read_table, path, header) == _outcome(_per_line_read_table, path, header)


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 2)])
def test_write_table_rejects_columns_of_unequal_length(tmp_path, lengths):
    path = os.path.join(tmp_path, "t.csv")
    with pytest.raises(ValueError):
        table.write_table(path, [f"c{j}" for j in range(len(lengths))],
                          [np.arange(m, dtype=float) for m in lengths])
    assert not os.path.exists(path)


def test_table_round_trip_runs_no_garbage_collection(tmp_path):
    # a codec that builds a list or tuple per row sets off collections as the table grows
    n = 2000
    columns = [np.arange(n), np.linspace(-1.0, 1.0, n), [f"s{i}" for i in range(n)]]
    path = os.path.join(tmp_path, "t.csv")
    passes = []
    def on_gc(phase, info):
        if phase == "start":
            passes.append(info["generation"])
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(on_gc)
    try:
        table.write_table(path, ["i", "x", "s"], columns)
        _, got = table.read_table(path, ["i", "x", "s"])
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*thresholds)
    assert passes == []
    assert got[2] == tuple(columns[2])


_LEAF = (st.none() | st.booleans() | st.integers() | st.text()
         | st.floats(allow_nan=True, allow_infinity=True))
# nested lists, tuples and dicts over at most 20 leaf slots (None), drawn before the leaves
_SHAPE = st.recursive(st.none(), lambda inner: st.tuples(st.sampled_from((list, tuple, dict)),
                                                          st.lists(inner)), max_leaves=20)


def _slots(shape):
    return 1 if shape is None else sum(map(_slots, shape[1]))


@st.composite
def _json(draw):
    """An object of json.dump's types: a shape, then all its leaves in one draw, and each
    dict's keys in one draw; a repeated key keeps its last entry, so no draw is retried."""
    shape = draw(_SHAPE)
    leaves = iter(draw(st.lists(_LEAF, min_size=_slots(shape), max_size=_slots(shape))))

    def fill(node):
        if node is None:
            return next(leaves)
        kind, children = node
        items = [fill(child) for child in children]
        if kind is not dict:
            return kind(items)
        keys = draw(st.lists(st.text(), min_size=len(items), max_size=len(items)))
        return dict(zip(keys, items))
    return fill(shape)


@example(obj={"": [math.nan, (math.inf, -math.inf)], "é": {"b": 1, "a": None}})
@given(obj=_json())
def test_write_json_matches_json_dump(tmp_path, obj):
    path, old = os.path.join(tmp_path, "new.json"), os.path.join(tmp_path, "old.json")
    table.write_json(path, obj)
    with open(old, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(path, "rb") as f, open(old, "rb") as g:
        assert f.read() == g.read()


@given(data=st.data(), n_eval=st.integers(1, 40),
       epsilon=st.floats(1e-300, 1e300, allow_subnormal=False))
def test_write_report_writes_the_asdict_bytes(tmp_path, data, n_eval, epsilon):
    n_rev = data.draw(st.integers(0, n_eval))
    starts = data.draw(st.lists(st.integers(0, n_eval - 1), max_size=5))
    segments = [(t1, data.draw(st.integers(t1, n_eval - 1))) for t1 in starts]
    report = mm.RevivalReport(n_rev=n_rev, n_eval=n_eval, score=n_rev / n_eval,
                              segments=segments, epsilon=epsilon)
    path, old = os.path.join(tmp_path, "report.json"), os.path.join(tmp_path, "old.json")
    mm.write_report(report, path)
    with open(old, "w") as f:
        json.dump(dataclasses.asdict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    with open(path, "rb") as f, open(old, "rb") as g:
        assert f.read() == g.read()
