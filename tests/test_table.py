"""The CSV codec: the column-at-a-time writer against the per-cell csv.writer rule,
and the column reader against the cells written."""

import csv
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
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
