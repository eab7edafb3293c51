"""Window construction, chronological split, and CSV round-trip tests."""

import csv
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrevival import dataset as dset
from qrevival import dynamics as dy
from test_table import _per_cell_bytes


def _traj(z_s, z_a):
    z_s = np.asarray(z_s, dtype=float)
    ts = np.arange(len(z_s), dtype=float)
    return dy.Trajectory(times=ts, z_s=z_s, z_a=np.asarray(z_a, dtype=float),
                         channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)


def test_windows_from_seven_points():
    z_a = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    z_s = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    ds = dset.build_windows(_traj(z_s, z_a))
    assert len(ds) == 2
    assert np.array_equal(ds.xs, [[0.0, 0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4, 0.5]])
    assert np.array_equal(ds.ys, [0.5, 0.4])
    assert np.array_equal(ds.t_index, [5, 6])


def test_constant_trajectory_constant_samples():
    ds = dset.build_windows(_traj([0.25] * 40, [-0.5] * 40))
    assert len(ds) == 35
    assert np.array_equal(ds.xs, np.full((35, 5), -0.5))
    assert np.array_equal(ds.ys, np.full(35, 0.25))


def test_minimum_length_single_sample():
    ds = dset.build_windows(_traj([0.0] * 6, [0.0] * 6))
    assert len(ds) == 1
    with pytest.raises(ValueError, match="too short"):
        dset.build_windows(_traj([0.0] * 5, [0.0] * 5))


def test_window_len_parameter():
    ds = dset.build_windows(_traj(np.zeros(10), np.arange(10) / 10.0), window_len=3)
    assert len(ds) == 7
    assert np.array_equal(ds.xs[0], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        dset.build_windows(_traj(np.zeros(10), np.zeros(10)), window_len=0)


def test_sliding_property():
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, size=60)
    ds = dset.build_windows(_traj(rng.uniform(-1.0, 1.0, size=60), z))
    assert np.array_equal(ds.xs[1:, :-1], ds.xs[:-1, 1:])
    assert np.array_equal(ds.xs[:, -1], z[ds.t_index - 1])
    assert np.array_equal(np.diff(ds.t_index), np.ones(len(ds) - 1))


def test_split_floor_rule():
    ds = dset.build_windows(_traj(np.zeros(15), np.zeros(15)))   # 10 samples
    train, test = dset.chronological_split(ds)
    assert train.t_index.tolist() == [5, 6, 7, 8, 9]
    assert test.t_index.tolist() == [10, 11, 12, 13, 14]
    assert np.array_equal(np.concatenate([train.xs, test.xs]), ds.xs)
    # odd count: extra sample lands in test
    ds2 = dset.build_windows(_traj(np.zeros(16), np.zeros(16)))  # 11 samples
    train2, test2 = dset.chronological_split(ds2)
    assert len(train2) == 5 and len(test2) == 6
    assert train2.t_index[-1] < test2.t_index[0]


def test_pipeline_grid_yields_500_test_samples():
    n_points = 1005                                  # n_steps = 1004
    ds = dset.build_windows(_traj(np.zeros(n_points), np.zeros(n_points)))
    assert len(ds) == 1000
    train, test = dset.chronological_split(ds)
    assert len(train) == 500 and len(test) == 500


def test_split_requires_two_samples():
    ds = dset.build_windows(_traj(np.zeros(6), np.zeros(6)))
    with pytest.raises(ValueError):
        dset.chronological_split(ds)


def test_out_of_range_values_rejected():
    z = np.zeros(10)
    bad = z.copy()
    bad[7] = 1.5
    with pytest.raises(ValueError, match="leaves"):
        dset.build_windows(_traj(z, bad))
    # Trajectory itself rejects out-of-range z_s before windowing can
    with pytest.raises(ValueError):
        _traj(bad, z)
    # NaN fails every range check, so it is rejected as out of range
    nan = z.copy()
    nan[4] = np.nan
    for zs, za in ((nan, z), (z, nan)):
        with pytest.raises(ValueError):
            _traj(zs, za)
    for x, y in (([[0.1, np.nan]], [0.0]), ([[0.1, 0.2]], [np.nan]),
                 ([[0.1, -1.5]], [0.0])):
        with pytest.raises(ValueError, match="leaves"):
            dset.WindowDataset(xs=np.array(x), ys=np.array(y), t_index=[5])


def test_dataset_checks_shapes_and_t_index():
    ok = dict(xs=np.zeros((3, 2)), ys=np.zeros(3), t_index=[2, 3, 4])
    assert len(dset.WindowDataset(**ok)) == 3
    for bad in (dict(xs=np.zeros(3)), dict(xs=np.zeros((4, 2))), dict(ys=np.zeros((3, 1))),
                dict(t_index=[2, 3])):
        with pytest.raises(ValueError, match="shapes"):
            dset.WindowDataset(**{**ok, **bad})
    for t_index in ([1, 2, 3], [2, 3, 5], [4, 3, 2]):
        with pytest.raises(ValueError, match="t_index"):
            dset.WindowDataset(**{**ok, "t_index": t_index})


def test_stack_shapes():
    ds = dset.build_windows(_traj(np.zeros(12), np.zeros(12)))
    xs, ys = dset.stack(ds)
    assert xs.shape == (7, 5) and ys.shape == (7,)
    xe, ye = dset.stack(dset.WindowDataset(np.zeros((0, 5)), np.zeros(0), []))
    assert xe.shape == (0, 5) and ye.shape == (0,)


_to_12_digits = np.vectorize(lambda v: float(f"{v:.12g}"))


def _random_dataset(data, w, n, elements=st.floats(-1.0, 1.0)):
    """A dataset of n windows of length w cut from a random trajectory in [-1, 1]."""
    z = data.draw(arrays(float, (2, n + w), elements=elements))
    return dset.build_windows(_traj(z[0], z[1]), window_len=w)


def _assert_per_cell_bytes(tmp_path, ds):
    path = os.path.join(tmp_path, "ds.csv")
    dset.write_dataset(ds, path)
    header = [f"x{j + 1}" for j in range(ds.window_len)] + ["y", "t_index", "split"]
    split = ["train"] * ds.split_index + ["test"] * (len(ds) - ds.split_index)
    columns = [*ds.xs.T.tolist(), ds.ys.tolist(), ds.t_index.tolist(), split]
    with open(path, "rb") as f:
        assert f.read() == _per_cell_bytes(os.path.join(tmp_path, "ref.csv"), header, columns)


# signed zeros, the smallest subnormals and the ends of the range, among arbitrary draws
_EDGE_CELLS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.0, 1.0]),
                        st.floats(-1.0, 1.0))


@settings(max_examples=25)
@given(data=st.data(), w=st.integers(1, 6), n=st.integers(1, 60))
def test_write_dataset_matches_per_cell_csv_writer(tmp_path, data, w, n):
    _assert_per_cell_bytes(tmp_path, _random_dataset(data, w, n, _EDGE_CELLS))


@pytest.mark.parametrize("w", [1, 5])
def test_empty_dataset_matches_per_cell_csv_writer(tmp_path, w):
    _assert_per_cell_bytes(tmp_path, dset.WindowDataset(np.empty((0, w)), np.empty(0), []))


@settings(max_examples=25)
@given(data=st.data(), w=st.integers(1, 6), n=st.integers(1, 60))
def test_csv_roundtrip(tmp_path, data, w, n):
    ds = _random_dataset(data, w, n)
    path = os.path.join(tmp_path, "ds.csv")
    dset.write_dataset(ds, path)
    back = dset.read_dataset(path)
    assert len(back) == n and back.window_len == w
    assert np.array_equal(back.t_index, ds.t_index)
    assert back.split_index == ds.split_index == n // 2
    # each value is the original rounded to 12 significant digits
    assert np.array_equal(back.xs, _to_12_digits(ds.xs))
    assert np.array_equal(back.ys, _to_12_digits(ds.ys))
    # re-export is byte-identical
    second = os.path.join(tmp_path, "ds2.csv")
    dset.write_dataset(back, second)
    with open(path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("fault", ["nan", "range", "gap", "split", "shift"])
@settings(max_examples=25)
@given(data=st.data(), w=st.integers(1, 6), n=st.integers(1, 60))
def test_read_rejects_corrupted_cell(tmp_path, data, w, n, fault):
    assume(fault != "gap" or n >= 2)        # a lone row's t_index has no gap
    assume(fault != "shift" or (w >= 2 and n >= 2))     # else every window cell is unique
    path = os.path.join(tmp_path, "ds.csv")
    dset.write_dataset(_random_dataset(data, w, n), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    row = rows[1 + data.draw(st.integers(0, n - 1))]
    if fault in ("nan", "range"):
        col = data.draw(st.integers(0, w))             # an x cell or y
        row[col] = "nan" if fault == "nan" else data.draw(st.sampled_from(["1.5", "-2"]))
    elif fault == "gap":
        row[w + 1] = str(int(row[w + 1]) + data.draw(st.sampled_from([-1, 1, 2])))
    elif fault == "split":
        row[w + 2] = "test" if row[w + 2] == "train" else "train"
    else:
        # an x2..xw cell above the last row, which x_{j-1} repeats one row down
        row = rows[1 + data.draw(st.integers(0, n - 2))]
        col = data.draw(st.integers(1, w - 1))
        row[col] = "0.123" if row[col] != "0.123" else "0.321"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ValueError, match="shifted" if fault == "shift" else None):
        dset.read_dataset(path)


def test_writer_and_reader_keep_one_shift_rule(tmp_path):
    # x3 of data row 10 altered: windows that are not one slide of a series fail to write,
    # and the same cell altered in a written file fails to read, in the same words
    z = np.random.default_rng(3).uniform(-1, 1, (2, 30))
    ds = dset.build_windows(_traj(z[0], z[1]), window_len=5)
    path = os.path.join(tmp_path, "ds.csv")
    dset.write_dataset(ds, path)
    with open(path) as f:
        lines = f.read().splitlines()
    row = lines[10].split(",")
    row[2] = "0.123"
    lines[10] = ",".join(row)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as read_exc:
        dset.read_dataset(path)
    ds.xs[9, 2] = 0.123
    with pytest.raises(ValueError) as write_exc:
        dset.write_dataset(ds, path)
    assert str(read_exc.value) == str(write_exc.value) \
        == f"column x3 is not x2 shifted up one row in {path}"


def test_window_check_of_the_writer_is_the_series_rule(tmp_path):
    # every single altered cell of a 6 x 4 window matrix: write_dataset's array check raises
    # what the reader's _series raises on the same windows as cells, the first failing
    # column first; a cell that only one window holds (the first or last series value) passes
    path = os.path.join(tmp_path, "ds.csv")
    ds = dset.build_windows(_traj(np.zeros(10), np.arange(10) / 8.0 - 0.5), window_len=4)
    for i, j in np.ndindex(ds.xs.shape):
        altered = dset.WindowDataset(ds.xs.copy(), ds.ys, ds.t_index)
        altered.xs[i, j] = 0.875
        try:
            dset._series(altered.xs.T.tolist(), path)
        except ValueError as exc:
            with pytest.raises(ValueError) as written:
                dset.write_dataset(altered, path)
            assert str(written.value) == str(exc)
        else:
            assert (i, j) in ((0, 0), (5, 3))
            dset.write_dataset(altered, path)
            assert np.array_equal(dset.read_dataset(path).xs, altered.xs)


def test_read_rejects_malformed(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as f:
        f.write("x1,x2,y,t_index,split\n0,0,0,2,test\n")
    # single sample: floor rule puts it in test; consistent file loads
    ds = dset.read_dataset(path)
    assert len(ds) == 1 and ds.split_index == 0
    with open(path, "w") as f:
        f.write("x1,x2,y,t_index,split\n0,0,0,2,train\n")
    with pytest.raises(ValueError, match="split column"):
        dset.read_dataset(path)
    with open(path, "w") as f:
        f.write("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        dset.read_dataset(path)
    with open(path, "w") as f:
        f.write("x1,x2,y,t_index,split\n0,0,0,2,test\n0,0,0,9,test\n")
    with pytest.raises(ValueError, match="t_index"):
        dset.read_dataset(path)
