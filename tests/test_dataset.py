"""Window construction, chronological split, and CSV round-trip tests."""

import os

import numpy as np
import pytest

from qrevival import dataset as dset
from qrevival import dynamics as dy


def _traj(z_s, z_a):
    z_s = np.asarray(z_s, dtype=float)
    ts = np.arange(len(z_s), dtype=float)
    return dy.Trajectory(times=ts, z_s=z_s, z_a=np.asarray(z_a, dtype=float),
                         channel=None, g=1.0, initial_state_tag=dy.STATE_CUSTOM)


def test_windows_from_seven_points():
    z_a = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    z_s = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    ds = dset.build_windows(_traj(z_s, z_a))
    assert len(ds) == 2
    assert np.array_equal(ds.samples[0].x, [0.0, 0.1, 0.2, 0.3, 0.4])
    assert ds.samples[0].y == 0.5 and ds.samples[0].t_index == 5
    assert np.array_equal(ds.samples[1].x, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert ds.samples[1].y == 0.4 and ds.samples[1].t_index == 6


def test_constant_trajectory_constant_samples():
    ds = dset.build_windows(_traj([0.25] * 40, [-0.5] * 40))
    assert len(ds) == 35
    for s in ds.samples:
        assert np.array_equal(s.x, [-0.5] * 5)
        assert s.y == 0.25


def test_minimum_length_single_sample():
    ds = dset.build_windows(_traj([0.0] * 6, [0.0] * 6))
    assert len(ds) == 1
    with pytest.raises(ValueError, match="too short"):
        dset.build_windows(_traj([0.0] * 5, [0.0] * 5))


def test_window_len_parameter():
    ds = dset.build_windows(_traj(np.zeros(10), np.arange(10) / 10.0), window_len=3)
    assert len(ds) == 7
    assert np.array_equal(ds.samples[0].x, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        dset.build_windows(_traj(np.zeros(10), np.zeros(10)), window_len=0)


def test_sliding_property():
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, size=60)
    ds = dset.build_windows(_traj(rng.uniform(-1.0, 1.0, size=60), z))
    for prev, cur in zip(ds.samples, ds.samples[1:]):
        assert np.array_equal(cur.x[:-1], prev.x[1:])
        assert cur.x[-1] == z[cur.t_index - 1]
        assert cur.t_index == prev.t_index + 1


def test_split_floor_rule():
    ds = dset.build_windows(_traj(np.zeros(15), np.zeros(15)))   # 10 samples
    train, test = dset.chronological_split(ds)
    assert [s.t_index for s in train] == [5, 6, 7, 8, 9]
    assert [s.t_index for s in test] == [10, 11, 12, 13, 14]
    # odd count: extra sample lands in test
    ds2 = dset.build_windows(_traj(np.zeros(16), np.zeros(16)))  # 11 samples
    train2, test2 = dset.chronological_split(ds2)
    assert len(train2) == 5 and len(test2) == 6
    assert max(s.t_index for s in train2) < min(s.t_index for s in test2)


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
    for x, y in (([0.1, np.nan], 0.0), ([0.1, 0.2], np.nan)):
        with pytest.raises(ValueError, match="leaves"):
            dset.WindowSample(x=np.array(x), y=y, t_index=5)


def test_stack_shapes():
    ds = dset.build_windows(_traj(np.zeros(12), np.zeros(12)))
    xs, ys = dset.stack(ds.samples)
    assert xs.shape == (7, 5) and ys.shape == (7,)
    xe, ye = dset.stack([])
    assert xe.shape[0] == 0 and ye.shape == (0,)


def test_determinism():
    rng = np.random.default_rng(9)
    z_s = rng.uniform(-1, 1, 30)
    z_a = rng.uniform(-1, 1, 30)
    a = dset.build_windows(_traj(z_s, z_a))
    b = dset.build_windows(_traj(z_s, z_a))
    assert len(a) == len(b)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.x, sb.x) and sa.y == sb.y


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    ds = dset.build_windows(_traj(rng.uniform(-1, 1, 23), rng.uniform(-1, 1, 23)))
    path = os.path.join(tmp_path, "ds.csv")
    dset.write_dataset(ds, path)
    back = dset.read_dataset(path)
    assert len(back) == len(ds) and back.split_index == ds.split_index
    for sa, sb in zip(ds.samples, back.samples):
        assert np.allclose(sa.x, sb.x, atol=1e-12)
        assert sb.y == pytest.approx(sa.y, abs=1e-12)
        assert sa.t_index == sb.t_index
    # re-export is byte-identical
    second = os.path.join(tmp_path, "ds2.csv")
    dset.write_dataset(back, second)
    with open(path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()


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
