"""Sliding-window supervised dataset over a simulated trajectory.

Row i pairs the `window_len` most recent ancilla readings
[z_a[t-w], ..., z_a[t-1]] with the system label z_s[t], t = t_index[i].
Rows are kept in grid order and split chronologically down the middle: the
first half trains, the second half tests, with no shuffling across the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import Z_BOUND, Trajectory
from .table import FLOAT_CELL, read_table, write_table


def check_t_index(t_index: np.ndarray, first: int) -> None:
    """ValueError unless t_index starts at or after `first` and advances by exactly 1."""
    if len(t_index) and (t_index[0] < first or np.any(np.diff(t_index) != 1)):
        raise ValueError(f"t_index must start at or after {first} and advance by exactly 1")


@dataclass
class WindowDataset:
    """Windows xs (n, w), labels ys (n,) and label grid indices t_index (n,)."""

    xs: np.ndarray
    ys: np.ndarray
    t_index: np.ndarray

    def __post_init__(self):
        self.xs = np.ascontiguousarray(self.xs, dtype=float)
        self.ys = np.ascontiguousarray(self.ys, dtype=float)
        self.t_index = np.asarray(self.t_index, dtype=int)
        n = len(self.ys)
        if self.xs.ndim != 2 or self.xs.shape[0] != n or self.ys.shape != (n,) \
                or self.t_index.shape != (n,):
            raise ValueError(f"shapes disagree: xs {self.xs.shape}, ys {self.ys.shape}, "
                             f"t_index {self.t_index.shape}")
        if not (np.all(np.abs(self.xs) <= Z_BOUND) and np.all(np.abs(self.ys) <= Z_BOUND)):
            raise ValueError("a window or label leaves [-1, 1]")     # also NaN
        check_t_index(self.t_index, self.window_len)

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def window_len(self) -> int:
        return self.xs.shape[1]

    @property
    def split_index(self) -> int:
        """Rows before it train, the rest test; the odd row goes to test."""
        return len(self) // 2


def build_windows(traj: Trajectory, window_len: int = 5) -> WindowDataset:
    """Slide a window of ancilla readings over the trajectory.

    Produces len(traj) - window_len rows; the first one labels the system
    observable at grid index window_len.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    n = len(traj)
    if n < window_len + 1:
        raise ValueError(
            f"trajectory too short: {n} points cannot fill a {window_len}-window "
            f"plus a label")
    return WindowDataset(xs=sliding_window_view(traj.z_a[:-1], window_len),
                         ys=traj.z_s[window_len:], t_index=np.arange(window_len, n))


def chronological_split(ds: WindowDataset) -> Tuple[WindowDataset, WindowDataset]:
    """First-half train view, second-half test view; odd row goes to test."""
    if len(ds) < 2:
        raise ValueError(f"need at least 2 samples to split, got {len(ds)}")
    k = ds.split_index
    return (WindowDataset(ds.xs[:k], ds.ys[:k], ds.t_index[:k]),
            WindowDataset(ds.xs[k:], ds.ys[k:], ds.t_index[k:]))


def stack(view: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
    """(n, w) input matrix and (n,) label vector of a dataset view."""
    return view.xs, view.ys


def _header(window_len: int) -> List[str]:
    return [f"x{j + 1}" for j in range(window_len)] + ["y", "t_index", "split"]


def _split_column(ds: WindowDataset) -> List[str]:
    return ["train"] * ds.split_index + ["test"] * (len(ds) - ds.split_index)


def _series(xcols, path) -> list:
    """The series x1, then the last row's x2..xw, behind window columns `xcols` (lists or
    tuples of cells); ValueError unless each column x_{j+1} is x_j shifted up one row."""
    for j in range(1, len(xcols)):
        if xcols[j][:-1] != xcols[j - 1][1:]:
            raise ValueError(f"column x{j + 1} is not x{j} shifted up one row in {path}")
    return [*xcols[0], *(c[-1] for c in xcols[1:] if c)]


def write_dataset(ds: WindowDataset, path) -> None:
    """CSV `x1..xw,y,t_index,split` through write_table; the windows' series is formatted
    once, and window column j is its cells j..j+n-1. The cells and the split column are
    object arrays, so they pass through write_table as the same str objects."""
    w, n = ds.window_len, len(ds)
    z = np.array([FLOAT_CELL % x for x in _series(ds.xs.T.tolist(), path)], dtype=object)
    write_table(path, _header(w), [*(z[j:j + n] for j in range(w)), ds.ys, ds.t_index,
                                   np.array(_split_column(ds), dtype=object)])


def read_dataset(path) -> WindowDataset:
    """Load a dataset CSV; validates the window shift, ordering and the floor split rule."""
    header, columns = read_table(path)
    w = len(header) - 3
    if w < 1 or header != _header(w):
        raise ValueError(f"bad dataset header {header!r} in {path}")
    xcols, (ys, t_index, split) = columns[:w], columns[w:]
    z = np.array(_series(xcols, path), dtype=float)
    ds = WindowDataset(xs=sliding_window_view(z, w) if ys else np.empty((0, w)),
                       ys=np.array(ys, dtype=float), t_index=np.array(t_index, dtype=int))
    if list(split) != _split_column(ds):
        raise ValueError(f"split column inconsistent with floor rule in {path}")
    return ds
