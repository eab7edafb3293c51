"""Sliding-window supervised dataset over a simulated trajectory.

Each sample pairs the `window_len` most recent ancilla readings
[z_a[i-w], ..., z_a[i-1]] with the system label z_s[i]. Samples are kept in
grid order and split chronologically down the middle: the first half trains,
the second half tests, with no shuffling across the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .dynamics import Trajectory
from .table import read_table, write_table

_BOUND = 1.0 + 1e-6


@dataclass(frozen=True)
class WindowSample:
    x: np.ndarray
    y: float
    t_index: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 1:
            raise ValueError(f"window must be 1-D, got shape {self.x.shape}")
        if not (np.all(np.abs(self.x) <= _BOUND) and abs(self.y) <= _BOUND):  # also NaN
            raise ValueError(f"sample at t_index {self.t_index} leaves [-1, 1]")
        if self.t_index < len(self.x):
            raise ValueError(f"t_index {self.t_index} precedes its own window")


@dataclass
class WindowDataset:
    samples: List[WindowSample]
    split_index: int = field(default=-1)

    def __post_init__(self):
        n = len(self.samples)
        if self.split_index == -1:
            self.split_index = n // 2
        if self.split_index != n // 2:
            raise ValueError(f"split_index {self.split_index} != floor({n}/2)")
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.t_index != prev.t_index + 1:
                raise ValueError("samples must advance t_index by exactly 1")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def window_len(self) -> int:
        return len(self.samples[0].x) if self.samples else 0


def build_windows(traj: Trajectory, window_len: int = 5) -> WindowDataset:
    """Slide a window of ancilla readings over the trajectory.

    Produces len(traj) - window_len samples; the first one labels the system
    observable at grid index window_len.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    n = len(traj)
    if n < window_len + 1:
        raise ValueError(
            f"trajectory too short: {n} points cannot fill a {window_len}-window "
            f"plus a label")
    z_a = np.asarray(traj.z_a, dtype=float)
    z_s = np.asarray(traj.z_s, dtype=float)
    samples = [
        WindowSample(x=z_a[i - window_len:i].copy(), y=float(z_s[i]), t_index=i)
        for i in range(window_len, n)
    ]
    return WindowDataset(samples=samples)


def chronological_split(ds: WindowDataset) -> Tuple[List[WindowSample], List[WindowSample]]:
    """First-half train view, second-half test view; odd sample goes to test."""
    if len(ds) < 2:
        raise ValueError(f"need at least 2 samples to split, got {len(ds)}")
    return ds.samples[:ds.split_index], ds.samples[ds.split_index:]


def stack(samples: Sequence[WindowSample]) -> Tuple[np.ndarray, np.ndarray]:
    """(n, w) input matrix and (n,) label vector for a sample view."""
    if not samples:
        w = 0
        return np.zeros((0, w)), np.zeros(0)
    xs = np.stack([s.x for s in samples])
    ys = np.array([s.y for s in samples])
    return xs, ys


def _header(window_len: int) -> List[str]:
    return [f"x{j + 1}" for j in range(window_len)] + ["y", "t_index", "split"]


def write_dataset(ds: WindowDataset, path) -> None:
    """CSV `x1..xw,y,t_index,split` at 12 significant digits."""
    write_table(path, _header(ds.window_len),
                ([*s.x, s.y, s.t_index, "train" if i < ds.split_index else "test"]
                 for i, s in enumerate(ds.samples)))


def read_dataset(path) -> WindowDataset:
    """Load a dataset CSV; validates ordering and the floor split rule."""
    header, rows = read_table(path)
    w = len(header) - 3
    if w < 1 or header != _header(w):
        raise ValueError(f"bad dataset header {header!r} in {path}")
    ds = WindowDataset(samples=[
        WindowSample(x=np.array([float(v) for v in row[:w]]), y=float(row[w]),
                     t_index=int(row[w + 1]))
        for row in rows])
    expect = ["train"] * ds.split_index + ["test"] * (len(ds) - ds.split_index)
    if [row[w + 2] for row in rows] != expect:
        raise ValueError(f"split column inconsistent with floor rule in {path}")
    return ds
