"""Revival detection and normalized memory scoring for a predicted series.

An upward forward difference larger than the threshold epsilon counts as a
revival event; the normalized score divides the event count by the number of
evaluated samples. Segment extraction finds (start, peak) index pairs for
plot overlays: a segment opens at the first above-threshold rise and its peak
is the last strictly-rising point of that run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .table import positive_real, write_json, write_table


@dataclass
class RevivalReport:
    n_rev: int
    n_eval: int
    score: float
    segments: List[Tuple[int, int]]
    epsilon: float

    def __post_init__(self):
        if not 0 <= self.n_rev <= self.n_eval:
            raise ValueError(f"n_rev {self.n_rev} outside [0, {self.n_eval}]")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        for t1, t2 in self.segments:
            if t1 > t2:
                raise ValueError(f"segment ({t1}, {t2}) has start after peak")

    @staticmethod
    def from_dict(obj: dict) -> "RevivalReport":
        missing = [f.name for f in dataclasses.fields(RevivalReport) if f.name not in obj]
        if missing:
            raise ValueError(f"revival report missing keys {missing}")
        return RevivalReport(
            n_rev=int(obj["n_rev"]), n_eval=int(obj["n_eval"]),
            score=float(obj["score"]),
            segments=[(int(a), int(b)) for a, b in obj["segments"]],
            epsilon=float(obj["epsilon"]))


def heaviside(x: float) -> int:
    """Strict step: 1 for x > 0, else 0 (0 at exactly 0)."""
    if not math.isfinite(x):
        raise ValueError(f"heaviside of non-finite value {x}")
    return 1 if x > 0 else 0


def _check_series(series) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need a 1-D series of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    return arr


def revival_count(series, epsilon: float) -> int:
    """Number of forward differences strictly exceeding epsilon."""
    arr = _check_series(series)
    positive_real("epsilon", epsilon)
    return int(np.count_nonzero(np.diff(arr) > epsilon))


def detect_segments(series, epsilon: float) -> List[Tuple[int, int]]:
    """(start, peak) index pairs of revival runs.

    A run opens at index i when series[i] - series[i-1] > epsilon, extends
    while differences stay strictly positive (not necessarily above epsilon),
    and its peak is the last rising index; a zero or downward step, or the
    end of the series, closes it.
    """
    arr = _check_series(series)
    positive_real("epsilon", epsilon)
    segments: List[Tuple[int, int]] = []
    n = arr.size
    i = 1
    while i < n:
        if arr[i] - arr[i - 1] > epsilon:
            start = i
            while i + 1 < n and arr[i + 1] - arr[i] > 0:
                i += 1
            segments.append((start, i))
        i += 1
    return segments


def score_pipeline(preds, epsilon: float = 0.015) -> RevivalReport:
    """Full report over a prediction series; n_eval = number of predictions."""
    arr = _check_series(preds)
    n_eval = arr.size
    n_rev = revival_count(arr, epsilon)
    return RevivalReport(n_rev=n_rev, n_eval=n_eval, score=n_rev / n_eval,
                         segments=detect_segments(arr, epsilon), epsilon=epsilon)


def write_report(report: RevivalReport, path) -> None:
    write_json(path, dataclasses.asdict(report))


def read_report(path) -> RevivalReport:
    with open(path) as f:
        return RevivalReport.from_dict(json.load(f))


def write_segments_csv(report: RevivalReport, path) -> None:
    write_table(path, ["t1", "t2"], report.segments)
