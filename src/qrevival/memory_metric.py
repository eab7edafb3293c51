"""Revival detection and normalized memory scoring for a predicted series.

An upward forward difference larger than the threshold epsilon counts as a
revival event; the normalized score divides the event count by the number of
evaluated samples. Segment extraction finds (start, peak) index pairs for
plot overlays: a segment opens at the first above-threshold rise and its peak
is the last strictly-rising point of that run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .table import count, from_doc, positive_real, read_json, write_json, write_table


@dataclass
class RevivalReport:
    n_rev: int
    n_eval: int
    score: float
    segments: List[Tuple[int, int]]
    epsilon: float

    def __post_init__(self):
        count("n_rev", self.n_rev, 0)
        count("n_eval", self.n_eval, 1)
        self.epsilon = positive_real("epsilon", self.epsilon)
        if self.n_rev > self.n_eval:
            raise ValueError(f"n_rev {self.n_rev} outside [0, {self.n_eval}]")
        # score_pipeline writes the quotient, and JSON round-trips it exactly
        if isinstance(self.score, bool) or self.score != self.n_rev / self.n_eval:
            raise ValueError(f"score must be n_rev / n_eval = {self.n_rev}/{self.n_eval}, "
                             f"got {self.score!r}")
        if not isinstance(self.segments, list) or not all(
                isinstance(seg, (list, tuple)) and len(seg) == 2 for seg in self.segments):
            raise ValueError(f"segments must be a list of (start, peak) pairs, got {self.segments!r}")
        self.segments = [tuple(seg) for seg in self.segments]
        for t1, t2 in self.segments:
            count("segment start", t1, 0)
            count("segment peak", t2, t1)
            if t2 >= self.n_eval:
                raise ValueError(f"segment peak {t2} outside [0, {self.n_eval})")

    @staticmethod
    def from_dict(obj: dict) -> "RevivalReport":
        return from_doc(RevivalReport, obj, "revival report")


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


def score_pipeline(preds, epsilon: float) -> RevivalReport:
    """Full report over a prediction series; n_eval = number of predictions."""
    arr = _check_series(preds)
    n_eval = arr.size
    n_rev = revival_count(arr, epsilon)
    return RevivalReport(n_rev=n_rev, n_eval=n_eval, score=n_rev / n_eval,
                         segments=detect_segments(arr, epsilon), epsilon=epsilon)


def write_report(report: RevivalReport, path) -> None:
    write_json(path, dataclasses.asdict(report))


def read_report(path) -> RevivalReport:
    return RevivalReport.from_dict(read_json(path))


def write_segments_csv(report: RevivalReport, path) -> None:
    write_table(path, ["t1", "t2"], np.array(report.segments, dtype=int).reshape(-1, 2).T)
