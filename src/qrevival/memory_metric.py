"""Revival detection and normalized memory scoring for a predicted series.

An upward forward difference larger than the threshold epsilon counts as a
revival event; the normalized score divides the event count by the number of
evaluated samples. Segment extraction finds (start, peak) index pairs for
plot overlays: a segment opens at the first above-threshold rise and its peak
is the last strictly-rising point of that run.
"""

from __future__ import annotations

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


def heaviside(x: float) -> int:
    """Strict step: 1 for x > 0, else 0 (0 at exactly 0)."""
    if not math.isfinite(x):
        raise ValueError(f"heaviside of non-finite value {x}")
    return 1 if x > 0 else 0


def revival_count(series, epsilon: float) -> int:
    """Number of forward differences strictly exceeding epsilon."""
    return score_pipeline(series, epsilon).n_rev


def score_pipeline(preds, epsilon: float) -> RevivalReport:
    """Full report over a prediction series; n_eval = number of predictions.

    n_rev counts the forward differences strictly exceeding epsilon. A segment
    opens at index i when preds[i] - preds[i-1] exceeds epsilon, extends while
    differences stay strictly positive (not necessarily above epsilon), and its
    peak is the last rising index; a zero or downward step, or the end of the
    series, closes it.
    """
    arr = np.asarray(preds, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need a 1-D series of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    epsilon = positive_real("epsilon", epsilon)
    d = np.diff(arr)
    ups = np.flatnonzero(d > epsilon)
    # every up-step lies in a run of rising steps, whose last step is the peak; a
    # run's first up-step opens its segment
    rising = d > 0
    run_ends = np.flatnonzero(rising & ~np.append(rising[1:], False))
    peaks, first = np.unique(run_ends[np.searchsorted(run_ends, ups)], return_index=True)
    return RevivalReport(n_rev=ups.size, n_eval=arr.size, score=ups.size / arr.size,
                         segments=list(zip((ups[first] + 1).tolist(), (peaks + 1).tolist())),
                         epsilon=epsilon)


def write_report(report: RevivalReport, path) -> None:
    write_json(path, vars(report))


def read_report(path) -> RevivalReport:
    return from_doc(RevivalReport, read_json(path), "revival report")


def write_segments_csv(report: RevivalReport, path) -> None:
    write_table(path, ["t1", "t2"], np.array(report.segments, dtype=int).reshape(-1, 2).T)
