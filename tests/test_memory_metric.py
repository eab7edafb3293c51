"""Worked-example and property tests for revival counting and segments."""

import os

import numpy as np
import pytest

from qrevival import memory_metric as mm

WORKED = [0.90, 0.92, 0.94, 0.93, 0.95, 0.97]


def test_heaviside_strict():
    assert mm.heaviside(0.005) == 1
    assert mm.heaviside(0.0) == 0
    assert mm.heaviside(-0.025) == 0
    with pytest.raises(ValueError):
        mm.heaviside(float("nan"))


def test_worked_sequence_count():
    assert mm.revival_count(WORKED, 0.015) == 4


def test_worked_sequence_theta_terms():
    eps = 0.015
    diffs = np.diff(WORKED)
    terms = [mm.heaviside(d - eps) for d in diffs]
    assert terms == [1, 1, 0, 1, 1]
    assert sum(terms) == 4


def test_count_edge_cases():
    assert mm.revival_count([1.0, 0.9, 0.8, 0.7], 0.015) == 0
    # steps equal to epsilon exactly do not count (strict step at 0)
    assert mm.revival_count([0.0, 0.015, 0.030], 0.015) == 0
    with pytest.raises(ValueError):
        mm.revival_count([0.5], 0.015)
    for bad_epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            mm.revival_count([0.0, 0.1], bad_epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            mm.detect_segments([0.0, 0.1], bad_epsilon)
    with pytest.raises(ValueError):
        mm.revival_count([0.0, float("inf")], 0.015)


def test_normalized_score_examples():
    # score = n_rev / n_eval with n_eval = number of predictions
    assert mm.score_pipeline(WORKED, 0.015).score == pytest.approx(4.0 / 6.0)
    # published-scale arithmetic
    assert 4 / 200 == pytest.approx(0.02)
    assert 7 / 500 == pytest.approx(0.014)
    assert 16 / 500 == pytest.approx(0.032)
    with pytest.raises(ValueError):
        mm.score_pipeline(WORKED[:1], 0.015)


def test_horizon_invariance():
    # doubling horizon and revivals together leaves the score unchanged
    pattern = [0.0, 0.1, 0.05, 0.2, 0.0]
    rng = np.random.default_rng(17)
    for k in (2, 3, 5):
        tiled = pattern * k
        c1 = mm.revival_count(pattern, 0.015)
        ck = mm.revival_count(tiled, 0.015)
        # boundary step 0.0 -> 0.0 adds no count, so counts scale exactly
        assert ck == k * c1
        assert mm.score_pipeline(tiled, 0.015).score == \
            pytest.approx(mm.score_pipeline(pattern, 0.015).score)
    # random series: smaller epsilon never yields fewer counts
    for _ in range(20):
        s = rng.uniform(-1, 1, 40)
        assert mm.revival_count(s, 0.01) >= mm.revival_count(s, 0.02)


def test_shift_invariance():
    rng = np.random.default_rng(23)
    s = rng.uniform(-0.5, 0.5, 50)
    for c in (-0.4, 0.3):
        assert mm.revival_count(s + c, 0.015) == mm.revival_count(s, 0.015)
        assert mm.detect_segments(s + c, 0.015) == mm.detect_segments(s, 0.015)


def test_worked_sequence_segments():
    # rise 0.90->0.94 peaks at index 2; rise 0.93->0.97 runs to the end
    assert mm.detect_segments(WORKED, 0.015) == [(1, 2), (4, 5)]


def test_segment_edge_cases():
    assert mm.detect_segments([1.0, 0.9, 0.8], 0.015) == []
    assert mm.detect_segments([0.0, 0.1, 0.0], 0.015) == [(1, 1)]
    # a zero step terminates the rising run
    assert mm.detect_segments([0.0, 0.1, 0.1, 0.2], 0.015) == [(1, 1), (3, 3)]
    # sub-threshold rises extend a run but never open one
    assert mm.detect_segments([0.0, 0.1, 0.105, 0.0, 0.01], 0.015) == [(1, 2)]


def test_segment_count_consistency():
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = rng.uniform(-1, 1, 30)
        report = mm.score_pipeline(s, 0.015)
        assert report.n_rev >= len(report.segments)
        assert 0.0 <= report.score <= 1.0
        for t1, t2 in report.segments:
            assert 1 <= t1 <= t2 <= len(s) - 1


def test_score_pipeline_report():
    report = mm.score_pipeline(WORKED, 0.015)
    assert report.n_rev == 4
    assert report.n_eval == 6
    assert report.score == pytest.approx(4.0 / 6.0)
    assert report.segments == [(1, 2), (4, 5)]
    assert report.epsilon == 0.015
    flat = mm.score_pipeline(np.full(10, 0.2), 0.015)
    assert flat.n_rev == 0 and flat.score == 0.0 and flat.segments == []
    with pytest.raises(ValueError):
        mm.score_pipeline([0.5], 0.015)


def test_report_roundtrip(tmp_path):
    report = mm.score_pipeline(WORKED, 0.015)
    path = os.path.join(tmp_path, "report.json")
    mm.write_report(report, path)
    back = mm.read_report(path)
    assert back == report
    second = os.path.join(tmp_path, "report2.json")
    mm.write_report(back, second)
    with open(path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
    seg_path = os.path.join(tmp_path, "segments.csv")
    mm.write_segments_csv(report, seg_path)
    with open(seg_path) as f:
        assert f.read() == "t1,t2\n1,2\n4,5\n"


def test_report_validation():
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=5, n_eval=4, score=1.0, segments=[], epsilon=0.015)
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=1, n_eval=4, score=1.5, segments=[], epsilon=0.015)
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=1, n_eval=4, score=0.25, segments=[(3, 2)], epsilon=0.015)
    with pytest.raises(ValueError, match="missing"):
        mm.RevivalReport.from_dict({"n_rev": 1})
