"""Worked-example and property tests for revival counting and segments."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrevival import memory_metric as mm

WORKED = [0.90, 0.92, 0.94, 0.93, 0.95, 0.97]


def segments(series, epsilon):
    return mm.score_pipeline(series, epsilon).segments


def test_heaviside_strict():
    assert mm.heaviside(0.005) == 1
    assert mm.heaviside(0.0) == 0
    assert mm.heaviside(-0.025) == 0
    with pytest.raises(ValueError):
        mm.heaviside(float("nan"))


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
            mm.score_pipeline([0.0, 0.1], bad_epsilon)
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
        assert segments(s + c, 0.015) == segments(s, 0.015)


def test_worked_sequence_segments():
    # rise 0.90->0.94 peaks at index 2; rise 0.93->0.97 runs to the end
    assert segments(WORKED, 0.015) == [(1, 2), (4, 5)]


def test_segment_edge_cases():
    assert segments([1.0, 0.9, 0.8], 0.015) == []
    assert segments([0.0, 0.1, 0.0], 0.015) == [(1, 1)]
    # a zero step terminates the rising run
    assert segments([0.0, 0.1, 0.1, 0.2], 0.015) == [(1, 1), (3, 3)]
    # sub-threshold rises extend a run but never open one
    assert segments([0.0, 0.1, 0.105, 0.0, 0.01], 0.015) == [(1, 2)]


def _plain_segments(series, epsilon):
    """The segment rule as a plain loop over the series, as a reference."""
    out, i = [], 1
    while i < len(series):
        if series[i] - series[i - 1] > epsilon:
            start = i
            while i + 1 < len(series) and series[i + 1] - series[i] > 0:
                i += 1
            out.append((start, i))
        i += 1
    return out


_STEPS = st.one_of(st.sampled_from([-0.1, -0.015, 0.0, 0.005, 0.015, 0.02, 0.3]),
                   st.floats(-0.05, 0.05))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1.0, 1.0), steps=st.lists(_STEPS, min_size=1, max_size=40),
       epsilon=st.sampled_from([0.005, 0.015, 0.02]))
def test_segments_match_the_plain_loop(start, steps, epsilon):
    # zero steps repeat a value; steps of exactly epsilon land just under, at or
    # just over it after rounding
    series = np.cumsum([start] + steps)
    report = mm.score_pipeline(series, epsilon)
    assert report.segments == _plain_segments(series.tolist(), epsilon)
    assert report.n_rev == sum(b - a > epsilon for a, b in zip(series, series[1:]))


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


def test_report_validation(tmp_path):
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=5, n_eval=4, score=1.0, segments=[], epsilon=0.015)
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=1, n_eval=4, score=1.5, segments=[], epsilon=0.015)
    with pytest.raises(ValueError):
        mm.RevivalReport(n_rev=1, n_eval=4, score=0.25, segments=[(3, 2)], epsilon=0.015)
    path = os.path.join(tmp_path, "report.json")
    with open(path, "w") as f:
        json.dump({"n_rev": 1}, f)
    with pytest.raises(ValueError, match="missing"):
        mm.read_report(path)


def _report_doc(**over):
    doc = {"n_rev": 4, "n_eval": 6, "score": 4.0 / 6.0, "segments": [[1, 2], [4, 5]],
           "epsilon": 0.015}
    doc.update(over)
    return doc


@pytest.mark.parametrize("doc", [
    "report", [1, 2], None,
    _report_doc(n_rev=3.7), _report_doc(n_rev=True), _report_doc(n_rev=-1),
    _report_doc(n_eval="6"), _report_doc(n_eval=False), _report_doc(n_eval=0),
    _report_doc(score="0.3"), _report_doc(score=math.nan), _report_doc(score=True),
    _report_doc(score=-0.1), _report_doc(score=math.inf),
    _report_doc(epsilon=0.0), _report_doc(epsilon=math.nan), _report_doc(epsilon=-0.015),
    _report_doc(epsilon="0.015"),
    _report_doc(segments=5), _report_doc(segments=[[1]]), _report_doc(segments=[1, 2]),
    _report_doc(segments=[[1, 2.0]]), _report_doc(segments=[[True, 2]]),
    _report_doc(segments=[[3, 2]]), _report_doc(segments=[[1, 2, 3]]),
    # a key the writer does not write, a peak past the evaluated samples, and
    # a score that is not n_rev / n_eval
    _report_doc(extra=1), _report_doc(segments=[[1, 9000]]),
    _report_doc(segments=[[1, 6]]),
    _report_doc(n_rev=191, n_eval=500, score=0.9, segments=[]),
])
def test_report_reader_rejects_malformed(tmp_path, doc):
    path = os.path.join(tmp_path, "report.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(ValueError):
        mm.read_report(path)


@st.composite
def _reports(draw):
    n_eval = draw(st.integers(1, 10 ** 6))
    n_rev = draw(st.integers(0, n_eval))
    starts = draw(st.lists(st.integers(0, n_eval - 1), max_size=20))
    return mm.RevivalReport(
        n_rev=n_rev, n_eval=n_eval, score=n_rev / n_eval,
        segments=[(t, draw(st.integers(t, min(t + 50, n_eval - 1)))) for t in starts],
        epsilon=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(report=_reports())
def test_report_roundtrip_property(tmp_path, report):
    first = os.path.join(tmp_path, "report.json")
    second = os.path.join(tmp_path, "report2.json")
    mm.write_report(report, first)
    back = mm.read_report(first)
    assert back == report
    mm.write_report(back, second)
    with open(first, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
