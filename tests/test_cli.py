"""CLI stage behavior, config validation, exit codes, and composability."""

import csv
import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrevival import cli, memory_metric as mm, mlp
from qrevival import dataset as dsmod
from qrevival import dynamics as dy

# worked revival sequence with four above-threshold upward steps
WORKED = [0.90, 0.92, 0.94, 0.93, 0.95, 0.97]


def rtn_doc(out_dir, **over):
    doc = {
        "channel": {"kind": "rtn_dephasing",
                    "params": {"v": 1.0, "kappa": 1.0 / 7.0},
                    "rate_clamp": 0.02},
        "g": 1.0,
        "grid": {"t_end": 3.0, "n_steps": 54},
        "initial_state": "plus_excited",
        "window_len": 5,
        "train": {"epochs": 25, "batch_size": 16, "lr": 0.003, "seed": 1},
        "epsilon": 0.015,
        "output_dir": str(out_dir),
        "emit_plots": False,
    }
    doc.update(over)
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def chain(cfg_path, *stages):
    for stage in stages:
        rc = cli.main([stage, "--config", cfg_path])
        if rc != 0:
            return rc
    return 0


ALL_STAGES = ("simulate", "dataset", "train", "predict", "score")


def failing_ad_doc(out_dir):
    # rate_clamp 1000 on a 20-step grid: the first RK4 step leaves the
    # physical states ("positivity violated" at t=0.15)
    return rtn_doc(out_dir,
                   channel={"kind": "amplitude_damping",
                            "params": {"b": 5.0, "lambda": 1.0},
                            "rate_clamp": 1000.0},
                   grid={"t_end": 3.0, "n_steps": 20},
                   initial_state="tilted_excited")


def test_simulate_writes_trajectory_and_prints_regime(tmp_path, capsys):
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    assert cli.main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "regime: non-markovian" in out
    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert (tmp_path / "run" / "trajectory.csv.meta.json").exists()


def test_simulate_markovian_regime_printed(tmp_path, capsys):
    doc = rtn_doc(tmp_path / "run",
                  channel={"kind": "rtn_dephasing",
                           "params": {"v": 1.0, "kappa": 4.0},
                           "rate_clamp": 30.0})
    assert cli.main(["simulate", "--config", write_doc(tmp_path, doc)]) == 0
    assert "regime: markovian" in capsys.readouterr().out


def test_simulate_noise_free_zero_clamp_events(tmp_path, capsys):
    # finer grid: without a contracting dissipator, RK4 truncation on the
    # zero eigenvalue of |+e> needs dt near 0.01 to stay above -1e-6
    doc = rtn_doc(tmp_path / "run",
                  channel={"kind": "noise_free", "params": {}},
                  grid={"t_end": 3.0, "n_steps": 304})
    assert cli.main(["simulate", "--config", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "regime: noise-free" in out
    assert "clamp events: 0" in out
    meta = json.loads((tmp_path / "run" / "trajectory.csv.meta.json").read_text())
    assert meta["clamp_events"] == 0


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra_key=1),
    lambda d: d["channel"].update(unexpected=2),
    lambda d: d["channel"]["params"].update(b=1.0),
    lambda d: d["grid"].update(dt=0.1),
    lambda d: d["train"].update(momentum=0.9),
    lambda d: d.pop("grid"),
    lambda d: d.pop("channel"),
    lambda d: d.update(initial_state="sideways"),
    lambda d: d.update(window_len=1),
    lambda d: d.update(epsilon=-0.1),
    lambda d: d.update(output_dir=""),
    lambda d: d.update(emit_plots="yes"),
    lambda d: d["channel"].update(kind="thermal"),
    lambda d: d["train"].update(seed=-1),
    # the dropped shuffle knob is an unknown key
    lambda d: d["train"].update(shuffle_within_train=True),
    # wrong JSON types and non-finite reals
    lambda d: d["train"].update(epochs=2.9),
    lambda d: d["grid"].update(n_steps=1000.7),
    lambda d: d.update(window_len=5.9),
    lambda d: d["grid"].update(n_steps="1000"),
    lambda d: d.update(g=True),
    lambda d: d["train"].update(lr=math.inf),
    lambda d: d["channel"].update(rate_clamp=math.inf),
    lambda d: d["grid"].update(t_end=math.inf),
    lambda d: d.update(g=10 ** 400),
])
def test_invalid_config_exits_2(tmp_path, mutate, capsys):
    doc = rtn_doc(tmp_path / "run")
    mutate(doc)
    assert cli.main(["simulate", "--config", write_doc(tmp_path, doc)]) == cli.EXIT_CONFIG


def test_config_defaults_come_from_the_dataclasses(tmp_path):
    required = ("channel", "g", "grid", "initial_state", "output_dir")
    doc = {k: v for k, v in rtn_doc(tmp_path / "run").items() if k in required}
    del doc["channel"]["rate_clamp"]
    cfg = cli.load_run_config(write_doc(tmp_path, doc))
    assert cfg.train == mlp.TrainConfig()
    assert (cfg.window_len, cfg.epsilon, cfg.emit_plots, cfg.channel.rate_clamp) == \
        (5, 0.015, False, 1e3)


def test_non_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("not json {")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "absent.json")]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "run-all"])
@pytest.mark.parametrize("kind", ["directory", "not utf-8", "not json"])
def test_unreadable_config_exits_2(tmp_path, command, kind, capsys):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"g": "\xff"}' if kind == "not utf-8" else b"not json {")
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err


@pytest.mark.parametrize("half", ["ad", "rtn"])
def test_pair_config_value_error_names_its_half(tmp_path, half, capsys):
    doc = pair_doc(tmp_path)
    doc[half]["g"] = -1.0
    assert cli.main(["run-all", "--config", write_doc(tmp_path, doc, "pair.json")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config.{half}: g must be")


def test_stage_missing_inputs_exit_4(tmp_path, capsys):
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MISSING
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_MISSING
    assert cli.main(["predict", "--config", cfg]) == cli.EXIT_MISSING
    assert cli.main(["score", "--config", cfg]) == cli.EXIT_MISSING
    assert cli.main(["score", "--config", cfg, "--on-truth"]) == cli.EXIT_MISSING
    # a directory where an input file belongs is as good as absent
    (tmp_path / "run" / "dataset.csv").mkdir(parents=True)
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_MISSING
    assert capsys.readouterr().err.count("missing input: ") == 6


def test_integration_failure_exits_3(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, failing_ad_doc(run))
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_INTEGRATION
    assert capsys.readouterr().err.startswith(
        "integration failure: positivity violated")
    assert not (run / "trajectory.csv").exists()
    with pytest.raises(cli.StageError) as exc:
        cli.run_pipeline(cli.load_run_config(cfg))
    assert exc.value.code == cli.EXIT_INTEGRATION
    # run-all stops at the failing stage and exits with its code
    doc = {"ad": failing_ad_doc(tmp_path / "pair" / "ad"),
           "rtn": rtn_doc(tmp_path / "pair" / "rtn",
                          grid={"t_end": 3.0, "n_steps": 20})}
    pair = write_doc(tmp_path, doc, "pair.json")
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", pair, "--out", str(out)]) \
        == cli.EXIT_INTEGRATION
    assert capsys.readouterr().err.startswith("integration failure: ")
    assert not (out / "rtn").exists()
    assert not (out / "comparison.json").exists()


def test_training_divergence_exits_3(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run, train={"epochs": 3, "batch_size": 16,
                                                  "lr": 1e306, "seed": 1}))
    assert chain(cfg, "simulate", "dataset") == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # numpy's overflow warnings included
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert err.startswith("training failure: overflow") and "at step 2" in err
    assert not (run / "params.json").exists()
    assert not (run / "loss.csv").exists()


def test_overflowing_prediction_exits_3(tmp_path, capsys):
    # finite weights of 1e200 overflow the hidden layers; the output is affine,
    # so nothing downstream would turn the inf back into a number
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, "simulate", "dataset", "train") == 0
    params = json.loads((run / "params.json").read_text())
    for name in ("w1", "w2"):
        params[name] = np.full(np.shape(params[name]), 1e200).tolist()
    (run / "params.json").write_text(json.dumps(params))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # numpy's overflow warnings included
        assert cli.main(["predict", "--config", cfg]) == cli.EXIT_INTEGRATION
    assert capsys.readouterr().err.startswith("prediction failure: overflow")
    assert not (run / "predictions.csv").exists()


@pytest.mark.parametrize("params, rate_clamp, grid, state, t_fail", [
    ({"b": 5.0, "lambda": 1.0}, 1000.0, {"t_end": 3.0, "n_steps": 20},
     "tilted_excited", "0.15"),
    # a state that blows up within one step: no state repair hides the drift
    ({"b": 1000.0, "lambda": 1e8}, 1e300, {"t_end": 24.0, "n_steps": 100},
     "plus_excited", "0.24"),
    # the rate spike at the first coherence zero (t ~ 1.27) breaks positivity
    # at state 64, the last of the first validation block, at state 65, the
    # first of the second, and at state 101, inside the second
    ({"b": 1.0, "lambda": 5.0}, 1000.0, {"t_end": 3.0, "n_steps": 150},
     "excited_excited", "1.28"),
    ({"b": 1.0, "lambda": 5.0}, 1000.0, {"t_end": 3.0, "n_steps": 154},
     "excited_excited", "1.26623"),
    ({"b": 1.0, "lambda": 5.0}, 1000.0, {"t_end": 3.0, "n_steps": 240},
     "excited_excited", "1.2625"),
])
def test_integration_failure_names_its_step(tmp_path, params, rate_clamp, grid, state,
                                            t_fail, capsys):
    doc = rtn_doc(tmp_path / "run", grid=grid, initial_state=state,
                  channel={"kind": "amplitude_damping", "params": params,
                           "rate_clamp": rate_clamp})
    cfg_path = write_doc(tmp_path, doc)
    cfg = cli.load_run_config(cfg_path)
    with pytest.raises(ValueError, match=rf"\(t={t_fail}\)$"), warnings.catch_warnings():
        warnings.simplefilter("error")          # no overflow warning leaves evolve
        dy.evolve(dy.initial_state(state), cfg.grid, cfg.g, cfg.channel)
    assert cli.main(["simulate", "--config", cfg_path]) == cli.EXIT_INTEGRATION
    assert capsys.readouterr().err.rstrip().endswith(f"(t={t_fail})")


def sidecar(channel):
    return json.dumps({"channel": channel, "g": 1.0})


def params_body(**extra):
    """The params.json body of a freshly initialised network, plus `extra` keys."""
    p = mlp.init_params(np.random.default_rng(0))
    layers = ("w1", "b1", "w2", "b2", "w3", "b3")
    return json.dumps({**{k: getattr(p, k).tolist() for k in layers}, **extra})


@pytest.mark.parametrize("stage, name, body", [
    ("predict", "params.json", "not json {"),
    ("predict", "params.json", '{"w1": [[0]]}'),
    # parameter files that are not an object, or whose layer holds an object
    ("predict", "params.json", "5"),
    ("predict", "params.json", "null"),
    ("predict", "params.json",
     json.dumps(dict.fromkeys(("w1", "b1", "w2", "b2", "w3", "b3"), {}))),
    # a parameter file with a key its writer does not write
    pytest.param("predict", "params.json", params_body(extra=1),
                 id="predict-params.json-extra-key"),
    ("score", "predictions.csv", "t_index,y_hat\n5,0.5,0.25\n"),
    ("score", "predictions.csv", "t_index,y_hat\n5,half\n"),
    ("score", "predictions.csv", "t,y\n5,0.5\n"),
    # predictions whose t_index jumps or goes negative
    ("score", "predictions.csv", "t_index,y_hat\n9999,0.5\n-3,0.7\n"),
    ("score", "predictions.csv", "t_index,y_hat\n-3,0.5\n-2,0.7\n"),
    ("score", "predictions.csv", "t_index,y_hat\n5,0.5\n7,0.7\n"),
    # trajectory sidecars whose channel params are missing, short, extra,
    # not numbers, or of an unknown or absent kind, or whose channel is not
    # an object
    ("dataset", "trajectory.csv.meta.json", sidecar({"kind": "rtn_dephasing"})),
    ("dataset", "trajectory.csv.meta.json",
     sidecar({"kind": "rtn_dephasing", "params": {"v": 1.0}})),
    ("dataset", "trajectory.csv.meta.json",
     sidecar({"kind": "rtn_dephasing", "params": {"v": 1.0, "kappa": 0.5, "b": 1.0}})),
    ("dataset", "trajectory.csv.meta.json",
     sidecar({"kind": "rtn_dephasing", "params": {"v": 1.0, "kappa": None}})),
    ("dataset", "trajectory.csv.meta.json", sidecar({"kind": "thermal", "params": {}})),
    ("dataset", "trajectory.csv.meta.json", sidecar({"params": {}})),
    ("dataset", "trajectory.csv.meta.json", sidecar([1, 2])),
    # trajectory sidecars that are not an object, or whose g, dt,
    # initial_state or clamp_events has the wrong type or sign
    ("dataset", "trajectory.csv.meta.json", "[1, 2]"),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": "one"})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": None})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"dt": "0.1"})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"dt": True})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"dt": -1.0})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"dt": math.nan})),
    # a dt that disagrees with the spacing of the CSV times
    ("dataset", "trajectory.csv.meta.json", json.dumps({"dt": 5.0})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": True})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": -3.0})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": math.inf})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"initial_state": 5})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"clamp_events": None})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"clamp_events": -1})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"clamp_events": 2.5})),
    ("dataset", "trajectory.csv.meta.json", json.dumps({"clamp_events": "3"})),
    # trajectory sidecars with a key their writer does not write
    ("dataset", "trajectory.csv.meta.json", json.dumps({"g": 1.0, "noise": 0.1})),
    ("dataset", "trajectory.csv.meta.json",
     sidecar({"kind": "rtn_dephasing", "params": {"v": 1.0, "kappa": 0.5}, "seed": 3})),
])
def test_malformed_stage_file_exits_5(tmp_path, stage, name, body, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["simulate", "--config", cfg]) == 0
    if stage != "dataset":
        assert cli.main(["dataset", "--config", cfg]) == 0
    (run / name).write_text(body)
    capsys.readouterr()
    assert cli.main([stage, "--config", cfg]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err.startswith("malformed input: ")
    if stage == "dataset":
        assert not (run / "dataset.csv").exists()


def test_directory_sidecar_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["simulate", "--config", cfg]) == 0
    meta = run / "trajectory.csv.meta.json"
    meta.unlink()
    meta.mkdir()
    capsys.readouterr()
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and str(meta) in err
    assert not (run / "dataset.csv").exists()


def test_malformed_trajectory_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_text("wrong,header,row\n1,2,3\n")
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MALFORMED


def test_nan_or_unordered_trajectory_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    cfg = write_doc(tmp_path, rtn_doc(run))
    rows = [f"{0.1 * i:.12g},0.5,0.25" for i in range(8)]
    bad_value = rows[:3] + ["0.3,nan,0.25"] + rows[4:]
    bad_order = rows[:3] + ["0.2,0.5,0.25"] + rows[4:]
    for body in (bad_value, bad_order):
        (run / "trajectory.csv").write_text("\n".join(["t,z_s,z_a"] + body) + "\n")
        assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MALFORMED
        assert not (run / "dataset.csv").exists()


def test_unusable_dataset_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    header = "x1,x2,x3,x4,x5,y,t_index,split"
    (run / "dataset.csv").write_text(header + "\n")
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_MALFORMED


def test_full_chain_report_matches_predictions(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, *ALL_STAGES) == 0
    _, preds = cli.read_predictions(run / "predictions.csv")
    expect = mm.score_pipeline(preds, epsilon=0.015)
    got = mm.read_report(run / "report.json")
    assert got == expect
    assert (run / "segments.csv").exists()


def test_score_worked_sequence_fixture(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    cli.write_predictions(range(len(WORKED)), WORKED, run / "predictions.csv")
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["score", "--config", cfg]) == 0
    report = mm.read_report(run / "report.json")
    assert report.n_rev == 4
    assert report.n_eval == len(WORKED)
    assert "n_rev=4" in capsys.readouterr().out


def test_predictions_roundtrip_bytes(tmp_path):
    path = tmp_path / "predictions.csv"
    cli.write_predictions([3, 4, 5], [0.25, -0.125, 1.0 / 3.0], path)
    t_idx, preds = cli.read_predictions(path)
    again = tmp_path / "again.csv"
    cli.write_predictions(t_idx, preds, again)
    assert path.read_bytes() == again.read_bytes()


_PROPERTY = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_PROPERTY
@given(start=st.integers(0, 10 ** 6),
       preds=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                      max_size=40))
def test_predictions_roundtrip_property(tmp_path, start, preds):
    first = tmp_path / "a.csv"
    cli.write_predictions(range(start, start + len(preds)), preds, first)
    t_idx, back = cli.read_predictions(first)
    assert np.array_equal(t_idx, start + np.arange(len(preds)))
    second = tmp_path / "b.csv"
    cli.write_predictions(t_idx, back, second)
    assert first.read_bytes() == second.read_bytes()


@_PROPERTY
@given(data=st.data(), start=st.integers(0, 1000), n=st.integers(1, 40),
       fault=st.sampled_from(["nan", "inf", "shift"]))
def test_read_predictions_rejects_corrupted_cell(tmp_path, data, start, n, fault):
    assume(fault != "shift" or n >= 2)      # a lone row may move anywhere >= 0
    path = tmp_path / "p.csv"
    preds = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    cli.write_predictions(range(start, start + n), preds, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    row = rows[1 + data.draw(st.integers(0, n - 1))]
    if fault == "shift":
        row[0] = str(int(row[0]) + data.draw(st.sampled_from([-1, 1, 2])))
    else:
        row[1] = fault
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ValueError):
        cli.read_predictions(path)


def test_plots_reject_predictions_past_the_trajectory(tmp_path, capsys):
    run = tmp_path / "run"
    cfg_path = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg_path, *ALL_STAGES) == 0
    cli.write_predictions([9999, 10000], [0.5, 0.7], run / "predictions.csv")
    with pytest.raises(ValueError, match="past the end"):
        cli.emit_plots(cli.load_run_config(cfg_path))


def test_plots_reject_an_inconsistent_report(tmp_path, capsys):
    run = tmp_path / "run"
    cfg_path = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg_path, *ALL_STAGES) == 0
    n_eval = mm.read_report(run / "report.json").n_eval
    # a peak past the predictions, an n_eval that is not the number of
    # predictions, and a score that is not n_rev / n_eval
    for doc, match in (
            ({"n_rev": 1, "n_eval": n_eval, "score": 1 / n_eval,
              "segments": [[1, 9000]]}, "peak"),
            ({"n_rev": 1, "n_eval": 1000, "score": 0.001,
              "segments": [[600, 700]]}, "n_eval"),
            ({"n_rev": 1, "n_eval": n_eval, "score": 0.9, "segments": []}, "score")):
        (run / "report.json").write_text(json.dumps({**doc, "epsilon": 0.015}))
        with pytest.raises(ValueError, match=match):
            cli.emit_plots(cli.load_run_config(cfg_path))


def test_train_deterministic_bytes(tmp_path, capsys):
    paths = []
    for name in ("a", "b"):
        run = tmp_path / name
        cfg = write_doc(tmp_path, rtn_doc(run), f"{name}.json")
        assert chain(cfg, "simulate", "dataset", "train") == 0
        paths.append(run / "params.json")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seed_override_changes_params(tmp_path, capsys):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_doc(tmp_path, rtn_doc(run_a), "a.json")
    cfg_b = write_doc(tmp_path, rtn_doc(run_b), "b.json")
    assert chain(cfg_a, "simulate", "dataset", "train") == 0
    for stage in ("simulate", "dataset"):
        assert cli.main([stage, "--config", cfg_b]) == 0
    assert cli.main(["train", "--config", cfg_b, "--seed", "7"]) == 0
    assert (run_a / "params.json").read_bytes() != (run_b / "params.json").read_bytes()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    assert cli.main(["train", "--config", cfg, "--seed", "-1"]) == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, word", [
    (["--epsilon", "-1"], "epsilon"),
    (["--epsilon", "0"], "epsilon"),
    (["--epsilon", "nan"], "epsilon"),
    (["--epsilon", "inf"], "epsilon"),
    (["--out", ""], "output_dir"),
])
def test_bad_override_exits_2(tmp_path, argv, word, capsys):
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    assert cli.main(["simulate", "--config", cfg, *argv]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and word in err
    assert not (tmp_path / "run").exists()


def test_run_config_checks_itself(tmp_path):
    cfg = cli.load_run_config(write_doc(tmp_path, rtn_doc(tmp_path / "run")))
    assert dataclasses.replace(cfg, epsilon=0.5).epsilon == 0.5
    for field, value in (("epsilon", -1.0), ("g", 0.0), ("window_len", 1),
                         ("initial_state", "sideways"), ("output_dir", ""),
                         ("emit_plots", "yes")):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: value})


def test_epsilon_override_reaches_report(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    cli.write_predictions(range(len(WORKED)), WORKED, run / "predictions.csv")
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["score", "--config", cfg, "--epsilon", "0.5"]) == 0
    report = mm.read_report(run / "report.json")
    assert report.epsilon == 0.5
    assert report.n_rev == 0


def test_score_on_truth_writes_truth_report(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, "simulate", "dataset") == 0
    assert cli.main(["score", "--config", cfg, "--on-truth"]) == 0
    assert (run / "truth_report.json").exists()
    assert not (run / "report.json").exists()
    ds = dsmod.read_dataset(run / "dataset.csv")
    _, test = dsmod.chronological_split(ds)
    expect = mm.score_pipeline(test.ys, epsilon=0.015)
    assert mm.read_report(run / "truth_report.json") == expect


def pair_doc(tmp_path, **ad_over):
    ad = rtn_doc(tmp_path / "pair" / "ad",
                 channel={"kind": "amplitude_damping",
                          "params": {"b": 0.05, "lambda": 10.0},
                          "rate_clamp": 0.005},
                 initial_state="tilted_excited")
    ad.update(ad_over)
    rtn = rtn_doc(tmp_path / "pair" / "rtn")
    return {"ad": ad, "rtn": rtn}


def test_run_all_grid_mismatch_exits_6(tmp_path, capsys):
    doc = pair_doc(tmp_path, grid={"t_end": 3.0, "n_steps": 64})
    cfg = write_doc(tmp_path, doc, "pair.json")
    assert cli.main(["run-all", "--config", cfg]) == cli.EXIT_MISMATCH
    assert capsys.readouterr().err.startswith("config mismatch: ")


def test_run_all_epsilon_mismatch_exits_6(tmp_path, capsys):
    doc = pair_doc(tmp_path, epsilon=0.02)
    cfg = write_doc(tmp_path, doc, "pair.json")
    assert cli.main(["run-all", "--config", cfg]) == cli.EXIT_MISMATCH


def test_run_all_train_mismatch_exits_6(tmp_path, capsys):
    # both networks train in lockstep, so they must share the whole train section
    train = {"epochs": 25, "batch_size": 16, "lr": 0.003, "seed": 2}
    for over in ({"lr": 0.001}, {"epochs": 24}, {"batch_size": 8}, {}):
        cfg = write_doc(tmp_path, pair_doc(tmp_path, train=dict(train, **over)), "pair.json")
        assert cli.main(["run-all", "--config", cfg]) == cli.EXIT_MISMATCH
        assert capsys.readouterr().err.startswith("config mismatch: ")
    assert not (tmp_path / "pair").exists()
    # --seed overrides the seed of both halves, so a seed-only difference passes
    out = tmp_path / "out"
    assert cli.main(["run-all", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert (out / "ad" / "params.json").exists() and (out / "rtn" / "params.json").exists()


def test_run_all_training_divergence_exits_3(tmp_path, capsys):
    doc = pair_doc(tmp_path, train={"epochs": 3, "batch_size": 16, "lr": 1e306, "seed": 1})
    doc["rtn"]["train"] = dict(doc["ad"]["train"])
    cfg = write_doc(tmp_path, doc, "pair.json")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # numpy's overflow warnings included
        assert cli.main(["run-all", "--config", cfg, "--out", str(out)]) \
            == cli.EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert err.startswith("training failure: ") and "at step 2" in err
    # both datasets were built before the one training call, which wrote nothing
    for key in ("ad", "rtn"):
        assert (out / key / "dataset.csv").exists()
        assert not (out / key / "params.json").exists()
        assert not (out / key / "loss.csv").exists()
    assert not (out / "comparison.json").exists()


def test_run_all_shared_output_dir_exits_2(tmp_path, capsys):
    doc = pair_doc(tmp_path)
    doc["rtn"]["output_dir"] = doc["ad"]["output_dir"]
    cfg = write_doc(tmp_path, doc, "pair.json")
    assert cli.main(["run-all", "--config", cfg]) == cli.EXIT_CONFIG


def test_run_all_unknown_pair_key_exits_2(tmp_path, capsys):
    doc = pair_doc(tmp_path)
    doc["noise"] = {}
    cfg = write_doc(tmp_path, doc, "pair.json")
    assert cli.main(["run-all", "--config", cfg]) == cli.EXIT_CONFIG


def test_run_all_matches_manual_chain(tmp_path, capsys):
    doc = pair_doc(tmp_path)
    cfg = write_doc(tmp_path, doc, "pair.json")
    assert cli.main(["run-all", "--config", cfg, "--out",
                     str(tmp_path / "auto")]) == 0

    stage_files = ("trajectory.csv", "dataset.csv", "params.json", "loss.csv",
                   "predictions.csv", "report.json", "segments.csv")
    for key in ("ad", "rtn"):
        manual = tmp_path / "manual" / key
        manual_doc = dict(doc[key], output_dir=str(manual))
        manual_cfg = write_doc(tmp_path, manual_doc, f"manual_{key}.json")
        assert chain(manual_cfg, *ALL_STAGES) == 0
        for name in stage_files:
            auto_path = tmp_path / "auto" / key / name
            assert auto_path.read_bytes() == (manual / name).read_bytes(), name

    comparison = json.loads((tmp_path / "auto" / "comparison.json").read_text())
    ad_rep = mm.read_report(tmp_path / "auto" / "ad" / "report.json")
    rtn_rep = mm.read_report(tmp_path / "auto" / "rtn" / "report.json")
    assert comparison["ad_score"] == ad_rep.score
    assert comparison["rtn_score"] == rtn_rep.score
    assert comparison["ad_n_rev"] == ad_rep.n_rev
    assert comparison["rtn_n_rev"] == rtn_rep.n_rev
    assert comparison["n_eval"] == ad_rep.n_eval
    assert comparison["epsilon"] == 0.015


def test_run_all_reruns_byte_identical(tmp_path, capsys):
    cfg = write_doc(tmp_path, pair_doc(tmp_path), "pair.json")
    trees = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli.main(["run-all", "--config", cfg, "--out", str(out), "--plots"]) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 21 and trees[0].keys() == trees[1].keys()
    for rel, body in trees[0].items():
        assert body == trees[1][rel], rel


def test_plots_emitted(tmp_path, capsys):
    cfg = write_doc(tmp_path, pair_doc(tmp_path), "pair.json")
    out = tmp_path / "plotted"
    assert cli.main(["run-all", "--config", cfg, "--out", str(out),
                     "--plots"]) == 0
    for key in ("ad", "rtn"):
        for name in ("trajectory.svg", "prediction.svg"):
            body = (out / key / name).read_text()
            assert body.startswith("<svg"), (key, name)
            assert "polyline" in body


@pytest.mark.parametrize("stage", ALL_STAGES)
def test_plots_flag_only_on_run_all(tmp_path, stage, capsys):
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    with pytest.raises(SystemExit) as exc:
        cli.main([stage, "--config", cfg, "--plots"])
    assert exc.value.code == 2
