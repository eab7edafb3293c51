"""CLI stage behavior, config validation, exit codes, and composability."""

import csv
import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrevival import cli, memory_metric as mm, mlp
from qrevival import dataset as dsmod
from qrevival import dynamics as dy
from conftest import CONFIGS

# worked revival sequence with four above-threshold upward steps
WORKED = [0.90, 0.92, 0.94, 0.93, 0.95, 0.97]
MARKOV = os.path.join(CONFIGS, "rtn_markovian.json")


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
META = "trajectory.csv.meta.json"


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


def test_simulate_past_the_hyperbolic_overflow(tmp_path, capsys):
    # at b 100, c t passes the ~710 where sinh and cosh overflow a double near t = 14.2
    with open(os.path.join(CONFIGS, "ad_markovian.json")) as f:
        doc = dict(json.load(f), output_dir=str(tmp_path / "run"))
    doc["channel"]["params"]["b"] = 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", write_doc(tmp_path, doc)]) == 0
    assert "clamp events: 0" in capsys.readouterr().out


@pytest.mark.parametrize("g", [1e200, 1e308])
def test_huge_coupling_exits_3_without_a_warning(tmp_path, g, capsys):
    # the Hamiltonian (g 1e308) or the RK4 term table (g 1e200) overflows, so the
    # first state is non-finite; a warning raised as an error would end in a traceback
    with open(MARKOV) as f:
        doc = dict(json.load(f), g=g, output_dir=str(tmp_path / "run"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", write_doc(tmp_path, doc)])
    assert rc == cli.EXIT_INTEGRATION
    assert capsys.readouterr().err == \
        "integration failure: non-finite state (t=0.0239044)\n"


@pytest.mark.parametrize("mutate, word", [
    (lambda d: d.update(extra_key=1), "extra_key"),
    (lambda d: d["channel"].update(unexpected=2), "unexpected"),
    (lambda d: d["channel"]["params"].update(b=1.0), "['b']"),
    (lambda d: d["grid"].update(dt=0.1), "dt"),
    (lambda d: d["train"].update(momentum=0.9), "momentum"),
    (lambda d: d.pop("grid"), "grid"),
    (lambda d: d.pop("channel"), "channel"),
    (lambda d: d.update(initial_state="sideways"), "initial_state must be one of"),
    # a value that is not a string, which no dict lookup may see
    (lambda d: d.update(initial_state=["x"]), "initial_state must be one of"),
    (lambda d: d.update(window_len=1), "window_len"),
    (lambda d: d.update(epsilon=-0.1), "epsilon"),
    (lambda d: d.update(output_dir=""), "output_dir"),
    (lambda d: d["channel"].update(kind="thermal"), "thermal"),
    (lambda d: d["train"].update(seed=-1), "seed"),
    # wrong JSON types and non-finite reals
    (lambda d: d["train"].update(epochs=2.9), "epochs"),
    (lambda d: d["grid"].update(n_steps=1000.7), "n_steps"),
    (lambda d: d.update(window_len=5.9), "window_len"),
    (lambda d: d["grid"].update(n_steps="1000"), "n_steps"),
    (lambda d: d.update(g=True), "g must"),
    (lambda d: d["train"].update(lr=math.inf), "lr"),
    (lambda d: d["channel"].update(rate_clamp=math.inf), "rate_clamp"),
    (lambda d: d["grid"].update(t_end=math.inf), "t_end"),
    (lambda d: d.update(g=10 ** 400), "g must"),
    # kappa^2 overflows a double, which would clamp every rate to the cap
    (lambda d: d["channel"]["params"].update(kappa=1.4e154), "rtn_dephasing params overflow"),
])
def test_invalid_config_exits_2(tmp_path, mutate, word, capsys):
    doc = rtn_doc(tmp_path / "run")
    mutate(doc)
    assert cli.main(["simulate", "--config", write_doc(tmp_path, doc)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and word in err


def test_config_defaults_come_from_the_dataclasses(tmp_path):
    required = ("channel", "g", "grid", "initial_state", "output_dir")
    doc = {k: v for k, v in rtn_doc(tmp_path / "run").items() if k in required}
    del doc["channel"]["rate_clamp"]
    cfg = cli.load_run_config(write_doc(tmp_path, doc))
    assert cfg.train == mlp.TrainConfig()
    assert (cfg.window_len, cfg.epsilon, cfg.channel.rate_clamp) == (5, 0.015, 1e3)


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


@pytest.mark.parametrize("window_len", [4, 6])
def test_params_of_another_width_exits_5(tmp_path, window_len, capsys):
    # a network trained on 5-sample windows against a dataset rebuilt narrower or wider
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, "simulate", "dataset", "train") == 0
    params = (run / "params.json").read_bytes()
    other = write_doc(tmp_path, rtn_doc(run, window_len=window_len), "other.json")
    assert cli.main(["dataset", "--config", other]) == 0
    (run / "params.json").write_bytes(params)       # dataset removed it as a later output
    capsys.readouterr()
    assert cli.main(["predict", "--config", other]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err == (
        f"malformed input: {run / 'params.json'} takes windows of 5 samples, "
        f"but {run / 'dataset.csv'} holds windows of {window_len}\n")
    assert not (run / "predictions.csv").exists()


def test_failed_stage_leaves_no_stale_output(tmp_path, capsys):
    # a failing stage removes what an earlier run of it wrote, so the next stage
    # finds its input missing instead of reading stale files
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, *ALL_STAGES) == 0
    assert cli.main(["score", "--config", cfg, "--on-truth"]) == 0
    params = json.loads((run / "params.json").read_text())
    for name in ("w1", "w2"):
        params[name] = np.full(np.shape(params[name]), 1e200).tolist()
    (run / "params.json").write_text(json.dumps(params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["predict", "--config", cfg]) == cli.EXIT_INTEGRATION
    assert not (run / "predictions.csv").exists()
    assert cli.main(["score", "--config", cfg]) == cli.EXIT_MISSING
    assert not (run / "report.json").exists() and not (run / "segments.csv").exists()
    (run / "dataset.csv").write_text("not a dataset\n")
    assert cli.main(["score", "--config", cfg, "--on-truth"]) == cli.EXIT_MALFORMED
    assert not (run / "truth_report.json").exists()
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_MALFORMED
    assert not (run / "params.json").exists() and not (run / "loss.csv").exists()
    assert cli.main(["predict", "--config", cfg]) == cli.EXIT_MISSING
    # a failed simulate leaves no trajectory of another config for dataset to window
    assert cli.main(["simulate", "--config", MARKOV, "--out", str(run)]) == 0
    assert cli.main(["dataset", "--config", cfg]) == 0
    ad = write_doc(tmp_path, failing_ad_doc(run), "ad.json")
    assert cli.main(["simulate", "--config", ad]) == cli.EXIT_INTEGRATION
    assert not (run / "trajectory.csv").exists()
    assert not (run / "trajectory.csv.meta.json").exists()
    assert cli.main(["dataset", "--config", ad]) == cli.EXIT_MISSING
    assert not (run / "dataset.csv").exists()
    # a failed run-all leaves no earlier comparison behind
    out = tmp_path / "out"
    out.mkdir()
    (out / "comparison.json").write_text("{}")
    pair = write_doc(tmp_path, {"ad": failing_ad_doc(out / "ad"),
                                "rtn": rtn_doc(out / "rtn", grid={"t_end": 3.0, "n_steps": 20})},
                     "pair.json")
    assert cli.main(["run-all", "--config", pair, "--out", str(out)]) == cli.EXIT_INTEGRATION
    assert not (out / "comparison.json").exists()
    assert capsys.readouterr().err.count("missing input: ") == 3


def test_failed_stage_removes_later_stage_outputs(tmp_path):
    # a stage that starts removes its outputs and every later stage's, plots included,
    # so the stages after a failure find their inputs missing, not an older run's files
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))

    def good_run():
        assert cli.run_pipeline(cli.load_run_config(cfg)) == 0
        assert cli.main(["score", "--config", cfg, "--on-truth"]) == 0
        assert len(os.listdir(run)) == 11     # every output but run-all's comparison
    good_run()
    (run / "trajectory.csv").write_text("not a trajectory\n")
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MALFORMED
    assert sorted(os.listdir(run)) == ["trajectory.csv", "trajectory.csv.meta.json"]
    good_run()
    ad = write_doc(tmp_path, failing_ad_doc(run), "ad.json")
    assert cli.main(["simulate", "--config", ad]) == cli.EXIT_INTEGRATION
    assert os.listdir(run) == []
    assert cli.main(["predict", "--config", ad]) == cli.EXIT_MISSING
    assert cli.main(["score", "--config", ad]) == cli.EXIT_MISSING


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


def sidecar(drop=None, **over):
    """The sidecar of rtn_doc's trajectory, `over` replacing keys and `drop` left out."""
    meta = {"channel": {"kind": "rtn_dephasing", "params": {"v": 1.0, "kappa": 1.0 / 7.0},
                        "rate_clamp": 0.02},
            "g": 1.0, "dt": 3.0 / 54, "clamp_events": 0, "initial_state": "plus_excited"}
    meta.update(over)
    meta.pop(drop, None)
    return json.dumps(meta)


def rtn_channel(**params):
    return {"kind": "rtn_dephasing", "params": params, "rate_clamp": 0.02}


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
    # integers too large for their type: a t_index of predictions or of a dataset, and
    # a parameter
    ("score", "predictions.csv", "t_index,y_hat\n99999999999999999999,0.5\n"),
    ("train", "dataset.csv", "x1,x2,y,t_index,split\n0.1,0.2,0.3,99999999999999999999,test\n"),
    pytest.param("predict", "params.json", params_body(b3=[10 ** 400]),
                 id="predict-params.json-huge-int"),
    # complete trajectory sidecars with one defect: channel params that are
    # missing, short, extra or not numbers, a channel of an unknown or absent
    # kind, or a channel that is not an object
    ("dataset", META, sidecar(channel={"kind": "rtn_dephasing"})),
    ("dataset", META, sidecar(channel=rtn_channel(v=1.0))),
    ("dataset", META, sidecar(channel=rtn_channel(v=1.0, kappa=0.5, b=1.0))),
    ("dataset", META, sidecar(channel=rtn_channel(v=1.0, kappa=None))),
    ("dataset", META, sidecar(channel={"kind": "thermal", "params": {}})),
    ("dataset", META, sidecar(channel={"params": {}})),
    ("dataset", META, sidecar(channel=[1, 2])),
    # channel params whose oscillator overflows a double
    ("dataset", META, sidecar(channel=rtn_channel(v=7e153, kappa=1.0 / 7.0))),
    # trajectory sidecars that are not an object, or whose g, dt,
    # initial_state or clamp_events has the wrong type or sign, or is NaN
    ("dataset", META, "[1, 2]"),
    ("dataset", META, sidecar(g="one")),
    ("dataset", META, sidecar(g=None)),
    ("dataset", META, sidecar(dt="0.1")),
    ("dataset", META, sidecar(dt=True)),
    ("dataset", META, sidecar(dt=-1.0)),
    ("dataset", META, sidecar(dt=math.nan)),
    # a dt that disagrees with the spacing of the CSV times
    ("dataset", META, sidecar(dt=5.0)),
    ("dataset", META, sidecar(g=True)),
    ("dataset", META, sidecar(g=-3.0)),
    ("dataset", META, sidecar(g=math.inf)),
    ("dataset", META, sidecar(g=math.nan)),
    ("dataset", META, sidecar(initial_state=5)),
    # an initial state no config may name
    ("dataset", META, sidecar(initial_state="sideways")),
    ("dataset", META, sidecar(clamp_events=None)),
    ("dataset", META, sidecar(clamp_events=-1)),
    ("dataset", META, sidecar(clamp_events=2.5)),
    ("dataset", META, sidecar(clamp_events="3")),
    # more clamp events than the 2 * 55 - 1 rate evaluations of a 55-point trajectory
    ("dataset", META, sidecar(clamp_events=110)),
    # trajectory sidecars without a key their writer writes, or with a key it does not
    ("dataset", META, sidecar(drop="clamp_events")),
    ("dataset", META, sidecar(noise=0.1)),
    ("dataset", META, sidecar(channel=dict(rtn_channel(v=1.0, kappa=0.5), seed=3))),
    # a cell longer than any field limit of a CSV library
    pytest.param("dataset", "trajectory.csv", "t,z_s,z_a\n" + "x" * 200000 + ",0,0\n",
                 id="dataset-trajectory.csv-long-cell"),
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


def test_complete_sidecar_is_read(tmp_path, capsys):
    # the base of the one-defect sidecars above is itself well formed, also with one clamp
    # event at each of its 2 * 55 - 1 rate evaluations
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["simulate", "--config", cfg]) == 0
    for body in (sidecar(), sidecar(clamp_events=109)):
        (run / META).write_text(body)
        assert cli.main(["dataset", "--config", cfg]) == 0


@pytest.mark.parametrize("kind", ["absent", "directory"])
def test_absent_or_directory_sidecar_exits_4(tmp_path, kind, capsys):
    # the sidecar is a stage input like any other
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["simulate", "--config", cfg]) == 0
    meta = run / META
    meta.unlink()
    if kind == "directory":
        meta.mkdir()
    capsys.readouterr()
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and str(meta) in err
    assert not (run / "dataset.csv").exists()


def test_malformed_trajectory_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_text("wrong,header,row\n1,2,3\n")
    (run / META).write_text(sidecar())
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert cli.main(["dataset", "--config", cfg]) == cli.EXIT_MALFORMED


def test_nan_or_unordered_trajectory_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    cfg = write_doc(tmp_path, rtn_doc(run))
    rows = [f"{0.1 * i:.12g},0.5,0.25" for i in range(8)]
    bad_value = rows[:3] + ["0.3,nan,0.25"] + rows[4:]
    bad_order = rows[:3] + ["0.2,0.5,0.25"] + rows[4:]
    (run / META).write_text(sidecar(dt=0.1))
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


@settings(max_examples=25)
@example(start=3, preds=[0.25, -0.125, 1 / 3])
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


@pytest.mark.parametrize("fault", ["nan", "inf", "shift"])
@settings(max_examples=25)
@given(data=st.data(), start=st.integers(0, 1000), n=st.integers(1, 40))
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
@pytest.mark.parametrize("command", ["simulate", "run-all"])
def test_bad_override_exits_2(tmp_path, monkeypatch, command, argv, word, capsys):
    cwd = tmp_path / "cwd"              # what an empty --out would name
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    doc = pair_doc(tmp_path) if command == "run-all" else rtn_doc(tmp_path / "run")
    assert cli.main([command, "--config", write_doc(tmp_path, doc), *argv]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and word in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "pair").exists()
    assert not os.listdir(cwd)


def test_run_config_checks_itself(tmp_path):
    cfg = cli.load_run_config(write_doc(tmp_path, rtn_doc(tmp_path / "run")))
    assert dataclasses.replace(cfg, epsilon=0.5).epsilon == 0.5
    for field, value in (("epsilon", -1.0), ("g", 0.0), ("window_len", 1),
                         ("initial_state", "sideways"), ("output_dir", "")):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: value})


def test_run_config_checks_its_sections(tmp_path):
    cfg = cli.load_run_config(write_doc(tmp_path, rtn_doc(tmp_path / "run")))
    for field, value in (("channel", rtn_channel(v=1.0, kappa=0.5)), ("grid", "x"),
                         ("train", {"epochs": 3})):
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


def markov_run(tmp_path, *stages):
    """Output directory of `rtn_markovian` after the given stages."""
    run = tmp_path / "run"
    for stage in stages:
        assert cli.main([stage, "--config", MARKOV, "--out", str(run)]) == 0
    return run


def set_cell(path, row, col, value):
    """Rewrite one cell of a CSV file; row 0 is the header."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_shifted_window_column_exits_5(tmp_path, capsys):
    # x3 of data row 10 no longer equals x2 of row 11, so the windows disagree
    run = markov_run(tmp_path, "simulate", "dataset")
    set_cell(run / "dataset.csv", 10, 2, "0.123")
    capsys.readouterr()
    assert cli.main(["score", "--config", MARKOV, "--out", str(run), "--on-truth"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "x3 is not x2 shifted" in err
    assert not (run / "truth_report.json").exists()


@pytest.mark.parametrize("short_row, long_row", [(3, 7), (7, 3)])
@pytest.mark.parametrize("name, reader", [
    ("trajectory.csv", ["dataset"]),
    ("dataset.csv", ["score", "--on-truth"]),
    ("predictions.csv", ["score"])])
def test_row_of_another_width_exits_5(tmp_path, name, reader, short_row, long_row, capsys):
    # one data row a cell short and one a cell long: the reader names the first of them
    run = markov_run(tmp_path, "simulate", "dataset")
    path = run / name
    if name == "predictions.csv":
        cli.write_predictions(np.arange(10), np.linspace(0.5, -0.5, 10), path)
    lines = path.read_text().splitlines()
    lines[short_row] = lines[short_row].rsplit(",", 1)[0]
    lines[long_row] += ",0.25"
    path.write_text("\n".join(lines) + "\n")
    first = lines[min(short_row, long_row)].split(",")
    capsys.readouterr()
    assert cli.main([*reader, "--config", MARKOV, "--out", str(run)]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err == f"malformed input: bad row {first!r} in {path}\n"


@pytest.mark.parametrize("factor, err", [
    (1 + 5e-12, ""),
    (1 + 2e-11, "disagrees with the spacing of the times")])
def test_sidecar_dt_at_its_tolerance(tmp_path, factor, err, capsys):
    # the times are written at 12 digits, so dt may be off their spacing by 1e-11 relative
    run = markov_run(tmp_path, "simulate")
    meta = json.loads((run / META).read_text())
    (run / META).write_text(json.dumps(dict(meta, dt=meta["dt"] * factor)))
    capsys.readouterr()
    rc = cli.main(["dataset", "--config", MARKOV, "--out", str(run)])
    assert rc == (cli.EXIT_MALFORMED if err else 0)
    want = f"malformed input: dt {meta['dt'] * factor!r} {err}\n" if err else ""
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("name, row, col, cell, err", [
    ("trajectory.csv", 100, 1, "1.0000005", ""),
    ("trajectory.csv", 100, 1, "1.000002", "z_s leaves [-1, 1] by 2.000e-06"),
    ("dataset.csv", 700, 5, "1.0000005", ""),
    ("dataset.csv", 700, 5, "1.000002", "a window or label leaves [-1, 1]"),
])
def test_z_bound_at_its_tolerance(tmp_path, name, row, col, cell, err, capsys):
    # Z_BOUND leaves 1e-6 of slack above |<Z>| = 1 for integration rounding; the stage
    # that reads the file holds a z_s cell, or a test-half label, to it
    run = markov_run(tmp_path, "simulate", "dataset")
    set_cell(run / name, row, col, cell)
    capsys.readouterr()
    reader = ["dataset"] if name == "trajectory.csv" else ["score", "--on-truth"]
    rc = cli.main([*reader, "--config", MARKOV, "--out", str(run)])
    assert rc == (cli.EXIT_MALFORMED if err else 0)
    assert capsys.readouterr().err == (f"malformed input: {err}\n" if err else "")


def test_parser_is_built_once_and_calls_share_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    run = tmp_path / "run"
    cfg = write_doc(tmp_path, rtn_doc(run))
    assert chain(cfg, "simulate", "dataset") == 0
    assert cli.main(["score", "--config", cfg, "--on-truth", "--epsilon", "0.5"]) == 0
    assert mm.read_report(run / "truth_report.json").epsilon == 0.5
    # neither --on-truth nor the --epsilon override carries over to the next call
    capsys.readouterr()
    assert cli.main(["score", "--config", cfg]) == cli.EXIT_MISSING
    assert capsys.readouterr().err == f"missing input: {run / 'predictions.csv'}\n"
    assert cli.main(["score", "--config", cfg, "--on-truth"]) == 0
    assert mm.read_report(run / "truth_report.json").epsilon == 0.015
    cli.write_predictions(range(len(WORKED)), WORKED, run / "predictions.csv")
    assert cli.main(["score", "--config", cfg]) == 0
    assert mm.read_report(run / "report.json").epsilon == 0.015


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


@pytest.mark.parametrize("command", ["simulate", "run-all"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_output_dir_blocked_by_a_file_exits_2(tmp_path, command, under, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("keep")
    out = blocker / "sub" if under else blocker
    doc = pair_doc(tmp_path) if command == "run-all" else rtn_doc(tmp_path / "run")
    cfg = write_doc(tmp_path, doc)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory ") and str(out) in err
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command, name", [("simulate", "trajectory.csv"),
                                           ("dataset", "dataset.csv"),
                                           ("run-all", "comparison.json")])
def test_output_blocked_by_a_directory_exits_2(tmp_path, command, name, capsys):
    out = tmp_path / "out"
    cfg = write_doc(tmp_path, pair_doc(tmp_path) if command == "run-all" else rtn_doc(out))
    if command == "dataset":
        assert cli.main(["simulate", "--config", cfg]) == 0
    (out / name).mkdir(parents=True)
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: cannot write output {out / name}: "
                                       "not a file\n")
    assert sorted(os.listdir(out)) == before and (out / name).is_dir()   # no work done


def test_run_all_keeps_truth_report_in_its_directory(tmp_path, monkeypatch, capsys):
    # without --out the comparison directory is the working directory; run-all removes
    # only its own comparison there, also when a pipeline then fails
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truth_report.json").write_text("{}")
    (tmp_path / "comparison.json").write_text("{}")
    pair = write_doc(tmp_path, {"ad": failing_ad_doc(tmp_path / "ad"),
                                "rtn": rtn_doc(tmp_path / "rtn",
                                               grid={"t_end": 3.0, "n_steps": 20})},
                     "pair.json")
    assert cli.main(["run-all", "--config", pair]) == cli.EXIT_INTEGRATION
    assert (tmp_path / "truth_report.json").read_text() == "{}"
    assert not (tmp_path / "comparison.json").exists()


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


def test_plots_emitted(tmp_path, capsys):
    cfg = write_doc(tmp_path, pair_doc(tmp_path), "pair.json")
    out = tmp_path / "plotted"
    assert cli.main(["run-all", "--config", cfg, "--out", str(out)]) == 0
    for key in ("ad", "rtn"):
        for name in ("trajectory.svg", "prediction.svg"):
            body = (out / key / name).read_text()
            assert body.startswith("<svg"), (key, name)
            assert "polyline" in body


def test_dark_state_plots_flat_series(tmp_path, capsys):
    # |11> does not evolve, so both trajectory series are flat at Z = 1: the chart's
    # y range falls back to a unit span around them instead of dividing by zero
    run = tmp_path / "dark"
    cfg = write_doc(tmp_path, rtn_doc(run, initial_state="excited_excited"))
    assert cli.run_pipeline(cli.load_run_config(cfg)) == 0
    body = (run / "trajectory.svg").read_text()
    labels = re.findall(r'text-anchor="end"[^>]*>([^<]*)<', body)
    assert labels == ["0.95", "0.975", "1", "1.02", "1.05"]
    points = re.findall(r'points="([^"]*)"', body)
    assert len(points) == 2
    for series in points:
        assert {pt.split(",")[1] for pt in series.split()} == {"207.50"}   # mid-axis


@pytest.mark.parametrize("stage", ALL_STAGES + ("run-all",))
def test_plots_flag_is_gone(tmp_path, stage, capsys):
    # run-all always draws the figures, and no single stage draws them
    cfg = write_doc(tmp_path, rtn_doc(tmp_path / "run"))
    with pytest.raises(SystemExit) as exc:
        cli.main([stage, "--config", cfg, "--plots"])
    assert exc.value.code == 2
