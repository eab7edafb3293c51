"""Acceptance gate: nine criteria, each with pinned tolerances and runtime caps.

This file is the one place that checks each criterion's behaviour. Criteria 7-9 exercise
the four shipped configs in `configs/` end to end through the CLI, in two module-scope
fixtures: two `run-all`s of the shipped pair config (the two non-Markovian configs), and
one pipeline of the two Markovian configs. Run with `pytest -v` to get one pass/fail line
per criterion.
"""

import dataclasses
import json
import os
import pathlib
import time

import numpy as np
import pytest

from qrevival import cli, linalg as la, mlp
from qrevival import dataset as dsmod
from qrevival import dynamics as dy
from qrevival import memory_metric as mm

CONFIG_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "configs"))


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


# ---------- criteria 1-2: rate and decoherence-function regimes ----------

def test_criterion_1_rate_regimes():
    t0 = time.time()
    ts = np.arange(0.0, 10.0 + 1e-12, 0.01)
    markov = dy.gamma_ad(ts, dy.ADParams(b=5.0, lam=1.0))
    backflow = dy.gamma_ad(ts, dy.ADParams(b=0.05, lam=10.0))
    elapsed = time.time() - t0
    assert np.all(markov >= 0.0)
    assert float(np.min(backflow)) < 0.0
    assert elapsed < 1.0
    print(f"criterion 1: PASS - min markovian rate {np.min(markov):.3e} >= 0, "
          f"min backflow rate {np.min(backflow):.3e} < 0, {elapsed:.2f}s")


def test_criterion_2_decoherence_function_regimes():
    t0 = time.time()
    ts = np.arange(0.0, 5.0 + 1e-12, 0.01)
    fast = dy.rtn_lambda(ts, dy.RTNParams(v=1.0, kappa=4.0))
    slow = dy.rtn_lambda(ts, dy.RTNParams(v=1.0, kappa=1.0 / 7.0))
    elapsed = time.time() - t0
    assert np.all(np.diff(fast) < 0.0), "fast-noise decoherence must decrease"
    assert np.any(slow[:-1] * slow[1:] < 0.0), "slow-noise must change sign"
    assert elapsed < 1.0
    print(f"criterion 2: PASS - fast strictly decreasing, slow crosses zero "
          f"{int(np.sum(slow[:-1] * slow[1:] < 0))} times, {elapsed:.2f}s")


# ---------- criterion 3: integrator oracle ----------

def test_criterion_3_noise_free_exchange_oracle():
    t0 = time.time()
    rho0 = la.dm(np.kron(la.KET0, la.KET1))
    grid = dy.TimeGrid(t_end=5.0, n_steps=5000)
    traj = dy.evolve(rho0, grid, 1.0, dy.ChannelSpec.noise_free())
    err = float(np.max(np.abs(traj.z_s - np.cos(4.0 * traj.times))))
    err_a = float(np.max(np.abs(traj.z_a + np.cos(4.0 * traj.times))))
    elapsed = time.time() - t0
    assert err < 1e-6
    assert err_a < 1e-6
    assert elapsed < 5.0
    print(f"criterion 3: PASS - max |z_s - cos(4t)| = {err:.3e}, max |z_a + cos(4t)| = "
          f"{err_a:.3e} < 1e-6, {elapsed:.2f}s")


# ---------- criterion 4: physicality suite ----------

def test_criterion_4_physicality_suite():
    t0 = time.time()
    grid = dy.TimeGrid(t_end=10.0, n_steps=10000)
    sets = [
        ("ad markovian", dy.ChannelSpec.amplitude_damping(5.0, 1.0),
         dy.STATE_EXCITED_EXCITED),
        ("ad backflow", dy.ChannelSpec.amplitude_damping(0.05, 10.0),
         dy.STATE_EXCITED_EXCITED),
        ("rtn markovian", dy.ChannelSpec.rtn_dephasing(1.0, 4.0),
         dy.STATE_PLUS_EXCITED),
        ("rtn backflow", dy.ChannelSpec.rtn_dephasing(1.0, 1.0 / 7.0),
         dy.STATE_PLUS_EXCITED),
    ]
    # evolve() enforces hermiticity 1e-9, trace 1e-9 (tighter than the 1e-8
    # gate), and min eigenvalue > -1e-6 at every step, raising on violation
    for name, chan, tag in sets:
        dy.evolve(dy.initial_state(tag), grid, 1.0, chan,
                  initial_state_tag=tag)
    # dephasing leaves the maximally mixed state fixed
    mixed = np.eye(4, dtype=complex) / 4.0
    worst = 0.0
    for chan in (dy.ChannelSpec.rtn_dephasing(1.0, 4.0),
                 dy.ChannelSpec.rtn_dephasing(1.0, 1.0 / 7.0)):
        traj = dy.evolve(mixed.copy(), grid, 1.0, chan)
        worst = max(worst, float(np.max(np.abs(traj.z_s))),
                    float(np.max(np.abs(traj.z_a))))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    print(f"criterion 4: PASS - four parameter sets physical at every grid "
          f"point; mixed-state drift {worst:.2e} < 1e-9, {elapsed:.1f}s")


# ---------- criterion 5: worked-example exactness ----------

def test_criterion_5_worked_example():
    series = [0.90, 0.92, 0.94, 0.93, 0.95, 0.97]
    eps = 0.015
    theta = [mm.heaviside(b - a - eps) for a, b in zip(series, series[1:])]
    assert theta == [1, 1, 0, 1, 1]
    assert mm.revival_count(series, eps) == 4
    print("criterion 5: PASS - theta terms [1, 1, 0, 1, 1], count 4")


# ---------- criterion 6: gradient verification ----------

def test_criterion_6_gradient_verification():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        params = mlp.init_params(rng)
        x = rng.uniform(-1.0, 1.0, size=5)
        y = float(rng.uniform(-1.0, 1.0))
        worst = max(worst, mlp.gradient_max_rel_error(params, x, y, h=1e-5))
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    print(f"criterion 6: PASS - max relative gradient error {worst:.3e} "
          f"< 1e-4 over 100 draws, {elapsed:.2f}s")


# ---------- criteria 7-9: shipped pipeline configs ----------

def _test_mse(run_dir):
    """Mean squared error of a run's predictions against its test-half labels."""
    ds = dsmod.read_dataset(os.path.join(run_dir, cli.DATASET_CSV))
    _, test = dsmod.chronological_split(ds)
    _, preds = cli.read_predictions(os.path.join(run_dir, cli.PREDICTIONS_CSV))
    return float(np.mean((preds - test.ys) ** 2))


@pytest.fixture(scope="module")
def markovian_runs(tmp_path_factory):
    """The two Markovian configs as one pipeline: they share a grid, a window length and a
    train section, so one training call trains both. Returns (reports by name, wall)."""
    base = tmp_path_factory.mktemp("markovian")
    names = ("ad_markovian", "rtn_markovian")
    cfgs = [dataclasses.replace(cli.load_run_config(config_path(f"{name}.json")),
                                output_dir=str(base / name)) for name in names]
    t0 = time.time()
    assert cli.run_pipeline(*cfgs) == 0
    wall = time.time() - t0
    return {name: mm.read_report(os.path.join(cfg.output_dir, cli.REPORT_JSON))
            for name, cfg in zip(names, cfgs)}, wall


@pytest.fixture(scope="module")
def comparison_runs(tmp_path_factory):
    """Two identical run-all executions of the shipped pair config."""
    outs = []
    walls = []
    for label in ("first", "second"):
        out = str(tmp_path_factory.mktemp(f"run_all_{label}"))
        t0 = time.time()
        rc = cli.main(["run-all", "--config", config_path("run_all.json"),
                       "--out", out])
        walls.append(time.time() - t0)
        assert rc == 0, f"run-all exited {rc}"
        outs.append(out)
    return outs, walls


def test_criterion_7_fit_quality(markovian_runs, comparison_runs):
    # the pair config's runs are the shipped non-Markovian configs but for output_dir
    pair = cli.load_pair_config(config_path("run_all.json"))
    for cfg, name in zip(pair, ("ad_non_markovian", "rtn_non_markovian")):
        shipped = cli.load_run_config(config_path(f"{name}.json"))
        assert cfg == dataclasses.replace(shipped, output_dir=cfg.output_dir), name
    reports, markovian_wall = markovian_runs
    outs, walls = comparison_runs
    ad_mse, rtn_mse = (_test_mse(os.path.join(outs[0], key)) for key in ("ad", "rtn"))
    ad_m = reports["ad_markovian"].score
    assert ad_mse < 1e-2
    assert rtn_mse < 1e-2
    assert ad_m < 0.01
    assert walls[0] < 120.0
    assert markovian_wall < 120.0
    print(f"criterion 7: PASS - test mse {ad_mse:.2e} (ad) / {rtn_mse:.2e} (rtn) < 1e-2; "
          f"markovian ad score {ad_m:.4f} < 0.01; run-all {walls[0]:.0f}s, "
          f"markovian pair {markovian_wall:.0f}s")


def test_criterion_8_score_comparison(markovian_runs, comparison_runs):
    reports, _ = markovian_runs
    outs, walls = comparison_runs
    with open(os.path.join(outs[0], cli.COMPARISON_JSON)) as f:
        comparison = json.load(f)
    assert comparison["n_eval"] == 500
    assert comparison["epsilon"] == 0.015
    assert comparison["rtn_score"] > comparison["ad_score"]
    assert 1.5 <= comparison["ratio"] <= 3.5
    for report in reports.values():
        assert report.score < 0.01
    assert walls[0] < 300.0
    print(f"criterion 8: PASS - raw counts {comparison['ad_n_rev']}/500 (ad) "
          f"vs {comparison['rtn_n_rev']}/500 (rtn), scores "
          f"{comparison['ad_score']:.3f} < {comparison['rtn_score']:.3f}, "
          f"ratio {comparison['ratio']:.3f} in [1.5, 3.5], markovian scores "
          f"{reports['ad_markovian'].score:.3f} / "
          f"{reports['rtn_markovian'].score:.3f} < 0.01, {walls[0]:.0f}s")


def test_criterion_9_run_all_determinism(comparison_runs):
    outs, _ = comparison_runs
    trees = [{p.relative_to(out): p.read_bytes() for p in pathlib.Path(out).rglob("*")
              if p.is_file()} for out in outs]
    # comparison.json and ten files per run: every stage output and both figures
    assert len(trees[0]) == 21
    assert trees[0].keys() == trees[1].keys()
    for rel, body in trees[0].items():
        assert body == trees[1][rel], f"{rel} differs between identical runs"
    print(f"criterion 9: PASS - all {len(trees[0])} files byte-identical "
          f"across repeated run-all executions")
