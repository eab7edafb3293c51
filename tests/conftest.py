"""Fixtures, paths and settings that more than one test module shares."""

import dataclasses
import os
import time

import pytest
from hypothesis import HealthCheck, settings

from qrevival import cli
from qrevival import dynamics as dy
from qrevival import memory_metric as mm

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

# one profile for every property test, which sets only its own max_examples: no per-example
# deadline, since an example's wall time says nothing about the rule it checks; and tmp_path
# is shared by a test's examples, each of which overwrites the files it reads back
settings.register_profile("qrevival", deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])
settings.load_profile("qrevival")


@pytest.fixture(scope="session")
def comparison_runs(tmp_path_factory):
    """Two identical run-all executions of the shipped pair config: (out dirs, walls).
    Session-scoped, so each network it trains is trained once for the whole suite."""
    outs = []
    walls = []
    for label in ("first", "second"):
        out = str(tmp_path_factory.mktemp(f"run_all_{label}"))
        t0 = time.time()
        rc = cli.main(["run-all", "--config", os.path.join(CONFIGS, "run_all.json"),
                       "--out", out])
        walls.append(time.time() - t0)
        assert rc == 0, f"run-all exited {rc}"
        outs.append(out)
    return outs, walls


def read_truth(out) -> tuple:
    """(clamp_events, n_rev, n_eval, z_s) from the trajectory and the truth report in `out`."""
    traj = dy.read_trajectory(os.path.join(out, cli.TRAJECTORY_CSV))
    report = mm.read_report(os.path.join(out, cli.TRUTH_REPORT_JSON))
    return traj.clamp_events, report.n_rev, report.n_eval, traj.z_s


def truth(cfg: cli.RunConfig, out) -> tuple:
    """A config's truth as users get it: `simulate`, `dataset` and `score --on-truth` into
    `out`, then read_truth. n_rev counts the test-half labels' revivals at cfg.epsilon."""
    cfg = dataclasses.replace(cfg, output_dir=str(out))
    cli.cmd_simulate(cfg)
    cli.cmd_dataset(cfg)
    cli.cmd_score(cfg, on_truth=True)
    return read_truth(out)


@pytest.fixture(scope="session")
def truth_of(tmp_path_factory):
    """truth(cfg, out) as a function of cfg, each config run once for the suite into a
    directory of its own. Configs that differ only in output_dir share one run, so a shipped
    config and the run-all half equal to it are simulated, windowed and scored once."""
    done = {}

    def get(cfg: cli.RunConfig) -> tuple:
        key = dataclasses.replace(cfg, output_dir=".")
        if key not in done:
            done[key] = truth(cfg, tmp_path_factory.mktemp("truth"))
        return done[key]
    return get
