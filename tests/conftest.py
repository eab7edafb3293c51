"""Fixtures that more than one test module shares."""

import os
import time

import pytest

from qrevival import cli

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


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
