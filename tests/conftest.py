"""Fixtures, paths and settings that more than one test module shares."""

import os
import time

import pytest
from hypothesis import HealthCheck, settings

from qrevival import cli

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
