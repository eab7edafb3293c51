"""Simulate, windows and the truth score of shipped configs, in memory.

    python tests/truth.py ad_non_markovian rtn_non_markovian

prints one JSON object that maps each named config in `configs/` to its clamp events,
its truth revival count (the test-half labels scored with the config's epsilon) and its
z_s at full precision. A test runs it under another BLAS kernel and compares the result
with its own process's. pytest does not collect this file.
"""

import json
import os
import sys

from qrevival import cli
from qrevival import dataset as dsmod
from qrevival import dynamics as dy
from qrevival import memory_metric as mm

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def truth(name: str) -> dict:
    cfg = cli.load_run_config(os.path.join(CONFIGS, f"{name}.json"))
    traj = dy.evolve(dy.initial_state(cfg.initial_state), cfg.grid, cfg.g, cfg.channel)
    _, test = dsmod.chronological_split(dsmod.build_windows(traj, cfg.window_len))
    return {"clamp_events": traj.clamp_events,
            "n_rev": mm.score_pipeline(test.ys, cfg.epsilon).n_rev,
            "z_s": traj.z_s.tolist()}


if __name__ == "__main__":
    print(json.dumps({name: truth(name) for name in sys.argv[1:]}))
