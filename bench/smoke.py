"""Smoke test of the benchmark itself.

    python3 bench/smoke.py [workload ...]

For each workload (all by default) it runs bench/run.py on one op and
checks that
  * with --trace 0 and --trace 1, every end-to-end or per-layer metric of
    BENCHMARK.json prints as ``name value unit`` and in the result line,
    and every op passes;
  * with --corrupt, which perturbs every op's outputs before they are
    checked, every op is counted as failed.
It also checks that the benchmark exits non-zero without a result line in
a directory holding only BENCHMARK.json and bench/. run_all runs four
run-all ops, so the whole test takes a few minutes. Exit code 0 means pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIMEOUT_S = 400


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(rc, lines, stderr, label):
    if rc != 0 or not lines:
        raise AssertionError(f"{label}: exit {rc}\n{stderr}")
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(res)}")
    return res


def check_metrics(res, lines, wanted, label):
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        raise AssertionError(f"{label}: metrics {sorted(got)}")
    for m in wanted:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not math.isfinite(entry["value"]):
            raise AssertionError(f"{label}: {m['name']} = {entry}")
        if not any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]):
            raise AssertionError(f"{label}: no '{m['name']} <value> {m['unit']}' line")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    tiny = ["--seed", "0", "--seconds", "1", "--max-ops", "1"]
    for w in workloads:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w} --trace {trace}"
            rc, lines, stderr = run(["--workload", w, "--trace", trace] + tiny)
            res = result_of(rc, lines, stderr, label)
            if not res["correct"] or res["failed"]:
                raise AssertionError(f"{label}: {res['failed']} of {res['attempted']} ops failed")
            check_metrics(res, lines, wanted, label)
            print(f"ok   {label}: {res['attempted']} ops, {len(res['metrics'])} metrics")
        label = f"{w} --corrupt"
        res = result_of(*run(["--workload", w, "--trace", "0", "--corrupt"] + tiny), label)
        if res["correct"] or res["failed"] != res["attempted"]:
            raise AssertionError(f"{label}: {res['failed']} of {res['attempted']} ops failed")
        print(f"ok   {label}: all {res['attempted']} ops counted as failed")

    bare = tempfile.mkdtemp(dir=ROOT, prefix=".bench_tmp_bare_")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines, _ = run(["--workload", workloads[0], "--seed", "0", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
        if rc == 0 or any(line.startswith("{") for line in lines):
            raise AssertionError(f"bare directory: exit {rc}, output {lines[-1:]}")
        print(f"ok   bare directory: exit {rc}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
