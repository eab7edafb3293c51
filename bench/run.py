"""qrevival benchmark: runs one workload, checks every op, prints its metrics.

    python3 bench/run.py --workload run_all --seed 0 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory. Workloads (see workloads.py and BENCHMARK.json):

  run_all       one op is ``qrevival run-all`` on configs/run_all.json
  regime_sweep  one op is simulate + dataset + score --on-truth for one
                channel point drawn from the seed
  gradcheck     one op is one mlp.gradient_max_rel_error draw

Set-up (a fresh import of qrevival, config load and input generation) runs
SETUP_REPS times: once before the ops, whose inputs it makes, then between
ops spread over the run; setup_s is the median. Ops run one after another
(a closed loop with one client) while one more op, as long as the last,
still ends within ``--seconds``; at least one op runs. Each op runs in a
fresh temporary directory under .bench_tmp/ that is removed afterwards.
With ``--trace 0`` the end-to-end metrics are printed. Their times are
rescaled to a reference host speed (calib.py): a fixed kernel runs every
0.1 s of the run and right before each set-up and op, its own time is taken
out of each set-up and op, and the rest is rescaled by the kernel's nominal
over its mean time in and right around that set-up or op; the wall-clock figures are printed on a ``# wall clock`` line.
With ``--trace 1`` every other op is traced (see spans.py), the per-layer
metrics are printed as per-op means over the traced ops, the tracing
overhead is the traced ops' median wall time over the untraced ops', and
the spans are written to .bench_traces/<workload>.json.

Every metric is printed as ``name value unit`` and the last line is one
JSON object with the keys correct, attempted, failed and metrics.
``--max-ops`` and ``--corrupt`` serve the smoke test (smoke.py): the first
caps the op count, the second perturbs every op's outputs before the check.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

import numpy as np

from calib import REF_NOMINAL_S, HostSampler
from spans import Tracer
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
LAYERS = ("cli", "dynamics", "linalg", "dataset", "mlp", "memory_metric")
SETUP_REPS = 9
# p99 is left out: with ~2000 gradcheck ops per run it has 20 samples
# beyond it, but on a shared 2-vCPU machine it follows the host's stalls
# (quartile spread 0.16-0.37 over 10 seeds, against 0.05 for p90)
TAIL_LEVELS = (90.0, 50.0)

# Computed kernel sizes. A complex n x n matmul is n^3 multiply-adds of 8
# real flops; eigvalsh of a complex Hermitian n x n matrix is counted as its
# Householder tridiagonalisation, (16/3) n^3 flops (the O(n^2) tridiagonal
# sweep is left out). The readout's layer widths come from mlp.H1 and mlp.H2
# and its input width from the 5-sample windows of the shipped configs.
MATMUL4_FLOPS = 8 * 4 ** 3
EIGVALSH4_FLOPS = round(16 / 3 * 4 ** 3)
DISSIPATOR_MATMULS = {"amplitude_damping": 4, "rtn_dephasing": 2}
N_IN = 5


def load_layers():
    """Import qrevival afresh from the checkout's src/ and return its layers."""
    for name in [m for m in sys.modules if m == "qrevival" or m.startswith("qrevival.")]:
        del sys.modules[name]
    cli = importlib.import_module("qrevival.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "qrevival"):
        raise ImportError(f"qrevival imported from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: sys.modules[f"qrevival.{n}"] for n in LAYERS})


def tail(samples):
    """(percentile label, value): the highest level with >= 10 samples beyond it."""
    n = len(samples)
    for q in TAIL_LEVELS:
        if n * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", float(np.percentile(samples, q))
    return "max", max(samples)


def dynamics_work(calls):
    """(RK4 steps, rate evaluations, clamp events, flops) of the traced evolves."""
    steps = evals = clamps = flops = 0
    for name, args, traj in calls:
        if name != "dynamics.evolve":
            continue
        grid, chan = args[1], args[3]
        n = grid.n_steps
        times = grid.times()
        node = np.asarray(chan.rate(times)) != 0.0
        mid = np.asarray(chan.rate(times[:-1] + grid.dt / 2.0)) != 0.0
        with_dissipator = int(node[:-1].sum() + 2 * mid.sum() + node[1:].sum())
        # per step: 4 right-hand sides of 2 commutator matmuls (+ the
        # dissipator's where the rate is non-zero), 2 readouts, 1 check
        matmuls = 8 * n + DISSIPATOR_MATMULS.get(chan.kind, 0) * with_dissipator + 2 * (n + 1)
        steps += n
        evals += 2 * n + 1
        clamps += traj.clamp_events
        flops += MATMUL4_FLOPS * matmuls + EIGVALSH4_FLOPS * (n + 1)
    return steps, evals, clamps, flops


def matmul_gflops():
    """Reference rate: best of 5 float64 512 x 512 matmuls, default BLAS threads."""
    a = np.random.default_rng(0).standard_normal((512, 512))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ a
        best = min(best, time.perf_counter() - t0)
    return 2 * 512 ** 3 / best / 1e9


def layer_metrics(tr, n_ops, traced, untraced, quality):
    T, S, C = tr.total_s, tr.self_s, tr.n_calls
    K = lambda name: tr.counts.get(name, 0)  # noqa: E731

    def per(v):
        return v / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    stages = ("simulate", "dataset", "train", "predict", "score", "plots")
    m = {f"cli.{s}_s": per(T(f"cli.{s}")) for s in stages}
    m["cli.stage_cover_frac"] = ratio(sum(T(f"cli.{s}") for s in stages), T("op"))

    steps, evals, clamps, dyn_flops = dynamics_work(tr.calls)
    m.update({
        "dynamics.evolve_calls": per(C("dynamics.evolve")),
        "dynamics.evolve_s": per(T("dynamics.evolve")),
        "dynamics.rk4_steps": per(steps),
        "dynamics.step_us": ratio(S("dynamics.evolve"), steps) * 1e6,
        "dynamics.validate_calls": per(C("dynamics.validate")),
        "dynamics.validate_s": per(T("dynamics.validate")),
        "dynamics.clamp_events": per(clamps),
        "dynamics.clamped_frac": ratio(clamps, evals),
        "dynamics.io_s": per(T("dynamics.write_trajectory") + T("dynamics.read_trajectory")),
        "dynamics.io_bytes": per(K("dynamics.io_bytes")),
        "dynamics.flops_computed": per(dyn_flops),
        "dynamics.gflops": ratio(dyn_flops, T("dynamics.evolve")) / 1e9,
        "dataset.windows": per(K("dataset.windows")),
        "dataset.build_s": per(T("dataset.build_windows")),
        "dataset.io_s": per(T("dataset.write_dataset") + T("dataset.read_dataset")),
        "dataset.io_bytes": per(K("dataset.io_bytes")),
    })

    h1, h2 = tr.mods.mlp.H1, tr.mods.mlp.H2
    # forward: three layers of multiply-adds; backward: w2^T d (multiply-adds),
    # the two weight outer products and the w3 gradient (one multiply each)
    fwd = 2 * (N_IN * h1 + h1 * h2 + h2)
    bwd = 2 * h1 * h2 + h1 * h2 + h1 * N_IN + h2
    fd_evals = sum(2 * sum(np.size(getattr(args[0], f)) for f in ("w1", "b1", "w2", "b2", "w3", "b3"))
                   for name, args, _ in tr.calls if name == "mlp.fd_gradients")
    mlp_flops = fwd * (C("mlp.forward") + fd_evals) + bwd * C("mlp.backward")
    kernel_s = T("mlp.forward") + T("mlp.backward") + T("mlp.fd_gradients")
    m.update({
        "mlp.train_s": per(T("mlp.train")),
        "mlp.train_self_s": per(S("mlp.train")),
        "mlp.forward_calls": per(C("mlp.forward")),
        "mlp.forward_s": per(T("mlp.forward")),
        "mlp.backward_calls": per(C("mlp.backward")),
        "mlp.backward_s": per(T("mlp.backward")),
        "mlp.adam_steps": per(C("mlp.adam_step")),
        "mlp.adam_s": per(T("mlp.adam_step")),
        "mlp.samples_per_s": ratio(K("mlp.train_samples"), T("mlp.train")),
        "mlp.predict_s": per(T("mlp.predict_series")),
        "mlp.io_s": per(T("mlp.save_params") + T("mlp.load_params") + T("mlp.write_loss_curve")),
        "mlp.gradcheck_s": per(T("mlp.gradient_max_rel_error")),
        "mlp.fd_s": per(T("mlp.fd_gradients")),
        "mlp.fd_loss_evals": per(fd_evals),
        "mlp.flops_computed": per(mlp_flops),
        "mlp.gflops": ratio(mlp_flops, kernel_s) / 1e9,
        "memory_metric.score_s": per(T("memory_metric.score_pipeline")),
        "memory_metric.steps_scored": per(K("memory_metric.steps_scored")),
        "memory_metric.io_s": per(T("memory_metric.write_report") + T("memory_metric.read_report")
                                  + T("memory_metric.write_segments_csv")),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.stored_spans": per(len(tr.records)),
        "ref.matmul_gflops": matmul_gflops(),
    })
    for name in ("mlp.readout_mse", "memory_metric.n_rev_gap",
                 "memory_metric.regime_agree_frac", "mlp.grad_err_max"):
        m[name] = quality.get(name, 0.0)
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no cap)")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb every op's outputs before checking them")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    needed = (os.path.join(SRC, "qrevival", "cli.py"), os.path.join(ROOT, "configs"), spec_path)
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"bench: cannot run, missing {missing}", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)

    # an untraced run samples the host's speed throughout (see calib.py)
    sampler = None if args.trace else HostSampler()
    if sampler:
        sampler.start()
    try:
        return measure(args, spec, sampler)
    finally:
        if sampler:
            sampler.stop()


def measure(args, spec, sampler):
    setup_spans = []

    def set_up():
        if sampler:
            sampler.sample()
        t0 = time.perf_counter()
        mods = load_layers()
        wl = WORKLOADS[args.workload](mods, args.seed, ROOT)
        setup_spans.append((t0, time.perf_counter()))
        return mods, wl

    # the ops use the first set-up; the others are timed between ops, spread
    # over the run, so that their median samples the machine as the ops do
    mods, wl = set_up()

    tmp_base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_base, exist_ok=True)
    tracer = Tracer(mods) if args.trace else None
    attempted = failed = 0
    failures = []
    latencies = {False: [], True: []}     # traced? -> (start, end) of passing ops
    all_times = {False: [], True: []}     # traced? -> (start, end) of every op
    tried = {False: 0, True: 0}

    def record_failure(msg):
        nonlocal failed
        failed += 1
        if len(failures) < 5:
            failures.append(msg)

    if hasattr(wl, "check_noise_free"):
        out_dir = tempfile.mkdtemp(dir=tmp_base)
        attempted += 1
        try:
            wl.check_noise_free(out_dir, corrupt=args.corrupt)
        except CheckFailed as e:
            record_failure(f"noise-free point: {e}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    t_start = time.perf_counter()
    last_s = 0.0
    i = 0
    while True:
        # start an op only if one more like the last still ends in time
        t_op = time.perf_counter()
        enough = (t_op - t_start + last_s > args.seconds
                  or (args.max_ops and i >= args.max_ops))
        if enough and tried[False] and (not args.trace or tried[True]):
            break
        # a traced run gives each input to an untraced op, then a traced one
        traced = bool(args.trace) and i % 2 == 1
        k = i // 2 if args.trace else i
        out_dir = tempfile.mkdtemp(dir=tmp_base)
        attempted += 1
        tried[traced] += 1
        try:
            if traced:
                t0, t1, result = tracer.op_span(i, lambda: wl.run_op(k, out_dir))
            else:
                if sampler:
                    sampler.sample()
                t0, t1, result = wl.run_op(k, out_dir)
            all_times[traced].append((t0, t1))
            wl.check(k, out_dir, result, corrupt=args.corrupt)
            latencies[traced].append((t0, t1))
        except CheckFailed as e:
            record_failure(f"op {i}: {e}")
        except Exception:  # an op that raises is a failed op; keep measuring
            record_failure(f"op {i}: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        last_s = time.perf_counter() - t_op
        due = (time.perf_counter() - t_start) / args.seconds * (SETUP_REPS - 1)
        while len(setup_spans) < min(1 + due, SETUP_REPS - 1):
            set_up()
    while len(setup_spans) < SETUP_REPS:
        set_up()
    if sampler:
        sampler.sample()
    try:
        os.rmdir(tmp_base)
    except OSError:
        pass

    n_passed = len(latencies[False])
    quality = wl.summary()
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, "
          f"{failed} failed (fail_frac {failed / attempted:.4f}); {wl.describe()}")
    for msg in failures:
        print(f"# FAILED {msg}")
    for name, value in sorted(quality.items()):
        print(f"# quality {name} {value:.6g}")

    if args.trace:
        for traced in (False, True):
            # timings come from passing ops; all ops failing still yields numbers
            latencies[traced] = ([t1 - t0 for t0, t1 in latencies[traced] or all_times[traced]]
                                 or [float("nan")])
        metrics = layer_metrics(tracer, tried[True], latencies[True], latencies[False], quality)
        tracer.dump(os.path.join(ROOT, ".bench_traces", f"{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed, "traced_ops": tried[True],
                     "traced_op_s": latencies[True], "untraced_op_s": latencies[False]})
        print(f"# tracing overhead: traced op p50 {statistics.median(latencies[True]):.6g} s "
              f"vs untraced {statistics.median(latencies[False]):.6g} s")
        print("# self time per op (s):  " + ", ".join(
            f"{name} {tr[2] / 1e9 / tried[True]:.4g}"
            for name, tr in sorted(tracer.totals.items(), key=lambda kv: -kv[1][2])[:12] if tr[0]))
        wanted = spec["per_layer"]
    else:
        def timings(seconds):
            """setup_s, ops_per_s, op_p50_s and op_tail_s, each span timed by seconds()."""
            # passing ops give the timings; ops that all fail still yield numbers
            ops = ([seconds(*span) for span in latencies[False] or all_times[False]]
                   or [float("nan")])
            busy = sum(seconds(*span) for span in all_times[False])
            level, tail_s = tail(ops)
            return {"setup_s": statistics.median(seconds(*span) for span in setup_spans),
                    "ops_per_s": n_passed / busy if busy else float("nan"),
                    "op_p50_s": statistics.median(ops),
                    "op_tail_s": tail_s}, level, len(ops)

        wall, _, _ = timings(lambda t0, t1: t1 - t0)
        metrics, level, n = timings(sampler.normalize)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # reported, not bounded: the tail of a 17 ms gradcheck op follows the
        # host's millisecond jitter, which the rescaling cannot take out
        print(f"# op_tail_s {metrics['op_tail_s']:.6g} s, the {level} of {n} op times")
        print(f"# host kernel mean {sampler.kernel_s() * 1e3:.4g} ms over "
              f"{len(sampler.durations)} samples; times below are rescaled to "
              f"{REF_NOMINAL_S * 1e3:g} ms")
        print("# wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
        wanted = spec["end_to_end"]

    out = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        print(f"{m['name']} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
