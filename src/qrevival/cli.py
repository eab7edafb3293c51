"""Command-line pipeline: simulate -> dataset -> train -> predict -> score.

Stages communicate through files inside the run's output directory, so each
stage can be invoked on its own or chained end to end by `run-all`. Every
output is deterministic for a fixed config and seed, and every file that a
later stage reads round-trips byte-for-byte through its reader/writer pair.

Stages only do their work: they raise StageError for a missing input, a
numerical failure or a run-all mismatch, and ValueError (OverflowError for a
number too large for its type) for a malformed input. `main` alone turns
failures into exit codes, first loading the configs, where any failure is 2
(config validation), then running the stages: 2 an output directory that
cannot be made or an output that is not a file, 3 numerical failure
(unphysical state, diverged training or an overflowing prediction), 4 missing
stage inputs, 5 malformed stage files (including an unusable dataset split),
6 run-all config mismatch.
"""

import argparse
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dataset as dsmod
from . import dynamics as dy
from . import memory_metric as mm
from . import mlp
from .table import (check_keys, count, from_doc, positive_real, read_json, read_table,
                    write_json, write_table)

EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_MISSING = 4
EXIT_MALFORMED = 5
EXIT_MISMATCH = 6

TRAJECTORY_CSV = "trajectory.csv"
TRAJECTORY_META = dy.meta_path(TRAJECTORY_CSV)
DATASET_CSV = "dataset.csv"
PARAMS_JSON = "params.json"
LOSS_CSV = "loss.csv"
PREDICTIONS_CSV = "predictions.csv"
PREDICTIONS_HEADER = ("t_index", "y_hat")
REPORT_JSON = "report.json"
TRUTH_REPORT_JSON = "truth_report.json"
SEGMENTS_CSV = "segments.csv"
COMPARISON_JSON = "comparison.json"
TRAJECTORY_SVG = "trajectory.svg"
PREDICTION_SVG = "prediction.svg"
# the files each stage writes, in pipeline order: simulate, dataset, train, predict, score,
# figures, `score --on-truth` (no stage reads it), and last run-all's own comparison
STAGE_OUTPUTS = ((TRAJECTORY_CSV, TRAJECTORY_META), (DATASET_CSV,), (PARAMS_JSON, LOSS_CSV),
                 (PREDICTIONS_CSV,), (REPORT_JSON, SEGMENTS_CSV),
                 (TRAJECTORY_SVG, PREDICTION_SVG), (TRUTH_REPORT_JSON,), (COMPARISON_JSON,))


class StageError(Exception):
    """A stage failure that is not a malformed input; carries its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------- run configuration ----------

@dataclass(frozen=True)
class RunConfig:
    """One pipeline's config. It checks its own fields, so `dataclasses.replace` raises
    ValueError for a bad value, as TimeGrid and TrainConfig do; `channel`, `grid` and
    `train` must be instances of their types, which check their contents."""

    channel: dy.ChannelSpec
    g: float
    grid: dy.TimeGrid
    initial_state: str
    output_dir: str
    train: mlp.TrainConfig = field(default_factory=mlp.TrainConfig)
    window_len: int = 5
    epsilon: float = 0.015

    def __post_init__(self):
        for name in ("channel", "grid", "train"):     # each an instance of its annotation
            if not isinstance(getattr(self, name), cls := self.__annotations__[name]):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        for name in ("g", "epsilon"):
            object.__setattr__(self, name, positive_real(name, getattr(self, name)))
        if not isinstance(self.initial_state, str) or self.initial_state not in dy.INITIAL_KETS:
            raise ValueError(f"initial_state must be one of {list(dy.INITIAL_KETS)}, "
                             f"got {self.initial_state!r}")
        count("window_len", self.window_len, 2)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError("output_dir must be a non-empty string")


def run_config_from_dict(doc: dict, where: str = "config") -> RunConfig:
    return from_doc(RunConfig, doc, where, channel=dy.ChannelSpec.from_dict,
                    grid=lambda d: from_doc(dy.TimeGrid, d, "grid"),
                    train=lambda d: from_doc(mlp.TrainConfig, d, "train"))


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_json(path))


def load_pair_config(path):
    doc = read_json(path)
    check_keys(doc, ("ad", "rtn"), ("ad", "rtn"), "pair config")
    ad = run_config_from_dict(doc["ad"], "config.ad")
    rtn = run_config_from_dict(doc["rtn"], "config.rtn")
    if os.path.abspath(ad.output_dir) == os.path.abspath(rtn.output_dir):
        raise ValueError("pair config runs must use distinct output_dir values")
    return ad, rtn


def _apply_overrides(cfg: RunConfig, args, out_dir=None) -> RunConfig:
    return dataclasses.replace(
        cfg,
        output_dir=cfg.output_dir if out_dir is None else out_dir,
        train=(cfg.train if args.seed is None
               else dataclasses.replace(cfg.train, seed=args.seed)),
        epsilon=cfg.epsilon if args.epsilon is None else args.epsilon)


def _configs(args):
    """The run configs `args` names, overrides applied: one, or (ad, rtn) for run-all."""
    if args.command == "run-all":       # an empty --out stays empty, and RunConfig rejects it
        return [_apply_overrides(cfg, args, args.out and os.path.join(args.out, key))
                for key, cfg in zip(("ad", "rtn"), load_pair_config(args.config))]
    return [_apply_overrides(load_run_config(args.config), args, args.out)]


def _path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _inputs(cfg: RunConfig, *names):
    """Paths of a stage's input files; StageError (exit 4) for the first absent one."""
    paths = [_path(cfg, name) for name in names]
    for p in paths:
        if not os.path.isfile(p):
            raise StageError(EXIT_MISSING, f"missing input: {p}")
    return paths


def _outputs(out_dir: str, *names):
    """Paths of a stage's outputs in out_dir. They are removed first, with the outputs of
    every later stage: a failed stage leaves none, and no later stage reads older files.
    An output that is still there is not a file, and is a bad config (exit 2). The
    comparison comes last, so run-all removes nothing else from its own directory, which
    may hold a truth_report.json of its own."""
    stage = next(i for i, outs in enumerate(STAGE_OUTPUTS) if names[0] in outs)
    for name in names + sum(STAGE_OUTPUTS[stage + 1:], ()):
        if os.path.isfile(path := os.path.join(out_dir, name)):
            os.remove(path)
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if os.path.exists(path):
            raise StageError(EXIT_CONFIG, f"config error: cannot write output {path}: not a file")
    return paths


# ---------- pipeline stages ----------

def cmd_simulate(cfg: RunConfig) -> None:
    try:                    # a file at or above output_dir is a bad config
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as e:
        raise StageError(EXIT_CONFIG, f"config error: cannot make output directory "
                         f"{cfg.output_dir}: {e.strerror}") from e
    out, _ = _outputs(cfg.output_dir, TRAJECTORY_CSV, TRAJECTORY_META)
    try:                    # a broken physicality invariant is exit 3
        traj = dy.evolve(dy.initial_state(cfg.initial_state), cfg.grid, cfg.g,
                         cfg.channel, initial_state_tag=cfg.initial_state)
    except ValueError as e:
        raise StageError(EXIT_INTEGRATION, f"integration failure: {e}") from e
    dy.write_trajectory(traj, out)
    print(f"regime: {cfg.channel.regime()}")
    print(f"clamp events: {traj.clamp_events}")


def cmd_dataset(cfg: RunConfig) -> None:
    [out] = _outputs(cfg.output_dir, DATASET_CSV)
    src, _ = _inputs(cfg, TRAJECTORY_CSV, TRAJECTORY_META)
    ds = dsmod.build_windows(dy.read_trajectory(src), cfg.window_len)
    dsmod.write_dataset(ds, out)
    print(f"windows: {len(ds)} (split at {ds.split_index})")


def cmd_train(*cfgs: RunConfig) -> None:
    """One network per config, trained in lockstep with the first config's `train`."""
    outputs = [_outputs(cfg.output_dir, PARAMS_JSON, LOSS_CSV) for cfg in cfgs]
    datasets = [dsmod.read_dataset(_inputs(cfg, DATASET_CSV)[0]) for cfg in cfgs]
    try:
        results = mlp.train_all(datasets, cfgs[0].train)
    except FloatingPointError as e:
        raise StageError(EXIT_INTEGRATION, f"training failure: {e}") from e
    for (params_path, loss_path), (params, curve) in zip(outputs, results):
        mlp.save_params(params, params_path)
        mlp.write_loss_curve(curve, loss_path)
        print(f"final train mse: {curve[-1]:.6e}")


def write_predictions(t_indices, preds, path) -> None:
    """CSV `t_index,y_hat` at 12 significant digits."""
    write_table(path, PREDICTIONS_HEADER,
                (np.asarray(t_indices, dtype=int), np.asarray(preds, dtype=float)))


def read_predictions(path):
    """(t_index, y_hat) arrays; ValueError on a gap in t_index or a non-finite y_hat."""
    _, (t_index, preds) = read_table(path, PREDICTIONS_HEADER)
    t_index, preds = np.array(t_index, dtype=int), np.array(preds, dtype=float)
    dsmod.check_t_index(t_index, 0)
    if not np.all(np.isfinite(preds)):
        raise ValueError(f"non-finite y_hat in {path}")
    return t_index, preds


def cmd_predict(cfg: RunConfig) -> None:
    [out] = _outputs(cfg.output_dir, PREDICTIONS_CSV)
    ds_path, params_path = _inputs(cfg, DATASET_CSV, PARAMS_JSON)
    _, test = dsmod.chronological_split(dsmod.read_dataset(ds_path))
    params = mlp.load_params(params_path)
    if params.n_in != test.window_len:
        raise ValueError(f"{params_path} takes windows of {params.n_in} samples, but "
                         f"{ds_path} holds windows of {test.window_len}")
    try:
        preds = mlp.predict_series(params, test.xs)
    except FloatingPointError as e:
        raise StageError(EXIT_INTEGRATION, f"prediction failure: {e}") from e
    write_predictions(test.t_index, preds, out)
    print(f"predictions: {len(preds)}")


def cmd_score(cfg: RunConfig, on_truth: bool = False) -> None:
    """Score the predictions into report.json and segments.csv; with on_truth, a
    diagnostic, score the simulated test labels into truth_report.json instead."""
    if on_truth:
        out, *segments = _outputs(cfg.output_dir, TRUTH_REPORT_JSON)
        [src] = _inputs(cfg, DATASET_CSV)
        series = dsmod.chronological_split(dsmod.read_dataset(src))[1].ys
    else:
        out, *segments = _outputs(cfg.output_dir, REPORT_JSON, SEGMENTS_CSV)
        [src] = _inputs(cfg, PREDICTIONS_CSV)
        _, series = read_predictions(src)
    report = mm.score_pipeline(series, cfg.epsilon)
    mm.write_report(report, out)
    if segments:
        mm.write_segments_csv(report, *segments)
    print(f"n_rev={report.n_rev} n_eval={report.n_eval} "
          f"score={report.score:.6f} epsilon={report.epsilon:g}")


def run_pipeline(*cfgs: RunConfig) -> int:
    """The five stages, then the figures (`emit_plots`), each for every config before the
    next; one `cmd_train` call trains every network. Returns 0; a failing stage raises
    StageError or ValueError.
    """
    for stage in (cmd_simulate, cmd_dataset, cmd_train, cmd_predict, cmd_score, emit_plots):
        if stage is cmd_train:
            stage(*cfgs)
        else:
            for cfg in cfgs:
                stage(cfg)
    return 0


# ---------- regime comparison ----------

def cmd_run_all(ad_cfg: RunConfig, rtn_cfg: RunConfig, comparison_dir: str) -> None:
    """Both pipelines, then `comparison.json`; raises like run_pipeline."""
    if (ad_cfg.grid != rtn_cfg.grid or ad_cfg.epsilon != rtn_cfg.epsilon
            or ad_cfg.window_len != rtn_cfg.window_len or ad_cfg.train != rtn_cfg.train):
        raise StageError(EXIT_MISMATCH, "config mismatch: run-all requires a "
                         "shared grid, epsilon, window length and train section")
    [out] = _outputs(comparison_dir, COMPARISON_JSON)
    run_pipeline(ad_cfg, rtn_cfg)
    ad_rep = mm.read_report(_path(ad_cfg, REPORT_JSON))
    rtn_rep = mm.read_report(_path(rtn_cfg, REPORT_JSON))
    ratio = rtn_rep.score / ad_rep.score if ad_rep.score > 0 else None
    comparison = {
        "ad_score": ad_rep.score,
        "rtn_score": rtn_rep.score,
        "ratio": ratio,
        "ad_n_rev": ad_rep.n_rev,
        "rtn_n_rev": rtn_rep.n_rev,
        "n_eval": ad_rep.n_eval,
        "epsilon": ad_rep.epsilon,
    }
    write_json(out, comparison)
    ratio_txt = "undefined" if ratio is None else f"{ratio:.6f}"
    print(f"ad_score={ad_rep.score:.6f} ({ad_rep.n_rev}/{ad_rep.n_eval}) "
          f"rtn_score={rtn_rep.score:.6f} ({rtn_rep.n_rev}/{rtn_rep.n_eval}) "
          f"ratio={ratio_txt}")


# ---------- SVG emission ----------

def _svg_chart(path, title, series, markers=()) -> None:
    """Minimal line chart: series = (label, xs, ys, color, dashed) tuples."""
    width, height = 800, 420
    ml, mr, mt, mb = 60, 20, 40, 45
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    pad = 0.05 * (y1 - y0 or 1.0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):      # floats or float arrays: the same IEEE operations, so the same bytes
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - mb + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.3g}</text>')
        parts.append(f'<text x="{ml - 8}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{yv:.3g}</text>')
    legend_y = mt - 6
    legend_x = ml + 10
    for label, xs, ys, color, dashed in series:
        px, py = sx(np.asarray(xs, dtype=float)), sy(np.asarray(ys, dtype=float))
        pts = " ".join("%.2f,%.2f" % pair for pair in zip(px.tolist(), py.tolist()))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{legend_x}" y="{legend_y}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{label}</text>')
        legend_x += 9 * len(label) + 30
    for x, y in markers:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                     f'fill="none" stroke="#2ca02c" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))
        f.write("\n")


def emit_plots(cfg: RunConfig) -> None:
    """Trajectory and prediction figures for a completed run directory."""
    traj_svg, pred_svg = _outputs(cfg.output_dir, TRAJECTORY_SVG, PREDICTION_SVG)
    traj = dy.read_trajectory(_path(cfg, TRAJECTORY_CSV))
    t_indices, preds = read_predictions(_path(cfg, PREDICTIONS_CSV))
    report = mm.read_report(_path(cfg, REPORT_JSON))
    kind = cfg.channel.kind
    _svg_chart(
        traj_svg,
        f"{kind}: simulated Z expectations",
        [("system", traj.times, traj.z_s, "#1f77b4", False),
         ("ancilla", traj.times, traj.z_a, "#d62728", True)],
    )
    t_test = traj.times[t_indices]
    truth = traj.z_s[t_indices]
    markers = [(float(t_test[peak]), float(preds[peak]))
               for _, peak in report.segments]
    _svg_chart(
        pred_svg,
        f"{kind}: test-half prediction (n_rev={report.n_rev})",
        [("truth", t_test, truth, "#888888", True),
         ("prediction", t_test, preds, "#1f77b4", False)],
        markers=markers,
    )


# ---------- entry point ----------

@functools.cache                       # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrevival",
        description="two-qubit open-system simulation, windowed regression, "
                    "and revival scoring")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "dataset", "train", "predict", "score", "run-all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--epsilon", type=float, help="override epsilon")
        if name == "score":
            p.add_argument("--on-truth", action="store_true",
                           help="score the simulated test labels instead of "
                                "predictions (diagnostic)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # whatever fails while the configs load is a bad configuration
    try:
        cfgs = _configs(args)
    except (OSError, ValueError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # built per call, so a wrapper set on this module's cmd_* functions
        # (bench/spans.py times the stages that way) is the one that runs
        stages = {"simulate": cmd_simulate, "dataset": cmd_dataset,
                  "train": cmd_train, "predict": cmd_predict,
                  "score": lambda c: cmd_score(c, on_truth=args.on_truth),
                  "run-all": lambda ad, rtn: cmd_run_all(
                      ad, rtn, "." if args.out is None else args.out)}
        stages[args.command](*cfgs)
        return 0
    except StageError as e:
        print(e, file=sys.stderr)
        return e.code
    except (ValueError, OverflowError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
