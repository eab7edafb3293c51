"""Span tracer that times the qrevival layers from outside the package.

``Tracer.install`` replaces a public function in the namespace of the module
that calls it with a timing wrapper, and ``uninstall`` puts the originals
back, so untraced ops run the unmodified code. cli reaches the other layers
through their module objects (``dy.evolve``), so those names are replaced on
the layer's module; mlp binds ``chronological_split`` and ``stack`` itself
with ``from .dataset import``, so those are also replaced on mlp.

Every span records its name, start, end, parent span and op id. Spans of
functions that run thousands of times per op (a forward pass per sample, a
density-matrix check per RK4 step) are folded into per-name totals instead
of being stored one by one; all spans, stored or folded, feed the per-name
call count, total time and self time (time not covered by child spans).
"""

import json
import os
import time

# (module, attribute, span name, stored one by one)
TRACED = (
    ("cli", "cmd_simulate", "cli.simulate", True),
    ("cli", "cmd_dataset", "cli.dataset", True),
    ("cli", "cmd_train", "cli.train", True),
    ("cli", "cmd_predict", "cli.predict", True),
    ("cli", "cmd_score", "cli.score", True),
    ("cli", "emit_plots", "cli.plots", True),
    ("cli", "write_predictions", "cli.write_predictions", True),
    ("cli", "read_predictions", "cli.read_predictions", True),
    ("dynamics", "evolve", "dynamics.evolve", True),
    ("dynamics", "validate_density_matrix", "dynamics.validate", False),
    ("dynamics", "write_trajectory", "dynamics.write_trajectory", True),
    ("dynamics", "read_trajectory", "dynamics.read_trajectory", True),
    ("dataset", "build_windows", "dataset.build_windows", True),
    ("dataset", "write_dataset", "dataset.write_dataset", True),
    ("dataset", "read_dataset", "dataset.read_dataset", True),
    ("dataset", "chronological_split", "dataset.chronological_split", False),
    ("mlp", "chronological_split", "dataset.chronological_split", False),
    ("mlp", "stack", "dataset.stack", False),
    ("mlp", "train", "mlp.train", True),
    ("mlp", "init_params", "mlp.init_params", False),
    ("mlp", "forward", "mlp.forward", False),
    ("mlp", "backward", "mlp.backward", False),
    ("mlp", "adam_step", "mlp.adam_step", False),
    ("mlp", "predict_series", "mlp.predict_series", True),
    ("mlp", "save_params", "mlp.save_params", True),
    ("mlp", "load_params", "mlp.load_params", True),
    ("mlp", "write_loss_curve", "mlp.write_loss_curve", True),
    ("mlp", "gradient_max_rel_error", "mlp.gradient_max_rel_error", True),
    ("mlp", "fd_gradients", "mlp.fd_gradients", True),
    ("memory_metric", "score_pipeline", "memory_metric.score_pipeline", True),
    ("memory_metric", "write_report", "memory_metric.write_report", True),
    ("memory_metric", "read_report", "memory_metric.read_report", True),
    ("memory_metric", "write_segments_csv", "memory_metric.write_segments_csv", True),
)


def _file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _trajectory_bytes(args, result):
    csv_path = str(args[1] if len(args) > 1 else args[0])
    return _file_bytes(csv_path) + _file_bytes(csv_path + ".meta.json")


# Work counted at the boundaries: span name -> {counter: fn(args, result)}.
# Byte counts are the sizes of the files a reader read or a writer wrote.
COUNTERS = {
    "dynamics.write_trajectory": {"dynamics.io_bytes": _trajectory_bytes},
    "dynamics.read_trajectory": {"dynamics.io_bytes": _trajectory_bytes},
    "dataset.build_windows": {"dataset.windows": lambda a, r: len(r)},
    "dataset.write_dataset": {"dataset.io_bytes": lambda a, r: _file_bytes(a[1])},
    "dataset.read_dataset": {"dataset.io_bytes": lambda a, r: _file_bytes(a[0])},
    "mlp.train": {"mlp.train_samples": lambda a, r: a[0].split_index * a[1].epochs},
    "memory_metric.score_pipeline": {"memory_metric.steps_scored": lambda a, r: r.n_eval - 1},
}


class Tracer:
    """Spans and counts of the traced ops of one run."""

    def __init__(self, mods):
        self.mods = mods
        self.records = []    # stored spans: (id, name, start_ns, end_ns, parent id, op id)
        self.totals = {}     # name -> [calls, total_ns, self_ns]
        self.counts = {}     # counter name -> total
        self.calls = []      # (name, args, result) of evolve and fd_gradients calls
        self.op = None
        self._stack = []     # open spans: [id, child_ns]
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn, store):
        counters = COUNTERS.get(name, {})
        keep_call = name == "dynamics.evolve" or name == "mlp.fd_gradients"
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if store:
                    self.records.append((span_id, name, t0, t1, parent, self.op))
            for counter, inc in counters.items():
                self.counts[counter] = self.counts.get(counter, 0) + inc(args, result)
            if keep_call:
                self.calls.append((name, args, result))
            return result

        return traced

    def install(self):
        for mod_name, attr, name, store in TRACED:
            module = getattr(self.mods, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, store))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def op_span(self, op_id, run):
        """Run ``run()`` as the root span of op ``op_id`` with tracing on."""
        self.op = op_id
        self.install()
        try:
            return self._wrap("op", run, True)()
        finally:
            self.uninstall()
            self.op = None

    def total_s(self, name):
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name):
        return self.totals.get(name, [0, 0, 0])[2] / 1e9

    def n_calls(self, name):
        return self.totals.get(name, [0, 0, 0])[0]

    def dump(self, path, extra):
        """Write the stored spans and per-name totals as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["totals"] = {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                         for name, (c, t, s) in sorted(self.totals.items()) if c}
        doc["spans"] = [dict(zip(("id", "name", "start_ns", "end_ns", "parent", "op"), r))
                        for r in self.records]
        with open(path, "w") as f:
            json.dump(doc, f)
            f.write("\n")
