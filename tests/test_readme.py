"""README.md against the code: each table, number and command that it states.

The results table is read against the run-all tree of the shared `comparison_runs`
fixture (conftest.py) and the truth reports scored from its datasets, so no network is
trained here.
"""

import dataclasses
import functools
import inspect
import json
import os
import re
import shlex
import shutil
from fractions import Fraction

import numpy as np
import pytest

from qrevival import cli, linalg as la, mlp
from qrevival import dynamics as dy
from qrevival import memory_metric as mm
from qrevival.table import FLOAT_CELL
from conftest import CONFIGS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _f:
    README = _f.read()

# the stage that writes each group of cli.STAGE_OUTPUTS
WRITERS = ("simulate", "dataset", "train", "predict", "score", "run-all", "score --on-truth",
           "run-all")
# the collapse operator of each README symbol
JUMPS = {"I⊗σ₋": np.kron(la.I2, la.SIGMA_MINUS), "I⊗Z": np.kron(la.I2, la.Z),
         "0": np.zeros((4, 4))}


def _cells(line: str) -> list:
    line = line.strip()
    return [c.strip() for c in line.strip("|").split("|")] if line.startswith("|") else []


def table(first: str) -> list:
    """The body rows, as lists of cells, of the README table whose header starts with `first`."""
    lines = README.splitlines()
    for i, line in enumerate(lines[:-1]):
        if _cells(line)[:1] == [first] and lines[i + 1].strip().startswith("|---"):
            rows = []
            for body in lines[i + 2:]:
                if not _cells(body):
                    break
                rows.append(_cells(body))
            return rows
    raise AssertionError(f"README has no table headed {first!r}")


def ticks(text: str) -> list:
    """The `backticked` spans of text."""
    return re.findall(r"`([^`]*)`", text)


def channel_class(label: str):
    """The channel class of a README label: `RTN dephasing (...)` is rtn_dephasing's."""
    kind = re.split(r" [(`]", label)[0].lower().replace(" ", "_").replace("-", "_")
    return dy.CHANNELS[kind]


# ---------- pipeline ----------

def _evaluate(expr: str, names, values):
    """A README expression such as `b^2 < 2*lambda`, with the channel's parameter values."""
    env = dict(zip(names, values))
    code = re.sub(r"[A-Za-z_]\w*", lambda m: f"env[{m.group()!r}]", expr.replace("^", "**"))
    return eval(code, {"env": env})


def test_channel_table_matches_the_oscillators():
    rows = table("channel")
    assert sorted(channel_class(row[0]).kind for row in rows) == sorted(dy.CHANNELS)
    rng = np.random.default_rng(5)
    for label, a, w2, scale, jump, when in rows:
        cls = channel_class(label)
        assert tuple(ticks(label)) == cls.NAMES
        assert np.array_equal(JUMPS[ticks(jump)[0]], cls.JUMP), label
        for _ in range(20):
            values = np.exp(rng.uniform(-3.0, 3.0, len(cls.NAMES))).tolist()
            chan = cls(*values)
            stated = [_evaluate(ticks(cell)[0], cls.NAMES, values) for cell in (a, w2, scale)]
            np.testing.assert_allclose(stated, chan.oscillator, rtol=1e-15, err_msg=label)
            memory = when != "never" and _evaluate(ticks(when)[0], cls.NAMES, values)
            assert memory == chan.non_markovian, (label, values)


def test_network_shape_and_python_floor():
    window = cli.RunConfig.__dataclass_fields__["window_len"].default
    assert re.findall(r"(\d+)→(\d+)→(\d+)→1", README) == [(str(window), str(mlp.H1),
                                                           str(mlp.H2))]
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        floor = re.search(r'requires-python = ">=([\d.]+)"', f.read())[1]
    assert re.findall(r"Python ≥ (\d[\d.]*\d)", README) == [floor]


def test_layout_lists_the_modules():
    block = README.split("```\nsrc/qrevival/\n", 1)[1].split("```", 1)[0]
    package = os.path.dirname(cli.__file__)
    modules = [n for n in os.listdir(package) if n.endswith(".py") and n != "__init__.py"]
    assert sorted(re.findall(r"^  (\w+\.py) ", block, re.M)) == sorted(modules)


# ---------- quick start and results ----------

def test_config_table_matches_the_shipped_configs():
    rows = {ticks(row[0])[0]: row[1:] for row in table("config")}
    assert sorted(rows) == sorted(n for n in os.listdir(CONFIGS) if n.endswith(".json"))
    for name, (channel, regime, state) in rows.items():
        if name == "run_all.json":      # the halves are the named configs but for output_dir
            halves = [cli.load_run_config(os.path.join(CONFIGS, half)) for half in ticks(channel)]
            pair = cli.load_pair_config(os.path.join(CONFIGS, name))
            assert [dataclasses.replace(c, output_dir="-") for c in pair] == \
                [dataclasses.replace(c, output_dir="-") for c in halves]
            continue
        cfg = cli.load_run_config(os.path.join(CONFIGS, name))
        assert type(cfg.channel) is channel_class(channel), name
        params = dict(item.split("=") for item in ticks(channel)[0].split(", "))
        assert cfg.channel.to_dict()["params"] == {k: float(Fraction(v)) for k, v in params.items()}
        assert cfg.channel.non_markovian == {"memory-bearing": True, "memoryless": False}[regime]
        assert ticks(state) == [cfg.initial_state]


@pytest.fixture(scope="module")
def run_tree(comparison_runs, tmp_path_factory):
    """({file name: path}, {"ad", "rtn": truth report}) of the first shared run-all tree: a
    pipeline file is the RTN pipeline's, and the truth reports, truth_report.json among the
    paths, come from `score --on-truth` on copies of the tree's two datasets."""
    out = comparison_runs[0][0]
    truth_dir = tmp_path_factory.mktemp("truth")
    reports = {}
    for key in ("ad", "rtn"):
        (truth_dir / key).mkdir()
        shutil.copy(os.path.join(out, key, cli.DATASET_CSV), truth_dir / key)
        assert cli.main(["score", "--on-truth", "--config",
                         os.path.join(CONFIGS, f"{key}_non_markovian.json"), "--out",
                         str(truth_dir / key)]) == 0
        reports[key] = mm.read_report(truth_dir / key / cli.TRUTH_REPORT_JSON)
    files = {name: os.path.join(out, "rtn", name) for name in os.listdir(os.path.join(out, "rtn"))}
    files[cli.COMPARISON_JSON] = os.path.join(out, cli.COMPARISON_JSON)
    files[cli.TRUTH_REPORT_JSON] = str(truth_dir / "rtn" / cli.TRUTH_REPORT_JSON)
    return files, reports


def test_results_table_matches_run_all_and_the_truth(run_tree):
    files, truth = run_tree
    with open(files[cli.COMPARISON_JSON]) as f:
        comparison = json.load(f)
    assert cli.load_pair_config(os.path.join(CONFIGS, "run_all.json"))[0].train.seed == 0
    learned, labels = table("series scored")
    assert "seed 0" in learned[0] and "--on-truth" in labels[0]
    assert learned[1:] == [str(comparison["ad_n_rev"]), str(comparison["rtn_n_rev"]),
                           f"{comparison['ratio']:.2f}"]
    assert labels[1:] == [str(truth["ad"].n_rev), str(truth["rtn"].n_rev),
                          f"{truth['rtn'].score / truth['ad'].score:.2f}"]
    assert re.findall(r"`n_eval` (\d+)", README) == [str(comparison["n_eval"])]
    assert truth["ad"].n_eval == truth["rtn"].n_eval == comparison["n_eval"]


@pytest.mark.seed_range
def test_seed_ranges_match_run_all(tmp_path):
    # ten run-alls, about 5 s, so pyproject.toml's addopts leaves this out of the default run
    text = " ".join(README.split())
    assert test_seed_ranges_match_run_all.__name__ in text
    ((ad_lo, ad_hi, rtn_lo, rtn_hi, ratio_lo, ratio_hi),) = re.findall(
        r"training seeds 0–9 the learned counts range over (\d+)–(\d+) \(AD\) and "
        r"(\d+)–(\d+) \(RTN\), a ratio of ([\d.]+)–([\d.]+)\.", text)
    runs = []
    for seed in range(10):
        out = tmp_path / str(seed)
        assert cli.main(["run-all", "--config", os.path.join(CONFIGS, "run_all.json"),
                         "--seed", str(seed), "--out", str(out)]) == 0
        with open(out / cli.COMPARISON_JSON) as f:
            runs.append(json.load(f))
    for key, lo, hi in (("ad_n_rev", ad_lo, ad_hi), ("rtn_n_rev", rtn_lo, rtn_hi)):
        counts = [run[key] for run in runs]
        assert [str(min(counts)), str(max(counts))] == [lo, hi], (key, counts)
    ratios = [run["ratio"] for run in runs]
    assert [f"{min(ratios):.2f}", f"{max(ratios):.2f}"] == [ratio_lo, ratio_hi], ratios


def test_noise_free_limit_matches_simulate(tmp_path, capsys):
    # up to the next bold paragraph or heading, whichever comes first
    section = re.split(r"\n\n\*\*|^#", README.split("**The noise-free limit.**", 1)[1],
                       maxsplit=1, flags=re.M)[0]
    assert "| seed spec says" not in section
    ((t_end, n_steps),) = re.findall(r"`t_end` (\d+), `n_steps` (\d+)\)", section)
    (runs,) = re.findall(r"runs from `(\w+)`", section)
    fails = dict(re.findall(r"^- `(\w+)`: `([^`]*)`", section, re.M))
    (finer,) = re.findall(r"At `n_steps` (\d+), both states run", section)
    assert sorted([runs, *fails]) == sorted(dy.INITIAL_KETS)
    shipped = [n for n in os.listdir(CONFIGS) if n.endswith(".json") and n != "run_all.json"]
    assert {cli.load_run_config(os.path.join(CONFIGS, n)).grid for n in shipped} == \
        {dy.TimeGrid(t_end=float(t_end), n_steps=int(n_steps))}
    with open(os.path.join(CONFIGS, "ad_non_markovian.json")) as f:
        doc = dict(json.load(f), channel={"kind": "noise_free"})
    cfg = tmp_path / "noise_free.json"
    # the stderr of each run: every state runs at the finer grid
    cases = {**{(s, steps): "" for s in (runs, *fails) for steps in (n_steps, finer)},
             **{(s, n_steps): f"integration failure: {m}\n" for s, m in fails.items()}}
    for (state, steps), err in cases.items():
        doc.update(initial_state=state, output_dir=str(tmp_path / state / steps))
        doc["grid"] = dict(doc["grid"], n_steps=int(steps))
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--config", str(cfg)])
        assert (rc, capsys.readouterr().err) == \
            (cli.EXIT_INTEGRATION if err else 0, err), (state, steps)


def test_departures_from_the_seed_spec_match_the_code(run_tree, truth_of):
    activation, normalization, repair, _, pairing = table("seed spec says")
    # the hidden activation, on a probe whose pre-activations take both signs
    hidden = {"ReLU": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
    (stated,) = ticks(activation[1])
    p = mlp.init_params(np.random.default_rng(0))
    _, (xa, h1, _) = mlp.forward(p, mlp.columns([[0.9, -0.7, 0.4, -0.2, 0.6]]))
    z1 = p.a1 @ xa[:, 0]
    assert np.any(z1 > 0.1) and np.any(z1 < 0.0)
    assert [np.array_equal(h1[:-1, 0], f(z1)) for f in hidden.values()] == \
        [name == stated for name in hidden]
    # the normalization, through score_pipeline, on a series where the two quotients differ
    spec, code = (ticks(cell)[0].split(" = ")[1] for cell in normalization[:2])
    report = mm.score_pipeline([0.0, 0.1, 0.0, 0.1], 0.015)
    counts = (report.n_rev, report.n_eval)
    assert report.score == _evaluate(code, ("n_rev", "n_eval"), counts) != \
        _evaluate(spec, ("n_rev", "n_eval"), counts)
    with open(run_tree[0][cli.COMPARISON_JSON]) as f:
        comparison = json.load(f)
    n_rev, n_eval = comparison["ad_n_rev"], comparison["n_eval"]
    assert ticks(normalization[2])[:2] == [str(comparison["ad_score"]),
                                           f"{n_rev / (n_eval - 1):.4f}"]
    # no repair: the test named here pins the noise-free exit 3 that a repair would hide
    (pin,) = ticks(repair[2])
    assert pin == test_noise_free_limit_matches_simulate.__name__
    # the pairing, and each channel's truth count from each start state
    ad, rtn = cli.load_pair_config(os.path.join(CONFIGS, "run_all.json"))
    assert ticks(pairing[0]) == [ad.initial_state, rtn.initial_state]
    counts = ticks(pairing[2])      # a state, then its AD and RTN counts
    for i, state in enumerate(counts[::3]):
        for key, cfg, n in zip(("ad", "rtn"), (ad, rtn), counts[3 * i + 1:3 * i + 3]):
            cfg = dataclasses.replace(cfg, initial_state=state)
            assert truth_of(cfg)[1] == int(n), (key, state)


def test_every_command_parses():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("qrevival ")]
    assert lines
    for line in lines:
        try:
            args = cli._build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert os.path.isfile(os.path.join(ROOT, args.config)), line


# ---------- configuration ----------

def _fields() -> dict:
    """{dotted config key: its dataclass field, or None}: RunConfig's fields, with `grid`
    and `train` expanded into theirs and `channel` into `kind`, `params` and ChannelSpec's."""
    sections = {"channel": {"kind": None, "params": None,
                            **{f.name: f for f in dataclasses.fields(dy.ChannelSpec)}},
                "grid": {f.name: f for f in dataclasses.fields(dy.TimeGrid)},
                "train": {f.name: f for f in dataclasses.fields(mlp.TrainConfig)}}
    keys = {}
    for f in dataclasses.fields(cli.RunConfig):
        keys.update({f"{f.name}.{k}": v for k, v in sections[f.name].items()}
                    if f.name in sections else {f.name: f})
    return keys


def _load(key: str, *value):
    """The shipped AD config loaded with `key` set to value, or without `key`."""
    with open(os.path.join(CONFIGS, "ad_non_markovian.json")) as f:
        doc = json.load(f)
    *path, last = key.split(".")
    section = functools.reduce(dict.__getitem__, path, doc)
    if value:
        section[last] = value[0]
    else:
        del section[last]
    return cli.run_config_from_dict(doc)


def _get(cfg, key: str):
    return functools.reduce(getattr, key.split("."), cfg)


def test_config_table_holds_every_key_default_and_bound():
    rows = {ticks(key)[0]: (value, default) for key, value, default in table("key")}
    fields = _fields()
    assert sorted(rows) == sorted(fields)
    # every integer field states its bound, and every real field that it is positive
    for kind, t in (("integer ≥", int), ("positive real", float)):
        assert sorted(k for k, (value, _) in rows.items() if value.startswith(kind)) == \
            sorted(k for k, f in fields.items() if f and f.type in (t, t.__name__))
    for key, (value, default) in rows.items():
        if default == "required":
            with pytest.raises(ValueError, match="missing keys"):
                _load(key)
        else:
            assert _get(_load(key), key) == json.loads(ticks(default)[0]), key
        if bound := re.match(r"integer ≥ (\d+)$", value):
            low = int(bound[1])
            assert _get(_load(key, low), key) == low
            with pytest.raises(ValueError, match=key.split(".")[-1]):
                _load(key, low - 1)
        elif value.startswith("positive real"):
            one = _get(_load(key, 1), key)     # an integer for a real is stored as a float
            assert type(one) is float and one == 1.0
            with pytest.raises(ValueError, match=key.split(".")[-1]):
                _load(key, 0)


def test_byte_identity_names_the_tables_float_format():
    section = README.split('**What "byte-identical" covers.**', 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(%[^`]*)`", section) == [FLOAT_CELL]


def test_initial_state_tags():
    section = README.split("Initial-state tags", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.M) == list(dy.INITIAL_KETS)


# ---------- outputs, exit codes and messages ----------

def test_outputs_table_matches_the_stage_outputs(run_tree):
    files, _ = run_tree
    rows = table("file")
    assert [(ticks(name)[0], ticks(writer)[0]) for name, writer, _ in rows] == \
        [(name, writer) for names, writer in zip(cli.STAGE_OUTPUTS, WRITERS) for name in names]
    for cell, _, contents in rows:
        name = ticks(cell)[0]
        if name.endswith(".csv"):
            assert contents.startswith("columns"), name
            with open(files[name], newline="") as f:
                assert f.readline().rstrip("\r\n") == ticks(contents)[0], name
        elif name.endswith(".json"):
            assert contents.startswith("keys"), name
            with open(files[name]) as f:
                assert sorted(json.load(f)) == ticks(re.split(r"[:;]", contents)[0]), name


def _code_prefixes() -> dict:
    """{exit code: stderr prefixes} as cli.py writes them: the message of each StageError,
    and each message that `main` prints before it returns a code."""
    source = inspect.getsource(cli)
    found = re.findall(r'StageError\((EXIT_\w+), f?"([^":]*:)', source) + [
        (code, prefix) for prefix, code in re.findall(
            r'print\(f?"([^":]*:)[^\n]*file=sys\.stderr\)\s*return (EXIT_\w+)', source)]
    prefixes = {0: set()}
    for code, prefix in found:
        prefixes.setdefault(getattr(cli, code), set()).add(prefix)
    return prefixes


def test_exit_code_table_matches_the_cli():
    stated = {int(ticks(code)[0]): set(ticks(prefixes)) for code, prefixes, _ in table("code")}
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    prefixes = _code_prefixes()
    assert set(prefixes) == {0, *codes}
    assert stated == prefixes
