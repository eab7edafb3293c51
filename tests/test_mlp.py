"""Forward/backward, optimizer, training, and file-format tests."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrevival import cli, mlp
from qrevival import dataset as dset
from qrevival import dynamics as dy
from qrevival import memory_metric as mm


def _params(seed=0):
    return mlp.init_params(np.random.default_rng(seed))


def _zero_params():
    return mlp.MLPParams(np.zeros(737), n_in=5)


def _noisy_windows(n_samples, seed=8):
    rng = np.random.default_rng(seed)
    z = np.clip(rng.standard_normal(n_samples) * 0.3, -1, 1)
    traj = dy.Trajectory(times=np.arange(n_samples, dtype=float),
                         z_s=z, z_a=np.roll(z, 1),
                         channel=None, g=1.0, initial_state_tag=dy.STATE_CUSTOM)
    return dset.build_windows(traj)


def test_forward_zero_params():
    p = _zero_params()
    y, (_, h1, h2) = mlp.forward(p, np.zeros(5))
    assert y == 0.0
    assert np.all(h1 == 0.0) and np.all(h2 == 0.0)
    y2, _ = mlp.forward(p, np.array([0.5, -0.5, 1.0, -1.0, 0.2]))
    assert y2 == 0.0


def test_forward_dead_second_layer():
    # W1 = 0 with positive b1 keeps h1 > 0, but W2 = 0, b2 = 0 zeroes h2
    p = _zero_params()
    p.b1[:] = 0.7
    p.w3[:] = 1.0
    assert np.count_nonzero(p.vec) == mlp.H1 + mlp.H2   # views write the vector
    y, (_, h1, h2) = mlp.forward(p, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert np.all(h1 == 0.7)
    assert np.all(h2 == 0.0)
    assert y == 0.0


def test_forward_nonlinear():
    p = _params(5)
    x = np.array([0.3, -0.4, 0.2, 0.9, -0.1])
    y1, _ = mlp.forward(p, x)
    y2, _ = mlp.forward(p, 2.0 * x)
    assert y1 != pytest.approx(y2)
    assert -1.0 < y1 < 1.0 and -1.0 < y2 < 1.0


def test_forward_rejects_wrong_shape():
    with pytest.raises(ValueError):
        mlp.forward(_params(), np.zeros(4))


def test_params_layout():
    p = _params(1)
    assert p.vec.shape == (737,)
    assert (p.w1.shape, p.b1.shape, p.w2.shape) == ((mlp.H1, 5), (mlp.H1,), (mlp.H2, mlp.H1))
    assert (p.b2.shape, p.w3.shape, p.b3.shape) == ((mlp.H2,), (mlp.H2,), ())
    assert np.array_equal(p.vec[:5], p.w1[0]) and p.vec[-1] == p.b3
    with pytest.raises(ValueError):
        mlp.MLPParams(np.zeros(736), n_in=5)


def test_mse_examples():
    assert mlp.mse([0.1, 0.2], [0.1, 0.2]) == 0.0
    assert mlp.mse([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert mlp.mse([0.5], [0.9]) == pytest.approx(0.16)
    with pytest.raises(ValueError):
        mlp.mse([0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        mlp.mse([], [])


def test_backward_zero_residual():
    p = _params(2)
    x = np.array([0.2, 0.4, -0.3, 0.1, 0.6])
    y_hat, acts = mlp.forward(p, x)
    g = mlp.backward(p, acts, y_hat, y_hat)
    assert np.array_equal(g, np.zeros(737))


def test_backward_b3_closed_form():
    p = _params(3)
    x = np.array([0.3, -0.2, 0.8, 0.1, -0.5])
    y = 0.4
    y_hat, acts = mlp.forward(p, x)
    g = mlp.MLPParams(mlp.backward(p, acts, y_hat, y), n_in=5)
    assert g.b3 == pytest.approx(2.0 * (y_hat - y), rel=1e-15)


def test_batch_gradient_is_mean_of_row_gradients():
    p = _params(9)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1.0, 1.0, size=(8, 5))
    ys = rng.uniform(-1.0, 1.0, size=8)
    y_hat, acts = mlp.forward(p, xs)
    rows = [mlp.forward(p, x) for x in xs]
    # matrix-matrix and matrix-vector products may round differently
    np.testing.assert_allclose(y_hat, [y for y, _ in rows], rtol=1e-12, atol=0.0)
    g = mlp.backward(p, acts, y_hat, ys)
    mean = np.mean([mlp.backward(p, a, y1, y) for (y1, a), y in zip(rows, ys)], axis=0)
    assert np.count_nonzero(g) > 0
    assert np.max(np.abs(g - mean)) <= 1e-12 * np.max(np.abs(mean))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        p = mlp.init_params(rng)
        x = rng.uniform(-1.0, 1.0, 5)
        y = float(rng.uniform(-1.0, 1.0))
        worst = max(worst, mlp.gradient_max_rel_error(p, x, y))
    assert worst < 1e-4


def _fd_one_entry_at_a_time(p, x, y, h=1e-5):
    """Central differences as one forward pass per perturbed entry, on a copy of p."""
    q = mlp.MLPParams(p.vec.copy(), p.n_in)
    out = np.empty_like(q.vec)
    for j in range(q.vec.size):
        keep = q.vec[j]
        q.vec[j] = keep + h
        up = (mlp.forward(q, x)[0] - y) ** 2
        q.vec[j] = keep - h
        dn = (mlp.forward(q, x)[0] - y) ** 2
        q.vec[j] = keep
        out[j] = (up - dn) / (2.0 * h)
    return out


# P = 32 n_in + 577 leaves a partial last chunk at the default FD_CHUNK; chunks of 7
# split each layer across passes, and 10_000 runs every entry in one pass
@pytest.mark.parametrize("n_in, chunk", [(5, None), (3, None), (8, 7), (5, 10_000)])
def test_fd_gradients_match_one_entry_at_a_time(monkeypatch, n_in, chunk):
    if chunk is not None:
        monkeypatch.setattr(mlp, "FD_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = mlp.init_params(rng, n_in=n_in)
        x = rng.uniform(-1.0, 1.0, n_in)
        y = float(rng.uniform(-1.0, 1.0))
        before = p.vec.copy()
        got = mlp.fd_gradients(p, x, y)
        assert p.vec.tobytes() == before.tobytes()
        assert np.max(np.abs(got - _fd_one_entry_at_a_time(p, x, y))) <= 1e-10


def test_adam_zero_gradient():
    p = _params(4)
    before = p.vec.copy()
    m, v = np.zeros(737), np.zeros(737)
    mlp.adam_step(p, np.zeros(737), m, v, 1, 1e-3)
    assert np.array_equal(p.vec, before)
    assert not m.any() and not v.any()


def test_adam_first_step_hand_value():
    # with m_hat = g and v_hat = g^2 the first update is -lr * g/(|g| + eps)
    p = _zero_params()
    g = _zero_params()
    g.b3[...] = 0.5
    mlp.adam_step(p, g.vec, np.zeros(737), np.zeros(737), 1, 1e-3)
    assert p.b3 == pytest.approx(-1e-3 * 0.5 / (0.5 + 1e-8), rel=1e-12)
    assert np.all(p.w1 == 0.0)


def test_adam_constant_gradient_step_magnitude():
    p = _zero_params()
    g = _zero_params()
    g.b3[...] = 0.2
    m, v = np.zeros(737), np.zeros(737)
    prev = float(p.b3)
    for t in range(1, 401):
        mlp.adam_step(p, g.vec, m, v, t, 1e-3)
    step = abs(p.b3 - prev) / 400.0
    assert step == pytest.approx(1e-3, rel=0.05)   # sign-like unit step times lr


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_adam_step_rejects_non_finite(bad, buffered):
    p = _params(7)
    g = np.zeros(737)
    g[100] = bad
    buf = (mlp.Buffers(4, p),) if buffered else ()
    # inf / inf in the update is an invalid operation; only the guard may report it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        mlp.adam_step(p, g, np.zeros(737), np.zeros(737), 1, 1e-3, *buf)


def test_train_constant_labels():
    traj = dy.Trajectory(times=np.arange(60, dtype=float),
                         z_s=np.full(60, 0.3), z_a=np.full(60, -0.2),
                         channel=None, g=1.0, initial_state_tag=dy.STATE_CUSTOM)
    ds = dset.build_windows(traj)
    cfg = mlp.TrainConfig(epochs=200, batch_size=8, lr=1e-3, seed=1)
    p, curve = mlp.train(ds, cfg)
    assert len(curve) == 200
    assert curve[-1] < 1e-4


def test_train_deterministic():
    ds = _noisy_windows(60)
    cfg = mlp.TrainConfig(epochs=40, batch_size=16, lr=1e-3, seed=33)
    p1, c1 = mlp.train(ds, cfg)
    p2, c2 = mlp.train(ds, cfg)
    assert np.array_equal(c1, c2)
    assert np.array_equal(p1.vec, p2.vec)


def _plain_train(ds, cfg):
    """The trainer written out with fresh arrays at every step: a fancy-indexed
    minibatch, np.where ReLU masks and an out-of-place Adam update."""
    train_half, _ = dset.chronological_split(ds)
    xs, ys = train_half.xs, train_half.ys
    n = len(ys)
    rng = np.random.default_rng(cfg.seed)
    vec = mlp.init_params(rng, n_in=ds.window_len).vec
    m = np.zeros_like(vec)
    v = np.zeros_like(vec)

    def fwd(p, x):
        h1 = np.maximum(x @ p.w1.T + p.b1, 0.0)
        h2 = np.maximum(h1 @ p.w2.T + p.b2, 0.0)
        return h2 @ p.w3 + p.b3, h1, h2

    t = 0
    curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            x, y = xs[idx], ys[idx]
            p = mlp.MLPParams(vec, ds.window_len)
            y_hat, h1, h2 = fwd(p, x)
            r = 2.0 * (y_hat - y) / len(x)
            d2 = np.where(h2 > 0.0, np.outer(r, p.w3), 0.0)
            d1 = np.where(h1 > 0.0, d2 @ p.w2, 0.0)
            g = np.concatenate([(d1.T @ x).ravel(), d1.sum(axis=0), (d2.T @ h1).ravel(),
                                d2.sum(axis=0), r @ h2, [r.sum()]])
            t += 1
            m = mlp.BETA1 * m + (1.0 - mlp.BETA1) * g
            v = mlp.BETA2 * v + (1.0 - mlp.BETA2) * g * g
            m_hat, v_hat = m / (1.0 - mlp.BETA1 ** t), v / (1.0 - mlp.BETA2 ** t)
            vec = vec - cfg.lr * m_hat / (np.sqrt(v_hat) + mlp.EPS)
        curve.append(float(np.mean((fwd(mlp.MLPParams(vec, ds.window_len), xs)[0] - ys) ** 2)))
    return vec, np.array(curve)


def test_train_matches_plain_reference():
    ds = _noisy_windows(81)
    n = ds.split_index
    assert n == 38
    # one row per batch, a divisor of n, a partial last batch, one batch
    for batch_size in (1, 19, 5, n + 3):
        cfg = mlp.TrainConfig(epochs=12, batch_size=batch_size, lr=3e-3, seed=4)
        p, curve = mlp.train(ds, cfg)
        ref_vec, ref_curve = _plain_train(ds, cfg)
        assert np.array_equal(p.vec, ref_vec), batch_size
        assert np.array_equal(curve, ref_curve), batch_size


def test_train_all_matches_train_alone():
    # two datasets of equal length, trained in lockstep and one at a time
    datasets = [_noisy_windows(81), _noisy_windows(81, seed=3)]
    n = datasets[0].split_index
    assert not np.array_equal(datasets[0].ys, datasets[1].ys)
    for batch_size in (1, 19, 5, n + 3):
        cfg = mlp.TrainConfig(epochs=12, batch_size=batch_size, lr=3e-3, seed=4)
        together = mlp.train_all(datasets, cfg)
        for ds, (p, curve) in zip(datasets, together):
            alone, alone_curve = mlp.train(ds, cfg)
            assert p.vec.shape == alone.vec.shape and p.w3.shape == (mlp.H2,)
            assert np.array_equal(p.vec, alone.vec), batch_size
            assert np.array_equal(curve, alone_curve), batch_size


def test_train_divergence_raises_floating_point_error():
    # lr = 1e306 puts ~1e306 in every weight after the first step; the second
    # step's forward pass overflows in a matrix product
    cfg = mlp.TrainConfig(epochs=2, batch_size=8, lr=1e306, seed=0)
    with pytest.raises(FloatingPointError, match=r"overflow .* at step 2$"):
        mlp.train(_noisy_windows(60), cfg)


def test_train_learns_exchange_oscillation():
    # closed-system trajectory: z_s = cos(4t) is learnable to tight MSE
    from qrevival.linalg import KET0, KET1, dm
    chan = dy.ChannelSpec.noise_free()
    grid = dy.TimeGrid(t_end=5.0, n_steps=400)
    traj = dy.evolve(dm(np.kron(KET0, KET1)), grid, 1.0, chan)
    ds = dset.build_windows(traj)
    p, _ = mlp.train(ds, mlp.TrainConfig(seed=2))
    _, test = dset.chronological_split(ds)
    preds = mlp.predict_series(p, test.xs)
    assert mlp.mse(preds, test.ys) < 1e-3


def test_train_all_reaches_least_squares_floor():
    # With a fixed generator, <Z_S> is close to a linear recurrence in past samples (the
    # transfer-tensor idea, Cerrillo & Cao, PRL 112, 110401 (2014)), so a least-squares
    # readout of the window plus a bias is a floor for the network's revival count.
    # Documented values: ad MSE 3.5e-5 and n_rev 87, rtn MSE 1.6e-12 and n_rev 188.
    cfgs = cli.load_pair_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                             "configs", "run_all.json"))
    datasets = [dset.build_windows(dy.evolve(dy.initial_state(c.initial_state), c.grid,
                                             c.g, c.channel), c.window_len) for c in cfgs]
    floor = (87, 188)
    halves = [dset.chronological_split(ds) for ds in datasets]

    def design(half):
        return np.column_stack([half.xs, np.ones(len(half))])
    for (train, test), cfg, mse_max, n_rev in zip(halves, cfgs, (1e-4, 1e-10), floor):
        preds = design(test) @ np.linalg.lstsq(design(train), train.ys, rcond=None)[0]
        assert mlp.mse(preds, test.ys) < mse_max
        assert mm.score_pipeline(preds, cfg.epsilon).n_rev == n_rev
    # seed 7 was the tanh head's worst seed: ad n_rev 31 and a ratio of 6.00
    results = mlp.train_all(datasets, dataclasses.replace(cfgs[0].train, seed=7))
    reports = [mm.score_pipeline(mlp.predict_series(p, test.xs), cfg.epsilon)
               for (_, test), cfg, (p, _) in zip(halves, cfgs, results)]
    for report, n_rev in zip(reports, floor):
        assert abs(report.n_rev - n_rev) <= 5
    assert 1.5 <= reports[1].score / reports[0].score <= 3.5


def test_predict_series_basics():
    p = _params(6)
    assert mlp.predict_series(p, np.zeros((0, 5))).shape == (0,)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    x2 = np.array([0.2, 0.3, 0.4, 0.5, 0.6])
    out = mlp.predict_series(p, [x])
    assert out.shape == (1,)
    assert out[0] == mlp.forward(p, x)[0]
    both = mlp.predict_series(p, [x, x2])
    np.testing.assert_allclose(both, [mlp.forward(p, x)[0], mlp.forward(p, x2)[0]],
                               rtol=1e-12, atol=0.0)
    again = mlp.predict_series(p, [x])
    assert np.array_equal(out, again)
    assert np.all(np.abs(out) < 1.0)


def test_train_rejects_empty_split():
    traj = dy.Trajectory(times=np.arange(6, dtype=float),
                         z_s=np.zeros(6), z_a=np.zeros(6),
                         channel=None, g=1.0, initial_state_tag=dy.STATE_CUSTOM)
    ds = dset.build_windows(traj)       # 1 sample -> no train half
    with pytest.raises(ValueError):
        mlp.train(ds, mlp.TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        mlp.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(seed=-1)


def test_params_roundtrip(tmp_path):
    p = _params(11)
    path = os.path.join(tmp_path, "p.json")
    mlp.save_params(p, path)
    back = mlp.load_params(path)
    assert np.array_equal(back.vec, p.vec)
    second = os.path.join(tmp_path, "p2.json")
    mlp.save_params(back, second)
    with open(path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
    with open(path, "w") as f:
        f.write('{"w1": [[0]]}')
    with pytest.raises(ValueError, match="missing"):
        mlp.load_params(path)
    # right total size (737), wrong split between b2 and w3
    with open(second) as f:
        obj = json.load(f)
    obj["w3"].append(obj["b2"].pop())
    with open(path, "w") as f:
        json.dump(obj, f)
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        mlp.load_params(path)
    obj["b2"].append(obj["w3"].pop())
    obj["b3"] = float("nan")
    with open(path, "w") as f:
        json.dump(obj, f)
    with pytest.raises(ValueError, match="non-finite"):
        mlp.load_params(path)


def test_loss_curve_roundtrip(tmp_path):
    curve = np.array([0.5, 0.25, 0.125])
    path = os.path.join(tmp_path, "loss.csv")
    mlp.write_loss_curve(curve, path)
    back = mlp.read_loss_curve(path)
    assert np.array_equal(back, curve)
    with open(path, "w") as f:
        f.write("epoch,mse\n2,0.5\n")
    with pytest.raises(ValueError):
        mlp.read_loss_curve(path)


_PROPERTY = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n_in=st.integers(1, 8))
def test_params_roundtrip_property(tmp_path, seed, n_in):
    p = mlp.init_params(np.random.default_rng(seed), n_in)
    first = os.path.join(tmp_path, "a.json")
    mlp.save_params(p, first)
    back = mlp.load_params(first)
    assert back.n_in == n_in and np.array_equal(back.vec, p.vec)
    second = os.path.join(tmp_path, "b.json")
    mlp.save_params(back, second)
    with open(first, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()


@_PROPERTY
@given(data=st.data(), n_in=st.integers(1, 8), fault=st.sampled_from(["nan", "shape"]))
def test_load_params_rejects_corrupted_cell(tmp_path, data, n_in, fault):
    p = mlp.init_params(np.random.default_rng(0), n_in)
    if fault == "nan":
        p.vec[data.draw(st.integers(0, p.vec.size - 1))] = np.nan
    path = os.path.join(tmp_path, "p.json")
    mlp.save_params(p, path)
    with open(path) as f:
        obj = json.load(f)
    if fault == "shape":
        name = data.draw(st.sampled_from(sorted(obj)))
        block = obj[name]
        if not isinstance(block, list):
            obj[name] = [block]                         # b3 made a vector
        elif isinstance(block[0], list):
            block[data.draw(st.integers(0, len(block) - 1))].append(0.0)  # ragged matrix
        else:
            block.pop(data.draw(st.integers(0, len(block) - 1)))          # short vector
    with open(path, "w") as f:
        json.dump(obj, f)
    with pytest.raises(ValueError):
        mlp.load_params(path)


@_PROPERTY
@given(curve=arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1e6)))
def test_loss_curve_roundtrip_property(tmp_path, curve):
    first = os.path.join(tmp_path, "a.csv")
    mlp.write_loss_curve(curve, first)
    back = mlp.read_loss_curve(first)
    assert back.shape == curve.shape
    second = os.path.join(tmp_path, "b.csv")
    mlp.write_loss_curve(back, second)
    with open(first, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()


@_PROPERTY
@given(data=st.data(), n=st.integers(1, 40),
       fault=st.sampled_from(["nan", "negative", "shift"]))
def test_read_loss_curve_rejects_corrupted_cell(tmp_path, data, n, fault):
    path = os.path.join(tmp_path, "loss.csv")
    mlp.write_loss_curve(data.draw(arrays(float, n, elements=st.floats(0.0, 1.0))), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    row = rows[1 + data.draw(st.integers(0, n - 1))]
    if fault == "shift":
        row[0] = str(int(row[0]) + data.draw(st.sampled_from([-1, 1, 2])))
    else:
        row[1] = "nan" if fault == "nan" else "-0.5"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ValueError):
        mlp.read_loss_curve(path)
