"""Forward/backward, optimizer, training, and file-format tests."""

import json
import os

import numpy as np
import pytest

from qrevival import dataset as dset
from qrevival import dynamics as dy
from qrevival import mlp


def _params(seed=0):
    return mlp.init_params(np.random.default_rng(seed))


def _zero_params():
    return mlp.MLPParams(np.zeros(737), n_in=5)


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
    assert g.b3 == pytest.approx(2.0 * (y_hat - y) * (1.0 - y_hat ** 2), rel=1e-15)


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
    rng = np.random.default_rng(8)
    z = np.clip(rng.standard_normal(60) * 0.3, -1, 1)
    traj = dy.Trajectory(times=np.arange(60, dtype=float),
                         z_s=z, z_a=np.roll(z, 1),
                         channel=None, g=1.0, initial_state_tag=dy.STATE_CUSTOM)
    ds = dset.build_windows(traj)
    cfg = mlp.TrainConfig(epochs=40, batch_size=16, lr=1e-3, seed=33)
    p1, c1 = mlp.train(ds, cfg)
    p2, c2 = mlp.train(ds, cfg)
    assert np.array_equal(c1, c2)
    assert np.array_equal(p1.vec, p2.vec)


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
