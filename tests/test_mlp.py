"""Forward/backward, optimizer, training, and file-format tests."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrevival import cli, mlp
from qrevival import dataset as dset
from qrevival import dynamics as dy
from qrevival import memory_metric as mm
from qrevival.table import read_table
from conftest import CONFIGS


def _params(seed=0):
    return mlp.init_params(np.random.default_rng(seed))


def _zero_params():
    return mlp.MLPParams(np.zeros(737), n_in=5)


def _forward(p, xs):
    """forward on windows (n, n_in), or one window (n_in,): outputs (n,) and activations."""
    y_hat, acts = mlp.forward(p, mlp.columns(np.atleast_2d(xs)))
    return y_hat[0], acts


def _noisy_windows(n_samples, seed=8):
    rng = np.random.default_rng(seed)
    z = np.clip(rng.standard_normal(n_samples) * 0.3, -1, 1)
    traj = dy.Trajectory(times=np.arange(n_samples, dtype=float),
                         z_s=z, z_a=np.roll(z, 1),
                         channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)
    return dset.build_windows(traj)


def test_forward_zero_params():
    p = _zero_params()
    y, (_, h1, h2) = _forward(p, np.zeros(5))
    assert y == 0.0
    assert np.all(h1[:-1] == 0.0) and np.all(h2[:-1] == 0.0)
    assert np.all(h1[-1] == 1.0) and np.all(h2[-1] == 1.0)    # the bias rows
    y2, _ = _forward(p, np.array([0.5, -0.5, 1.0, -1.0, 0.2]))
    assert y2 == 0.0


def test_forward_dead_second_layer():
    # W1 = 0 with positive b1 keeps h1 > 0, but W2 = 0, b2 = 0 zeroes h2
    p = _zero_params()
    p.b1[:] = 0.7
    p.w3[:] = 1.0
    assert np.count_nonzero(p.vec) == mlp.H1 + mlp.H2   # views write the vector
    y, (_, h1, h2) = _forward(p, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert np.all(h1[:-1] == 0.7)
    assert np.all(h2[:-1] == 0.0)
    assert y == 0.0


def test_forward_nonlinear():
    p = _params(5)
    x = np.array([0.3, -0.4, 0.2, 0.9, -0.1])
    y1, (_, _, h2) = _forward(p, x)
    y2, _ = _forward(p, 2.0 * x)
    assert y1 != pytest.approx(y2)
    # the head is affine in the last hidden layer: nothing bounds or squashes it
    assert y1 == pytest.approx(h2[:-1, 0] @ p.w3 + p.b3, rel=1e-12, abs=1e-15)


def test_forward_rejects_wrong_shape():
    with pytest.raises(ValueError):
        _forward(_params(), np.zeros(4))


def test_params_layout():
    p = _params(1)
    assert p.vec.shape == (737,)
    assert (p.w1.shape, p.b1.shape, p.w2.shape) == ((mlp.H1, 5), (mlp.H1,), (mlp.H2, mlp.H1))
    assert (p.b2.shape, p.w3.shape, p.b3.shape) == ((mlp.H2,), (mlp.H2,), ())
    assert np.array_equal(p.vec[:5], p.w1[0]) and p.vec[-1] == p.b3
    # one augmented [W | b] block per layer, each bias after its weight row
    assert (p.a1.shape, p.a2.shape, p.a3.shape) == ((mlp.H1, 6), (mlp.H2, mlp.H1 + 1),
                                                    (1, mlp.H2 + 1))
    assert p.vec[5] == p.b1[0] and p.vec[6] == p.w1[1, 0]
    assert np.array_equal(np.concatenate([p.a1.ravel(), p.a2.ravel(), p.a3.ravel()]), p.vec)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w2t", "w3t"):
        assert np.shares_memory(getattr(p, name), p.vec), name
    assert np.array_equal(p.w2t, p.w2.T) and np.array_equal(p.w3t[:, 0], p.w3)
    with pytest.raises(ValueError):
        mlp.MLPParams(np.zeros(736), n_in=5)


@pytest.mark.parametrize("n_in", [5, 3])
def test_init_params_keeps_draw_order(n_in):
    # the flat layout's draw: each layer's weights row-major, then its biases
    seed = 12
    p = mlp.init_params(np.random.default_rng(seed), n_in)
    rng = np.random.default_rng(seed)
    expected = {}
    for (w, b), (rows, cols) in zip((("w1", "b1"), ("w2", "b2"), ("w3", "b3")),
                                    ((mlp.H1, n_in), (mlp.H2, mlp.H1), (1, mlp.H2))):
        s = np.sqrt(1.0 / cols)
        expected[w] = rng.uniform(-s, s, size=rows * cols)
        expected[b] = rng.uniform(-s, s, size=rows)
    for name, values in expected.items():
        assert np.array_equal(getattr(p, name).ravel(), values), name


@settings(max_examples=50)
@given(seed=st.integers(0, 2 ** 32), n_in=st.integers(1, 8))
def test_init_params_draw_order_property(seed, n_in):
    # one draw per layer equals six Generator.uniform draws, per layer its weights then biases
    init_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = mlp.init_params(init_rng, n_in)
    for layer, (rows, cols) in enumerate(((mlp.H1, n_in), (mlp.H2, mlp.H1), (1, mlp.H2)), 1):
        s = np.sqrt(1.0 / cols)
        w, b = rng.uniform(-s, s, size=(rows, cols)), rng.uniform(-s, s, size=rows)
        assert np.array_equal(getattr(p, f"w{layer}").reshape(rows, cols), w), layer
        assert np.array_equal(getattr(p, f"b{layer}").reshape(rows), b), layer
    assert init_rng.random() == rng.random()        # and none beyond them


def test_columns_put_each_window_over_a_row_of_ones():
    xs = np.arange(10.0).reshape(2, 5)
    assert np.array_equal(mlp.columns(xs), np.vstack([xs.T, np.ones(2)]))
    stacked = mlp.columns(np.stack([xs, -xs]))
    assert stacked.shape == (2, 6, 2) and np.array_equal(stacked[1, :5], -xs.T)


def test_backward_zero_residual():
    p = _params(2)
    x = np.array([0.2, 0.4, -0.3, 0.1, 0.6])
    y_hat, acts = mlp.forward(p, mlp.columns([x]))
    g = mlp.backward(p, acts, y_hat, y_hat)
    assert np.array_equal(g, np.zeros(737))


def test_backward_b3_closed_form():
    p = _params(3)
    x = np.array([0.3, -0.2, 0.8, 0.1, -0.5])
    y = 0.4
    y_hat, acts = mlp.forward(p, mlp.columns([x]))
    g = mlp.MLPParams(mlp.backward(p, acts, y_hat, y), n_in=5)
    assert g.b3 == pytest.approx(2.0 * (y_hat.item() - y), rel=1e-15)


def test_batch_gradient_is_mean_of_row_gradients():
    p = _params(9)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1.0, 1.0, size=(8, 5))
    ys = rng.uniform(-1.0, 1.0, size=8)
    y_hat, acts = mlp.forward(p, mlp.columns(xs))
    rows = [mlp.forward(p, mlp.columns([x])) for x in xs]
    # matrix-matrix and matrix-vector products may round differently
    np.testing.assert_allclose(y_hat[0], [y.item() for y, _ in rows], rtol=1e-12, atol=0.0)
    g = mlp.backward(p, acts, y_hat, ys)
    mean = np.mean([mlp.backward(p, a, y1, y) for (y1, a), y in zip(rows, ys)], axis=0)
    assert np.count_nonzero(g) > 0
    assert np.max(np.abs(g - mean)) <= 1e-12 * np.max(np.abs(mean))


def _fd_one_entry_at_a_time(p, x, y, h=1e-5):
    """Central differences as one forward pass per perturbed entry, on a copy of p."""
    q = mlp.MLPParams(p.vec.copy(), p.n_in)
    out = np.empty_like(q.vec)
    for j in range(q.vec.size):
        keep = q.vec[j]
        q.vec[j] = keep + h
        up = (_forward(q, x)[0].item() - y) ** 2
        q.vec[j] = keep - h
        dn = (_forward(q, x)[0].item() - y) ** 2
        q.vec[j] = keep
        out[j] = (up - dn) / (2.0 * h)
    return out


@pytest.mark.parametrize("n_in", [1, 3, 5, 8])
def test_fd_gradients_match_one_entry_at_a_time(n_in):
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = mlp.init_params(rng, n_in=n_in)
        x = rng.uniform(-1.0, 1.0, n_in)
        y = float(rng.uniform(-1.0, 1.0))
        before = p.vec.copy()
        got = mlp.fd_gradients(p, x, y)
        assert p.vec.tobytes() == before.tobytes()
        assert np.max(np.abs(got - _fd_one_entry_at_a_time(p, x, y))) <= 1e-10


def test_fd_gradients_across_a_relu_kink():
    """Copies whose changed unit crosses 0, where its change is not linear in h."""
    p, h = _params(3), 1e-5
    x, y = np.array([0.9, -0.7, 0.4, -0.2, 0.6]), 0.3
    u = mlp.columns([x])[:, 0]
    p.b1[4] -= p.a1[4] @ u - 0.5 * h                # z1[4] = h / 2
    h1 = np.append(np.maximum(p.a1 @ u, 0.0), 1.0)
    p.b2[7] -= p.a2[7] @ h1 + 0.3 * h               # z2[7] = -0.3 h
    z1, z2 = p.a1[4] @ u, p.a2[7] @ h1
    assert abs(z1) < h * np.max(np.abs(u)) and abs(z2) < h * np.max(np.abs(h1))
    assert p.w2[:, 4] @ (p.a2 @ h1 > 0) != 0.0 and p.w3[7] != 0.0
    before = p.vec.copy()
    got = mlp.fd_gradients(p, x, y, h)
    assert p.vec.tobytes() == before.tobytes()
    assert np.max(np.abs(got - _fd_one_entry_at_a_time(p, x, y, h))) <= 1e-10
    # the copies of b1[4] and b2[7] do cross: their differences are off the slopes backward takes
    y_hat, acts = mlp.forward(p, mlp.columns([x]))
    analytic = mlp.backward(p, acts, y_hat, y)
    m = _zero_params()
    m.b1[4] = m.b2[7] = 1.0
    kink = m.vec == 1.0
    assert np.all(np.abs(got[kink] - analytic[kink]) > 0.1 * np.abs(analytic[kink]))


def test_dead_units_give_exact_zero_gradients():
    p = _params(4)
    x = np.array([0.9, -0.7, 0.4, -0.2, 0.6])
    y = 0.3
    _, (_, h1, h2) = mlp.forward(p, mlp.columns([x]))
    assert h1[2, 0] > 0.0 and h2[3, 0] > 0.0
    p.b1[2], p.b2[3] = -50.0, -50.0         # kills unit 2 of h1 and unit 3 of h2
    y_hat, acts = mlp.forward(p, mlp.columns([x]))
    assert acts[1][2, 0] == 0.0 and acts[2][3, 0] == 0.0
    m = _zero_params()
    m.a1[2] = m.a2[:, 2] = 1.0             # into and out of the dead unit of h1
    m.a2[3] = m.a3[0, 3] = 1.0             # into and out of the dead unit of h2
    dead = m.vec == 1.0
    assert np.count_nonzero(dead) == 6 + 16 + 33 + 1 - 1     # a2[3, 2] is in both
    fd = mlp.fd_gradients(p, x, y)
    analytic = mlp.backward(p, acts, y_hat, y)
    assert np.all(fd[dead] == 0.0) and np.all(analytic[dead] == 0.0)
    # and elsewhere the two vanish at the same entries, the units dead at init among them
    assert np.array_equal(fd == 0.0, analytic == 0.0)


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


def test_adam_second_and_third_steps_hand_value():
    # bias correction cancels beta only at step 1; from step 2 on, 0.9 and 0.999 show
    p, g = _zero_params(), _zero_params()
    m, v = np.zeros(737), np.zeros(737)
    m_t = v_t = b3 = 0.0
    for t, g_t in enumerate((0.5, -0.2, 0.3), start=1):
        g.b3[...] = g_t
        mlp.adam_step(p, g.vec, m, v, t, 1e-3)
        m_t, v_t = 0.9 * m_t + 0.1 * g_t, 0.999 * v_t + 0.001 * g_t ** 2
        b3 -= 1e-3 * (m_t / (1 - 0.9 ** t)) / (np.sqrt(v_t / (1 - 0.999 ** t)) + 1e-8)
        assert (m[-1], v[-1]) == (pytest.approx(m_t, rel=1e-14), pytest.approx(v_t, rel=1e-14))
        assert p.b3 == pytest.approx(b3, rel=1e-12), t
    # m_hat 0.5, 0.13158, 0.19373 and v_hat 0.25, 0.14495, 0.12661 at steps 1-3
    assert p.b3 == pytest.approx(-1.8900462e-3, rel=1e-7)
    assert np.count_nonzero(p.vec) == 1


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
                         channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)
    ds = dset.build_windows(traj)
    cfg = mlp.TrainConfig(epochs=200, batch_size=8, lr=1e-3, seed=1)
    p, curve = mlp.train(ds, cfg)
    assert len(curve) == 200
    assert curve[-1] < 1e-4


def _plain_train(ds, cfg):
    """The textbook trainer with fresh arrays at every step: a fancy-indexed minibatch
    of row windows, separate bias terms, np.where ReLU masks, bias gradients as sums
    and the out-of-place Adam update with bias-corrected moments."""
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
            grad = mlp.MLPParams(np.empty_like(vec), ds.window_len)
            grad.w1[...], grad.b1[...] = d1.T @ x, d1.sum(axis=0)
            grad.w2[...], grad.b2[...] = d2.T @ h1, d2.sum(axis=0)
            grad.w3[...], grad.b3[...] = r @ h2, r.sum()
            g = grad.vec
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
        # the same arithmetic in another order: bias sums and bias terms inside matrix
        # products, and Adam's corrections folded into its step; measured at most
        # 2.2e-16 on the parameters and 3.2e-16 relative on the losses
        np.testing.assert_allclose(p.vec, ref_vec, rtol=0.0, atol=1e-13, err_msg=str(batch_size))
        np.testing.assert_allclose(curve, ref_curve, rtol=1e-12, atol=0.0, err_msg=str(batch_size))


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
    assert np.mean((preds - test.ys) ** 2) < 1e-3


def _affine_fit(ds):
    """The test half of ds and its labels as predicted by the affine map, the window and a
    constant, that least squares fits to the train half."""
    train, test = dset.chronological_split(ds)
    design = [np.column_stack([half.xs, np.ones(len(half))]) for half in (train, test)]
    return test, design[1] @ np.linalg.lstsq(design[0], train.ys, rcond=None)[0]


@pytest.mark.parametrize("chan, n_steps, every, state", [
    (dy.ChannelSpec.amplitude_damping(50.0, 1.0, rate_clamp=0.005), 1004, 1, "tilted_excited"),
    (dy.ChannelSpec.noise_free(), 8032, 8, "tilted_excited"),
    (dy.ChannelSpec.noise_free(), 8032, 8, "plus_excited")],
    ids=["ad_clamped", "noise_free_tilted", "noise_free_plus"])
def test_affine_readout_is_exact_where_the_rate_is_constant(chan, n_steps, every, state):
    # The generator conserves coherence order, so under a constant rate 5 consecutive <Z_A>
    # samples fix the part of the state that <Z_S> reads, and the label is an affine function
    # of the window. Measured: AD 1.2e-13; noise-free (every 8th of dt/8 steps, which keeps
    # the positivity check satisfied) 1.3e-15 and 7.8e-16.
    traj = dy.evolve(dy.initial_state(state), dy.TimeGrid(24.0, n_steps), 1.0, chan, state)
    if chan.kind == "amplitude_damping":        # the cap holds at every evaluation past t = 0
        assert traj.clamp_events == 2 * len(traj) - 2
    kept = dataclasses.replace(traj, times=traj.times[::every], z_s=traj.z_s[::every],
                               z_a=traj.z_a[::every], dt=traj.dt * every)
    test, preds = _affine_fit(dset.build_windows(kept, 5))
    assert len(test) == 500 and np.max(np.abs(preds - test.ys)) <= 1e-10


def test_train_all_reaches_least_squares_floor():
    # With a fixed generator, <Z_S> is close to a linear recurrence in past samples (the
    # transfer-tensor idea, Cerrillo & Cao, PRL 112, 110401 (2014)), so a least-squares
    # readout of the window plus a bias is a floor for the network's revival count.
    # Documented values: ad MSE 3.5e-5 and n_rev 87, rtn MSE 1.6e-12 and n_rev 188.
    cfgs = cli.load_pair_config(os.path.join(CONFIGS, "run_all.json"))
    datasets = [dset.build_windows(dy.evolve(dy.initial_state(c.initial_state), c.grid,
                                             c.g, c.channel), c.window_len) for c in cfgs]
    floor = (87, 188)
    halves = [dset.chronological_split(ds) for ds in datasets]
    for ds, cfg, mse_max, n_rev in zip(datasets, cfgs, (1e-4, 1e-10), floor):
        test, preds = _affine_fit(ds)
        assert np.mean((preds - test.ys) ** 2) < mse_max
        assert mm.score_pipeline(preds, cfg.epsilon).n_rev == n_rev
    # seed 7 was the tanh head's worst seed: ad n_rev 31 and a ratio of 6.00
    results = mlp.train_all(datasets, dataclasses.replace(cfgs[0].train, seed=7))
    reports = [mm.score_pipeline(mlp.predict_series(p, test.xs), cfg.epsilon)
               for (_, test), cfg, (p, _) in zip(halves, cfgs, results)]
    for report, n_rev in zip(reports, floor):
        assert abs(report.n_rev - n_rev) <= 5
    assert 1.5 <= reports[1].score / reports[0].score <= 3.5


def test_shipped_pair_final_train_losses(comparison_runs):
    # train seed 0's final train MSE, read from the run-all the suite trains once; across
    # the SkylakeX, Haswell and Sandybridge kernels AD agrees to 1e-11 and RTN to 4.7e-4
    # relative. Adam's beta2 at 0.99 moves AD's by 2.4%.
    outs, _ = comparison_runs
    (ad_epochs, ad), (_, rtn) = (_loss_rows(os.path.join(outs[0], key, cli.LOSS_CSV))
                                 for key in ("ad", "rtn"))
    assert ad_epochs[-1] == 500
    assert ad[-1] == pytest.approx(2.9714881767e-4, rel=1e-8)
    assert rtn[-1] == pytest.approx(1.275879e-8, rel=1e-2)


def test_predict_series_basics():
    p = _params(6)
    assert mlp.predict_series(p, np.zeros((0, 5))).shape == (0,)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    x2 = np.array([0.2, 0.3, 0.4, 0.5, 0.6])
    out = mlp.predict_series(p, [x])
    assert out.shape == (1,)
    assert out[0] == _forward(p, x)[0][0]
    both = mlp.predict_series(p, [x, x2])
    np.testing.assert_allclose(both, [_forward(p, x)[0][0], _forward(p, x2)[0][0]],
                               rtol=1e-12, atol=0.0)
    again = mlp.predict_series(p, [x])
    assert np.array_equal(out, again)
    _, (_, _, h2) = _forward(p, np.stack([x, x2]))
    np.testing.assert_allclose(both, p.w3 @ h2[:-1] + p.b3, rtol=1e-12, atol=1e-15)


def test_train_rejects_empty_split():
    traj = dy.Trajectory(times=np.arange(6, dtype=float),
                         z_s=np.zeros(6), z_a=np.zeros(6),
                         channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)
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
    with pytest.raises(dataclasses.FrozenInstanceError):
        mlp.TrainConfig().seed = 7


# Written by the flat-layout code (vec = w1, b1, w2, b2, w3, b3) with
# save_params(init_params(default_rng(2024)) scaled by 1.5 and shifted by 0.01),
# with the predictions that code's predict_series gave for these windows.
_NAMED_PARAMS = os.path.join(os.path.dirname(__file__), "data", "params_named.json")
_NAMED_XS = [[0.25019093320933394, 0.794427601939151, 0.551371380490387,
              -0.5495856200188163, -0.39966743017754913],
             [0.7471068907925238, -0.9894693908688506, 0.6424568367655326,
              0.5941388575040925, -0.06413009431255845],
             [-0.39393514636137295, -0.44314877579845335, -0.4902608246917508,
              -0.10984738823470686, 0.009096517915906599],
             [0.10699470414898493, 0.9910005668687853, 0.5853238384275061,
              0.24435845888232532, 0.9779202953637698]]
_NAMED_PREDS = [-0.10853301180107527, -0.1883964162325463, -0.3791414432052088,
                -0.14716619304698353]


def test_flat_layout_params_file_loads_and_predicts(tmp_path):
    p = mlp.load_params(_NAMED_PARAMS)
    with open(_NAMED_PARAMS) as f:
        obj = json.load(f)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(p, name), obj[name]), name
    # bias terms inside the matrix products sum in another order
    np.testing.assert_allclose(mlp.predict_series(p, _NAMED_XS), _NAMED_PREDS,
                               rtol=1e-14, atol=0.0)
    again = os.path.join(tmp_path, "params.json")
    mlp.save_params(p, again)
    with open(_NAMED_PARAMS, "rb") as f1, open(again, "rb") as f2:
        assert f1.read() == f2.read()


def _loss_rows(path):
    """(epochs, mse) of a loss.csv, read back with the shared table reader."""
    _, (epochs, mse) = read_table(path, ["epoch", "mse"])
    return [int(e) for e in epochs], np.array(mse, dtype=float)


@settings(max_examples=25)
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


# each fault's message; a ragged matrix reads as an array of lists, not of numbers
_PARAMS_FAULTS = {"nan": "non-finite", "shape": "inconsistent layer shapes",
                  "missing": "missing keys", "ragged": "JSON numbers", "bool": "JSON numbers",
                  "str": "JSON numbers"}


@pytest.mark.parametrize("fault", list(_PARAMS_FAULTS))
@settings(max_examples=25)
@given(data=st.data(), n_in=st.integers(1, 8))
def test_load_params_rejects_corrupted_cell(tmp_path, data, n_in, fault):
    p = mlp.init_params(np.random.default_rng(0), n_in)
    if fault == "nan":
        p.vec[data.draw(st.integers(0, p.vec.size - 1))] = np.nan
    path = os.path.join(tmp_path, "p.json")
    mlp.save_params(p, path)
    with open(path) as f:
        obj = json.load(f)
    if fault == "missing":
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    if fault == "ragged":
        block = obj[data.draw(st.sampled_from(["w1", "w2"]))]
        block[data.draw(st.integers(0, len(block) - 1))].append(0.0)
    if fault == "shape":
        name = data.draw(st.sampled_from(sorted(obj)))
        block = obj[name]
        if not isinstance(block, list):
            obj[name] = [block]                         # b3 made a vector
        elif isinstance(block[0], list):
            block.pop(data.draw(st.integers(0, len(block) - 1)))          # a row short
        else:
            # one entry moved to another vector, so the total size stays right
            other = data.draw(st.sampled_from(sorted({"b1", "b2", "w3"} - {name})))
            obj[other].append(block.pop(data.draw(st.integers(0, len(block) - 1))))
    if fault in ("bool", "str"):                        # one cell as JSON true or a string
        owner, key = obj, data.draw(st.sampled_from(sorted(obj)))
        while isinstance(owner[key], list):
            owner, key = owner[key], data.draw(st.integers(0, len(owner[key]) - 1))
        owner[key] = True if fault == "bool" else str(owner[key])
    with open(path, "w") as f:
        json.dump(obj, f)
    with pytest.raises(ValueError, match=_PARAMS_FAULTS[fault]):
        mlp.load_params(path)


@settings(max_examples=25)
@example(curve=np.array([0.5, 0.25, 0.125]))
@given(curve=arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1e6)))
def test_loss_curve_roundtrip_property(tmp_path, curve):
    first = os.path.join(tmp_path, "a.csv")
    mlp.write_loss_curve(curve, first)
    epochs, back = _loss_rows(first)
    assert epochs == list(range(1, len(curve) + 1))
    assert np.array_equal(back, [float("%.12g" % c) for c in curve])    # 12 digits
    second = os.path.join(tmp_path, "b.csv")
    mlp.write_loss_curve(back, second)
    with open(first, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
