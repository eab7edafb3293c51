"""Feedforward regressor w->32->16->1 with hand-derived backpropagation.

Two ReLU hidden layers feed an affine output, so a prediction is unbounded:
nothing keeps it inside the spin observable's [-1, 1] (the shipped AD config's
predictions reach 1.014 at training seeds 0-9). Loss is the plain squared
residual (y_hat - y)^2 (no 1/2 convention); gradients below are the exact
chain-rule derivatives of that loss, verified against central finite
differences. Optimization is Adam with bias-corrected moments.

Weights and biases live in one float64 vector, one block [W | b] per layer; the
named arrays, which params.json keeps, are views into it. Inputs and hidden
activations are columns, one per window, over a row of ones, so a layer is one
matmul (bias included) and one ReLU, and its gradient one matmul. A minibatch
writes into `Buffers`, for all the networks `train_all` trains on a (k, P) stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import WindowDataset, chronological_split, stack
from .table import check_keys, count, positive_real, read_json, write_json, write_table

H1 = 32
H2 = 16

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8      # Adam moment decay rates and denominator guard
# as 0-d arrays, which numpy takes as they are instead of converting a float on every call
_BETA1, _1_BETA1, _BETA2, _1_BETA2 = map(np.array, (BETA1, 1 - BETA1, BETA2, 1 - BETA2))

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")
_ZERO = np.zeros(())    # ReLU threshold; numpy would convert a Python 0.0 on every call
_ONE = np.ones(1)       # the entry that extends an input or activation vector by a 1


def _blocks(n_in: int):
    """Shape of each layer's augmented [W | b] block, in vector order."""
    return ((H1, n_in + 1), (H2, H1 + 1), (1, H2 + 1))


def n_params(n_in: int) -> int:
    return sum(rows * cols for rows, cols in _blocks(n_in))


class MLPParams:
    """Weights and biases as one float64 vector `vec`, or k of them as a (k, P) stack.

    `vec` holds the blocks a1 = [w1 | b1] (H1, n_in + 1), a2 = [w2 | b2] (H2, H1 + 1)
    and a3 = [w3 | b3] (1, H2 + 1) in that order; w1 (H1, n_in), b1 (H1,), w2, b2, w3
    (H2,) and b3 (0-d) are views into them, and w2t and w3t (a column) transposed
    views. Writing to a view writes to `vec`. Stacked, each view gains a k axis.
    """

    def __init__(self, vec, n_in: int):
        self.vec = np.asarray(vec, dtype=float)
        self.n_in = n_in
        lead = self.vec.shape[:-1]
        if self.vec.shape[-1:] != (n_params(n_in),) or len(lead) > 1:
            raise ValueError(f"expected {n_params(n_in)} parameters for n_in={n_in}, "
                             f"got shape {self.vec.shape}")
        (r1, c1), (r2, c2), (r3, c3) = _blocks(n_in)
        e1, e2 = r1 * c1, r1 * c1 + r2 * c2
        self.a1, self.a2, self.a3 = (self.vec[..., :e1].reshape(lead + (r1, c1)),
                                     self.vec[..., e1:e2].reshape(lead + (r2, c2)),
                                     self.vec[..., e2:].reshape(lead + (r3, c3)))
        (self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3) = (
            (a[..., :-1], a[..., -1]) for a in (self.a1, self.a2, self.a3[..., 0, :]))
        self.w2t, self.w3t = (a[..., :-1].swapaxes(-1, -2) for a in (self.a2, self.a3))


class Buffers:
    """out= targets for `rows`-column batches of the networks p, made once and reused.

    Activations h1, h2 and deltas dh1, dh2 are (.., H + 1, rows) blocks whose first
    H rows (z1, z2, d1, d2) take matmul outputs and whose last row is 1, so the next
    matmul adds the bias and a ReLU or mask runs on the whole contiguous block.
    """

    def __init__(self, rows: int, p: MLPParams):
        lead = p.vec.shape[:-1]
        self.h1, self.h2, self.dh1, self.dh2 = (np.ones(lead + (h + 1, rows)) for h in (H1, H2) * 2)
        self.z1, self.z2 = self.h1[..., :H1, :], self.h2[..., :H2, :]
        self.d1, self.d2 = self.dh1[..., :H1, :], self.dh2[..., :H2, :]
        self.m1, self.m2 = np.empty_like(self.h1), np.empty_like(self.h2)   # float ReLU masks
        self.y, self.r = np.empty((2,) + lead + (1, rows))
        self.a, self.b = np.empty((2,) + p.vec.shape)
        self.grad = MLPParams(np.empty_like(p.vec), p.n_in)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        count("epochs", self.epochs, 1)
        count("batch_size", self.batch_size, 1)
        object.__setattr__(self, "lr", positive_real("lr", self.lr))
        count("seed", self.seed, 0)


@functools.cache
def _init_layout(n_in: int):
    """Per layer, its bound sqrt(1/fan_in) and the positions in p.vec of its draw:
    the weights of its [W | b] block, row-major, then its biases."""
    layout, start = [], 0
    for rows, cols in _blocks(n_in):
        at = start + np.arange(rows * cols).reshape(rows, cols)
        s = math.sqrt(1.0 / (cols - 1))
        layout.append((s, np.concatenate((at[:, :-1].ravel(), at[:, -1]))))
        start += rows * cols
    return tuple(layout)


def init_params(rng: np.random.Generator, n_in: int = 5) -> MLPParams:
    """Uniform in +-sqrt(1/fan_in) per layer, each layer one draw: the same stream as
    drawing its weights (row-major), then its biases, scattered into its block."""
    vec = np.empty(n_params(n_in))
    for s, at in _init_layout(n_in):
        vec[at] = rng.uniform(-s, s, size=len(at))
    return MLPParams(vec, n_in)


def columns(xs) -> np.ndarray:
    """Windows (.., n, n_in) as forward's input: (.., n_in + 1, n) columns over a row of ones."""
    xs = np.asarray(xs, dtype=float).swapaxes(-1, -2)
    return np.concatenate([xs, np.ones_like(xs[..., :1, :])], axis=-2)


def forward(p: MLPParams, xa, buf: Buffers | None = None):
    """Outputs (.., 1, rows) of the networks p for the input columns xa (see `columns`),
    and the activations (xa, h1, h2) that backward needs, in buf if it is given.
    Stacked params take (k, n_in + 1, rows) columns, or one set that all of them read."""
    buf = buf or Buffers(xa.shape[-1], p)
    np.matmul(p.a1, xa, out=buf.z1)
    np.maximum(buf.h1, _ZERO, out=buf.h1)
    np.matmul(p.a2, buf.h1, out=buf.z2)
    np.maximum(buf.h2, _ZERO, out=buf.h2)
    return np.matmul(p.a3, buf.h2, out=buf.y), (xa, buf.h1, buf.h2)


def backward(p: MLPParams, acts, y_hat, ys, buf: Buffers | None = None) -> np.ndarray:
    """Gradient of the batch-mean (y_hat - y)^2, as a vector in p.vec's layout.

    acts and y_hat come from forward on the same input. The output is affine,
    so per row d loss/d y_hat = 2 (y_hat - y); the rest is the chain rule
    through h2 = relu(z2) and h1 = relu(z1), with the ReLU subgradient at 0
    taken as 0 (h > 0 exactly where z > 0). A layer's gradient is one matmul of its
    deltas with the activations below, whose row of ones gives the bias gradient.
    """
    xa, h1, h2 = acts
    buf = buf or Buffers(xa.shape[-1], p)
    g = buf.grad
    r = np.subtract(y_hat, ys, out=buf.r)
    r = np.divide(r, r.shape[-1] / 2, out=r)          # 2 (y_hat - y) / rows; rows / 2 is exact
    np.matmul(r, h2.swapaxes(-1, -2), out=g.a3)
    np.multiply(p.w3t, r, out=buf.d2)                 # np.outer(w3, r)
    np.multiply(buf.dh2, np.greater(h2, _ZERO, out=buf.m2), out=buf.dh2)
    np.matmul(buf.d2, h1.swapaxes(-1, -2), out=g.a2)
    np.matmul(p.w2t, buf.d2, out=buf.d1)
    np.multiply(buf.dh1, np.greater(h1, _ZERO, out=buf.m1), out=buf.dh1)
    np.matmul(buf.d1, xa.swapaxes(-1, -2), out=g.a1)
    return g.vec


def adam_step(p: MLPParams, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, buf: Buffers | None = None) -> None:
    """Adam update number t (from 1) of p.vec and its moments m, v, in place.

    With c_i = 1 - beta_i^t, p -= (lr sqrt(c2) / c1) m / (sqrt(v) + eps sqrt(c2)): the
    bias-corrected step with both corrections in two scalars (Kingma & Ba, 2015, sec. 2).
    """
    buf = buf or Buffers(0, p)
    a, b = buf.a, buf.b
    np.add(np.multiply(_BETA1, m, out=m), np.multiply(_1_BETA1, grad, out=a), out=m)
    np.add(np.multiply(_BETA2, v, out=v),
           np.multiply(np.multiply(_1_BETA2, grad, out=a), grad, out=a), out=v)
    c1, root_c2 = 1.0 - BETA1 ** t, math.sqrt(1.0 - BETA2 ** t)
    den = np.add(np.sqrt(v, out=b), EPS * root_c2, out=b)
    np.subtract(p.vec, np.multiply(np.divide(m, den, out=a), lr * root_c2 / c1, out=a),
                out=p.vec)
    if not np.isfinite(p.vec).all():
        raise ValueError("optimizer produced non-finite parameters")


def train(ds: WindowDataset, cfg: TrainConfig) -> Tuple[MLPParams, np.ndarray]:
    """Adam/minibatch training on the chronological train half only.

    Returns the final parameters and the per-epoch mean train MSE, evaluated
    after each epoch's updates. Fully seeded: initialization and the
    within-train shuffle draw from cfg.seed; a diverging step raises FloatingPointError.
    """
    return train_all([ds], cfg)[0]


@np.errstate(over="raise", invalid="raise")
def train_all(datasets, cfg: TrainConfig) -> list[Tuple[MLPParams, np.ndarray]]:
    """`train` on each dataset, all networks in lockstep; one (params, curve) each.

    The train halves must have equal shapes. The networks share one init draw and one
    shuffle per epoch, so each result is bit for bit what `train` gives alone, as a view
    into one (k, P) stack. One diverging network stops all of them.
    """
    halves = [stack(chronological_split(ds)[0]) for ds in datasets]
    # per network and window, one column: its input column (see `columns`) over its label
    data = np.stack([np.vstack([columns(x), y]) for x, y in halves])
    k, n_in, n, bs = data.shape[0], data.shape[1] - 2, data.shape[2], cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    p = MLPParams(np.tile(init_params(rng, n_in=n_in).vec, (k, 1)), n_in)
    m, v = np.zeros_like(p.vec), np.zeros_like(p.vec)
    bufs = {rows: Buffers(rows, p) for rows in (min(bs, n), (n - 1) % bs + 1, n)}
    shuffled = np.empty_like(data)      # each epoch's minibatches are the same slices of it
    batches = [(shuffled[:, :-1, lo:lo + bs], shuffled[:, -1:, lo:lo + bs],
                bufs[min(bs, n - lo)]) for lo in range(0, n, bs)]
    t, curve = 0, np.empty((k, cfg.epochs))
    try:
        for epoch in range(cfg.epochs):
            # "clip" skips the bounds check, which would buffer out=
            np.take(data, rng.permutation(n), axis=-1, out=shuffled, mode="clip")
            for xa, ys, buf in batches:
                t += 1
                y_hat, acts = forward(p, xa, buf)
                adam_step(p, backward(p, acts, y_hat, ys, buf), m, v, t, cfg.lr, buf)
            err = np.subtract(forward(p, data[:, :-1], bufs[n])[0], data[:, -1:], out=bufs[n].y)
            curve[:, epoch] = np.mean(np.square(err, out=err), axis=(-2, -1))
    except (FloatingPointError, ValueError) as e:
        raise FloatingPointError(f"{e} at step {t}") from e
    return [(MLPParams(p.vec[i], n_in), curve[i]) for i in range(k)]


@np.errstate(over="raise", invalid="raise")
def predict_series(p: MLPParams, xs) -> np.ndarray:
    """Predictions for the windows xs (n, n_in), in order; FloatingPointError on overflow."""
    return forward(p, columns(xs))[0][0]


# ---------- finite-difference verifier ----------

def fd_gradients(p: MLPParams, x, y: float, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the squared loss, in p.vec's layout; p is only read.

    Copy (s, r, c) of block a, whose input column is u, moves a[r, c] by s h (s = +-1), so
    of p's forward pass it changes only z[r] = (a @ u)[r], by s h u[c]. The layer above sees
    p's pre-activation plus its weight column r times relu(z[r] + s h u[c]) - relu(z[r]): one
    broadcast multiply-add for all 2 rows cols copies; only block 1's then take the head's matmul.
    Each input column u is the vector below it extended by a 1, in one concatenate.
    """
    u1 = np.concatenate((x, _ONE))                      # p's own forward pass
    u2 = np.concatenate((np.maximum(z1 := p.a1 @ u1, _ZERO), _ONE))
    u3 = np.concatenate((np.maximum(z2 := p.a2 @ u2, _ZERO), _ONE))
    z3 = p.a3 @ u3
    sh = np.array((h, -h))[:, None, None]               # s h, for the copies s = +1 and -1
    z = z2[:, None, None, None] + p.a2[:, None, :-1, None] * (      # block 1 into layer 2:
        np.maximum(z1[:, None] + sh * u1, _ZERO) - u2[:-1, None])   # (H2, 2, H1, n_in + 1)
    o1 = p.a3[:, :-1] @ np.maximum(z.reshape(H2, -1), _ZERO) + p.a3[:, -1:]
    o2 = z3 + p.a3[0, :-1, None] * (np.maximum(z2[:, None] + sh * u2, _ZERO) - u3[:-1, None])
    o3 = z3 + sh * u3                                   # (2, 1, H2 + 1)
    o = np.concatenate((o1.reshape(2, -1), o2.reshape(2, -1), o3.reshape(2, -1)), axis=1)
    up, dn = (o - y) ** 2
    return (up - dn) / (2.0 * h)


def gradient_max_rel_error(p: MLPParams, x, y: float, h: float = 1e-5) -> float:
    """max_j |analytic_j - fd_j| / max(|analytic_j|, |fd_j|, 1e-8)."""
    buf = Buffers(1, p)
    y_hat, acts = forward(p, np.concatenate((x, _ONE))[:, None], buf)
    analytic = backward(p, acts, y_hat, y, buf)
    numeric = fd_gradients(p, x, y, h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------- parameter and loss-curve files ----------

def save_params(p: MLPParams, path) -> None:
    write_json(path, {f: getattr(p, f).tolist() for f in _FIELDS})


def load_params(path) -> MLPParams:
    obj = read_json(path)
    check_keys(obj, _FIELDS, _FIELDS, f"parameter file {path}")
    arrays = [np.asarray(obj[k], dtype=object) for k in _FIELDS]
    n_in = arrays[0].shape[1] if arrays[0].ndim == 2 else 0
    p = MLPParams(np.empty(n_params(n_in)), n_in)
    for name, array in zip(_FIELDS, arrays):
        view = getattr(p, name)
        if any(type(x) not in (int, float) for x in array.flat):   # bool is an int to Python
            raise ValueError(f"parameter file {path}: {name} is not an array of JSON numbers")
        if array.shape != view.shape:
            raise ValueError(f"inconsistent layer shapes in {path}: {name} has "
                             f"shape {array.shape}, expected {view.shape}")
        view[...] = array
    if not np.all(np.isfinite(p.vec)):
        raise ValueError(f"parameter file {path} holds non-finite values")
    return p


def write_loss_curve(curve, path) -> None:
    write_table(path, ["epoch", "mse"], (range(1, len(curve) + 1), np.asarray(curve, dtype=float)))
