"""Feedforward regressor w->32->16->1 with hand-derived backpropagation.

Two ReLU hidden layers and a tanh output keep predictions inside (-1, 1),
matching the range of the spin observable being regressed. Loss is the plain
squared residual (y_hat - y)^2 (no 1/2 convention); gradients below are the
exact chain-rule derivatives of that loss, verified against central finite
differences. Optimization is Adam with bias-corrected moments.

All weights and biases live in one float64 vector; the per-layer arrays are
views into it, so training, prediction and the gradient check share one
forward pass, and each minibatch runs as a few matrix products.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import WindowDataset, chronological_split, stack
from .table import count, positive_real, read_table, write_json, write_table

H1 = 32
H2 = 16

# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _shapes(n_in: int):
    """Shape of each parameter block, in the vector order of _FIELDS."""
    return ((H1, n_in), (H1,), (H2, H1), (H2,), (H2,), ())


class MLPParams:
    """Weights and biases as one float64 vector `vec`.

    w1 (H1, n_in), b1 (H1,), w2 (H2, H1), b2 (H2,), w3 (H2,) and b3 (0-d)
    are reshaped views into `vec`, laid out in that order; writing to a view
    writes to `vec`.
    """

    def __init__(self, vec, n_in: int):
        self.vec = np.asarray(vec, dtype=float)
        self.n_in = n_in
        sizes = [math.prod(s) for s in _shapes(n_in)]
        if self.vec.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} parameters for n_in={n_in}, "
                             f"got shape {self.vec.shape}")
        pos = 0
        for name, shape, size in zip(_FIELDS, _shapes(n_in), sizes):
            setattr(self, name, self.vec[pos:pos + size].reshape(shape))
            pos += size


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        count("epochs", self.epochs, 1)
        count("batch_size", self.batch_size, 1)
        self.lr = positive_real("lr", self.lr)
        count("seed", self.seed, 0)


def init_params(rng: np.random.Generator, n_in: int = 5) -> MLPParams:
    """Uniform in +-sqrt(1/fan_in) per layer, weights drawn before biases."""
    blocks = []
    for rows, cols in ((H1, n_in), (H2, H1), (1, H2)):
        s = math.sqrt(1.0 / cols)
        blocks += [rng.uniform(-s, s, size=rows * cols), rng.uniform(-s, s, size=rows)]
    return MLPParams(np.concatenate(blocks), n_in)


def forward(p: MLPParams, xs):
    """Outputs for one window (n_in,) or a batch of windows (n, n_in).

    Returns y_hat (a scalar or an (n,) array) and the activations
    (xs, h1, h2) that backward needs. The same expressions serve batched
    training and prediction and the finite-difference check's single-window
    loss evaluations.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[-1] != p.n_in:
        raise ValueError(f"expected input of shape ({p.n_in},) or (n, {p.n_in}), "
                         f"got {xs.shape}")
    h1 = np.maximum(xs @ p.w1.T + p.b1, 0.0)
    h2 = np.maximum(h1 @ p.w2.T + p.b2, 0.0)
    y_hat = np.tanh(h2 @ p.w3 + p.b3)
    return y_hat, (xs, h1, h2)


def mse(preds, labels) -> float:
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("mse of empty arrays")
    return float(np.mean((preds - labels) ** 2))


def backward(p: MLPParams, acts, y_hat, ys) -> np.ndarray:
    """Gradient of the batch-mean (y_hat - y)^2, as a vector in p.vec's layout.

    acts and y_hat come from forward on the same input. Per row,
    d loss/d z3 = 2 (y_hat - y) (1 - y_hat^2); the rest is the chain rule
    through h2 = relu(z2) and h1 = relu(z1), with the ReLU subgradient at 0
    taken as 0 (h > 0 exactly where z > 0).
    """
    xs, h1, h2 = (np.atleast_2d(a) for a in acts)
    r = np.atleast_1d(2.0 * (y_hat - ys) * (1.0 - y_hat ** 2)) / len(xs)
    d2 = np.where(h2 > 0.0, np.outer(r, p.w3), 0.0)
    d1 = np.where(h1 > 0.0, d2 @ p.w2, 0.0)
    g = MLPParams(np.empty_like(p.vec), p.n_in)
    g.w1[...] = d1.T @ xs
    g.b1[...] = d1.sum(axis=0)
    g.w2[...] = d2.T @ h1
    g.b2[...] = d2.sum(axis=0)
    g.w3[...] = r @ h2
    g.b3[...] = r.sum()
    return g.vec


def adam_step(p: MLPParams, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> None:
    """Adam update number t (from 1) of p.vec and its moments m, v, in place."""
    m[:] = BETA1 * m + (1.0 - BETA1) * grad
    v[:] = BETA2 * v + (1.0 - BETA2) * grad * grad
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    p.vec[:] = p.vec - lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    if not np.all(np.isfinite(p.vec)):
        raise ValueError("optimizer produced non-finite parameters")


def train(ds: WindowDataset, cfg: TrainConfig) -> Tuple[MLPParams, np.ndarray]:
    """Adam/minibatch training on the chronological train half only.

    Returns the final parameters and the per-epoch mean train MSE, evaluated
    after each epoch's updates. Fully seeded: initialization and the
    within-train shuffle both draw from cfg.seed.
    """
    xs, ys = stack(chronological_split(ds)[0])
    n = len(ys)
    rng = np.random.default_rng(cfg.seed)
    p = init_params(rng, n_in=ds.window_len)
    m = np.zeros_like(p.vec)
    v = np.zeros_like(p.vec)
    t = 0
    curve = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            y_hat, acts = forward(p, xs[idx])
            t += 1
            adam_step(p, backward(p, acts, y_hat, ys[idx]), m, v, t, cfg.lr)
        curve[epoch] = mse(forward(p, xs)[0], ys)
    return p, curve


def predict_series(p: MLPParams, xs) -> np.ndarray:
    """Predictions for the windows xs (n, n_in), in order; one batched forward pass."""
    return forward(p, xs)[0]


# ---------- finite-difference verifier ----------

def fd_gradients(p: MLPParams, x, y: float, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the squared loss, in p.vec's layout.

    Perturbs one entry of p.vec at a time and restores it afterwards.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(p.vec)
    for j in range(p.vec.size):
        keep = p.vec[j]
        p.vec[j] = keep + h
        up = (forward(p, x)[0] - y) ** 2
        p.vec[j] = keep - h
        dn = (forward(p, x)[0] - y) ** 2
        p.vec[j] = keep
        out[j] = (up - dn) / (2.0 * h)
    return out


def gradient_max_rel_error(p: MLPParams, x, y: float, h: float = 1e-5) -> float:
    """max_j |analytic_j - fd_j| / max(|analytic_j|, |fd_j|, 1e-8)."""
    y_hat, acts = forward(p, x)
    analytic = backward(p, acts, y_hat, y)
    numeric = fd_gradients(p, x, y, h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------- parameter and loss-curve files ----------

def save_params(p: MLPParams, path) -> None:
    write_json(path, {f: getattr(p, f).tolist() for f in _FIELDS})


def load_params(path) -> MLPParams:
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError(f"parameter file {path} is not a JSON object")
    missing = [k for k in _FIELDS if k not in obj]
    if missing:
        raise ValueError(f"parameter file {path} missing keys {missing}")
    try:
        blocks = [np.asarray(obj[k], dtype=float) for k in _FIELDS]
    except TypeError as e:                          # a layer holding an object
        raise ValueError(f"parameter file {path}: {e}") from e
    n_in = blocks[0].shape[1] if blocks[0].ndim == 2 else 0
    for name, block, shape in zip(_FIELDS, blocks, _shapes(n_in)):
        if block.shape != shape:
            raise ValueError(f"inconsistent layer shapes in {path}: {name} has "
                             f"shape {block.shape}, expected {shape}")
    vec = np.concatenate([b.ravel() for b in blocks])
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"parameter file {path} holds non-finite values")
    return MLPParams(vec, n_in)


def write_loss_curve(curve, path) -> None:
    write_table(path, ["epoch", "mse"], enumerate(np.asarray(curve, dtype=float), start=1))


def read_loss_curve(path) -> np.ndarray:
    _, rows = read_table(path, ["epoch", "mse"])
    for k, row in enumerate(rows, start=1):
        if int(row[0]) != k:
            raise ValueError(f"bad loss-curve row {row!r} in {path}")
    curve = np.array([float(row[1]) for row in rows])
    if not np.all((curve >= 0.0) & np.isfinite(curve)):
        raise ValueError(f"loss curve in {path} holds a negative or non-finite mse")
    return curve
