"""Feedforward regressor w->32->16->1 with hand-derived backpropagation.

Two ReLU hidden layers feed an affine output, so a prediction is unbounded:
nothing keeps it inside the spin observable's [-1, 1]. Loss is the plain
squared residual (y_hat - y)^2 (no 1/2 convention); gradients below are the
exact chain-rule derivatives of that loss, verified against central finite
differences. Optimization is Adam with bias-corrected moments.

All weights and biases live in one float64 vector; the per-layer arrays are
views into it, so training, prediction and the gradient check share one
forward pass, and each minibatch runs as a few matrix products into `Buffers`,
for all the networks that `train_all` trains in lockstep on a (k, P) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import WindowDataset, chronological_split, stack
from .table import check_keys, count, positive_real, read_json, write_json, write_table

H1 = 32
H2 = 16

# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# as 0-d arrays, which numpy takes as they are instead of converting a float on every call
_BETA1, _1_BETA1, _BETA2, _1_BETA2, _EPS = map(np.array, (BETA1, 1 - BETA1, BETA2, 1 - BETA2, EPS))

_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")
FD_CHUNK = 32           # entries per stacked pass of fd_gradients: a (64, P) stack
_ZERO = np.zeros(())    # ReLU threshold; numpy would convert a Python 0.0 on every call


def _shapes(n_in: int):
    """Shape of each parameter block, in the vector order of _FIELDS."""
    return ((H1, n_in), (H1,), (H2, H1), (H2,), (H2,), ())


class MLPParams:
    """Weights and biases as one float64 vector `vec`, or k of them as a (k, P) stack.

    w1 (H1, n_in), b1 (H1,), w2 (H2, H1), b2 (H2,), w3 (H2,) and b3 (0-d)
    are reshaped views into `vec`, laid out in that order; writing to a view
    writes to `vec`. Stacked, each block is a (k, rows, cols) view (vectors as
    rows), which broadcasts over a batch; w1t, w2t and w3t are transposed views.
    """

    def __init__(self, vec, n_in: int):
        self.vec = np.asarray(vec, dtype=float)
        self.n_in = n_in
        lead = self.vec.shape[:-1]
        sizes = [math.prod(s) for s in _shapes(n_in)]
        if self.vec.shape[-1:] != (sum(sizes),) or len(lead) > 1:
            raise ValueError(f"expected {sum(sizes)} parameters for n_in={n_in}, "
                             f"got shape {self.vec.shape}")
        pos = 0
        for name, shape, size in zip(_FIELDS, _shapes(n_in), sizes):
            shape = lead + (1,) * (2 - len(shape)) * len(lead) + shape
            setattr(self, name, self.vec[..., pos:pos + size].reshape(shape))
            pos += size
        self.in_ndims = (3,) if lead else (1, 2)   # what forward takes: stacked, a batch each
        self.w1t, self.w2t, self.w3t = (w.swapaxes(-1, -2) if w.ndim > 1 else w
                                        for w in (self.w1, self.w2, self.w3))


class Buffers:
    """out= targets for `rows`-window batches of params p; Buffers() lets numpy allocate."""

    def __init__(self, rows: int = 0, p: MLPParams | None = None):
        lead = () if p is None else p.vec.shape[:-1]

        def empty(*shape, dtype=float):
            return None if p is None else np.empty(lead + shape, dtype)
        self.h1, self.d1, self.h2, self.d2 = (empty(rows, k) for k in (H1, H1, H2, H2))
        self.m1, self.m2 = empty(rows, H1, dtype=bool), empty(rows, H2, dtype=bool)
        # per-row outputs; stacked, (k, rows, 1) columns
        self.y, self.r = (empty(rows, *(1,) * len(lead)) for _ in range(2))
        self.a, self.b = (None, None) if p is None else np.empty((2,) + p.vec.shape)
        self.grad = None if p is None else MLPParams(np.empty_like(p.vec), p.n_in)


NO_BUFFERS = Buffers()


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


def forward(p: MLPParams, xs, buf: Buffers = NO_BUFFERS):
    """Outputs for one window (n_in,) or a batch of windows (n, n_in).

    Returns y_hat (a scalar or an (n,) array) and the activations
    (xs, h1, h2) that backward needs, in buf if it is sized for n rows.
    Stacked params take (k, n, n_in) windows and give (k, n, 1) outputs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in p.in_ndims or xs.shape[-1] != p.n_in:
        raise ValueError(f"expected input of shape ({p.n_in},) or (n, {p.n_in}) per network, "
                         f"got {xs.shape}")
    h1 = np.matmul(xs, p.w1t, out=buf.h1)
    h1 = np.maximum(np.add(h1, p.b1, out=h1), _ZERO, out=h1)
    h2 = np.matmul(h1, p.w2t, out=buf.h2)
    h2 = np.maximum(np.add(h2, p.b2, out=h2), _ZERO, out=h2)
    y_hat = np.add(np.matmul(h2, p.w3t, out=buf.y), p.b3, out=buf.y)
    return y_hat, (xs, h1, h2)


def mse(preds, labels) -> float:
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("mse of empty arrays")
    return float(np.mean((preds - labels) ** 2))


def backward(p: MLPParams, acts, y_hat, ys, buf: Buffers = NO_BUFFERS) -> np.ndarray:
    """Gradient of the batch-mean (y_hat - y)^2, as a vector in p.vec's layout.

    acts and y_hat come from forward on the same input. The output is affine,
    so per row d loss/d y_hat = 2 (y_hat - y); the rest is the chain rule
    through h2 = relu(z2) and h1 = relu(z1), with the ReLU subgradient at 0
    taken as 0 (h > 0 exactly where z > 0). Stacked, one gradient per row.
    """
    xs, h1, h2 = np.atleast_2d(*acts)
    keep = p.vec.ndim > 1                        # stacked: reduce into (k, 1, cols) rows
    r = np.multiply(2.0, np.subtract(y_hat, ys, out=buf.r), out=buf.r)
    r = np.divide(np.atleast_1d(r), xs.shape[-2], out=buf.r)
    rc = r.reshape(h2.shape[:-1] + (1,))         # r as a column
    d2 = np.multiply(rc, p.w3, out=buf.d2)       # np.outer(r, w3)
    np.copyto(d2, _ZERO, where=np.logical_not(np.greater(h2, _ZERO, out=buf.m2), out=buf.m2))
    d1 = np.matmul(d2, p.w2, out=buf.d1)
    np.copyto(d1, _ZERO, where=np.logical_not(np.greater(h1, _ZERO, out=buf.m1), out=buf.m1))
    g = buf.grad or MLPParams(np.empty_like(p.vec), p.n_in)
    np.matmul(d1.swapaxes(-1, -2), xs, out=g.w1)
    np.add.reduce(d1, axis=-2, keepdims=keep, out=g.b1)   # np.sum without its Python wrapper
    np.matmul(d2.swapaxes(-1, -2), h1, out=g.w2)
    np.add.reduce(d2, axis=-2, keepdims=keep, out=g.b2)
    np.matmul(h2.swapaxes(-1, -2), r, out=g.w3t)
    np.add.reduce(rc, axis=(-2, -1), keepdims=keep, out=g.b3)
    return g.vec


def adam_step(p: MLPParams, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, buf: Buffers = NO_BUFFERS) -> None:
    """Adam update number t (from 1) of p.vec and its moments m, v, in place."""
    np.add(np.multiply(_BETA1, m, out=m), np.multiply(_1_BETA1, grad, out=buf.a), out=m)
    np.add(np.multiply(_BETA2, v, out=v),
           np.multiply(np.multiply(_1_BETA2, grad, out=buf.a), grad, out=buf.a), out=v)
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    step = np.multiply(lr, np.divide(m, c1, out=buf.a), out=buf.a)
    den = np.add(np.sqrt(np.divide(v, c2, out=buf.b), out=buf.b), _EPS, out=buf.b)
    np.subtract(p.vec, np.divide(step, den, out=buf.a), out=p.vec)
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
    xs, ys = np.stack([x for x, _ in halves]), np.stack([y for _, y in halves])[..., None]
    k, n, n_in, bs = *xs.shape, cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    p = MLPParams(np.tile(init_params(rng, n_in=n_in).vec, (k, 1)), n_in)
    m, v = np.zeros_like(p.vec), np.zeros_like(p.vec)
    bufs = {rows: Buffers(rows, p) for rows in (min(bs, n), (n - 1) % bs + 1, n)}
    xs_perm, ys_perm = np.empty_like(xs), np.empty_like(ys)
    t, curve, lr = 0, np.empty((k, cfg.epochs)), np.array(cfg.lr)
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            np.take(xs, order, axis=1, out=xs_perm)
            np.take(ys, order, axis=1, out=ys_perm)
            for lo in range(0, n, bs):
                t += 1
                buf, by = bufs[min(bs, n - lo)], ys_perm[:, lo:lo + bs]
                y_hat, acts = forward(p, xs_perm[:, lo:lo + bs], buf)
                adam_step(p, backward(p, acts, y_hat, by, buf), m, v, t, lr, buf)
            curve[:, epoch] = [mse(y, y_true) for y, y_true in zip(forward(p, xs, bufs[n])[0], ys)]
    except (FloatingPointError, ValueError) as e:
        raise FloatingPointError(f"{e} at step {t}") from e
    return [(MLPParams(p.vec[i], n_in), curve[i]) for i in range(k)]


@np.errstate(over="raise", invalid="raise")
def predict_series(p: MLPParams, xs) -> np.ndarray:
    """Predictions for the windows xs (n, n_in), in order; FloatingPointError on overflow."""
    return forward(p, xs)[0]


# ---------- finite-difference verifier ----------

def fd_gradients(p: MLPParams, x, y: float, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the squared loss, in p.vec's layout; p is only read.

    Per chunk of m <= FD_CHUNK entries j_i, one forward pass runs 2m copies of p.vec:
    copy i holds p.vec[j_i] + h at entry j_i, and copy m + i holds p.vec[j_i] - h.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(p.vec)
    for lo in range(0, p.vec.size, FD_CHUNK):
        js = np.arange(lo, min(lo + FD_CHUNK, p.vec.size))
        vecs = np.tile(p.vec, (2 * js.size, 1))
        vecs.reshape(2, js.size, -1)[:, np.arange(js.size), js] = [p.vec[js] + h, p.vec[js] - h]
        y_hat = forward(MLPParams(vecs, p.n_in), np.broadcast_to(x, (len(vecs), 1, x.size)))[0]
        up, dn = (y_hat.reshape(2, -1) - y) ** 2
        out[js] = (up - dn) / (2.0 * h)
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
    obj = read_json(path)
    check_keys(obj, _FIELDS, _FIELDS, f"parameter file {path}")
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
    write_table(path, ["epoch", "mse"], (range(1, len(curve) + 1), np.asarray(curve, dtype=float)))
