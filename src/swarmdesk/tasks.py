"""Closed-form training tasks standing in for the real model.

Each task gives the mean loss and the analytic sum of per-sample gradients
of any non-empty batch of sample indices over a flat parameter vector of
the task's size (another shape raises ``ShapeMismatch``), so summing peers'
gradient sums and dividing by their sample count is exactly the batch
gradient. Task math runs in float64; the caller casts to fp32 at the
tensor boundary. Everything is a deterministic function of (seed, config).

Logistic regression walks a batch in blocks of rows of 512 KiB of
features, small enough to stay in a core's L2 cache while the block is
gathered and used, so its transient memory is one block (and, for the loss,
the batch's margins), whatever the batch size; the other tasks are small
enough to take a batch whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeMismatch, allocating, checked_int


@dataclass(frozen=True)
class Task:
    """A task's samples, its initial parameters, and its two functions of
    (params, indices): ``batch_loss``, the mean loss of the batch, and
    ``batch_grad_sum``, the sum of its per-sample gradients, both of float64
    params. ``param_dim`` is not stored: it is the size of ``init_params``,
    so a task built by ``dataclasses.replace`` cannot disagree with itself.
    ``layers`` is LAMB's partition of the parameters, (name, start, stop) in
    order; the default, ``()``, makes the whole vector one layer.
    """

    n_samples: int
    init_params: np.ndarray
    batch_loss: Callable
    batch_grad_sum: Callable
    layers: tuple = ()

    @property
    def param_dim(self) -> int:
        return self.init_params.size

    def full_loss(self, params) -> float:
        return self.batch_loss(params, np.arange(self.n_samples))


def _check_inputs(params, indices, n_samples: int, dim: int, mean: bool) -> np.ndarray:
    """The input check of every task's ``batch_loss`` (``mean``) and
    ``batch_grad_sum``; returns the indices as one integer array. Params
    that are not one vector of ``dim`` elements raise ``ShapeMismatch``,
    where numpy would broadcast or slice them into a wrong value. Indices
    that are not one integer vector (bools are no integers) of samples in
    [0, ``n_samples``) raise ``ConfigError``, where numpy would wrap a
    negative one, refuse a float with its own error or take bools as a mask.
    The mean loss of an empty batch, of any dtype, is undefined and raises
    ``ConfigError``; its gradient sum is the zero vector."""
    if np.shape(params) != (dim,):
        raise ShapeMismatch(f"params must have shape ({dim},), got {np.shape(params)}")
    idx = np.asarray(indices)
    if idx.size == 0:
        if mean:
            raise ConfigError("batch_loss of an empty batch: a mean over no samples")
        return np.empty(0, np.intp)
    if (
        idx.ndim != 1 or idx.dtype.kind not in "iu"
        or np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= n_samples
    ):
        raise ConfigError(
            f"indices must be one integer vector of samples in [0, {n_samples}), "
            f"got shape {idx.shape} of {idx.dtype}"
        )
    return idx


def make_quadratic(dim: int, seed: int, n_samples: int = 1024) -> Task:
    """loss = 0.5 * ||w - w*||^2 for every sample; grad = w - w*."""
    dim = checked_int(dim, "dim", ConfigError, lo=1)
    n_samples = checked_int(n_samples, "n_samples", ConfigError, lo=1)
    seed = checked_int(seed, "seed", ConfigError)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    with allocating(f"dim {dim}"):
        w_star = rng.standard_normal(dim)
        init = np.zeros(dim, np.float64)

    def batch_loss(params, indices):
        _check_inputs(params, indices, n_samples, dim, mean=True)
        d = params - w_star
        return 0.5 * float(d @ d)

    def batch_grad_sum(params, indices):
        indices = _check_inputs(params, indices, n_samples, dim, mean=False)
        return (params - w_star) * float(len(indices))

    return Task(
        n_samples=n_samples,
        init_params=init,
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
    )


# Bytes of features per row block of logistic regression: 32 rows at dim
# 2048, 32 blocks to a 1024-row batch. A block is gathered and both of its
# matrix-vector products read it while it is still in L2. Smaller blocks pay
# more numpy calls per batch; larger ones spill out of L2. Measured on
# perfbench's logreg_adam32_f16 (2 vCPUs, Xeon with AVX-512, 2 MiB L2 per
# core, 1 BLAS thread): step_ms_p50 in ms, median (interquartile range) of 5
# runs of 30 s per size, each paired with a run of 4 MiB blocks:
#   256 KiB 5.40 (0.17)   512 KiB 5.04 (0.19)   1 MiB 5.14 (0.22)
#   2 MiB   6.18 (0.04)   4 MiB   6.73 (0.20, all 20 paired runs)
_BLOCK_BYTES = 1 << 19


def make_logreg(n_samples: int, dim: int, seed: int) -> Task:
    """Binary logistic regression on linearly separable synthetic data.

    A batch is walked in blocks of rows of 512 KiB of ``x``
    (``_BLOCK_BYTES``; at least one row), which stay in L2 cache while they
    are used. Each block's rows are gathered once; one matrix-vector product
    gives its margins and, for the gradient, a second adds the block's
    gradient sum into one ``dim`` vector. A block is freed before the next
    is gathered, so the transient memory is one block, and for the loss the
    batch's margins, whatever the batch size.
    """
    n_samples = checked_int(n_samples, "n_samples", ConfigError, lo=1)
    dim = checked_int(dim, "dim", ConfigError, lo=1)
    seed = checked_int(seed, "seed", ConfigError)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    with allocating(f"n_samples x dim = {n_samples} x {dim}"):
        x = rng.standard_normal((n_samples, dim))
        w_true = rng.standard_normal(dim)
        init = np.zeros(dim, np.float64)
        y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
    rows = max(1, _BLOCK_BYTES // (8 * dim))

    def block_grad_sum(params, ib):
        # a function of its own, so that its block is freed on return
        xb, yb = x[ib], y[ib]
        coef = -yb / (1.0 + np.exp(yb * (xb @ params)))  # -y * sigmoid(-y w.x)
        return coef @ xb

    def batch_loss(params, indices):
        indices = _check_inputs(params, indices, n_samples, dim, mean=True)
        z = np.empty(len(indices))
        for start in range(0, len(indices), rows):
            ib = indices[start : start + rows]
            z[start : start + len(ib)] = y[ib] * (x[ib] @ params)
        return float(np.mean(np.logaddexp(0.0, -z)))

    def batch_grad_sum(params, indices):
        indices = _check_inputs(params, indices, n_samples, dim, mean=False)
        out = np.zeros(dim)
        for start in range(0, len(indices), rows):
            out += block_grad_sum(params, indices[start : start + rows])
        return out

    return Task(
        n_samples=n_samples,
        init_params=init,
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
    )


_MLP_IN, _MLP_HIDDEN = 4, 16


def make_tiny_mlp(seed: int, n_samples: int = 128) -> Task:
    """Two-layer tanh regression net with backprop gradients.

    ``shapes`` is the flat layout, in order: W1 (hidden x in), b1,
    W2 (1 x hidden), b2. The layers, the parameter views, the order of the
    gradient, the parameter count and the size of the initial draw all come
    from it.
    """
    n_samples = checked_int(n_samples, "n_samples", ConfigError, lo=1)
    seed = checked_int(seed, "seed", ConfigError)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    d_in, h = _MLP_IN, _MLP_HIDDEN
    shapes = {"w1": (h, d_in), "b1": (h,), "w2": (1, h), "b2": (1,)}
    edges = list(itertools.accumulate((math.prod(s) for s in shapes.values()), initial=0))
    layers = tuple(zip(shapes, edges, edges[1:]))
    dim = edges[-1]
    with allocating(f"n_samples {n_samples}"):
        x = rng.standard_normal((n_samples, d_in))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]
    init = rng.standard_normal(dim) * 0.2

    def unpack(params):
        return {name: params[start:stop].reshape(shapes[name]) for name, start, stop in layers}

    def forward(weights, xi):
        a = np.tanh(xi @ weights["w1"].T + weights["b1"])
        return (a @ weights["w2"].T + weights["b2"])[:, 0], a

    def batch_loss(params, indices):
        indices = _check_inputs(params, indices, n_samples, dim, mean=True)
        pred, _ = forward(unpack(params), x[indices])
        r = pred - y[indices]
        return 0.5 * float(np.mean(r * r))

    def batch_grad_sum(params, indices):
        indices = _check_inputs(params, indices, n_samples, dim, mean=False)
        weights = unpack(params)
        xi = x[indices]
        pred, a = forward(weights, xi)
        r = pred - y[indices]  # d loss_i / d pred_i
        g_w2 = r @ a  # (h,)
        g_b2 = np.sum(r)
        da = r[:, None] * weights["w2"][0][None, :] * (1.0 - a * a)
        g_w1 = da.T @ xi
        g_b1 = np.sum(da, axis=0)
        return np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])  # in the order of shapes

    return Task(
        n_samples=n_samples,
        init_params=init,
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
        layers=layers,
    )

