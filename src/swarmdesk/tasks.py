"""Closed-form training tasks standing in for the real model.

Each task gives the mean loss and the analytic sum of per-sample gradients
of any batch of sample indices over a flat parameter vector, so summing
peers' gradient sums and dividing by their sample count is exactly the
batch gradient. Task math runs in float64; the caller casts to fp32 at the
tensor boundary. Everything is a deterministic function of (seed, config).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Task:
    name: str
    param_dim: int
    n_samples: int
    init_params: np.ndarray
    batch_loss: Callable  # (params f64, indices) -> mean loss, float
    batch_grad_sum: Callable  # (params f64, indices) -> sum of per-sample grads
    layers: tuple = ()  # (name, start, stop) partition for LAMB

    def full_loss(self, params) -> float:
        return self.batch_loss(params, np.arange(self.n_samples))


def make_quadratic(dim: int, seed: int, n_samples: int = 1024) -> Task:
    """loss = 0.5 * ||w - w*||^2 for every sample; grad = w - w*."""
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    w_star = rng.standard_normal(dim)

    def batch_loss(params, indices):
        d = params - w_star
        return 0.5 * float(d @ d)

    def batch_grad_sum(params, indices):
        return (params - w_star) * float(len(indices))

    return Task(
        name="quadratic",
        param_dim=dim,
        n_samples=n_samples,
        init_params=np.zeros(dim, np.float64),
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
        layers=(("w", 0, dim),),
    )


def make_logreg(n_samples: int, dim: int, seed: int) -> Task:
    """Binary logistic regression on linearly separable synthetic data."""
    if n_samples < 1 or dim < 1:
        raise ConfigError("n_samples and dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    x = rng.standard_normal((n_samples, dim))
    w_true = rng.standard_normal(dim)
    y = np.where(x @ w_true >= 0.0, 1.0, -1.0)

    def batch_loss(params, indices):
        z = y[indices] * (x[indices] @ params)
        return float(np.mean(np.logaddexp(0.0, -z)))

    def batch_grad_sum(params, indices):
        z = y[indices] * (x[indices] @ params)
        coef = -y[indices] / (1.0 + np.exp(z))  # -y * sigmoid(-y w.x)
        return np.sum(coef[:, None] * x[indices], axis=0)

    return Task(
        name="logreg",
        param_dim=dim,
        n_samples=n_samples,
        init_params=np.zeros(dim, np.float64),
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
        layers=(("w", 0, dim),),
    )


_MLP_IN, _MLP_HIDDEN = 4, 16


def make_tiny_mlp(seed: int, n_samples: int = 128) -> Task:
    """Two-layer tanh regression net with backprop gradients.

    Flat layout: W1 (hidden x in), b1, W2 (1 x hidden), b2.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    d_in, h = _MLP_IN, _MLP_HIDDEN
    x = rng.standard_normal((n_samples, d_in))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]
    init = rng.standard_normal(h * d_in + h + h + 1) * 0.2

    s_w1 = slice(0, h * d_in)
    s_b1 = slice(s_w1.stop, s_w1.stop + h)
    s_w2 = slice(s_b1.stop, s_b1.stop + h)
    s_b2 = slice(s_w2.stop, s_w2.stop + 1)
    dim = s_b2.stop

    def unpack(params):
        return (params[s_w1].reshape(h, d_in), params[s_b1],
                params[s_w2].reshape(1, h), params[s_b2])

    def forward(params, xi):
        w1, b1, w2, b2 = unpack(params)
        a = np.tanh(xi @ w1.T + b1)
        return (a @ w2.T + b2)[:, 0], a

    def batch_loss(params, indices):
        pred, _ = forward(params, x[indices])
        r = pred - y[indices]
        return 0.5 * float(np.mean(r * r))

    def batch_grad_sum(params, indices):
        w1, b1, w2, b2 = unpack(params)
        xi = x[indices]
        pred, a = forward(params, xi)
        r = pred - y[indices]  # d loss_i / d pred_i
        g_w2 = r @ a  # (h,)
        g_b2 = np.sum(r)
        da = r[:, None] * w2[0][None, :] * (1.0 - a * a)
        g_w1 = da.T @ xi
        g_b1 = np.sum(da, axis=0)
        out = np.empty(dim)
        out[s_w1] = g_w1.reshape(-1)
        out[s_b1] = g_b1
        out[s_w2] = g_w2
        out[s_b2] = g_b2
        return out

    return Task(
        name="tiny_mlp",
        param_dim=dim,
        n_samples=n_samples,
        init_params=init,
        batch_loss=batch_loss,
        batch_grad_sum=batch_grad_sum,
        layers=(
            ("w1", s_w1.start, s_w1.stop),
            ("b1", s_b1.start, s_b1.stop),
            ("w2", s_w2.start, s_w2.stop),
            ("b2", s_b2.start, s_b2.stop),
        ),
    )


_FACTORIES = {
    "quadratic": lambda seed, dim=20, n_samples=1024: make_quadratic(dim, seed, n_samples),
    "logreg": lambda seed, n_samples=4096, dim=20: make_logreg(n_samples, dim, seed),
    "tiny_mlp": lambda seed, n_samples=128: make_tiny_mlp(seed, n_samples),
}


def make_task(name: str, seed: int, **kwargs) -> Task:
    """Build a task by name; ``kwargs`` are that task's size parameters.

    An unknown task name or keyword raises ``ConfigError``.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown task {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    try:
        inspect.signature(factory).bind(seed, **kwargs)
    except TypeError as e:
        raise ConfigError(f"task {name!r}: {e}") from None
    return factory(seed, **kwargs)
