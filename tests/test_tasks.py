"""Tasks: keyword arguments are checked, gradients match finite differences,
and a seed fixes the task."""

import hashlib
import struct

import numpy as np
import pytest

from swarmdesk import tasks
from swarmdesk.errors import ConfigError


@pytest.mark.parametrize(
    "name, kwargs, match",
    [
        pytest.param("quadratic", {"dimm": 5}, "dimm", id="quadratic"),
        pytest.param("logreg", {"dimm": 5}, "dimm", id="logreg"),
        pytest.param("tiny_mlp", {"dimm": 5}, "dimm", id="tiny_mlp"),
        pytest.param("quadratic", {"dim": 2.5}, "dim", id="quadratic-dim=2.5"),
        pytest.param("quadratic", {"dim": True}, "dim", id="quadratic-dim=True"),
        pytest.param("quadratic", {"n_samples": 0}, "n_samples", id="quadratic-n_samples=0"),
        pytest.param("logreg", {"n_samples": None}, "n_samples", id="logreg-n_samples=None"),
        pytest.param("logreg", {"dim": "a"}, "dim", id="logreg-dim=a"),
        pytest.param("tiny_mlp", {"n_samples": -3}, "n_samples", id="tiny_mlp-n_samples=-3"),
        pytest.param("tiny_mlp", {"n_samples": 0}, "n_samples", id="tiny_mlp-n_samples=0"),
    ],
)
def test_unknown_kwarg_is_config_error(name, kwargs, match):
    """An unknown keyword, and a size that is not an integer >= 1, are refused."""
    with pytest.raises(ConfigError, match=match):
        tasks.make_task(name, 0, **kwargs)


@pytest.mark.parametrize(
    "name, kwargs, dim, n_samples",
    [
        ("quadratic", {"dim": 5, "n_samples": 10}, 5, 10),
        ("logreg", {"n_samples": 10, "dim": 3}, 3, 10),
        ("tiny_mlp", {"n_samples": 10}, 97, 10),
        ("logreg", {}, 20, 4096),
    ],
)
def test_known_kwargs_size_the_task(name, kwargs, dim, n_samples):
    task = tasks.make_task(name, 0, **kwargs)
    assert (task.param_dim, task.n_samples) == (dim, n_samples)


def test_unknown_task_is_config_error():
    with pytest.raises(ConfigError):
        tasks.make_task("transformer", 0)


TASKS = [("quadratic", {"dim": 5, "n_samples": 10}), ("logreg", {"n_samples": 10, "dim": 3}),
         ("tiny_mlp", {"n_samples": 10})]


@pytest.mark.parametrize("name, kwargs", TASKS)
def test_grad_matches_central_differences(name, kwargs):
    """batch_grad_sum / batch size is the gradient of batch_loss, the mean loss."""
    task = tasks.make_task(name, 3, **kwargs)
    rng = np.random.default_rng(4)
    params = task.init_params + rng.standard_normal(task.param_dim)
    idx = np.array([0, 2, 3, 7, 7])
    h = 1e-6
    fd = np.empty(task.param_dim)
    for i in range(task.param_dim):
        e = np.zeros(task.param_dim)
        e[i] = h
        fd[i] = (task.batch_loss(params + e, idx) - task.batch_loss(params - e, idx)) / (2 * h)
    np.testing.assert_allclose(task.batch_grad_sum(params, idx) / len(idx), fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name, kwargs", TASKS)
def test_same_seed_same_task(name, kwargs):
    a, b, other = (tasks.make_task(name, seed, **kwargs) for seed in (5, 5, 6))
    params = np.linspace(-1.0, 1.0, a.param_dim)
    idx = np.arange(a.n_samples)
    assert a.init_params.tobytes() == b.init_params.tobytes()
    assert a.batch_grad_sum(params, idx).tobytes() == b.batch_grad_sum(params, idx).tobytes()
    assert a.batch_loss(params, idx) == b.batch_loss(params, idx)
    assert a.layers == b.layers
    assert a.batch_grad_sum(params, idx).tobytes() != other.batch_grad_sum(params, idx).tobytes()


def test_tiny_mlp_bytes_are_pinned():
    """``make_tiny_mlp(0)``'s initial parameters, layers, one gradient sum
    and one loss hash to a fixed digest, so any change to its flat layout
    or its draws shows (digest taken with numpy 2.4 on x86-64)."""
    task = tasks.make_tiny_mlp(0)
    params = np.linspace(-1.0, 1.0, task.param_dim)
    idx = np.arange(0, task.n_samples, 3)
    digest = hashlib.sha256()
    for part in (
        task.init_params.astype("<f8").tobytes(),
        repr(task.layers).encode(),
        task.batch_grad_sum(params, idx).astype("<f8").tobytes(),
        struct.pack("<d", task.batch_loss(params, idx)),
    ):
        digest.update(part)
    assert digest.hexdigest() == "112ba59cad03e44d24f22df1785c0eeced49a2c858f8e6e4ae449a48f3ae80c2"


@pytest.mark.parametrize("name, kwargs", TASKS)
def test_full_loss_is_the_mean_over_every_sample(name, kwargs):
    task = tasks.make_task(name, 2, **kwargs)
    params = np.linspace(-1.0, 1.0, task.param_dim)
    per_sample = [task.batch_loss(params, np.array([i])) for i in range(task.n_samples)]
    assert task.full_loss(params) == pytest.approx(np.mean(per_sample), rel=1e-12)
