"""Task construction by name: keyword arguments are checked."""

import pytest

from swarmdesk import tasks
from swarmdesk.errors import ConfigError


@pytest.mark.parametrize("name", ["quadratic", "logreg", "tiny_mlp"])
def test_unknown_kwarg_is_config_error(name):
    with pytest.raises(ConfigError, match="dimm"):
        tasks.make_task(name, 0, dimm=5)


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
