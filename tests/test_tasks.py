"""Tasks: sizes are checked, gradients match finite differences,
and a seed fixes the task."""

import hashlib
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmdesk import tasks
from swarmdesk.errors import ConfigError, ShapeMismatch, SwarmError


@pytest.mark.parametrize(
    "make, match",
    [
        pytest.param(lambda: tasks.make_quadratic(2.5, 0), "dim", id="quadratic-dim=2.5"),
        pytest.param(lambda: tasks.make_quadratic(True, 0), "dim", id="quadratic-dim=True"),
        pytest.param(lambda: tasks.make_quadratic(20, 0, n_samples=0), "n_samples",
                     id="quadratic-n_samples=0"),
        pytest.param(lambda: tasks.make_logreg(None, 20, 0), "n_samples",
                     id="logreg-n_samples=None"),
        pytest.param(lambda: tasks.make_logreg(4096, "a", 0), "dim", id="logreg-dim=a"),
        pytest.param(lambda: tasks.make_tiny_mlp(0, n_samples=-3), "n_samples",
                     id="tiny_mlp-n_samples=-3"),
        pytest.param(lambda: tasks.make_tiny_mlp(0, n_samples=0), "n_samples",
                     id="tiny_mlp-n_samples=0"),
    ],
)
def test_bad_size_is_config_error(make, match):
    """A size that is not an integer >= 1 is refused, naming the size."""
    with pytest.raises(ConfigError, match=match):
        make()


@pytest.mark.parametrize(
    "make, dim, n_samples",
    [
        pytest.param(lambda: tasks.make_quadratic(5, 0, n_samples=10), 5, 10, id="quadratic"),
        pytest.param(lambda: tasks.make_logreg(10, 3, 0), 3, 10, id="logreg"),
        pytest.param(lambda: tasks.make_tiny_mlp(0, n_samples=10), 97, 10, id="tiny_mlp"),
        pytest.param(lambda: tasks.make_quadratic(5, 0), 5, 1024, id="quadratic-default"),
        pytest.param(lambda: tasks.make_tiny_mlp(0), 97, 128, id="tiny_mlp-default"),
    ],
)
def test_sizes_size_the_task(make, dim, n_samples):
    task = make()
    assert (task.param_dim, task.n_samples) == (dim, n_samples)


def test_param_dim_is_the_size_of_init_params():
    """A task's size follows its initial parameters, also in a copy that
    replaces them."""
    task = replace(tasks.make_quadratic(5, 0), init_params=np.zeros(7))
    assert task.param_dim == 7


# Each factory at a small size, as a function of the seed.
TASKS = [
    pytest.param(lambda seed: tasks.make_quadratic(5, seed, n_samples=10), id="quadratic"),
    pytest.param(lambda seed: tasks.make_logreg(10, 3, seed), id="logreg"),
    pytest.param(lambda seed: tasks.make_tiny_mlp(seed, n_samples=10), id="tiny_mlp"),
]


@pytest.mark.parametrize("make", TASKS)
def test_grad_matches_central_differences(make):
    """batch_grad_sum / batch size is the gradient of batch_loss, the mean loss."""
    task = make(3)
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


@pytest.mark.parametrize("make", TASKS)
def test_same_seed_same_task(make):
    a, b, other = (make(seed) for seed in (5, 5, 6))
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


@pytest.mark.parametrize("make", TASKS)
def test_full_loss_is_the_mean_over_every_sample(make):
    task = make(2)
    params = np.linspace(-1.0, 1.0, task.param_dim)
    per_sample = [task.batch_loss(params, np.array([i])) for i in range(task.n_samples)]
    assert task.full_loss(params) == pytest.approx(np.mean(per_sample), rel=1e-12)


def _logreg_data(n_samples, dim, seed):
    """``make_logreg``'s features and labels, drawn the same way."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    x = rng.standard_normal((n_samples, dim))
    y = np.where(x @ rng.standard_normal(dim) >= 0.0, 1.0, -1.0)
    return x, y


@pytest.mark.parametrize(
    "block_bytes",
    [8 * 4096, 3 * 8 * 4096, None, 1 << 18, 1 << 19, 1 << 20, 1 << 22, 10**6 * 8 * 4096],
    ids=["1", "3", "default", "256KiB", "512KiB", "1MiB", "4MiB", "batch+"],
)
def test_logreg_row_blocks_match_the_unblocked_formula(monkeypatch, block_bytes):
    """Whatever the block size, the blocked loss and gradient sum are the
    whole-batch float64 formulas up to rounding. The batch is unsorted,
    repeats indices and is no multiple of 3 rows. The cases are 1 and 3
    rows, the default, each size measured for the default (256 KiB to
    4 MiB: 8 to 128 rows at dim 4096) and one block larger than the batch;
    the default, 512 KiB, is 16 rows, so the 300-row batch takes 18 full
    blocks and a partial one."""
    n, dim, seed = 200, 4096, 1
    if block_bytes is not None:
        monkeypatch.setattr(tasks, "_BLOCK_BYTES", block_bytes)
    task = tasks.make_logreg(n, dim, seed)
    x, y = _logreg_data(n, dim, seed)
    rng = np.random.default_rng(5)
    idx = np.concatenate([rng.integers(0, n, 290), [7, 7, 7, 0, 199, 3, 3, 150, 7, 42]])
    params = rng.standard_normal(dim) * 0.05
    z = y[idx] * (x[idx] @ params)
    loss = np.mean(np.logaddexp(0.0, -z))
    terms = (-y[idx] / (1.0 + np.exp(z)))[:, None] * x[idx]
    grad = np.sum(terms, axis=0)
    # a sum reordered in float64 may differ by rounding in each term, so each
    # component is held to 1e-12 of its terms' magnitude, not its own: one
    # that cancels to near 0 keeps the rounding of its larger terms
    error = np.abs(task.batch_grad_sum(params, idx) - grad)
    assert (error <= 1e-12 * np.sum(np.abs(terms), axis=0)).all()
    assert task.batch_loss(params, idx) == pytest.approx(loss, rel=1e-12)
    assert task.batch_loss(params, list(idx)) == task.batch_loss(params, idx)


def test_logreg_memory_is_one_row_block_whatever_the_batch():
    """On a 4096 x 512 task (16 MiB of features) the gradient sum of the
    whole batch holds one block of rows (``_BLOCK_BYTES``, 512 KiB) and the
    output at a time, not the gathered batch; the full loss holds one block
    and the batch's margins."""
    n, dim = 4096, 512
    task = tasks.make_logreg(n, dim, 0)
    params = np.linspace(-0.1, 0.1, dim)
    idx = np.arange(n)[::-1].copy()
    block = tasks._BLOCK_BYTES
    tracemalloc.start()
    try:
        task.batch_grad_sum(params, idx)
        grad_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        task.full_loss(params)
        loss_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slack = 64 * 1024  # a block's margins and coefficients, the interpreter's own
    assert grad_peak <= block + 8 * dim + slack
    assert loss_peak <= block + 3 * 8 * n + slack  # margins, -z, their logaddexp


@pytest.mark.parametrize("make", TASKS)
def test_empty_batch(make):
    """An empty batch, of any dtype, sums to a zero gradient; its mean loss
    is undefined and refused with ConfigError by every task."""
    task = make(0)
    params = np.ones(task.param_dim)
    for empty in ([], np.array([], np.int64), np.array([], np.float32), np.array([], bool)):
        grad = task.batch_grad_sum(params, empty)
        assert grad.shape == (task.param_dim,) and not grad.any()
        with pytest.raises(ConfigError, match="empty batch"):
            task.batch_loss(params, empty)


@pytest.mark.parametrize("make", TASKS)
def test_params_of_another_shape_are_refused(make):
    """Params that are not one vector of the task's size raise
    ShapeMismatch from both functions, where numpy would broadcast them,
    or slice the ones a layer reads, into a wrong value."""
    task = make(0)
    dim, idx = task.param_dim, np.arange(task.n_samples)
    for shape in [(), (1,), (dim - 1,), (dim + 1,), (dim, 1), (1, dim), (2, dim)]:
        params = np.ones(shape)
        for f in (task.batch_loss, task.batch_grad_sum):
            with pytest.raises(ShapeMismatch, match=rf"\({dim},\)"):
                f(params, idx)


# One task of each kind with 10 samples, for the index rule.
SMALL = [tasks.make_quadratic(5, 0, n_samples=10), tasks.make_logreg(10, 3, 0),
         tasks.make_tiny_mlp(0, n_samples=10)]
_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint64", "float32", "float64",
           "bool"]


@st.composite
def _index_arrays(draw):
    """An array of 0 to 2 dimensions, of one of ``_DTYPES``, with values
    near [0, 10); as it is or as a (nested) list."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    if dtype.kind == "b":
        elements = st.booleans()
    elif dtype.kind == "f":
        elements = st.floats(-3, 13, width=8 * dtype.itemsize)
    else:
        elements = st.integers(max(-3, np.iinfo(dtype).min), 13)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    array = draw(hnp.arrays(dtype, shape, elements=elements))
    return array.tolist() if draw(st.booleans()) else array


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(range(len(SMALL))), indices=_index_arrays())
@example(which=0, indices=[-1])
@example(which=1, indices=[-1])
@example(which=2, indices=[-1])
@example(which=1, indices=[10])
@example(which=2, indices=[1.5])
@example(which=0, indices=np.array([1.0, 2.0]))
@example(which=1, indices=np.ones(10, bool))
@example(which=2, indices=np.array([[0, 1]]))
@example(which=0, indices=np.int64(3))
@example(which=1, indices=np.array([0, 9], np.uint64))
@example(which=0, indices=[[1], [2, 3]])
@example(which=1, indices=[1, [2]])
@example(which=2, indices=[[1], [2, 3]])
def test_indices_are_one_integer_vector_of_samples(which, indices):
    """Both functions of every task take one integer vector of samples in
    [0, n_samples) and give the same bits as the unchecked formulas; an
    empty batch of any kind gives the zero gradient and refuses its mean
    loss; all else raises a SwarmError, where numpy would wrap a negative
    index, take bools as a mask or fail with its own error."""
    task = SMALL[which]
    params = np.linspace(-1.0, 1.0, task.param_dim)
    try:
        array = np.asarray(indices)
    except ValueError:  # a ragged nesting, which only an object array holds
        array = np.asarray(indices, object)
    if array.size == 0:
        grad = task.batch_grad_sum(params, indices)
        assert grad.shape == (task.param_dim,) and not grad.any()
        with pytest.raises(ConfigError, match="empty batch"):
            task.batch_loss(params, indices)
    elif array.ndim == 1 and array.dtype.kind in "iu" and all(0 <= i < 10 for i in array.tolist()):
        functions = (task.batch_loss, task.batch_grad_sum)
        got = [np.float64(f(params, indices)).tobytes() for f in functions]
        with mock.patch.object(tasks, "_check_inputs", lambda params, indices, *_, **__: indices):
            unchecked = [np.float64(f(params, indices)).tobytes() for f in functions]
        assert got == unchecked
    else:
        for f in (task.batch_loss, task.batch_grad_sum):
            with pytest.raises(SwarmError, match="integer vector"):
                f(params, indices)
