"""Every error class the package declares is raised somewhere in it, and
malformed settings are refused with one of them; the package's version is
the one the project declares."""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmdesk
from swarmdesk import codec, optim, tasks
from swarmdesk.errors import SwarmError

PACKAGE = Path(swarmdesk.__file__).parent


def _raised_names() -> set[str]:
    """Names in ``raise X``, ``raise X(...)`` and ``raise errors.X(...)``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_version_is_the_one_the_project_declares():
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == swarmdesk.__version__


def test_every_error_class_has_a_raise_site():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"SwarmError"}
    assert declared
    assert sorted(declared - _raised_names()) == []


_ODD = [
    True, False, None, "", "a", "3", math.nan, math.inf, -math.inf,
    np.int64(3), np.int32(-2), np.float32(0.5), np.float64(math.nan), np.bool_(True),
    (), (1,), (0.0, 1.0), (1.0, 0.0), (None, 1.0),
]


_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


def _malformed(ints):
    """Values a caller might pass in place of a setting: bools, None,
    strings, NaN, infinities, numpy scalars, tuples, ``ints``, unsigned
    numpy integers and integral floats no larger than ``ints`` draws, and
    any float."""
    unsigned = st.builds(lambda t, v: t(min(abs(v), np.iinfo(t).max)),
                         st.sampled_from(_UNSIGNED), ints)
    return (st.sampled_from(_ODD) | st.booleans() | ints | unsigned
            | ints.map(float) | st.floats())


def _grad_at_init(task):
    """The task's gradient sum over all its samples at its initial
    parameters: an array, whose repr shows its values, where a Task's
    closures repr by their addresses."""
    return task.batch_grad_sum(task.init_params, np.arange(task.n_samples))


_ZEROS = codec.TensorBuf(np.zeros(5, np.float32))
_SCHEDULE = optim.ScheduleConfig(total_steps=10)
_STATE = optim.init_state(5, optim.OptimConfig())
_Q8_CONFIG = optim.OptimConfig(state_bits=8, block_size=4)

# name: (call, {keyword: valid values}); a call with each keyword's first
# value reads every keyword (so Q8 comes first: only Q8 reads block_size)
_SETTINGS = {
    "OptimConfig": (optim.OptimConfig, {
        "algorithm": [0, 1], "beta1": [0.0, 0.9], "beta2": [0.0, 0.999], "epsilon": [1e-8],
        "weight_decay": [0.0, 0.01], "trust_clip": [(0.0, 10.0), (1.0, 1.0)],
        "state_bits": [8, 32], "block_size": [1, 4096],
    }),
    "ScheduleConfig": (optim.ScheduleConfig, {
        "total_steps": [1, 100], "warmup_fraction": [0.0, 0.1, 1.0], "peak_lr": [2.5e-3],
        "end_lr": [0.0, 1e-4],
    }),
    "CodecPolicy": (codec.CodecPolicy, {
        "q8_threshold": [1, 65536], "block_size": [1, 4096], "lossless": [False, True],
    }),
    "OptimState.step": (
        lambda step: optim.OptimState(m=_STATE.m, v=_STATE.v, step=step), {"step": [0, 2**64 - 1]}
    ),
    "lr_at": (lambda step: optim.lr_at(step, _SCHEDULE), {"step": [0, 5, 10]}),
    "init_state": (lambda num_params: optim.init_state(num_params, _Q8_CONFIG),
                   {"num_params": [0, 5]}),
    "encoded_size": (codec.encoded_size, {
        "scheme": sorted(codec.Scheme, key=lambda s: s != codec.Scheme.Q8_BLOCKWISE),
        "n": [0, 5000], "block_size": [1, 4096],
    }),
    "quantize_q8": (lambda block_size: codec.quantize_q8(_ZEROS, block_size),
                    {"block_size": [1, 2, 4096]}),
    "pack_state": (lambda block_size: optim.pack_state(_STATE, block_size),
                   {"block_size": [1, 4096]}),
    "QuantizedChunk": (
        lambda scheme, num_elements, block_size: codec.QuantizedChunk(
            scheme, num_elements, block_size, np.ones(2, np.float32), bytes(5)),
        {"scheme": [codec.Scheme.Q8_BLOCKWISE], "num_elements": [5], "block_size": [3, 4]},
    ),
    "make_quadratic": (
        lambda dim, seed, n_samples: _grad_at_init(tasks.make_quadratic(dim, seed, n_samples)),
        {"dim": [1, 5], "seed": [0, 7], "n_samples": [1, 10]},
    ),
    "make_logreg": (
        lambda n_samples, dim, seed: _grad_at_init(tasks.make_logreg(n_samples, dim, seed)),
        {"n_samples": [1, 10], "dim": [1, 5], "seed": [0, 7]},
    ),
    "make_tiny_mlp": (
        lambda seed, n_samples: _grad_at_init(tasks.make_tiny_mlp(seed, n_samples)),
        {"seed": [0, 7], "n_samples": [1, 10]},
    ),
}
# The keywords of each call whose values allocate that many elements; the
# fuzz draws them at most 100, so a task holds at most 10**4 samples'
# features. It draws other integers, seeds too, up to 2**70 in magnitude.
_ALLOCATES = {
    "init_state": {"num_params"}, "make_quadratic": {"dim", "n_samples"},
    "make_logreg": {"n_samples", "dim"}, "make_tiny_mlp": {"n_samples"},
}


def _succeeds_or_refuses(call):
    try:
        call()
    except SwarmError:
        pass


@pytest.mark.parametrize("name", _SETTINGS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_settings_raise_swarm_errors(name, data):
    """Each call with some settings malformed either succeeds or raises a
    SwarmError, never a bare TypeError or ValueError."""
    call, valid = _SETTINGS[name]
    bad = data.draw(st.sets(st.sampled_from(sorted(valid))), label="malformed")
    sizes = _ALLOCATES.get(name, ())

    def malformed(key):
        return _malformed(st.integers(-3, 100) if key in sizes else st.integers(-(2**70), 2**70))

    kwargs = {
        key: data.draw(malformed(key) if key in bad else st.sampled_from(values), label=key)
        for key, values in valid.items()
    }
    _succeeds_or_refuses(lambda: call(**kwargs))


def _plain(value):
    """``value`` with each chunk's payload as bytes, whose repr is its
    content, not a view's address."""
    if isinstance(value, codec.QuantizedChunk):
        return replace(value, payload=bytes(value.payload))
    if isinstance(value, optim.OptimState):
        return replace(value, m=_plain(value.m), v=_plain(value.v))
    return value


def _outcome(call):
    """The repr of what ``call`` returns, or the type of the SwarmError it
    raises."""
    try:
        return repr(_plain(call()))
    except SwarmError as e:
        return type(e)


# Each integer or enum keyword of _SETTINGS, each real one and each flag;
# the others (a pair) take none of these kinds of value.
_INTEGRAL = [(name, key) for name, (_, valid) in _SETTINGS.items() for key, values in valid.items()
             if all(type(v) is not bool and isinstance(v, int) for v in values)]
_REAL = [(name, key) for name, (_, valid) in _SETTINGS.items() for key, values in valid.items()
         if all(type(v) is float for v in values)]
_FLAG = [(name, key) for name, (_, valid) in _SETTINGS.items() for key, values in valid.items()
         if all(type(v) is bool for v in values)]


@pytest.mark.parametrize("name, key", _INTEGRAL)
def test_integer_settings_refuse_bools_and_floats_and_take_numpy_integers(name, key):
    """A bool or a float, even an integral one, is refused where an integer
    or enum belongs; a numpy integer, unsigned too, acts as the Python int
    it equals, and is kept as that int."""
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    for value in valid[key]:
        for bad in (True, False, np.bool_(value), float(value), np.float64(value)):
            with pytest.raises(SwarmError):
                call(**{**kwargs, key: bad})
        want = _outcome(lambda: call(**{**kwargs, key: int(value)}))
        for t in (np.int64, *_UNSIGNED):
            if np.iinfo(t).min <= value <= np.iinfo(t).max:
                assert _outcome(lambda: call(**{**kwargs, key: t(value)})) == want, t


def _assert_names(error, key, keys):
    """The message of the raised error names ``key`` and no other of ``keys``."""
    message = str(error.value)
    assert {k for k in keys if re.search(rf"\b{k}\b", message)} == {key}, message


@pytest.mark.parametrize("name, key", _INTEGRAL)
def test_integer_refusals_name_the_setting(name, key):
    """A negative integer setting is refused with a message that names its
    keyword as the caller spells it, and no other keyword."""
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    with pytest.raises(SwarmError) as error:
        call(**{**kwargs, key: -1})
    _assert_names(error, key, valid)


@pytest.mark.parametrize("name, key", _REAL)
def test_real_refusals_name_the_setting(name, key):
    """A negative real setting is refused with a message that names its
    keyword as the caller spells it, and no other keyword."""
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    with pytest.raises(SwarmError) as error:
        call(**{**kwargs, key: -1.0})
    _assert_names(error, key, valid)


@pytest.mark.parametrize("name, key", _REAL)
def test_real_settings_refuse_bools(name, key):
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(SwarmError):
            call(**{**kwargs, key: bad})


@pytest.mark.parametrize("name, key", _REAL)
def test_real_settings_take_narrow_numpy_floats(name, key):
    """An fp16 or fp32 scalar is accepted or refused as the Python float it
    equals, with no warning from range-checking it against fp32's overflow
    bound."""
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    for value in (*valid[key], -1.0, 0.5, 1.0, math.inf, math.nan):
        want = _accepted(lambda: call(**{**kwargs, key: value}))
        for t in (np.float16, np.float32):
            if float(t(value)) != value and not math.isnan(value):
                continue  # t rounds it to another value
            assert _accepted(lambda: call(**{**kwargs, key: t(value)})) == want, (t, value)


@pytest.mark.parametrize("name, key", _FLAG)
def test_flags_take_only_bools_and_name_the_setting(name, key):
    """A flag is a Python or numpy bool, and a numpy bool acts as, and is
    kept as, the Python bool it equals. Any other value, an integer too, is
    refused with a message that names the keyword and no other, rather than
    taken by its truthiness."""
    call, valid = _SETTINGS[name]
    kwargs = {k: values[0] for k, values in valid.items()}
    for bad in ("no", "", math.nan, 0, 1, 2, None, np.int8(1)):
        with pytest.raises(SwarmError) as error:
            call(**{**kwargs, key: bad})
        _assert_names(error, key, valid)
    for value in valid[key]:
        want = _outcome(lambda: call(**{**kwargs, key: value}))
        assert _outcome(lambda: call(**{**kwargs, key: np.bool_(value)})) == want


def _accepted(call):
    """True if ``call`` returns, else the type of the SwarmError it raises."""
    try:
        call()
        return True
    except SwarmError as e:
        return type(e)


def test_bool_trust_clip_and_lr_are_refused():
    with pytest.raises(SwarmError):
        optim.OptimConfig(trust_clip=(False, True))
    w = codec.TensorBuf(np.ones(4, np.float32))
    st0 = optim.init_state(4, optim.OptimConfig())
    with pytest.raises(SwarmError):
        optim.optimizer_step(w, w, st0, optim.OptimConfig(), True)
