"""Every error class the package declares is raised somewhere in it, and
malformed settings are refused with one of them."""

import ast
import math
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


def _malformed(ints):
    """Values a caller might pass in place of a setting: bools, None,
    strings, NaN, infinities, numpy scalars, tuples, ``ints`` and any float.
    Unsigned numpy integers are left out until sizes become Python ints at
    the boundary: ``-(-n // block_size)`` of a ``np.uint64`` still raises a
    bare OverflowError."""
    return st.sampled_from(_ODD) | ints | st.floats()


_ZEROS = codec.TensorBuf(np.zeros(5, np.float32))
_SCHEDULE = optim.ScheduleConfig(total_steps=10)

# name: (call, {keyword: valid values})
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
        lambda step: optim.OptimState(m=_ZEROS, v=_ZEROS, step=step), {"step": [0, 2**64 - 1]}
    ),
    "lr_at": (lambda step: optim.lr_at(step, _SCHEDULE), {"step": [0, 5, 10]}),
    "select_scheme": (codec.select_scheme, {"n": [0, 65536]}),
    "encoded_size": (codec.encoded_size, {
        "scheme": list(codec.Scheme), "n": [0, 5000], "block_size": [1, 4096],
    }),
    "quantize_q8": (lambda block_size: codec.quantize_q8(_ZEROS, block_size),
                    {"block_size": [1, 2, 4096]}),
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
    ints = st.integers(-(2**70), 2**70)
    kwargs = {
        key: data.draw(_malformed(ints) if key in bad else st.sampled_from(values), label=key)
        for key, values in valid.items()
    }
    _succeeds_or_refuses(lambda: call(**kwargs))


# Each task's size keywords; their sizes stay small enough to build.
_TASK_SIZES = {"quadratic": ("dim", "n_samples"), "logreg": ("n_samples", "dim"),
               "tiny_mlp": ("n_samples",)}


@pytest.mark.parametrize("name", _TASK_SIZES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_task_settings_raise_swarm_errors(name, data):
    """Seeds, size keywords and unknown keywords: a task is built or a
    SwarmError is raised. Sizes stay at most 100, so a task holds at most
    10**4 samples' features."""
    seed = data.draw(st.sampled_from([0, 7]) | _malformed(st.integers(-(2**70), 2**70)))
    keys = data.draw(st.sets(st.sampled_from([*_TASK_SIZES[name], "dimm"])))
    kwargs = {key: data.draw(_malformed(st.integers(-3, 100)), label=key) for key in sorted(keys)}
    _succeeds_or_refuses(lambda: tasks.make_task(name, seed, **kwargs))
