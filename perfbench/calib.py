"""Reference kernels that put a run's timings on one machine speed.

The benchmark shares a few cores of a host with other work, and the speed
it gets drifts: on a 2-vCPU guest the same tiny_mlp step took 0.23 ms in
some runs and 0.45 ms in others, switching between the two within seconds.
So each timed loop takes turns with a fixed reference kernel that does the
same kind of work as the workload's step and owes nothing to ``src/``. The
times of a turn are reported as wall time times ``nominal / median`` of the
kernel calls right after it: what they would have read had the machine run
the kernel at its nominal speed then. A change to the program moves the
step and not the reference, so it shows in full; a slower host moves both,
and cancels.

Kernels:

* ``interp``: a few dozen small numpy calls, frozen-dataclass checks and
  byte round trips on 100-element arrays. The per-call interpreter cost
  that makes up the ``tiny_mlp`` step.
* ``gather_gemv``: gather 1024 rows of a 2048 x 2048 float64 matrix and
  multiply by it twice, as logistic regression's minibatch gradient does.
* ``stream``: blockwise 8-bit round trip and a moment update on 2**22
  float32 values, the memory-bound vector work of an 8-bit LAMB step.

``NOMINAL_S`` is each kernel's typical median inside the timed loop on a
2-vCPU Xeon guest with one BLAS thread. It only sets the unit of the
scaled times; both sides of a comparison use the same value.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

_rng = np.random.default_rng(20220707)


@dataclass(frozen=True)
class _Buf:
    data: np.ndarray

    def __post_init__(self):
        if self.data.dtype != np.float32 or self.data.ndim != 1:
            raise ValueError("expected a 1-d float32 array")


_X = _rng.standard_normal((32, 3))
_Y = _rng.standard_normal(32)
_W1, _B1 = _rng.standard_normal((8, 3)), _rng.standard_normal(8)
_W2 = _rng.standard_normal(8)


def interp() -> float:
    acc = 0.0
    for _ in range(6):
        a = np.tanh(_X @ _W1.T + _B1)
        r = a @ _W2 - _Y
        da = r[:, None] * _W2[None, :] * (1.0 - a * a)
        g = np.concatenate([(da.T @ _X).ravel(), da.sum(axis=0), r @ a, [r.sum()]])
        wire = _Buf(g.astype(np.float32)).data.astype(np.float16).tobytes()
        back = _Buf(np.frombuffer(wire, np.float16).astype(np.float32))
        scale = float(np.abs(back.data).max()) / 127 or 1.0
        q = np.clip(np.rint(back.data / scale), -127, 127).astype(np.int8)
        acc += float(np.linalg.norm(q.astype(np.float32) * scale))
    return acc


_G = _rng.standard_normal((2048, 2048))
_ROWS = np.sort(_rng.permutation(2048)[:1024])
_V = _rng.standard_normal(2048) / 64


def gather_gemv() -> float:
    xb = _G[_ROWS]
    z = xb @ _V
    return float((xb.T @ (-1.0 / (1.0 + np.exp(z))))[0])


_S = _rng.standard_normal(1 << 22).astype(np.float32)
_M = np.zeros(1 << 22, np.float32)


def stream() -> float:
    blocks = _S.reshape(-1, 4096)
    scale = np.abs(blocks).max(axis=1, keepdims=True) / 127
    q = np.rint(blocks / scale).astype(np.int8)
    g = (q.astype(np.float32) * scale).ravel()
    m = 0.9 * _M + 0.1 * g
    return float(m @ m)


KERNELS = {"interp": interp, "gather_gemv": gather_gemv, "stream": stream}
NOMINAL_S = {"interp": 3.5e-4, "gather_gemv": 5.0e-3, "stream": 3.6e-2}


class Calibrator:
    """Runs one reference kernel in turns and keeps each call's wall time."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.fn = KERNELS[kernel]
        self.times: list[float] = []

    def run(self, seconds: float) -> float:
        """Call the kernel for about ``seconds``, at least once. Returns the
        scale for the work just before: nominal over these calls' median."""
        first = len(self.times)
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.fn()
            t1 = time.perf_counter()
            self.times.append(t1 - t0)
            if t1 >= deadline:
                break
        return NOMINAL_S[self.kernel] / statistics.median(self.times[first:])
