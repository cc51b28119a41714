"""Adam and LAMB with linear warmup/decay and 8-bit state.

All moment math runs in 32-bit: when the state is stored 8-bit it is
decoded, updated, and encoded again each step, so the drift per step is
bounded by the codec's error bound.

Adam and LAMB share one update formula, and one function computes a
step: ``optimizer_step``, which runs the algorithm its config names;
``adam_step`` and ``lamb_step`` are that call with the algorithm forced.
A step computes the direction r = mhat / (sqrt(vhat) + eps) + wd * w and
writes the new weights w - (lr * ratio) * r over r in place as soon as the
ratio is known. LAMB's ratio is each layer's clamped trust ratio
||w|| / ||r||, known once the layer's r is whole; Adam's is 1. A
named-layer partition must tile the parameter vector in order; with none,
the whole vector is one layer.

The state's moments m and v are always two codec chunks of one scheme and
one block size: F32_RAW chunks (block size 0) for fp32 state, Q8 chunks
for 8-bit state. One function, ``_walk_state``, holds the format the state
is stored in. It walks the vector in the codec's pieces
(``codec._pieces``: runs of whole state blocks, then the partial last
block), reading the old m and v of each piece, in place for fp32 state,
and storing the new ones. A step is the walk's per-piece update, which
also writes the piece's slice of r; ``pack_state`` (to 8 bits) and
``unpack_state`` (to fp32) are walks that copy. 8-bit state is therefore
never decoded whole, and a step builds two chunks whatever the size.
Beyond four piece-sized fp32 buffers that every piece reuses, a step's
transient memory is r, which becomes the new weights, and the new state:
1.5x the parameter bytes with 8-bit state and 3x with fp32 state.
Packed state must use the config's ``block_size``.

Checkpoint file (version 4, the only one read; little-endian): a 76-byte
header (magic "TOPT", version, algorithm, state bits, step, betas,
epsilon, weight decay, trust clip, block_size and the weight count n), the
n fp32 weights, m's scales and payload, v's scales and payload, and a
CRC-32 (u32) of every byte before it. Each moment is its codec chunk's
wire bytes after the chunk header. The header so fixes the whole layout,
and the reader checks the file's length against it by one rule.
``checkpoint_parts`` and ``checkpoint_from_bytes`` are the format over
bytes; ``save_checkpoint`` writes the parts to a temporary file and renames
it into place, and ``load_checkpoint`` reads a file back. Both sides
refuse, by one rule (``_require_reachable``), weights that are not finite
and moments that no run reaches.
The learning-rate schedule and the layer partition are not in the file:
the caller passes them to every step.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import codec
from .codec import DEFAULT_BLOCK_SIZE, QuantizedChunk, Scheme, TensorBuf
from .errors import (
    ChecksumMismatch,
    ConfigError,
    MalformedChunk,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    StepOutOfRange,
    allocating,
    as_f32,
    as_int,
    as_real,
    checked_int,
)


class Algorithm(enum.IntEnum):
    ADAM = 0
    LAMB = 1


@dataclass(frozen=True)
class ScheduleConfig:
    """Linear warmup to peak_lr, then linear decay to end_lr."""

    total_steps: int = 31250
    warmup_fraction: float = 0.1
    peak_lr: float = 2.5e-3
    end_lr: float = 0.0

    def __post_init__(self):
        total_steps = checked_int(self.total_steps, "total_steps", ConfigError, lo=1)
        object.__setattr__(self, "total_steps", total_steps)
        # each check is written so that NaN fails it; the step computes
        # with the rates in fp32, so they are checked as fp32 values
        if not 0.0 <= as_real(self.warmup_fraction) <= 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1]")
        if not 0.0 < as_f32(self.peak_lr):
            raise ConfigError("peak_lr must be finite and > 0 in fp32")
        if not 0.0 <= as_f32(self.end_lr):
            raise ConfigError("end_lr must be finite and >= 0 in fp32")

    @property
    def warmup_steps(self) -> int:
        return round(self.warmup_fraction * self.total_steps)


def lr_at(step: int, s: ScheduleConfig) -> float:
    """Learning rate at a step; piecewise linear, peak hit exactly at warmup end."""
    got, step = step, as_int(step)
    if not 0 <= step <= s.total_steps:
        raise StepOutOfRange(f"step {got!r} outside [0, {s.total_steps}]")
    w = s.warmup_steps
    if step < w:
        return s.peak_lr * (step / w)
    # t = 0 at step w gives peak_lr exactly; the max only keeps
    # warmup_fraction=1.0 from dividing by zero there
    t = (step - w) / max(s.total_steps - w, 1)
    return s.peak_lr * (1.0 - t) + s.end_lr * t


@dataclass(frozen=True)
class OptimConfig:
    algorithm: Algorithm = Algorithm.ADAM
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    trust_clip: tuple[float, float] = (0.0, 10.0)
    state_bits: int = 32
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        try:
            object.__setattr__(self, "algorithm", Algorithm(as_int(self.algorithm)))
        except ValueError:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}") from None
        # each check is written so that NaN fails it, and is made on the
        # fp32 value that the step computes with
        for key in ("beta1", "beta2"):
            if not 0.0 <= as_f32(getattr(self, key)) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1) in fp32")
        if not 0.0 < as_f32(self.epsilon):
            raise ConfigError("epsilon must be finite and > 0 in fp32")
        if not 0.0 <= as_f32(self.weight_decay):
            raise ConfigError("weight_decay must be finite and >= 0 in fp32")
        clip = self.trust_clip if isinstance(self.trust_clip, (tuple, list)) else ()
        if not (len(clip) == 2 and 0.0 <= as_f32(clip[0]) <= as_f32(clip[1])):
            raise ConfigError("trust_clip must be (min, max), 0 <= min <= max, finite in fp32")
        # a tuple, so that the config hashes and equals the one read back
        object.__setattr__(self, "trust_clip", tuple(clip))
        state_bits = as_int(self.state_bits)
        if state_bits not in (32, 8):
            raise ConfigError("state_bits must be 32 or 8")
        object.__setattr__(self, "state_bits", state_bits)
        # the range the checkpoint header's u32 holds
        block_size = checked_int(self.block_size, "block_size", ConfigError, 1, 2**32)
        object.__setattr__(self, "block_size", block_size)

    @classmethod
    def adam(cls, **kw) -> "OptimConfig":
        return cls(algorithm=Algorithm.ADAM, **kw)

    @classmethod
    def lamb(cls, **kw) -> "OptimConfig":
        kw.setdefault("beta2", 0.95)
        return cls(algorithm=Algorithm.LAMB, **kw)


@dataclass(frozen=True)
class OptimState:
    """Moment chunks and step counter.

    m and v are codec chunks of one scheme and one block size, of one
    length: F32_RAW chunks, whose block size is 0, for fp32 state, and Q8
    chunks for 8-bit state (``_walk_state`` holds the format). The step is
    an integer the checkpoint header holds.
    """

    m: QuantizedChunk
    v: QuantizedChunk
    step: int = 0

    def __post_init__(self):
        m, v = self.m, self.v
        alike = isinstance(m, QuantizedChunk) and isinstance(v, QuantizedChunk)
        alike = alike and (m.scheme, m.block_size) == (v.scheme, v.block_size)
        bits = 8 if alike and m.scheme == Scheme.Q8_BLOCKWISE else 32
        if not (alike and (m.scheme, m.block_size) == _state_encoding(bits, m.block_size)):
            raise ConfigError("m and v must be Q8 chunks of one block size or F32_RAW chunks")
        if m.num_elements != v.num_elements:
            raise ShapeMismatch(f"m has {m.num_elements} elements, v {v.num_elements}")
        object.__setattr__(self, "step", checked_int(self.step, "step", ConfigError, hi=2**64))

    @property
    def packed(self) -> bool:
        return self.m.scheme == Scheme.Q8_BLOCKWISE

    @property
    def num_elements(self) -> int:
        return self.m.num_elements


def _state_encoding(state_bits: int, block_size: int) -> tuple[Scheme, int]:
    """The scheme and block size of state kept in ``state_bits``: Q8 in
    blocks of ``block_size``, or F32_RAW, whose block size is 0."""
    return (Scheme.Q8_BLOCKWISE, block_size) if state_bits == 8 else (Scheme.F32_RAW, 0)


def init_state(num_params: int, cfg: OptimConfig) -> OptimState:
    """Zero moments for ``num_params`` parameters, in the config's encoding.

    Zero state is built directly: all payload bytes 0 and, for 8-bit
    state, all scales 0, which is what encoding zeros gives; m and v share
    the one read-only chunk. A size that cannot be allocated raises
    ``ConfigError``.
    """
    num_params = checked_int(num_params, "num_params", ConfigError)
    scheme, bs = _state_encoding(cfg.state_bits, cfg.block_size)
    with allocating(f"num_params {num_params}"):
        count, size = codec._layout(scheme, num_params, bs)
        zeros = QuantizedChunk(scheme, num_params, bs, np.zeros(count, np.float32), bytes(size))
    return OptimState(m=zeros, v=zeros, step=0)


def pack_state(st: OptimState, block_size: int = DEFAULT_BLOCK_SIZE) -> OptimState:
    """Encode moments to 8 bits in blocks of ``block_size``, in the state
    format of ``_walk_state``; ``unpack_state`` is the way back to fp32.
    A ``block_size`` that is not an integer in [1, 2**32) raises
    ``ConfigError``."""
    block_size = checked_int(block_size, "block_size", ConfigError, 1, 2**32)
    _require_block_size(st, block_size)
    return st if st.packed else _walk_state(st, 8, block_size, st.step)


def _require_block_size(st: OptimState, block_size: int):
    """Packed state is whole blocks of one size; it is never re-blocked."""
    if st.packed and st.m.block_size != block_size:
        raise ConfigError(f"state is packed in blocks of {st.m.block_size}, not {block_size}")


def unpack_state(st: OptimState) -> OptimState:
    """Decode moments to fp32 (F32_RAW) chunks, from the state format of ``_walk_state``."""
    return _walk_state(st, 32, st.m.block_size, st.step) if st.packed else st


def _copy_moments(start, stop, m_old, v_old, m, v, t1, t2):
    """The update of a walk that keeps the moments as they are."""
    np.copyto(m, m_old)
    np.copyto(v, v_old)


def _walk_state(st, state_bits, block_size, step, update=_copy_moments):
    """The state after ``st``, built one piece at a time: the one place
    that knows how optimizer state is stored.

    The format: fp32 state holds m and v as they are, each an F32_RAW
    chunk. 8-bit state holds m and the square root of v (a signed
    symmetric codebook would waste half its range on a non-negative
    quantity), each Q8 in blocks of ``block_size``; decoding squares v
    back, which keeps it non-negative by construction.

    For each piece of ``codec._pieces(n, block_size)`` the walk reads the
    old m and v: slices of the fp32 payloads, viewed in place, or 8-bit
    state decoded in place into two piece buffers.
    ``update(start, stop, m_old, v_old, m, v, t1, t2)`` writes the new m
    and v; the default update copies the old ones. The walk stores them,
    in ``state_bits``, as slices of two new fp32 arrays or encoded into one
    codes and scales pair per moment, allocated once, and wraps each pair
    as a chunk without a copy. ``t1`` and ``t2``, two more piece buffers,
    are scratch for ``update`` and the encoder. So 8-bit state is never
    decoded whole, and the walk builds two chunks whatever the size. Its
    transient memory beyond the new state is the four piece-sized fp32
    buffers. The old state is only read.
    """
    n = st.num_elements
    scheme, out_block_size = _state_encoding(state_bits, block_size)
    out8 = scheme == Scheme.Q8_BLOCKWISE
    count, _ = codec._layout(scheme, n, out_block_size)
    m_scales, v_scales = np.empty(count, np.float32), np.empty(count, np.float32)
    dtype = np.int8 if out8 else "<f4"
    new_m, new_v = np.empty(n, dtype), np.empty(n, dtype)
    if not st.packed:
        old_m, old_v = (np.frombuffer(c.payload, "<f4") for c in (st.m, st.v))
    pieces = codec._pieces(n, block_size)
    work = np.empty((4, max((b - a for a, b in pieces), default=0)), np.float32)
    for start, stop in pieces:
        t1, t2, m_buf, v_buf = work[:, : stop - start]
        if st.packed:
            codec._dequantize_into(st.m, start, stop, m_buf)
            codec._dequantize_into(st.v, start, stop, v_buf)
            m_old, v_old = m_buf, np.multiply(v_buf, v_buf, out=v_buf)
        else:
            m_old, v_old = old_m[start:stop], old_v[start:stop]
        m, v = (m_buf, v_buf) if out8 else (new_m[start:stop], new_v[start:stop])
        update(start, stop, m_old, v_old, m, v, t1, t2)
        if out8:
            v_root = np.sqrt(np.maximum(v, np.float32(0.0), out=v), out=v)
            codec._quantize_into(m, start, block_size, m_scales, new_m, t1, t2)
            codec._quantize_into(v_root, start, block_size, v_scales, new_v, t1, t2)
    # valid by construction: _quantize_into checked what the constructor
    # would, and an fp32 payload needs no check
    new_m = QuantizedChunk._valid(scheme, n, out_block_size, m_scales, new_m)
    new_v = QuantizedChunk._valid(scheme, n, out_block_size, v_scales, new_v)
    return OptimState(m=new_m, v=new_v, step=step)


def state_nbytes(st: OptimState) -> int:
    """Raw bytes the two moment chunks occupy: payloads and scales."""
    return sum(len(c.payload) + 4 * c.scales.size for c in (st.m, st.v))


def _require_state_fits(st: OptimState, w: TensorBuf):
    if st.num_elements != w.num_elements:
        raise ShapeMismatch(f"optimizer state sized {st.num_elements}, weights {w.num_elements}")


def _partition(layers, n: int) -> list[tuple[int, int]]:
    """The (start, stop) of each layer. A layer's slice of r is overwritten
    with its new weights, so no later layer may read it again: the layers
    must tile [0, n) in order."""
    bounds, end = [], 0
    for layer in layers or (("all", 0, n),):
        try:
            _name, start, stop = layer
        except (TypeError, ValueError):
            raise ShapeMismatch(f"layer {layer!r} is not (name, start, stop)") from None
        start, stop = as_int(start), as_int(stop)
        bounds.append((start, stop))
        # once a layer does not continue the partition, or a bound is not an
        # integer (NaN in the message), end stays NaN
        end = stop if end == start <= stop <= n else math.nan
    if end != n:
        raise ShapeMismatch(f"layers {bounds} do not tile [0, {n}) in order")
    return bounds


def _norm(x: np.ndarray) -> float:
    """The 2-norm of an fp32 vector: what ``np.linalg.norm`` computes for
    one, bit for bit, without its dispatch, while the sum of squares is
    finite in fp32. Beyond that, as a LAMB direction r with beta2 = 0 gets
    after a zero gradient, the sum is taken again in float64."""
    # vdot sums as dot does, bit for bit, but gives Inf without a warning
    sq = np.vdot(x, x)
    return float(np.sqrt(sq)) if sq < np.inf else float(np.linalg.norm(x.astype(np.float64)))


def optimizer_step(
    w: TensorBuf,
    g: TensorBuf,
    st: OptimState,
    cfg: OptimConfig,
    lr: float,
    layers=None,
) -> tuple[TensorBuf, OptimState]:
    """One step of ``cfg.algorithm``, LAMB or Adam, as the ``update`` of a
    walk over the state (``_walk_state``), which reads and stores m and v
    per piece: the one function that computes a step.

    Per piece the update computes the new m and v in fp32 and writes the
    piece's slice of the direction r = mhat / (sqrt(vhat) + eps) + wd * w.
    The new weights w - (lr * ratio) * r are written over r in place as
    soon as the ratio is known: Adam's is 1, so each piece's slice right
    after the piece; LAMB takes each layer's ratio from the norms of its w
    and r slices, clamped to ``cfg.trust_clip`` (``trust_ratio``), so each
    layer once the pieces have written all of its r. Every value comes from
    the same fp32 operations in the same order as on whole vectors, so the
    result does not depend on how the vector is cut.

    ``layers`` is LAMB's partition: a sequence of (name, start, stop)
    half-open slices that tile the parameter vector in order; None or an
    empty sequence treats the whole vector as one layer. A partition that
    does not tile raises ``ShapeMismatch``. Adam does not read it.

    Every operation writes with ``out=`` into memory the step owns: the
    walk's piece buffers and new state, and r. ``w``, ``g`` and the old
    state are only read. Transient memory beyond the piece buffers, per
    element: 4 bytes for r, which becomes the new weights, and the new
    state (fp32: 8 bytes; 8-bit: 2).
    """
    if w.num_elements != g.num_elements:
        raise ShapeMismatch(f"weights have {w.num_elements} elements, gradient {g.num_elements}")
    _require_state_fits(st, w)
    # 2**64 is the least fp32 magnitude whose square, and so v, overflows,
    # and 8-bit state can decode the stored sqrt(v) of a magnitude just
    # below it as 2**64; below 2**63, m, v and the decoded state stay
    # finite. NaN fails this comparison too.
    if not codec._absmax(g.data) < 2.0**63:
        raise NonFiniteGradient("gradient contains NaN, Inf or a magnitude >= 2**63")
    _require_block_size(st, cfg.block_size)
    if not 0.0 <= as_f32(lr):
        raise ConfigError(f"lr must be finite and >= 0 in fp32, got {lr!r}")
    w, g, n, bs = w.data, g.data, w.num_elements, cfg.block_size
    b1, b2 = np.float32(cfg.beta1), np.float32(cfg.beta2)
    one, lr32 = np.float32(1.0), np.float32(lr)
    step = st.step + 1
    c1, c2 = one - b1 ** np.float32(step), one - b2 ** np.float32(step)
    eps, wd = np.float32(cfg.epsilon), np.float32(cfg.weight_decay)
    # LAMB clamps each layer's ratio to the clip; Adam, without one, takes 1.
    clip = cfg.trust_clip if cfg.algorithm == Algorithm.LAMB else None
    # The slices of r that take one ratio each and whose new weights are not
    # written yet, the next one last: LAMB's layers, or Adam's pieces.
    todo = (codec._pieces(n, bs) if clip is None else _partition(layers, n))[::-1]
    r = np.empty(n, np.float32)

    def update(start, stop, m_old, v_old, m, v, t1, t2):
        gg = g[start:stop]
        # m = b1 * m_old + (1 - b1) * g
        np.multiply(b1, m_old, out=m)
        np.add(m, np.multiply(one - b1, gg, out=t1), out=m)
        # v = b2 * v_old + (1 - b2) * (g * g)
        np.multiply(gg, gg, out=t1)
        np.multiply(one - b2, t1, out=t1)
        np.add(np.multiply(b2, v_old, out=v), t1, out=v)
        # a zero beta makes c exactly 1, and the division exact
        mhat, vhat = np.divide(m, c1, out=t1), np.divide(v, c2, out=t2)
        # r = mhat / (sqrt(vhat) + eps) + wd * w
        np.add(np.sqrt(vhat, out=t2), eps, out=t2)
        direction = np.divide(mhat, t2, out=t1)
        np.add(direction, np.multiply(wd, w[start:stop], out=t2), out=r[start:stop])
        while todo and todo[-1][1] <= stop:
            a, b = todo.pop()
            ratio = 1.0 if clip is None else trust_ratio(_norm(w[a:b]), _norm(r[a:b]), clip)
            np.multiply(lr32 * np.float32(ratio), r[a:b], out=r[a:b])
            np.subtract(w[a:b], r[a:b], out=r[a:b])

    new_st = _walk_state(st, cfg.state_bits, bs, step, update)
    return TensorBuf(r), new_st


def trust_ratio(w_norm: float, r_norm: float, clip: tuple[float, float]) -> float:
    """LAMB layer ratio ||w||/||r||, clamped; 1 when either norm is zero."""
    if w_norm == 0.0 or r_norm == 0.0:
        return 1.0
    return float(min(max(w_norm / r_norm, clip[0]), clip[1]))


def adam_step(
    w: TensorBuf, g: TensorBuf, st: OptimState, cfg: OptimConfig, lr: float
) -> tuple[TensorBuf, OptimState]:
    """``optimizer_step`` with Adam, whatever ``cfg.algorithm`` says: decoupled
    weight decay, LAMB with the ratio fixed at 1."""
    return optimizer_step(w, g, st, replace(cfg, algorithm=Algorithm.ADAM), lr)


def lamb_step(
    w: TensorBuf,
    g: TensorBuf,
    st: OptimState,
    cfg: OptimConfig,
    lr: float,
    layers=None,
) -> tuple[TensorBuf, OptimState]:
    """``optimizer_step`` with LAMB, whatever ``cfg.algorithm`` says: the Adam
    direction rescaled per layer of ``layers`` by the trust ratio."""
    return optimizer_step(w, g, st, replace(cfg, algorithm=Algorithm.LAMB), lr, layers)


# --- checkpoint io ---------------------------------------------------------

CKPT_MAGIC = b"TOPT"
CKPT_VERSION = 4
_CKPT_HEAD = struct.Struct("<4sHBBQ6dIQ")


def _require_reachable(cfg: OptimConfig, st: OptimState, w: np.ndarray, error):
    """Raise ``error`` unless the weights ``w`` and the state are what a
    run of ``cfg`` can reach: the one rule that ``checkpoint_parts``
    applies with ``NonFiniteInput`` and ``checkpoint_from_bytes`` with
    ``MalformedChunk``, so that saving refuses what loading refuses.

    The weights are finite. Since every gradient has |g| < 2**63
    (``optimizer_step``), m and v after ``step`` steps are weighted means
    of past g and g**2 scaled by c1 = 1 - beta1**step and c2 = 1 -
    beta2**step, so |m| <= c1 * 2**63 and 0 <= v <= c2 * 2**126. Beyond
    twice that, which leaves room for rounding, the next step's division
    by c1 or c2 could overflow, and a negative v has no square root; NaN
    and Inf are beyond it too. The c are computed in fp32 as the step
    computes them. 8-bit state decodes at most 127 times its largest
    scale, and v is that squared.
    """
    one, step = np.float32(1.0), np.float32(st.step)
    c1, c2 = (float(one - np.float32(b) ** step) for b in (cfg.beta1, cfg.beta2))
    if st.packed:  # the largest |m| and v each block decodes to
        m, v = np.float32(127) * st.m.scales, np.square(np.float32(127) * st.v.scales, dtype=float)
    else:
        m, v = (np.frombuffer(c.payload, "<f4") for c in (st.m, st.v))
    # each comparison is written so that NaN fails it
    if not (codec._absmax(w) < math.inf and codec._absmax(m) <= c1 * 2.0**64
            and 0.0 <= v.min(initial=0) and v.max(initial=0) <= c2 * 2.0**127):
        raise error(f"checkpoint weights or moments hold NaN or Inf, or moments no run "
                    f"reaches in {st.step} steps")


def _f32_bytes(a: np.ndarray) -> memoryview:
    """A read-only byte view of the fp32 vector ``a`` as little-endian fp32."""
    return memoryview(a.astype("<f4", copy=False)).toreadonly().cast("B")


def checkpoint_parts(cfg: OptimConfig, st: OptimState, w: TensorBuf) -> list:
    """The version 4 checkpoint of ``cfg``, ``st`` and ``w`` as a list of
    seven byte parts.

    The state is written in the config's encoding, converted if it comes in
    the other one. The parts are the header, which ends with the weight
    count n, the n fp32 weights, m's scales and payload, v's scales and
    payload, and last the CRC-32 of all the parts before it; ``b"".join``
    of them is the file ``save_checkpoint`` writes. Every part but the
    header and the CRC views an array of ``w`` or of the moment chunks:
    nothing is joined or copied. The learning-rate schedule and the layer
    partition are not stored: the caller owns them and passes them to every
    step, before and after a resume. State with another element count than
    ``w`` raises ``ShapeMismatch``; NaN or Inf in the weights or fp32
    moments, or moments no run reaches (``_require_reachable``), raise
    ``NonFiniteInput``.
    """
    _require_state_fits(st, w)
    st = pack_state(st, cfg.block_size) if cfg.state_bits == 8 else unpack_state(st)
    _require_reachable(cfg, st, w.data, NonFiniteInput)
    head = _CKPT_HEAD.pack(
        CKPT_MAGIC, CKPT_VERSION, int(cfg.algorithm), cfg.state_bits, st.step,
        cfg.beta1, cfg.beta2, cfg.epsilon, cfg.weight_decay,
        cfg.trust_clip[0], cfg.trust_clip[1], cfg.block_size, w.num_elements,
    )
    parts = [head, _f32_bytes(w.data)]
    for c in (st.m, st.v):
        parts += [_f32_bytes(c.scales), c.payload]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [*parts, struct.pack("<I", crc)]


def checkpoint_from_bytes(buf) -> tuple[OptimConfig, OptimState, TensorBuf]:
    """The config, state and weights of the version 4 checkpoint in ``buf``.

    ``buf`` is any buffer that holds the whole checkpoint, as
    ``load_checkpoint`` reads it from a file or as ``checkpoint_parts``
    joined. Another version raises ``MalformedChunk``, and bytes that do not
    match the CRC-32 raise ``ChecksumMismatch``. The header fixes the
    layout: its n and its state's encoding give each moment's scale count
    and payload size (``codec._layout``), so ``buf`` is the header, 4n
    bytes of weights, m's and v's scales and payloads, and the CRC, to the
    byte. A buffer of any other length, a header setting ``OptimConfig``
    refuses, moment scales or codes the chunk constructor refuses, NaN or
    Inf in the weights or in fp32 moments, and moments no run reaches
    (``_require_reachable``; ``save_checkpoint`` refuses both) raise
    ``MalformedChunk``. The weights are cast from ``buf`` into a new array,
    and each moment, which the state keeps as it is, copies its own bytes
    once. Nothing returned holds on to ``buf``.
    """
    view = codec._buffer(buf)
    if view[:4] != CKPT_MAGIC:
        raise MalformedChunk("not an optimizer checkpoint (bad magic)")
    version = int.from_bytes(view[4:6], "little")
    if version != CKPT_VERSION:
        raise MalformedChunk(f"unsupported checkpoint version {version}")
    end = len(view) - 4
    if end < _CKPT_HEAD.size:
        raise MalformedChunk(f"checkpoint shorter than its header: {len(view)} bytes")
    if zlib.crc32(view[:end]) != int.from_bytes(view[end:], "little"):
        raise ChecksumMismatch("checkpoint bytes do not match their CRC-32")
    _, _, algo, bits, step, b1, b2, eps, wd, tmin, tmax, bs, n = _CKPT_HEAD.unpack_from(view)
    try:
        cfg = OptimConfig(
            algorithm=algo, beta1=b1, beta2=b2, epsilon=eps,
            weight_decay=wd, trust_clip=(tmin, tmax), state_bits=bits, block_size=bs,
        )
    except ConfigError as e:
        raise MalformedChunk(f"checkpoint header: {e}") from None
    scheme, bs = _state_encoding(cfg.state_bits, cfg.block_size)
    count, size = codec._layout(scheme, n, bs)
    start, moment = _CKPT_HEAD.size + 4 * n, 4 * count + size
    want = start + 2 * moment + 4
    if len(view) != want:
        raise MalformedChunk(f"checkpoint is {len(view)} bytes; its header's layout takes {want}")
    w = TensorBuf(np.frombuffer(view, "<f4", n, _CKPT_HEAD.size).astype(np.float32))
    m, v = (
        QuantizedChunk(scheme, n, bs, np.frombuffer(raw, "<f4", count), memoryview(raw)[4 * count:])
        for raw in (bytes(view[a : a + moment]) for a in (start, start + moment))
    )
    st = OptimState(m=m, v=v, step=step)
    _require_reachable(cfg, st, w.data, MalformedChunk)
    return cfg, st, w


def save_checkpoint(path, cfg: OptimConfig, st: OptimState, w: TensorBuf):
    """Write ``checkpoint_parts(cfg, st, w)`` to ``path`` so a run can resume.

    A refused checkpoint (``ShapeMismatch``, ``NonFiniteInput``) writes
    nothing. The parts are written beside ``path`` under a ``.tmp`` suffix,
    flushed to disk and then renamed over ``path``, so a crash while saving
    leaves the previous checkpoint whole.
    """
    parts, tmp = checkpoint_parts(cfg, st, w), os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[OptimConfig, OptimState, TensorBuf]:
    """Read the checkpoint file at ``path`` with ``checkpoint_from_bytes``."""
    with open(path, "rb") as f:
        return checkpoint_from_bytes(f.read())
