"""Adam and LAMB with linear warmup/decay and 8-bit state.

All moment math runs in 32-bit: when the state is stored 8-bit it is
decoded, updated, and encoded again each step, so the drift per step is
bounded by the codec's error bound. The second moment is quantized through
its square root (a signed symmetric codebook wastes half its range on a
non-negative quantity otherwise) and squared again on decode, which also
keeps it non-negative by construction.

Adam and LAMB share one update formula. A step computes the direction
r = mhat / (sqrt(vhat) + eps) + wd * w and then writes the new weights
w - (lr * ratio) * r over r in place, layer by layer. LAMB's ratio is each
layer's clamped trust ratio ||w|| / ||r||; Adam is one layer with ratio 1.
A named-layer partition must tile the parameter vector in order; with none,
the whole vector is one layer.

The moment math runs over the vector in groups of whole state blocks
(``_GROUP`` elements, rounded to blocks): decode the group's m and sqrt(v),
update them, encode them again, and write the group's slice of r. 8-bit
state is therefore never decoded whole. Beyond one group's temporaries,
including two fp32 work buffers that every group reuses, a step's transient
memory is r, which becomes the new weights, and the new state: at most 1.75x
the parameter bytes with 8-bit state (while v's group chunks are joined)
and 3x with fp32 state. Packed state must use the config's ``block_size``.

Checkpoint file (version 3): magic "TOPT", a fixed config block (version,
algorithm, state bits, step, betas, epsilon, weight decay, trust clip,
block_size), the weight, m and v buffers as codec chunks, each
length-prefixed (u32, little-endian), and a CRC-32 (u32) of every byte
before it. It is written to a temporary file and renamed into place.
Versions 1 and 2 are still read. The learning-rate schedule and the layer
partition are not in the file: the caller passes them to every step.
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
from .codec import DEFAULT_BLOCK_SIZE, QuantizedChunk, TensorBuf
from .errors import (
    ChecksumMismatch,
    ConfigError,
    MalformedChunk,
    NonFiniteGradient,
    ShapeMismatch,
    StepOutOfRange,
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
        # each check is written so that NaN fails it
        if not self.total_steps >= 1:
            raise ConfigError("total_steps must be >= 1")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1]")
        if not 0.0 < self.peak_lr < math.inf:
            raise ConfigError("peak_lr must be finite and > 0")
        if not 0.0 <= self.end_lr < math.inf:
            raise ConfigError("end_lr must be finite and >= 0")

    @property
    def warmup_steps(self) -> int:
        return round(self.warmup_fraction * self.total_steps)


def lr_at(step: int, s: ScheduleConfig) -> float:
    """Learning rate at a step; piecewise linear, peak hit exactly at warmup end."""
    if not 0 <= step <= s.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {s.total_steps}]")
    w = s.warmup_steps
    if step < w:
        return s.peak_lr * (step / w)
    if step == w:
        return s.peak_lr
    t = (step - w) / (s.total_steps - w)
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
            object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        except ValueError:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}") from None
        # each check is written so that NaN fails it
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must be in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if not self.trust_clip[0] <= self.trust_clip[1]:
            raise ConfigError("trust_clip min must be <= max")
        if self.state_bits not in (32, 8):
            raise ConfigError("state_bits must be 32 or 8")
        if not self.block_size >= 1:
            raise ConfigError("block_size must be >= 1")

    @classmethod
    def adam(cls, **kw) -> "OptimConfig":
        return cls(algorithm=Algorithm.ADAM, **kw)

    @classmethod
    def lamb(cls, **kw) -> "OptimConfig":
        kw.setdefault("beta2", 0.95)
        return cls(algorithm=Algorithm.LAMB, **kw)


@dataclass(frozen=True)
class OptimState:
    """Moment buffers (fp32 or packed Q8 chunks) and step counter."""

    m: TensorBuf | QuantizedChunk
    v: TensorBuf | QuantizedChunk
    step: int = 0

    @property
    def packed(self) -> bool:
        return isinstance(self.m, QuantizedChunk)

    @property
    def num_elements(self) -> int:
        return self.m.num_elements


def init_state(num_params: int, cfg: OptimConfig) -> OptimState:
    zeros = TensorBuf(np.zeros(num_params, np.float32))
    st = OptimState(m=zeros, v=zeros, step=0)
    return pack_state(st, cfg.state_bits, cfg.block_size)


def pack_state(st: OptimState, state_bits: int, block_size: int = DEFAULT_BLOCK_SIZE) -> OptimState:
    """Encode moments per state_bits. 8-bit packs m directly and v via sqrt."""
    if state_bits == 32:
        return unpack_state(st)
    if state_bits != 8:
        raise ConfigError("state_bits must be 32 or 8")
    if st.packed:
        _require_block_size(st, block_size)
        return st
    m, v = st.m, st.v
    v_root = TensorBuf(np.sqrt(np.maximum(v.data, np.float32(0.0))))
    return replace(
        st,
        m=codec.quantize_q8(m, block_size),
        v=codec.quantize_q8(v_root, block_size),
    )


def _require_block_size(st: OptimState, block_size: int):
    """Packed state is whole blocks of one size; it is never re-blocked."""
    if st.packed and not st.m.block_size == st.v.block_size == block_size:
        raise ConfigError(
            f"state is packed in blocks of {st.m.block_size} and {st.v.block_size}, "
            f"not {block_size}"
        )


def unpack_state(st: OptimState) -> OptimState:
    """Decode moments to fp32 buffers; v is squared back and thus >= 0."""
    if not st.packed:
        return st
    m = codec.dequantize_q8(st.m)
    v_root = codec.dequantize_q8(st.v).data
    return replace(st, m=m, v=TensorBuf(v_root * v_root))


def state_nbytes(st: OptimState) -> int:
    """Raw bytes the two moment buffers occupy in their current encoding."""
    def one(buf):
        if isinstance(buf, QuantizedChunk):
            return len(buf.payload) + 4 * buf.scales.size
        return 4 * buf.num_elements
    return one(st.m) + one(st.v)


def _require_state_fits(st: OptimState, w: TensorBuf):
    if st.num_elements != w.num_elements:
        raise ShapeMismatch(
            f"optimizer state sized {st.num_elements}, weights {w.num_elements}"
        )


def _check_inputs(w: TensorBuf, g: TensorBuf, st: OptimState):
    if w.num_elements != g.num_elements:
        raise ShapeMismatch(
            f"weights have {w.num_elements} elements, gradient {g.num_elements}"
        )
    _require_state_fits(st, w)
    if g.data.size and not np.isfinite(g.data).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")


# Elements per group of the optimizer step, rounded to whole state blocks.
# A group's slices of w, g and the target, its decoded m and sqrt(v) and the
# two work buffers are seven fp32 arrays, 1.75 MiB at 2**16; on a machine
# with a 2 MiB L2 cache 2**15 to 2**17 ran the 8-bit LAMB step equally fast,
# and 2**16 makes half as many codec calls as 2**15.
_GROUP = 1 << 16


def _blocks_of(c: QuantizedChunk, start: int, stop: int) -> QuantizedChunk:
    """Elements [start, stop) of a Q8 chunk; ``start`` is on a block boundary."""
    if start == 0 and stop == c.num_elements:
        return c
    bs = c.block_size
    return QuantizedChunk(
        c.scheme, stop - start, bs, c.scales[start // bs : -(-stop // bs)], c.payload[start:stop]
    )


def _joined(parts: list[QuantizedChunk], n: int, block_size: int) -> QuantizedChunk:
    """One Q8 chunk of n elements from the chunks of consecutive groups."""
    if len(parts) == 1:
        return parts[0]
    return QuantizedChunk(
        codec.Scheme.Q8_BLOCKWISE,
        n,
        block_size,
        np.concatenate([p.scales for p in parts]),
        b"".join([p.payload for p in parts]),
    )


def _grouped_step(w, g, st, cfg, lr, layers, clip):
    """LAMB, or Adam when ``clip`` is None, one group of whole state blocks
    at a time.

    ``_update_groups`` runs the moment recurrence group by group and writes
    the direction r = mhat / (sqrt(vhat) + eps) + wd * w into one full
    buffer. The new weights w - (lr * ratio) * r are then written over r in
    place, layer by layer. LAMB takes each layer's ratio from the norms of
    its w and r slices; Adam is one layer with ratio 1. Every value comes
    from the same fp32 operations in the same order as on whole vectors, so
    the result does not depend on the group size.

    Transient memory beyond a group's temporaries, per element: 4 bytes for
    r, which becomes the new weights, and the new state (fp32: 8 bytes;
    8-bit: 3 bytes while v's group chunks are joined, then 2).
    """
    _check_inputs(w, g, st)
    _require_block_size(st, cfg.block_size)
    n, lr32 = w.num_elements, np.float32(lr)
    r = np.empty(n, np.float32)
    new = _update_groups(w.data, g.data, st, cfg, r)
    end = 0
    for _name, start, stop in layers or (("all", 0, n),):
        # A layer's slice of r is overwritten with its new weights, so a
        # later layer must not read it again: the layers tile [0, n) in order.
        if not end == start <= stop <= n:
            raise ShapeMismatch(
                f"layer [{start}, {stop}) does not continue the partition at {end} of {n}"
            )
        wl, rl = w.data[start:stop], r[start:stop]
        ratio = 1.0 if clip is None else trust_ratio(
            float(np.linalg.norm(wl)), float(np.linalg.norm(rl)), clip
        )
        np.multiply(lr32 * np.float32(ratio), rl, out=rl)
        np.subtract(wl, rl, out=rl)
        end = stop
    if end != n:
        raise ShapeMismatch(f"layers cover [0, {end}) of {n} parameters")
    return TensorBuf(r), new


def _update_groups(w, g, st, cfg, r) -> OptimState:
    """Run the moment recurrence group by group; return the new state.

    Per group: read m and sqrt(v) (decode the group's blocks of 8-bit state,
    or slice fp32 state), update them in fp32, write the group's new state
    (encode it for 8-bit state) and its slice of the direction ``r``.

    Every operation writes with ``out=`` into memory the step owns: two
    group-sized work buffers, the m and sqrt(v) buffers a decode returned,
    and the new fp32 state. ``w``, ``g`` and the old state are only read.
    """
    n, bs = w.size, cfg.block_size
    b1, b2 = np.float32(cfg.beta1), np.float32(cfg.beta2)
    one = np.float32(1.0)
    step = st.step + 1
    c1, c2 = one - b1 ** np.float32(step), one - b2 ** np.float32(step)
    eps, wd = np.float32(cfg.epsilon), np.float32(cfg.weight_decay)
    out8 = cfg.state_bits == 8
    if out8:
        m_parts, v_parts = [], []
    else:
        new_m, new_v = np.empty(n, np.float32), np.empty(n, np.float32)
    group = max(1, _GROUP // bs) * bs
    work1, work2 = np.empty((2, min(n, group)), np.float32)
    # an empty vector still runs one (empty) group, so its state is encoded
    for start in range(0, max(n, 1), group):
        stop = min(start + group, n)
        gg, ww = g[start:stop], w[start:stop]
        t1, t2 = work1[: stop - start], work2[: stop - start]
        if st.packed:
            m_old = codec.dequantize_q8(_blocks_of(st.m, start, stop)).data
            v_old = codec.dequantize_q8(_blocks_of(st.v, start, stop)).data
            np.multiply(v_old, v_old, out=v_old)
        else:
            m_old, v_old = st.m.data[start:stop], st.v.data[start:stop]
        if not out8:
            m, v = new_m[start:stop], new_v[start:stop]
        elif st.packed:
            m, v = m_old, v_old
        else:
            m, v = np.empty_like(m_old), np.empty_like(v_old)
        # m = b1 * m_old + (1 - b1) * g
        np.multiply(b1, m_old, out=m)
        np.add(m, np.multiply(one - b1, gg, out=t1), out=m)
        # v = b2 * v_old + (1 - b2) * (g * g)
        np.multiply(gg, gg, out=t1)
        np.multiply(one - b2, t1, out=t1)
        np.add(np.multiply(b2, v_old, out=v), t1, out=v)
        mhat = np.divide(m, c1, out=t1) if cfg.beta1 > 0 else m
        vhat = np.divide(v, c2, out=t2) if cfg.beta2 > 0 else v
        # r = mhat / (sqrt(vhat) + eps) + wd * w
        np.add(np.sqrt(vhat, out=t2), eps, out=t2)
        direction = np.divide(mhat, t2, out=t1)
        np.add(direction, np.multiply(wd, ww, out=t2), out=r[start:stop])
        if out8:
            v_root = np.sqrt(np.maximum(v, np.float32(0.0), out=v), out=v)
            m_parts.append(codec.quantize_q8(TensorBuf(m), bs))
            v_parts.append(codec.quantize_q8(TensorBuf(v_root), bs))
    if out8:
        m_joined = _joined(m_parts, n, bs)
        m_parts.clear()  # the groups' m chunks go before v's are joined
        return replace(st, m=m_joined, v=_joined(v_parts, n, bs), step=step)
    return replace(st, m=TensorBuf(new_m), v=TensorBuf(new_v), step=step)


def adam_step(
    w: TensorBuf, g: TensorBuf, st: OptimState, cfg: OptimConfig, lr: float
) -> tuple[TensorBuf, OptimState]:
    """One Adam step with decoupled weight decay: LAMB with the ratio fixed at 1."""
    return _grouped_step(w, g, st, cfg, lr, None, None)


def trust_ratio(w_norm: float, r_norm: float, clip: tuple[float, float]) -> float:
    """LAMB layer ratio ||w||/||r||, clamped; 1 when either norm is zero."""
    if w_norm == 0.0 or r_norm == 0.0:
        return 1.0
    return float(min(max(w_norm / r_norm, clip[0]), clip[1]))


def lamb_step(
    w: TensorBuf,
    g: TensorBuf,
    st: OptimState,
    cfg: OptimConfig,
    lr: float,
    layers=None,
) -> tuple[TensorBuf, OptimState]:
    """One LAMB step: Adam direction rescaled per layer by the trust ratio.

    ``layers`` is a sequence of (name, start, stop) half-open slices that
    tile the parameter vector in order; None or an empty sequence treats
    the whole vector as one layer. A partition that does not tile raises
    ``ShapeMismatch``.
    """
    return _grouped_step(w, g, st, cfg, lr, layers, cfg.trust_clip)


def optimizer_step(
    w: TensorBuf,
    g: TensorBuf,
    st: OptimState,
    cfg: OptimConfig,
    lr: float,
    layers=None,
) -> tuple[TensorBuf, OptimState]:
    if cfg.algorithm == Algorithm.LAMB:
        return lamb_step(w, g, st, cfg, lr, layers)
    return adam_step(w, g, st, cfg, lr)


# --- checkpoint io ---------------------------------------------------------

CKPT_MAGIC = b"TOPT"
CKPT_VERSION = 3
# Header per version. Version 2 appended the state's block_size (u32);
# version 3 drops the tier byte and the transfer counter of versions 1 and
# 2, which held no data, and ends the file with a CRC-32 of all bytes before it.
_CKPT_HEADS = {
    1: struct.Struct("<4sHBBQB3x6dQ"),
    2: struct.Struct("<4sHBBQB3x6dQI"),
    3: struct.Struct("<4sHBBQ6dI"),
}


def _write_chunk(parts: list, chunk: QuantizedChunk):
    raw = codec.chunk_to_bytes(chunk)
    parts.append(struct.pack("<I", len(raw)))
    parts.append(raw)


def _read_chunk(buf: bytes, off: int, end: int):
    """The length-prefixed chunk at ``off``; it must end by ``end``."""
    start = off + 4
    stop = start + int.from_bytes(buf[off:start], "little")
    if stop > end:
        raise MalformedChunk("checkpoint ends inside its chunk table")
    return codec.chunk_from_bytes(buf[start:stop]), stop


def save_checkpoint(path, cfg: OptimConfig, st: OptimState, w: TensorBuf):
    """Write optimizer config, step, weights and moments so a run can resume.

    The learning-rate schedule and the layer partition are not stored: the
    caller owns them and passes them to every step, before and after a
    resume. State with another element count than ``w`` raises
    ``ShapeMismatch`` before anything is written. The file is written
    beside ``path`` under a ``.tmp`` suffix, flushed to disk and then
    renamed over ``path``, so a crash while saving leaves the previous
    checkpoint whole.
    """
    _require_state_fits(st, w)
    packed = pack_state(st, cfg.state_bits, cfg.block_size)
    parts = [
        _CKPT_HEADS[CKPT_VERSION].pack(
            CKPT_MAGIC, CKPT_VERSION, int(cfg.algorithm), cfg.state_bits, packed.step,
            cfg.beta1, cfg.beta2, cfg.epsilon, cfg.weight_decay,
            cfg.trust_clip[0], cfg.trust_clip[1], cfg.block_size,
        )
    ]
    _write_chunk(parts, codec.encode_f32(w))
    for buf in (packed.m, packed.v):
        _write_chunk(parts, buf if packed.packed else codec.encode_f32(buf))
    body = b"".join(parts)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(body)
            f.write(struct.pack("<I", zlib.crc32(body)))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[OptimConfig, OptimState, TensorBuf]:
    """Read a checkpoint of version 1, 2 or 3.

    It returns the config, the state and the weights; the schedule and the
    layer partition are the caller's, as in ``save_checkpoint``. A version 3
    file whose CRC-32 does not match raises ``ChecksumMismatch``. Versions 1
    and 2 carry no checksum; their tier byte and transfer counter are
    skipped. Version 1 did not store ``block_size``; it is taken from the
    8-bit state's chunks, and is the default for fp32 state. Any other
    inconsistency raises ``MalformedChunk``.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CKPT_MAGIC:
        raise MalformedChunk("not an optimizer checkpoint (bad magic)")
    version = int.from_bytes(buf[4:6], "little")
    head = _CKPT_HEADS.get(version)
    if head is None:
        raise MalformedChunk(f"unsupported checkpoint version {version}")
    end = len(buf) - 4 if version >= 3 else len(buf)
    if end < head.size:
        raise MalformedChunk(f"checkpoint shorter than its header: {len(buf)} bytes")
    if version >= 3 and zlib.crc32(memoryview(buf)[:end]) != int.from_bytes(buf[end:], "little"):
        raise ChecksumMismatch("checkpoint bytes do not match their CRC-32")
    fields = head.unpack_from(buf)
    if version < 3:  # skip the tier byte and the transfer counter
        fields = fields[:5] + fields[6:12] + fields[13:]
    _, _, algo, bits, step, b1, b2, eps, wd, tmin, tmax, *block = fields
    w_chunk, off = _read_chunk(buf, head.size, end)
    m_chunk, off = _read_chunk(buf, off, end)
    v_chunk, off = _read_chunk(buf, off, end)
    if off != end:
        raise MalformedChunk(f"{end - off} bytes after the last chunk")
    if block:
        (block_size,) = block
    else:
        block_size = m_chunk.block_size if bits == 8 else OptimConfig.block_size
    n, want = w_chunk.num_elements, codec.Scheme.Q8_BLOCKWISE if bits == 8 else codec.Scheme.F32_RAW
    for c in (m_chunk, v_chunk):
        if c.num_elements != n or c.scheme != want or (bits == 8 and c.block_size != block_size):
            raise MalformedChunk(
                f"state chunk {c.scheme.name} of {c.num_elements} elements in blocks of "
                f"{c.block_size}; want {want.name} of {n} in blocks of {block_size}"
            )
    try:
        cfg = OptimConfig(
            algorithm=algo, beta1=b1, beta2=b2, epsilon=eps,
            weight_decay=wd, trust_clip=(tmin, tmax), state_bits=bits,
            block_size=block_size,
        )
    except ConfigError as e:
        raise MalformedChunk(f"checkpoint header: {e}") from None
    m, v = m_chunk, v_chunk
    if bits == 32:
        m, v = codec.decode_f32(m), codec.decode_f32(v)
    return cfg, OptimState(m=m, v=v, step=step), codec.decode_f32(w_chunk)
