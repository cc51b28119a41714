"""Adam and LAMB with linear warmup/decay, 8-bit state, and tiered storage.

All moment math runs in 32-bit: when the state is stored 8-bit it is
decoded, updated, and encoded again each step, so the drift per step is
bounded by the codec's error bound. The second moment is quantized through
its square root (a signed symmetric codebook wastes half its range on a
non-negative quantity otherwise) and squared again on decode, which also
keeps it non-negative by construction.

A step runs over the vector in groups of whole state blocks (``_GROUP``
elements, rounded to blocks): decode the group's m and sqrt(v), update
them, encode them again, and write the group's Adam update or LAMB
direction. 8-bit state is therefore never decoded whole, and a step's
transient memory is about 2x the parameter bytes for Adam and 2.5x for
LAMB with 8-bit state (3x and 4x with fp32 state), plus two group-sized
fp32 work buffers that every group's moment math reuses.
Packed state must use the config's ``block_size``.

A parameter vector may carry a named-layer partition; LAMB computes its
trust ratio per layer. With no partition the whole vector is one layer.

Checkpoint file: magic "TOPT", a fixed config block (version 2 adds the
state's block_size), then the weight, m and v buffers as codec chunks, each
length-prefixed (u32, little-endian). It is written to a temporary file and
renamed into place.
"""

from __future__ import annotations

import contextlib
import enum
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import codec
from .codec import QuantizedChunk, TensorBuf
from .errors import (
    ConfigError,
    MalformedChunk,
    NonFiniteGradient,
    ShapeMismatch,
    StepOutOfRange,
)


class Algorithm(enum.IntEnum):
    ADAM = 0
    LAMB = 1


class Tier(enum.IntEnum):
    COMPUTE = 0
    OFFLOADED = 1


@dataclass(frozen=True)
class ScheduleConfig:
    """Linear warmup to peak_lr, then linear decay to end_lr."""

    total_steps: int = 31250
    warmup_fraction: float = 0.1
    peak_lr: float = 2.5e-3
    end_lr: float = 0.0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1]")
        if self.peak_lr <= 0:
            raise ConfigError("peak_lr must be > 0")

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
    state_tier: Tier = Tier.COMPUTE
    block_size: int = 4096

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must be in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.trust_clip[0] > self.trust_clip[1]:
            raise ConfigError("trust_clip min must be <= max")
        if self.state_bits not in (32, 8):
            raise ConfigError("state_bits must be 32 or 8")

    @classmethod
    def adam(cls, **kw) -> "OptimConfig":
        return cls(algorithm=Algorithm.ADAM, **kw)

    @classmethod
    def lamb(cls, **kw) -> "OptimConfig":
        kw.setdefault("beta2", 0.95)
        return cls(algorithm=Algorithm.LAMB, **kw)


@dataclass(frozen=True)
class OptimState:
    """Moment buffers (fp32 or packed Q8 chunks), step counter, storage tier."""

    m: TensorBuf | QuantizedChunk
    v: TensorBuf | QuantizedChunk
    step: int = 0
    tier: Tier = Tier.COMPUTE
    transfer_bytes_accumulated: int = 0

    @property
    def packed(self) -> bool:
        return isinstance(self.m, QuantizedChunk)

    @property
    def num_elements(self) -> int:
        return self.m.num_elements


def init_state(num_params: int, cfg: OptimConfig) -> OptimState:
    zeros = TensorBuf(np.zeros(num_params, np.float32))
    st = OptimState(m=zeros, v=zeros, step=0, tier=cfg.state_tier)
    return pack_state(st, cfg.state_bits, cfg.block_size)


def pack_state(st: OptimState, state_bits: int, block_size: int = 4096) -> OptimState:
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


def tier_transfer(st: OptimState, target: Tier) -> OptimState:
    """Move state between storage tiers; values unchanged, bytes accounted."""
    return replace(
        st,
        tier=target,
        transfer_bytes_accumulated=st.transfer_bytes_accumulated + state_nbytes(st),
    )


DEFAULT_LAYERS = None  # whole vector as a single layer


def _check_inputs(w: TensorBuf, g: TensorBuf, st: OptimState):
    if w.num_elements != g.num_elements:
        raise ShapeMismatch(
            f"weights have {w.num_elements} elements, gradient {g.num_elements}"
        )
    if st.num_elements != w.num_elements:
        raise ShapeMismatch(
            f"optimizer state sized {st.num_elements}, weights {w.num_elements}"
        )
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


def _grouped_step(w, g, st, cfg, lr, lamb: bool, layers):
    """Adam or LAMB, one group of whole state blocks at a time.

    ``_update_groups`` runs the moment recurrence group by group and writes
    the Adam weights, or LAMB's direction r, into one full buffer. LAMB then
    takes each layer's trust ratio from norms of the full w and r slices and
    applies it. Every value comes from the same fp32 operations in the same
    order as on whole vectors, so the result does not depend on the group
    size.

    Transient memory beyond a group's temporaries, per element: 4 bytes for
    that buffer, 4 more for LAMB's new weights, and the new state (fp32: 8
    bytes; 8-bit: 4 bytes while the groups' chunks are joined, then 2).
    """
    _check_inputs(w, g, st)
    _require_block_size(st, cfg.block_size)
    lr32 = np.float32(lr)
    target = np.empty(w.num_elements, np.float32)
    # the groups' 8-bit chunks are freed when _update_groups returns, before
    # LAMB allocates its new weights
    new = _update_groups(w.data, g.data, st, cfg, lr32, lamb, target)
    if not lamb:
        return TensorBuf(target, w.shape), new
    r, new_w = target, w.data.copy()
    if layers is None:
        layers = (("all", 0, w.num_elements),)
    for _name, start, stop in layers:
        wl, rl = w.data[start:stop], r[start:stop]
        ratio = trust_ratio(
            float(np.linalg.norm(wl)), float(np.linalg.norm(rl)), cfg.trust_clip
        )
        # new_w = wl - (lr * ratio) * rl, written in place: a layer may be the
        # whole vector
        delta = np.multiply(lr32 * np.float32(ratio), rl, out=new_w[start:stop])
        np.subtract(wl, delta, out=delta)
    return TensorBuf(new_w, w.shape), new


def _update_groups(w, g, st, cfg, lr32, lamb: bool, target) -> OptimState:
    """Run the moment recurrence group by group; return the new state.

    Per group: read m and sqrt(v) (decode the group's blocks of 8-bit state,
    or slice fp32 state), update them in fp32, write the group's new state
    (encode it for 8-bit state) and its slice of ``target``: the Adam
    weights, or LAMB's r.

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
        # direction = mhat / (sqrt(vhat) + eps), into t1
        np.add(np.sqrt(vhat, out=t2), eps, out=t2)
        direction = np.divide(mhat, t2, out=t1)
        if lamb:
            np.add(direction, np.multiply(wd, ww, out=t2), out=target[start:stop])
        else:
            # (w - lr * direction) - (lr * wd) * w
            np.subtract(ww, np.multiply(lr32, direction, out=t1), out=t1)
            np.subtract(t1, np.multiply(lr32 * wd, ww, out=t2), out=target[start:stop])
        if out8:
            v_root = np.sqrt(np.maximum(v, np.float32(0.0), out=v), out=v)
            m_parts.append(codec.quantize_q8(TensorBuf(m), bs))
            v_parts.append(codec.quantize_q8(TensorBuf(v_root), bs))
    if out8:
        return replace(st, m=_joined(m_parts, n, bs), v=_joined(v_parts, n, bs), step=step)
    return replace(st, m=TensorBuf(new_m), v=TensorBuf(new_v), step=step)


def adam_step(
    w: TensorBuf, g: TensorBuf, st: OptimState, cfg: OptimConfig, lr: float
) -> tuple[TensorBuf, OptimState]:
    """One Adam step with decoupled weight decay."""
    return _grouped_step(w, g, st, cfg, lr, False, None)


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
    layers=DEFAULT_LAYERS,
) -> tuple[TensorBuf, OptimState]:
    """One LAMB step: Adam direction rescaled per layer by the trust ratio.

    ``layers`` is a sequence of (name, start, stop) half-open slices covering
    the parameter vector; None treats the whole vector as one layer.
    """
    return _grouped_step(w, g, st, cfg, lr, True, layers)


def optimizer_step(
    w: TensorBuf,
    g: TensorBuf,
    st: OptimState,
    cfg: OptimConfig,
    lr: float,
    layers=DEFAULT_LAYERS,
) -> tuple[TensorBuf, OptimState]:
    if cfg.algorithm == Algorithm.LAMB:
        return lamb_step(w, g, st, cfg, lr, layers)
    return adam_step(w, g, st, cfg, lr)


# --- checkpoint io ---------------------------------------------------------

CKPT_MAGIC = b"TOPT"
CKPT_VERSION = 2
# Header per version; version 2 appends the state's block_size (u32).
_CKPT_HEADS = {1: struct.Struct("<4sHBBQB3x6dQ"), 2: struct.Struct("<4sHBBQB3x6dQI")}


def _write_chunk(parts: list, chunk: QuantizedChunk):
    raw = codec.chunk_to_bytes(chunk)
    parts.append(struct.pack("<I", len(raw)))
    parts.append(raw)


def _read_chunk(buf: bytes, off: int):
    (length,) = struct.unpack_from("<I", buf, off)
    off += 4
    return codec.chunk_from_bytes(buf[off : off + length]), off + length


def save_checkpoint(path, cfg: OptimConfig, st: OptimState, w: TensorBuf):
    """Write optimizer config, step, weights and moments so a run can resume.

    The file is written beside ``path`` under a ``.tmp`` suffix, flushed to
    disk and then renamed over ``path``, so a crash while saving leaves the
    previous checkpoint whole.
    """
    packed = pack_state(st, cfg.state_bits, cfg.block_size)
    parts = [
        _CKPT_HEADS[CKPT_VERSION].pack(
            CKPT_MAGIC, CKPT_VERSION, int(cfg.algorithm), cfg.state_bits, packed.step,
            int(packed.tier), cfg.beta1, cfg.beta2, cfg.epsilon, cfg.weight_decay,
            cfg.trust_clip[0], cfg.trust_clip[1], packed.transfer_bytes_accumulated,
            cfg.block_size,
        )
    ]
    _write_chunk(parts, codec.encode_f32(w))
    if cfg.state_bits == 8:
        _write_chunk(parts, packed.m)
        _write_chunk(parts, packed.v)
    else:
        _write_chunk(parts, codec.encode_f32(packed.m))
        _write_chunk(parts, codec.encode_f32(packed.v))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(b"".join(parts))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[OptimConfig, OptimState, TensorBuf]:
    """Read a checkpoint of version 1 or 2.

    Version 1 did not store ``block_size``; it is taken from the 8-bit
    state's chunks, and is the default for fp32 state.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CKPT_MAGIC:
        raise MalformedChunk("not an optimizer checkpoint (bad magic)")
    if len(buf) < _CKPT_HEADS[1].size:
        raise MalformedChunk(f"checkpoint shorter than its header: {len(buf)} bytes")
    (version,) = struct.unpack_from("<H", buf, 4)
    head = _CKPT_HEADS.get(version)
    if head is None:
        raise MalformedChunk(f"unsupported checkpoint version {version}")
    if len(buf) < head.size:
        raise MalformedChunk(f"checkpoint shorter than its header: {len(buf)} bytes")
    (_, _, algo, bits, step, tier, b1, b2, eps, wd, tmin, tmax, xfer, *block
     ) = head.unpack_from(buf)
    try:
        algo, tier = Algorithm(algo), Tier(tier)
    except ValueError as e:
        raise MalformedChunk(f"checkpoint header: {e}") from None
    off = head.size
    w_chunk, off = _read_chunk(buf, off)
    m_chunk, off = _read_chunk(buf, off)
    v_chunk, off = _read_chunk(buf, off)
    if block:
        (block_size,) = block
    elif bits == 8:
        block_size = m_chunk.block_size
    else:
        block_size = OptimConfig.block_size
    if bits == 8 and not m_chunk.block_size == v_chunk.block_size == block_size:
        raise MalformedChunk(
            f"8-bit state chunks in blocks of {m_chunk.block_size} and "
            f"{v_chunk.block_size}, header says {block_size}"
        )
    cfg = OptimConfig(
        algorithm=algo, beta1=b1, beta2=b2, epsilon=eps,
        weight_decay=wd, trust_clip=(tmin, tmax), state_bits=bits,
        state_tier=tier, block_size=block_size,
    )
    w = codec.decode_f32(w_chunk)
    if bits == 8:
        st = OptimState(m=m_chunk, v=v_chunk, step=step, tier=tier,
                        transfer_bytes_accumulated=xfer)
    else:
        st = OptimState(m=codec.decode_f32(m_chunk), v=codec.decode_f32(v_chunk),
                        step=step, tier=tier, transfer_bytes_accumulated=xfer)
    return cfg, st, w
