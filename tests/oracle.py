"""Whole-tensor reference implementations of the Q8 codec and the LAMB
step, kept as the tests' oracle for the grouped versions in ``swarmdesk``.
Adam is checked against ``lamb_step`` with ``trust_clip=(1.0, 1.0)``.

They zero-pad the tensor to whole blocks, decode the full 8-bit state before
the step and encode it again after it. The grouped code must reproduce
their bytes and bits exactly.
"""

from dataclasses import replace

import numpy as np

from swarmdesk.codec import CodecPolicy, QuantizedChunk, Scheme, TensorBuf, encode
from swarmdesk.optim import OptimState, trust_ratio


def _chunk(x: np.ndarray) -> QuantizedChunk:
    """An fp32 moment as the state holds it: an F32_RAW chunk."""
    return encode(TensorBuf(x), CodecPolicy(lossless=True))


def _array(c: QuantizedChunk) -> np.ndarray:
    """The values of an fp32 moment's F32_RAW chunk."""
    return np.frombuffer(c.payload, np.float32)


def _blocked(data: np.ndarray, block_size: int) -> np.ndarray:
    """Zero-pad to a whole number of blocks and reshape to (n_blocks, block_size)."""
    n = data.size
    n_blocks = -(-n // block_size) if n else 0
    padded = np.zeros(n_blocks * block_size, dtype=data.dtype)
    padded[:n] = data
    return padded.reshape(n_blocks, block_size)


def quantize_q8(t: TensorBuf, block_size: int = 4096) -> QuantizedChunk:
    t.require_finite()
    blocks = _blocked(t.data, block_size)
    absmax = np.max(np.abs(blocks), axis=1) if blocks.size else np.zeros(0, np.float32)
    scales = (absmax / np.float32(127)).astype(np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.rint(blocks.astype(np.float64) / scales[:, None].astype(np.float64))
    q[scales == 0] = 0.0
    codes = np.clip(q, -127, 127).astype(np.int8)
    payload = codes.reshape(-1)[: t.num_elements].tobytes()
    return QuantizedChunk(Scheme.Q8_BLOCKWISE, t.num_elements, block_size, scales, payload)


def dequantize_q8(c: QuantizedChunk) -> TensorBuf:
    codes = np.frombuffer(c.payload, dtype=np.int8)
    blocks = _blocked(codes.astype(np.float32), c.block_size)
    values = blocks * c.scales[:, None].astype(np.float32)
    return TensorBuf(values.reshape(-1)[: c.num_elements])


def pack_state(st: OptimState, state_bits: int, block_size: int) -> OptimState:
    if state_bits == 32:
        return unpack_state(st)
    if st.packed:
        return st
    v_root = TensorBuf(np.sqrt(np.maximum(_array(st.v), np.float32(0.0))))
    return replace(
        st, m=quantize_q8(TensorBuf(_array(st.m)), block_size), v=quantize_q8(v_root, block_size)
    )


def unpack_state(st: OptimState) -> OptimState:
    if not st.packed:
        return st
    v_root = dequantize_q8(st.v).data
    return replace(st, m=_chunk(dequantize_q8(st.m).data), v=_chunk(v_root * v_root))


def _moments(g, st, cfg):
    b1, b2 = np.float32(cfg.beta1), np.float32(cfg.beta2)
    one = np.float32(1.0)
    m = b1 * _array(st.m) + (one - b1) * g
    v = b2 * _array(st.v) + (one - b2) * (g * g)
    step = st.step + 1
    mhat = m / (one - b1 ** np.float32(step)) if cfg.beta1 > 0 else m
    vhat = v / (one - b2 ** np.float32(step)) if cfg.beta2 > 0 else v
    return m, v, mhat, vhat, step


def lamb_step(w, g, st, cfg, lr, layers=None):
    work = unpack_state(st)
    m, v, mhat, vhat, step = _moments(g.data, work, cfg)
    r = mhat / (np.sqrt(vhat) + np.float32(cfg.epsilon)) + np.float32(
        cfg.weight_decay
    ) * w.data
    new_w = w.data.copy()
    lr32 = np.float32(lr)
    if layers is None:
        layers = (("all", 0, w.num_elements),)
    for _name, start, stop in layers:
        wl, rl = w.data[start:stop], r[start:stop]
        ratio = trust_ratio(
            float(np.linalg.norm(wl)), float(np.linalg.norm(rl)), cfg.trust_clip
        )
        new_w[start:stop] = wl - lr32 * np.float32(ratio) * rl
    out = replace(work, m=_chunk(m), v=_chunk(v), step=step)
    return TensorBuf(new_w), pack_state(out, cfg.state_bits, cfg.block_size)
