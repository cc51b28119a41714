"""Lossy tensor compression for network exchange and optimizer-state storage.

Two working schemes plus a raw passthrough:

* ``Q8_BLOCKWISE`` — blockwise absmax linear quantization. A tensor is cut
  into fixed-size blocks; each block stores one fp32 scale (absmax / 127)
  and one signed byte per element. Worst-case reconstruction error is half
  a scale per element plus fp32 and float64 rounding
  (``roundtrip_error_bound``). Blocks whose absmax is zero store scale 0
  and decode to exact zeros. A block whose 127 * scale would overflow fp32
  is refused rather than decoded to Inf. Codes are specified with a float64
  division; encoding divides in fp32 and divides again in float64 only the
  rare elements whose fp32 quotient is exactly a half-integer, which gives
  the same bytes. Blocks are independent, so encoding walks the tensor in
  cache-sized groups of whole blocks: its transient memory is the payload,
  its bytes copy and one group's two fp32 work buffers, whatever the size.
* ``F16`` — IEEE binary16 with round-to-nearest-even. Values above the
  largest finite half-precision magnitude (65504) are rejected outright
  rather than saturated.
* ``F32_RAW`` — lossless passthrough, used for checkpointed weights and
  fp32 optimizer state, and for exact comparisons.

Scheme selection is a pure threshold on element count: large tensors go
8-bit, everything else 16-bit. All rounding is round-half-to-even so that
encoded bytes are identical across runs and platforms.

Two value types carry the data. A ``TensorBuf`` is a flat fp32 vector. A
``QuantizedChunk`` is one encoded tensor; it is checked once, when it is
built (from an encoder, from wire bytes or by hand), and cannot change
afterwards, so decoders and the wire writer take it as valid.

Wire layout (little-endian), the unit an encoded tensor travels in:

    magic "TQC1" | scheme u8 | reserved u8*3 | num_elements u64 |
    block_size u32 | scale_count u32 | scales f32*scale_count | payload

Payload is ``num_elements`` bytes for Q8, ``2*num_elements`` for F16 and
``4*num_elements`` for F32_RAW.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MalformedChunk, NonFiniteInput, OverflowToInfinity

MAGIC = b"TQC1"
_HEADER = struct.Struct("<4sB3xQII")
HEADER_BYTES = _HEADER.size
F16_MAX = 65504.0
# Elements per Q8 block unless a caller picks another size.
DEFAULT_BLOCK_SIZE = 4096
# The largest Q8 scale whose 127 * scale is finite in fp32. Only an absmax
# of the fp32 maximum itself gets a larger one.
_SCALE_MAX = np.float32(2.6793884e36)


class Scheme(enum.IntEnum):
    F32_RAW = 0
    Q8_BLOCKWISE = 1
    F16 = 2


# Payload element type of each float scheme.
_FLOAT_DTYPES = {Scheme.F16: np.dtype("<f2"), Scheme.F32_RAW: np.dtype("<f4")}


@dataclass(frozen=True)
class TensorBuf:
    """A flat, contiguous fp32 vector: the unit every tensor travels as.

    The constructor flattens and casts any array-like; a contiguous fp32
    vector is kept as it is, not copied.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        object.__setattr__(self, "data", arr)

    @property
    def num_elements(self) -> int:
        return self.data.size

    def require_finite(self) -> "TensorBuf":
        if self.data.size and not np.isfinite(self.data).all():
            raise NonFiniteInput("tensor contains NaN or Inf")
        return self


@dataclass(frozen=True)
class QuantizedChunk:
    """Encoded tensor: scheme tag, per-block scales (Q8 only) and payload bytes.

    The constructor checks that the fields fit together and raises
    ``MalformedChunk`` when they do not. It keeps ``scales`` as a read-only
    fp32 view, not a copy, so whoever built the array must not write it
    afterwards, and ``payload`` as ``bytes`` (any other buffer is copied
    once). A chunk that was built stays valid and no use checks it again.
    """

    scheme: Scheme
    num_elements: int
    block_size: int
    scales: np.ndarray
    payload: bytes

    def __post_init__(self):
        try:
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        except ValueError:
            raise MalformedChunk(f"unknown scheme {self.scheme!r}") from None
        scales = np.asarray(self.scales, np.float32).view()
        scales.flags.writeable = False
        object.__setattr__(self, "scales", scales)
        if not isinstance(self.payload, bytes):
            object.__setattr__(self, "payload", bytes(self.payload))
        n = self.num_elements
        if n < 0:
            raise MalformedChunk("negative element count")
        if self.scheme == Scheme.Q8_BLOCKWISE:
            if self.block_size < 1:
                raise MalformedChunk("Q8 chunk needs block_size >= 1")
            want_scales = -(-n // self.block_size)
            if scales.size != want_scales:
                raise MalformedChunk(f"expected {want_scales} scales, got {scales.size}")
            if len(self.payload) != n:
                raise MalformedChunk(
                    f"Q8 payload must be {n} bytes, got {len(self.payload)}"
                )
            # a NaN scale fails both comparisons
            if scales.size and not (scales.min() >= 0 and scales.max() <= _SCALE_MAX):
                raise MalformedChunk(f"scales must lie in [0, {_SCALE_MAX}]")
        elif self.scheme in _FLOAT_DTYPES:
            size = _FLOAT_DTYPES[self.scheme].itemsize * n
            if scales.size or len(self.payload) != size:
                raise MalformedChunk(
                    f"{self.scheme.name} chunk needs no scales and {size} payload "
                    f"bytes, got {scales.size} and {len(self.payload)}"
                )


@dataclass(frozen=True)
class CodecPolicy:
    """Scheme-selection policy: tensors with >= q8_threshold elements go 8-bit.

    ``lossless=True`` bypasses compression entirely (F32_RAW), which is what
    parameter sync and the synchronous-equivalence tests use.
    """

    q8_threshold: int = 65536
    block_size: int = DEFAULT_BLOCK_SIZE
    lossless: bool = False

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.q8_threshold >= 1:
            raise ConfigError("q8_threshold must be >= 1")
        if not self.block_size >= 1:
            raise ConfigError("block_size must be >= 1")


def select_scheme(n: int, policy: CodecPolicy = CodecPolicy()) -> Scheme:
    """Pick the wire scheme for an n-element tensor (pure threshold, monotone)."""
    if n < 0:
        raise MalformedChunk("element count must be >= 0")
    if policy.lossless:
        return Scheme.F32_RAW
    return Scheme.Q8_BLOCKWISE if n >= policy.q8_threshold else Scheme.F16


# Elements per group of whole blocks in quantize_q8. Its two fp32 work
# buffers (8 bytes per element, 512 KiB) then stay in a 2 MiB L2 cache; on
# such a machine 2**15 to 2**16 encoded fastest.
_GROUP = 1 << 16
_SMALLEST_NORMAL = np.finfo(np.float32).tiny


def _quantize_blocks(x, scales, codes, quot, rounded) -> None:
    """Quantize the rows of ``x`` (one block each) into ``scales`` and ``codes``.

    ``quot`` and ``rounded`` are fp32 work buffers of at least x.size.
    """
    quot = quot[: x.size].reshape(x.shape)
    np.abs(x, out=quot)
    np.maximum.reduce(quot, axis=1, out=scales)
    np.divide(scales, np.float32(127), out=scales)
    # NaN fails this comparison as well as Inf and too large a scale
    if not scales.max() <= _SCALE_MAX:
        if not np.isfinite(scales).all():
            raise NonFiniteInput("tensor contains NaN or Inf")
        raise OverflowToInfinity("127 * scale of a block exceeds the fp32 maximum")
    divisor = scales
    subnormal = scales.min() < _SMALLEST_NORMAL
    if subnormal:
        # A zero scale means |x| <= 127 * 2**-150 in its block, which rounds
        # to code 0 when divided by 1, so no block divides by zero.
        divisor = np.where(scales == 0, np.float32(1), scales)
    np.divide(x, divisor[:, None], out=quot)
    if subnormal:
        # only a subnormal scale lets |x / scale| pass 127 * (1 + 2**-23)
        np.minimum(quot, 127, out=quot)
        np.maximum(quot, -127, out=quot)
    rounded = rounded[: x.size].reshape(x.shape)
    np.rint(quot, out=rounded)
    # Division rounds monotonically and fp32 holds every half-integer, so
    # the fp32 and float64 quotients fall on the same side of each one, and
    # round to the same code, unless the fp32 quotient is a half-integer.
    # Only those elements are divided again, in float64 as specified.
    np.subtract(quot, rounded, out=quot)
    np.abs(quot, out=quot)
    if quot.max() == 0.5:
        rows, cols = np.nonzero(quot == 0.5)
        rounded[rows, cols] = np.rint(
            x[rows, cols].astype(np.float64) / divisor[rows].astype(np.float64)
        )
    np.copyto(codes, rounded, casting="unsafe")


def quantize_q8(t: TensorBuf, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedChunk:
    """Blockwise absmax quantization to signed bytes.

    Per block: scale = absmax/127 (fp32), code = round-half-to-even(x/scale)
    clamped to [-127, 127], with x/scale divided in float64 against the
    stored fp32 scale, so codes are reproducible bit-for-bit everywhere.
    The division runs in fp32, which rounds to the same code except where
    the fp32 quotient is exactly a half-integer; only those elements are
    divided again in float64. A block whose 127 * scale overflows fp32
    raises ``OverflowToInfinity``, since it would decode to Inf.

    The tensor is encoded in groups of whole blocks, about ``_GROUP``
    elements each, and the partial last block on its own. Besides the
    payload and scales, it allocates 8 bytes of work buffer per element of
    one group, so its transient memory is the payload, its bytes copy and
    a fixed amount.
    """
    if block_size < 1:
        raise MalformedChunk("block_size must be >= 1")
    x, n = t.data, t.num_elements
    scales = np.empty(-(-n // block_size), np.float32)
    codes = np.empty(n, np.int8)
    group = max(1, _GROUP // block_size) * block_size
    quot, rounded = np.empty((2, min(n, group)), np.float32)
    full = n - n % block_size
    for start in range(0, full, group):
        stop = min(start + group, full)
        _quantize_blocks(
            x[start:stop].reshape(-1, block_size),
            scales[start // block_size : stop // block_size],
            codes[start:stop].reshape(-1, block_size),
            quot,
            rounded,
        )
    if full < n:
        _quantize_blocks(
            x[full:].reshape(1, -1), scales[-1:], codes[full:].reshape(1, -1), quot, rounded
        )
    return QuantizedChunk(Scheme.Q8_BLOCKWISE, n, block_size, scales, codes.tobytes())


def dequantize_q8(c: QuantizedChunk) -> TensorBuf:
    """Decode a Q8 chunk: x_i = code_i * scale of its block, in fp32.

    The codes are cast to fp32, which holds every one exactly, and that
    buffer is scaled in place: the full blocks by one broadcast multiply,
    the partial last block by a second. The output is the only tensor-sized
    allocation.
    """
    if c.scheme != Scheme.Q8_BLOCKWISE:
        raise MalformedChunk(f"dequantize_q8 got scheme {c.scheme!r}")
    n, bs = c.num_elements, c.block_size
    out = np.frombuffer(c.payload, dtype=np.int8).astype(np.float32)
    full = n - n % bs
    blocks = out[:full].reshape(-1, bs)
    np.multiply(blocks, c.scales[: full // bs, None], out=blocks)
    if full < n:
        np.multiply(out[full:], c.scales[-1:], out=out[full:])
    return TensorBuf(out)


def _encode_float(t: TensorBuf, scheme: Scheme) -> QuantizedChunk:
    """Encode as the float scheme's payload type; NaN/Inf are rejected."""
    t.require_finite()
    payload = t.data.astype(_FLOAT_DTYPES[scheme]).tobytes()
    return QuantizedChunk(scheme, t.num_elements, 0, np.zeros(0, np.float32), payload)


def _decode_float(c: QuantizedChunk, scheme: Scheme) -> TensorBuf:
    if c.scheme != scheme:
        raise MalformedChunk(f"expected a {scheme.name} chunk, got scheme {c.scheme!r}")
    return TensorBuf(np.frombuffer(c.payload, dtype=_FLOAT_DTYPES[scheme]).astype(np.float32))


def encode_f16(t: TensorBuf) -> QuantizedChunk:
    """Encode as IEEE binary16 (round-to-nearest-even); rejects |x| > 65504."""
    # NaN and Inf fail this test and are left to the finiteness check
    if t.data.size and F16_MAX < np.abs(t.data).max() < np.inf:
        raise OverflowToInfinity(f"|x| exceeds binary16 max finite {F16_MAX}")
    return _encode_float(t, Scheme.F16)


def decode_f16(c: QuantizedChunk) -> TensorBuf:
    return _decode_float(c, Scheme.F16)


def encode_f32(t: TensorBuf) -> QuantizedChunk:
    """Lossless passthrough; NaN/Inf are still rejected at the boundary."""
    return _encode_float(t, Scheme.F32_RAW)


def decode_f32(c: QuantizedChunk) -> TensorBuf:
    return _decode_float(c, Scheme.F32_RAW)


def encode(t: TensorBuf, policy: CodecPolicy = CodecPolicy()) -> QuantizedChunk:
    """Encode under the policy's scheme selection."""
    scheme = select_scheme(t.num_elements, policy)
    if scheme == Scheme.Q8_BLOCKWISE:
        return quantize_q8(t, policy.block_size)
    if scheme == Scheme.F16:
        return encode_f16(t)
    return encode_f32(t)


def decode(c: QuantizedChunk) -> TensorBuf:
    if c.scheme == Scheme.Q8_BLOCKWISE:
        return dequantize_q8(c)
    if c.scheme == Scheme.F16:
        return decode_f16(c)
    return decode_f32(c)


def encoded_size(scheme: Scheme, n: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Wire size in bytes of an n-element chunk, header included."""
    if n < 0:
        raise MalformedChunk("element count must be >= 0")
    if scheme == Scheme.Q8_BLOCKWISE:
        return HEADER_BYTES + n + 4 * (-(-n // block_size))
    if scheme in _FLOAT_DTYPES:
        return HEADER_BYTES + _FLOAT_DTYPES[scheme].itemsize * n
    raise MalformedChunk(f"unknown scheme {scheme!r}")


def chunk_to_bytes(c: QuantizedChunk) -> bytes:
    head = _HEADER.pack(MAGIC, int(c.scheme), c.num_elements, c.block_size, c.scales.size)
    return head + c.scales.astype("<f4").tobytes() + c.payload


def chunk_from_bytes(raw: bytes) -> QuantizedChunk:
    if len(raw) < HEADER_BYTES:
        raise MalformedChunk(f"chunk shorter than header: {len(raw)} bytes")
    magic, scheme, n, block_size, scale_count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MalformedChunk(f"bad magic {magic!r}")
    off = HEADER_BYTES + 4 * scale_count
    if len(raw) < off:
        raise MalformedChunk("truncated scales")
    scales = np.frombuffer(raw[HEADER_BYTES:off], dtype="<f4")
    return QuantizedChunk(scheme, n, block_size, scales, raw[off:])


# roundtrip_error_bound per unit of scale: half a scale from rounding to a
# code; 127 * 2**-24 from decode rounding code * scale (up to 127 scales) to
# fp32; 128 * 2**-53 from the float64 division of an |x| of up to 127.00001
# scales. Every term is a power of two or a sum that float64 holds exactly.
_ERR_PER_SCALE = 0.5 + 127 * 2.0**-24 + 128 * 2.0**-53
# A block whose absmax / 127 underflows fp32 gets a zero or subnormal scale,
# which can leave up to 127 * 2**-150 beyond the terms above.
_ERR_UNDERFLOW = 127 * 2.0**-150


def roundtrip_error_bound(c: QuantizedChunk) -> np.ndarray:
    """Per-element worst-case |x - decode(x)| implied by a Q8 chunk's scales.

    It is ``scale * (1/2 + 127 * 2**-24 + 128 * 2**-53) + 127 * 2**-150``:
    half a scale from rounding x / scale to a code, the fp32 rounding of
    ``code * scale`` in decode, the float64 division in encode, and the
    underflow of a scale below the smallest fp32 subnormal. Half a scale
    alone is exceeded, by up to 127 * 2**-23 of itself, when decode rounds
    away from x.
    """
    if c.scheme != Scheme.Q8_BLOCKWISE:
        raise MalformedChunk("error bound is defined for Q8 chunks")
    per_block = c.scales.astype(np.float64) * _ERR_PER_SCALE + _ERR_UNDERFLOW
    return np.repeat(per_block, c.block_size)[: c.num_elements]
