"""Lossy tensor compression for network exchange and optimizer-state storage.

Two working schemes plus a raw passthrough:

* ``Q8_BLOCKWISE`` — blockwise absmax linear quantization. A tensor is cut
  into fixed-size blocks; each block stores one fp32 scale (absmax / 127)
  and one signed byte per element, a code in [-127, 127]; a chunk with the
  code -128 is malformed. Worst-case reconstruction error is half
  a scale per element plus fp32 and float64 rounding
  (``roundtrip_error_bound``). Blocks whose absmax is zero store scale 0
  and decode to exact zeros. A block whose 127 * scale would overflow fp32
  is refused rather than decoded to Inf. Codes are specified with a float64
  division; encoding divides in fp32 and divides again in float64 only the
  rare elements whose fp32 quotient is exactly a half-integer, which gives
  the same bytes. Blocks are independent, so encoding, decoding and the
  optimizer step walk a tensor in the same cache-sized pieces (``_pieces``):
  encoding's transient memory is the payload and one piece's two fp32 work
  buffers, whatever the size.
* ``F16`` — IEEE binary16 with round-to-nearest-even. Values above the
  largest finite half-precision magnitude (65504) are rejected outright
  rather than saturated.
* ``F32_RAW`` — lossless passthrough, used for fp32 optimizer state and
  for exact comparisons. It is encoded only by ``encode`` under
  ``CodecPolicy(lossless=True)`` and decoded by ``decode``.

``encode`` selects the scheme from a ``CodecPolicy`` and the element count
alone; its docstring states the rule. All rounding is round-half-to-even so
that encoded bytes are identical across runs and platforms.

Two value types carry the data. A ``TensorBuf`` is a flat fp32 vector. A
``QuantizedChunk`` is one encoded tensor. Its constructor checks a chunk
built from wire bytes or by hand; an encoder builds its chunks valid by
construction (``QuantizedChunk._valid``), having checked its input already,
so they are not checked again. A chunk cannot change once built, so decoders
and the wire writer take it as valid. Its payload is ``bytes`` or a
read-only byte view of memory that nothing writes any more, such as the
codes an encoder wrote or the wire bytes it was read from.

Wire layout (little-endian), the unit an encoded tensor travels in:

    magic "TQC1" | scheme u8 | reserved u8*3 | num_elements u64 |
    block_size u32 | scale_count u32 | scales f32*scale_count | payload

``_layout`` gives each scheme's scale count and payload size: Q8 has one
scale per block and ``num_elements`` payload bytes, F16 no scales and
``2*num_elements`` bytes, F32_RAW no scales and ``4*num_elements`` bytes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, MalformedChunk, NonFiniteInput, OverflowToInfinity, as_int, checked_int,
)

MAGIC = b"TQC1"
_HEADER = struct.Struct("<4sB3xQII")
HEADER_BYTES = _HEADER.size
F16_MAX = 65504.0
# Elements per Q8 block unless a caller picks another size.
DEFAULT_BLOCK_SIZE = 4096
# The largest Q8 scale whose 127 * scale is finite in fp32. Only an absmax
# of the fp32 maximum itself gets a larger one.
_SCALE_MAX = np.float32(2.6793884e36)
_SCALE_MAX_BITS = _SCALE_MAX.view(np.uint32)


class Scheme(enum.IntEnum):
    F32_RAW = 0
    Q8_BLOCKWISE = 1
    F16 = 2


# Payload element type of each float scheme.
_FLOAT_DTYPES = {Scheme.F16: np.dtype("<f2"), Scheme.F32_RAW: np.dtype("<f4")}


def _layout(scheme: Scheme, n: int, block_size: int) -> tuple[int, int]:
    """The scale count and the payload bytes of a chunk of n >= 0 elements.
    An unknown scheme, and for Q8 a block_size that is not an integer in
    [1, 2**32), the range the wire header holds, raise ``MalformedChunk``."""
    tag = as_int(scheme)
    if tag == Scheme.Q8_BLOCKWISE:
        block_size = checked_int(block_size, "block_size", MalformedChunk, 1, 2**32)
        return -(-n // block_size), n
    if tag not in _FLOAT_DTYPES:
        raise MalformedChunk(f"unknown scheme {scheme!r}")
    return 0, _FLOAT_DTYPES[tag].itemsize * n


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
        # one isfinite pass beats _absmax's max/min pair on large tensors
        if self.data.size and not np.isfinite(self.data).all():
            raise NonFiniteInput("tensor contains NaN or Inf")
        return self


def _absmax(x: np.ndarray):
    """The largest |x| of a vector, 0 if it is empty and NaN if it holds a
    NaN, from one max/min pair and without a copy."""
    return max(np.maximum.reduce(x), -np.minimum.reduce(x)) if x.size else 0.0


@dataclass(frozen=True)
class QuantizedChunk:
    """Encoded tensor: scheme tag, per-block scales (Q8 only) and payload bytes.

    The constructor checks a chunk built from wire bytes or by hand: that
    the fields have the types and ranges the wire header holds and fit
    together, that the scales lie in [+0, ``_SCALE_MAX``] and that no Q8 code
    is -128. It raises ``MalformedChunk`` when they do not. The encoders
    build their chunks with ``_valid``, which checks nothing, since each has
    checked its input and made every field valid by construction.
    The constructor keeps a read-only fp32 ``scales`` array as it is and
    copies anything else (a writable array, a list) into a read-only fp32
    array. ``payload`` stays ``bytes`` when it is ``bytes``;
    a read-only, C-contiguous buffer (a read-only array, a view of bytes) is
    kept as a ``memoryview`` of format ``"B"``, not a copy, and anything
    else (a ``bytearray``, a writable array) is copied once into ``bytes``.
    Whoever built a kept array or buffer must not write it afterwards. A
    chunk that was built stays valid and no use checks it again.
    """

    scheme: Scheme
    num_elements: int
    block_size: int
    scales: np.ndarray
    payload: bytes | memoryview

    def __post_init__(self):
        try:
            scales = np.asarray(self.scales, np.float32)
            # copied when writable, as a writable payload is, so that its
            # owner cannot change the chunk
            scales = scales.copy() if scales.flags.writeable else scales
            if not isinstance(self.payload, bytes):
                view = memoryview(self.payload)
                # format "B", so that it equals bytes with the same content
                payload = view.cast("B") if view.readonly and view.c_contiguous else bytes(view)
                object.__setattr__(self, "payload", payload)
        except (TypeError, ValueError):
            raise MalformedChunk("scales must be fp32 numbers and payload a buffer") from None
        if scales.ndim != 1:
            raise MalformedChunk(f"scales must be a vector, got {scales.ndim} dimensions")
        scales.flags.writeable = False
        object.__setattr__(self, "scales", scales)
        # the ranges the wire header holds
        for key, hi in (("num_elements", 2**64), ("block_size", 2**32)):
            object.__setattr__(self, key, checked_int(getattr(self, key), key, MalformedChunk, 0, hi))
        # _layout refuses an unknown scheme, so the cast cannot fail
        want = _layout(self.scheme, self.num_elements, self.block_size)
        object.__setattr__(self, "scheme", Scheme(as_int(self.scheme)))
        if (scales.size, len(self.payload)) != want:
            raise MalformedChunk(
                f"{self.scheme.name} chunk needs {want[0]} scales and {want[1]} payload "
                f"bytes, got {scales.size} and {len(self.payload)}"
            )
        # Only Q8 has scales. Read as unsigned integers, the bit patterns of
        # the fp32 values in [+0, _SCALE_MAX] keep their order, and every
        # other value (-0, a negative, Inf, NaN) has a larger one, so one
        # reduction checks the range.
        if scales.size and not scales.view(np.uint32).max() <= _SCALE_MAX_BITS:
            raise MalformedChunk(f"scales must lie in [+0, {_SCALE_MAX}]")
        # A chunk with scales is Q8 and has codes. The encoder never writes
        # -128, which would decode beyond roundtrip_error_bound, and to -Inf
        # at the largest scale.
        if scales.size and np.frombuffer(self.payload, np.int8).min() == -128:
            raise MalformedChunk("Q8 codes must lie in [-127, 127], got -128")

    @classmethod
    def _valid(cls, scheme, num_elements, block_size, scales, payload) -> "QuantizedChunk":
        """The chunk of the fields an encoder made valid, without a check:
        ``scheme`` a ``Scheme``, ``num_elements`` and ``block_size`` ints the
        header holds that fit the layout, ``scales`` an fp32 vector in
        [+0, ``_SCALE_MAX``] and ``payload`` a C-contiguous array, Q8 codes
        in [-127, 127]. Both arrays become read-only, and the payload is kept
        as a byte view, as the constructor keeps them."""
        scales.flags.writeable = payload.flags.writeable = False
        chunk = object.__new__(cls)
        vars(chunk).update(
            scheme=scheme, num_elements=num_elements, block_size=block_size,
            scales=scales, payload=memoryview(payload).cast("B"),
        )
        return chunk


@dataclass(frozen=True)
class CodecPolicy:
    """The settings of ``encode``'s scheme selection: tensors with at least
    q8_threshold elements go 8-bit, in blocks of block_size.

    ``lossless=True`` selects F32_RAW for every tensor: an exact fp32 wire,
    the lossless anchor, over which a collaborative round is to match a
    single-node step bit for bit. ``lossless`` is a Python or numpy bool,
    kept as a Python one; any other value raises ``ConfigError``.
    """

    q8_threshold: int = 65536
    block_size: int = DEFAULT_BLOCK_SIZE
    lossless: bool = False

    def __post_init__(self):
        # block_size: the range a chunk header holds
        for key, hi in (("q8_threshold", np.inf), ("block_size", 2**32)):
            object.__setattr__(self, key, checked_int(getattr(self, key), key, ConfigError, 1, hi))
        # an integer is no bool, as a bool is no integer (as_int): nothing
        # is taken by its truthiness
        if not isinstance(self.lossless, (bool, np.bool_)):
            raise ConfigError(f"lossless must be a bool, got {self.lossless!r}")
        object.__setattr__(self, "lossless", bool(self.lossless))


# Elements per run of whole blocks in _pieces, rounded to blocks. The
# optimizer step's seven fp32 arrays per piece (slices of w, g and r, the m
# and sqrt(v) buffers, two work buffers) are 1.75 MiB at 2**16 and stay in a
# 2 MiB L2 cache; there 2**15 to 2**17 ran the 8-bit LAMB step equally fast,
# 2**15 to 2**16 encoded fastest, and 2**16 makes half as many encoder calls.
_GROUP = 1 << 16
_SMALLEST_NORMAL = np.finfo(np.float32).tiny


def _pieces(n: int, block_size: int) -> list[tuple[int, int]]:
    """The (start, stop) of each piece of an n-element Q8 vector, in order:
    runs of whole blocks of at most ``_GROUP`` elements (at least one
    block), then the partial last block, if any, as a piece of its own."""
    full = n - n % block_size
    group = max(1, _GROUP // block_size) * block_size
    pieces = [(start, min(start + group, full)) for start in range(0, full, group)]
    return pieces + [(full, n)] if full < n else pieces


def _quantize_into(x, start, block_size, scales, codes, quot, rounded) -> None:
    """Quantize ``x``, the piece [start, start + x.size) of a tensor, into
    that piece's blocks of the tensor's ``scales`` and ``codes``. ``quot``
    and ``rounded`` are fp32 work buffers of at least x.size elements."""
    bs, n = block_size, x.size
    stop = start + n
    scales, codes = scales[start // bs : -(-stop // bs)], codes[start:stop]
    x = x.reshape(-1, min(n, bs))  # one block per row
    quot, rounded = quot[:n].reshape(x.shape), rounded[:n].reshape(x.shape)
    np.abs(x, out=quot)
    np.maximum.reduce(quot, axis=1, out=scales)
    np.divide(scales, np.float32(127), out=scales)
    # NaN fails this comparison as well as Inf and too large a scale
    if not np.maximum.reduce(scales) <= _SCALE_MAX:
        if not np.isfinite(scales).all():
            raise NonFiniteInput("tensor contains NaN or Inf")
        raise OverflowToInfinity("127 * scale of a block exceeds the fp32 maximum")
    divisor = scales
    subnormal = np.minimum.reduce(scales) < _SMALLEST_NORMAL
    if subnormal:
        # A zero scale means |x| <= 127 * 2**-150 in its block, which rounds
        # to code 0 when divided by 1, so no block divides by zero.
        divisor = np.where(scales == 0, np.float32(1), scales)
    np.divide(x, divisor[:, None], out=quot)
    if subnormal:
        # only a subnormal scale lets |x / scale| pass 127 * (1 + 2**-23)
        np.minimum(quot, 127, out=quot)
        np.maximum(quot, -127, out=quot)
    np.rint(quot, out=rounded)
    # Division rounds monotonically and fp32 holds every half-integer, so
    # the fp32 and float64 quotients fall on the same side of each one, and
    # round to the same code, unless the fp32 quotient is a half-integer.
    # Only those elements are divided again, in float64 as specified.
    np.subtract(quot, rounded, out=quot)
    np.abs(quot, out=quot)
    if np.maximum.reduce(quot, None) == 0.5:
        rows, cols = np.nonzero(quot == 0.5)
        rounded[rows, cols] = np.rint(
            x[rows, cols].astype(np.float64) / divisor[rows].astype(np.float64)
        )
    np.copyto(codes, rounded.reshape(-1), casting="unsafe")


def quantize_q8(t: TensorBuf, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedChunk:
    """Blockwise absmax quantization to signed bytes.

    Per block: scale = absmax/127 (fp32), code = round-half-to-even(x/scale)
    clamped to [-127, 127], with x/scale divided in float64 against the
    stored fp32 scale, so codes are reproducible bit-for-bit everywhere.
    The division runs in fp32, which rounds to the same code except where
    the fp32 quotient is exactly a half-integer; only those elements are
    divided again in float64. A block whose 127 * scale overflows fp32
    raises ``OverflowToInfinity``, since it would decode to Inf.

    The tensor is encoded piece by piece (``_pieces``): runs of whole
    blocks of at most ``_GROUP`` elements, then the partial last block.
    Besides the payload and scales, it allocates 8 bytes of work buffer per
    element of the largest piece, so its transient memory is the payload
    and a fixed amount.
    The chunk keeps the codes array as its payload, read-only.
    """
    # refuses, naming the value given, a block_size that _pieces cannot take
    # or the header cannot hold
    count, size = _layout(Scheme.Q8_BLOCKWISE, t.num_elements, block_size)
    x, n, block_size = t.data, t.num_elements, as_int(block_size)
    scales, codes = np.empty(count, np.float32), np.empty(size, np.int8)
    pieces = _pieces(n, block_size)
    quot, rounded = np.empty((2, max((b - a for a, b in pieces), default=0)), np.float32)
    for start, stop in pieces:
        _quantize_into(x[start:stop], start, block_size, scales, codes, quot, rounded)
    return QuantizedChunk._valid(Scheme.Q8_BLOCKWISE, n, block_size, scales, codes)


def dequantize_q8(c: QuantizedChunk) -> TensorBuf:
    """Decode a Q8 chunk: x_i = code_i * scale of its block, in fp32.

    The output is the only tensor-sized allocation. It is decoded piece by
    piece, so that a piece is still in cache when it is scaled.
    """
    if c.scheme != Scheme.Q8_BLOCKWISE:
        raise MalformedChunk(f"dequantize_q8 got scheme {c.scheme!r}")
    out = np.empty(c.num_elements, np.float32)
    for start, stop in _pieces(c.num_elements, c.block_size):
        _dequantize_into(c, start, stop, out[start:stop])
    return TensorBuf(out)


def _dequantize_into(c: QuantizedChunk, start: int, stop: int, out: np.ndarray) -> None:
    """Decode the piece [start, stop) of a Q8 chunk into the fp32 ``out``.

    The codes are read in place from the payload and cast into ``out``,
    which holds every one exactly, and ``out`` is scaled in place by one
    broadcast multiply.
    """
    bs, count = c.block_size, stop - start
    scales = c.scales[start // bs : -(-stop // bs)]
    np.copyto(out, np.frombuffer(c.payload, np.int8, count, start))
    blocks = out.reshape(-1, min(count, bs))
    np.multiply(blocks, scales[:, None], out=blocks)


def _encode_float(t: TensorBuf, scheme: Scheme) -> QuantizedChunk:
    """Encode a tensor that the caller found finite, and in range, as the
    float scheme's payload type. The chunk keeps the converted array as its
    payload, read-only."""
    payload = t.data.astype(_FLOAT_DTYPES[scheme])
    return QuantizedChunk._valid(scheme, t.num_elements, 0, np.zeros(0, np.float32), payload)


def _decode_float(c: QuantizedChunk, scheme: Scheme) -> TensorBuf:
    if c.scheme != scheme:
        raise MalformedChunk(f"expected a {scheme.name} chunk, got scheme {c.scheme!r}")
    return TensorBuf(np.frombuffer(c.payload, dtype=_FLOAT_DTYPES[scheme]).astype(np.float32))


def encode_f16(t: TensorBuf) -> QuantizedChunk:
    """Encode as IEEE binary16 (round-to-nearest-even). NaN or Inf anywhere
    raises ``NonFiniteInput``; else a finite |x| > 65504 raises
    ``OverflowToInfinity``."""
    # NaN if x holds one: the one max/min pair decides both errors
    top = _absmax(t.data)
    if not top <= F16_MAX:
        if top < np.inf:
            raise OverflowToInfinity(f"|x| exceeds binary16 max finite {F16_MAX}")
        raise NonFiniteInput("tensor contains NaN or Inf")
    return _encode_float(t, Scheme.F16)


def decode_f16(c: QuantizedChunk) -> TensorBuf:
    return _decode_float(c, Scheme.F16)


def encode(t: TensorBuf, policy: CodecPolicy = CodecPolicy()) -> QuantizedChunk:
    """Encode ``t`` in the scheme the policy selects from its element count
    alone: every tensor as F32_RAW when ``policy.lossless``; else a tensor of
    at least ``policy.q8_threshold`` elements as Q8 in blocks of
    ``policy.block_size`` (``quantize_q8``), and a smaller one, an empty one
    too, as F16 (``encode_f16``). So the choice is monotone in the count: no
    larger tensor goes back to F16. Every scheme refuses NaN and Inf with
    ``NonFiniteInput``, the lossless F32_RAW too."""
    if policy.lossless:
        return _encode_float(t.require_finite(), Scheme.F32_RAW)
    if t.num_elements >= policy.q8_threshold:
        return quantize_q8(t, policy.block_size)
    return encode_f16(t)


def decode(c: QuantizedChunk) -> TensorBuf:
    if c.scheme == Scheme.Q8_BLOCKWISE:
        return dequantize_q8(c)
    if c.scheme == Scheme.F16:
        return decode_f16(c)
    return _decode_float(c, Scheme.F32_RAW)


def encoded_size(scheme: Scheme, n: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Wire size in bytes of an n-element chunk, header included."""
    n = checked_int(n, "n", MalformedChunk)
    scale_count, payload_bytes = _layout(scheme, n, block_size)
    return HEADER_BYTES + 4 * scale_count + payload_bytes


def chunk_to_bytes(c: QuantizedChunk) -> bytes:
    """A chunk's wire bytes: the header, the scales and the payload."""
    head = _HEADER.pack(MAGIC, int(c.scheme), c.num_elements, c.block_size, c.scales.size)
    return b"".join((head, c.scales.astype("<f4", copy=False), c.payload))


def _buffer(raw) -> memoryview:
    """The bytes of the buffer ``raw`` as one flat view of format ``"B"``, so
    that lengths and offsets count bytes whatever its item type. An object
    that is not a buffer, or a buffer that is not C-contiguous or was
    released, raises ``MalformedChunk``."""
    try:
        return memoryview(raw).cast("B")
    except (TypeError, ValueError):  # ValueError: a released memoryview
        name = type(raw).__name__
        raise MalformedChunk(f"expected a C-contiguous bytes-like buffer, got {name}") from None


def chunk_from_bytes(raw: bytes) -> QuantizedChunk:
    """The chunk in the buffer ``raw``. Its scales and payload view ``raw``
    when ``raw`` is read-only; the constructor copies each of them once
    when it is writable."""
    view = _buffer(raw)
    if len(view) < HEADER_BYTES:
        raise MalformedChunk(f"chunk shorter than header: {len(view)} bytes")
    magic, scheme, n, block_size, scale_count = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise MalformedChunk(f"bad magic {magic!r}")
    off = HEADER_BYTES + 4 * scale_count
    if len(view) < off:
        raise MalformedChunk("truncated scales")
    scales = np.frombuffer(view[HEADER_BYTES:off], dtype="<f4")
    return QuantizedChunk(scheme, n, block_size, scales, view[off:])


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
    away from x. It allocates per element, not per block: the last block
    is repeated only as often as it has elements.
    """
    if c.scheme != Scheme.Q8_BLOCKWISE:
        raise MalformedChunk("error bound is defined for Q8 chunks")
    per_block = c.scales.astype(np.float64) * _ERR_PER_SCALE + _ERR_UNDERFLOW
    counts = np.minimum(c.block_size, c.num_elements - c.block_size * np.arange(per_block.size))
    return np.repeat(per_block, counts)
