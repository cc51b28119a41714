"""Tensor codec: scheme selection, Q8 blockwise quantization, binary16, wire layout."""

import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmdesk import codec, optim
from swarmdesk.codec import CodecPolicy, Scheme, TensorBuf
from swarmdesk.errors import MalformedChunk, NonFiniteInput, OverflowToInfinity, SwarmError

import oracle


def scalar_quantize_block(block, scale):
    """Independent scalar reference for one block: the formula, no vectorization."""
    out = []
    for x in block:
        if scale == 0.0:
            out.append(0)
            continue
        q = float(np.float64(x) / np.float64(scale))
        r = math.floor(q)
        frac = q - r
        if frac > 0.5:
            r += 1
        elif frac == 0.5 and r % 2 != 0:
            r += 1
        out.append(max(-127, min(127, r)))
    return out


def _scheme(n: int, policy: CodecPolicy = CodecPolicy()) -> Scheme:
    """The scheme ``encode`` selects for an n-element tensor."""
    return codec.encode(TensorBuf(np.zeros(n, np.float32)), policy).scheme


class TestSelectScheme:
    def test_threshold_boundary(self):
        assert _scheme(65536) == Scheme.Q8_BLOCKWISE
        assert _scheme(65535) == Scheme.F16

    def test_zero_elements(self):
        assert _scheme(0) == Scheme.F16

    def test_lossless_policy_overrides(self):
        assert _scheme(1 << 20, CodecPolicy(lossless=True)) == Scheme.F32_RAW

    def test_monotone_in_n(self):
        policy = CodecPolicy(q8_threshold=100)
        schemes = [_scheme(n, policy) for n in range(0, 300, 7)]
        seen_q8 = False
        for s in schemes:
            if s == Scheme.Q8_BLOCKWISE:
                seen_q8 = True
            else:
                assert not seen_q8, "scheme flipped back below threshold"

    @pytest.mark.parametrize(
        "policy, encoder, decoder",
        [
            (CodecPolicy(q8_threshold=4, block_size=3), "quantize_q8", "dequantize_q8"),
            (CodecPolicy(), "encode_f16", "decode_f16"),
        ],
        ids=["q8", "f16"],
    )
    def test_encode_and_decode_call_the_module_functions(self, policy, encoder, decoder):
        """``encode`` and ``decode`` reach each scheme's functions through
        the module's attributes, once each, so that a wrapper put there
        (as the benchmark's tracer puts one) sees every call."""
        t = TensorBuf(np.arange(5, dtype=np.float32))
        with mock.patch.object(codec, encoder, wraps=getattr(codec, encoder)) as enc, \
                mock.patch.object(codec, decoder, wraps=getattr(codec, decoder)) as dec:
            codec.decode(codec.encode(t, policy))
        assert (enc.call_count, dec.call_count) == (1, 1)


_LOSSLESS = CodecPolicy(lossless=True)


def _encode_f32(t: TensorBuf) -> codec.QuantizedChunk:
    """The F32_RAW chunk of ``t``, from ``encode``, its only encoder."""
    return codec.encode(t, _LOSSLESS)


def _raw_f32(t: TensorBuf) -> codec.QuantizedChunk:
    """The F32_RAW chunk of ``t``, built by hand from its little-endian bytes."""
    return codec.QuantizedChunk(
        Scheme.F32_RAW, t.num_elements, 0, np.zeros(0, np.float32), t.data.astype("<f4").tobytes()
    )


def _released() -> memoryview:
    """A view that can no longer be read."""
    view = memoryview(bytes(40))
    view.release()
    return view


_CODERS = {
    Scheme.Q8_BLOCKWISE: (lambda t: codec.quantize_q8(t, 8), codec.dequantize_q8),
    Scheme.F16: (codec.encode_f16, codec.decode_f16),
    Scheme.F32_RAW: (_raw_f32, lambda c: TensorBuf(np.frombuffer(c.payload, "<f4"))),
}


@pytest.mark.parametrize(
    "policy, n, scheme",
    [
        (CodecPolicy(q8_threshold=20, block_size=8), 20, Scheme.Q8_BLOCKWISE),
        (CodecPolicy(q8_threshold=20, block_size=8), 19, Scheme.F16),
        (CodecPolicy(q8_threshold=20, lossless=True), 20, Scheme.F32_RAW),
        (CodecPolicy(), 0, Scheme.F16),
    ],
    ids=["q8", "f16", "lossless", "empty"],
)
def test_encode_and_decode_dispatch_on_the_scheme(policy, n, scheme):
    """``encode`` uses the policy's scheme and ``decode`` the chunk's."""
    t = TensorBuf(np.linspace(-2.0, 3.0, n, dtype=np.float32))
    encode, decode = _CODERS[scheme]
    c = codec.encode(t, policy)
    assert c.scheme == scheme
    assert codec.chunk_to_bytes(c) == codec.chunk_to_bytes(encode(t))
    assert codec.decode(c).data.tobytes() == decode(c).data.tobytes()


class TestQuantizeQ8:
    def test_reference_block(self):
        # scale = 2/127, codes = [64, -127, 32] per the scalar reference
        t = TensorBuf([1.0, -2.0, 0.5])
        c = codec.quantize_q8(t, block_size=4096)
        scale = np.float32(2.0) / np.float32(127.0)
        assert c.scales[0] == scale
        codes = np.frombuffer(c.payload, np.int8)
        assert codes.tolist() == [64, -127, 32]
        assert codes.tolist() == scalar_quantize_block([1.0, -2.0, 0.5], float(scale))

    def test_all_zero_tensor(self):
        t = TensorBuf(np.zeros(100, np.float32))
        c = codec.quantize_q8(t, block_size=16)
        assert np.all(c.scales == 0.0)
        assert np.frombuffer(c.payload, np.int8).tolist() == [0] * 100
        np.testing.assert_array_equal(codec.dequantize_q8(c).data, np.zeros(100))

    def test_roundtrip_error_bound_gaussian(self):
        rng = np.random.default_rng(2021)
        x = rng.standard_normal(100_000).astype(np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=4096)
        deq = codec.dequantize_q8(c).data
        err = np.abs(x.astype(np.float64) - deq.astype(np.float64))
        bound = codec.roundtrip_error_bound(c)
        assert np.all(err <= bound)

    @pytest.mark.parametrize("n, block_size", [(0, 4), (3, 4), (8, 4), (9, 4), (10, 1), (5000, 64)])
    def test_error_bound_is_each_block_s_bound_per_element(self, n, block_size):
        """Each element gets its block's bound, bit for bit, the last block's
        elements too."""
        x = np.random.default_rng(n).standard_normal(n).astype(np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size)
        per_block = c.scales.astype(np.float64) * codec._ERR_PER_SCALE + codec._ERR_UNDERFLOW
        want = np.array([per_block[i // block_size] for i in range(n)], np.float64)
        assert codec.roundtrip_error_bound(c).tobytes() == want.tobytes()

    def test_error_bound_allocates_per_element_not_per_block(self):
        """Three elements in a block of 2**20: the bound takes a few bytes
        per element, not 8 bytes for each of the block's 2**20 slots."""
        c = codec.quantize_q8(TensorBuf([1.0, -2.0, 0.5]), 1 << 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bound = codec.roundtrip_error_bound(c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert bound.size == 3
        assert peak < 4096

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(37) * 10).astype(np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=8)
        codes = np.frombuffer(c.payload, np.int8)
        offset = 0
        for b, scale in enumerate(c.scales):
            block = x[offset : offset + 8]
            assert codes[offset : offset + 8].tolist() == scalar_quantize_block(
                block, float(scale)
            )
            offset += 8

    def test_exact_ties_round_half_to_even(self):
        # x = (j + 1/2) * scale is exact in fp32 and divides to an exact tie;
        # multiplying by the rounded inverse of this scale misses 80 of them
        scale = 49 * 2.0**-12
        x = np.array([127 * scale] + [(j + 0.5) * scale for j in range(-127, 127)], np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=x.size)
        assert c.scales[0] == np.float32(scale)
        codes = np.frombuffer(c.payload, np.int8).tolist()
        assert codes == scalar_quantize_block(x, scale)
        assert codes[1:4] == [-126, -126, -124]

    def test_fp32_tie_is_divided_again_in_float64(self):
        # 81.905716 / 0.8069529 is 101.4999966 in float64 but rounds to
        # exactly 101.5 in fp32, whose round-half-to-even would give 102
        x = np.array([102.48302, 81.905716], np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=2)
        assert c.scales[0] == np.float32(0.8069529)
        assert x[1] / c.scales[0] == np.float32(101.5)
        assert np.frombuffer(c.payload, np.int8).tolist() == [127, 101]

    def test_sign_preservation(self):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(5000) * 3).astype(np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=64)
        deq = codec.dequantize_q8(c).data
        s = np.sign(deq)
        assert np.all((s == np.sign(x)) | (s == 0))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInput):
                codec.quantize_q8(TensorBuf([1.0, bad]), 4)

    @pytest.mark.parametrize("block_size", [0, 2.5, None, True])
    def test_rejects_malformed_block_size(self, block_size):
        """The refusal names the value given, not what it became."""
        with pytest.raises(MalformedChunk, match=rf"got {re.escape(repr(block_size))}$"):
            codec.quantize_q8(TensorBuf([1.0]), block_size)

    @pytest.mark.parametrize("top", [3.4028235e38, -3.4028235e38])
    def test_rejects_overflow_of_127_scales(self, top):
        # 127 * (absmax / 127) rounds past the fp32 maximum: it would decode to Inf
        with pytest.raises(OverflowToInfinity):
            codec.quantize_q8(TensorBuf([top, -1.0]), 4)

    def test_largest_finite_decode_round_trips(self):
        x = np.array([3.4028233e38, -1.0], np.float32)
        c = codec.quantize_q8(TensorBuf(x), 4)
        back = codec.dequantize_q8(c).data
        assert np.isfinite(back).all()
        assert np.all(np.abs(x.astype(np.float64) - back) <= codec.roundtrip_error_bound(c))

    def test_scale_max_is_the_overflow_boundary(self):
        with np.errstate(over="ignore"):
            assert np.isfinite(np.float32(127) * codec._SCALE_MAX)
            above = np.nextafter(codec._SCALE_MAX, np.float32(np.inf))
            assert np.isinf(np.float32(127) * above)

    def test_partial_final_block(self):
        x = np.arange(10, dtype=np.float32)
        c = codec.quantize_q8(TensorBuf(x), block_size=4)
        assert c.scales.size == 3
        assert len(c.payload) == 10
        deq = codec.dequantize_q8(c).data
        assert deq.size == 10


class TestDequantizeQ8:
    def test_direct_arithmetic(self):
        scale = np.float32(2.0) / np.float32(127.0)
        c = codec.QuantizedChunk(
            Scheme.Q8_BLOCKWISE, 1, 4096, np.array([scale], np.float32),
            np.array([64], np.int8).tobytes(),
        )
        out = codec.dequantize_q8(c).data
        assert out[0] == pytest.approx(1.007874, abs=1e-6)

    def test_zero_scale_block(self):
        c = codec.QuantizedChunk(
            Scheme.Q8_BLOCKWISE, 3, 4, np.array([0.0], np.float32), b"\x00\x00\x00"
        )
        np.testing.assert_array_equal(codec.dequantize_q8(c).data, np.zeros(3))

    def test_malformed_scale_count(self):
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(
                Scheme.Q8_BLOCKWISE, 8, 4, np.array([1.0], np.float32), bytes(8)
            )

    @pytest.mark.parametrize("scale", [
        np.nan, np.inf, -1.0, 2.6793887e36, -0.0, -np.inf,
        pytest.param(np.uint32(0xFFC00000).view(np.float32), id="nan-with-sign-bit"),
    ])
    def test_scale_out_of_range_is_malformed(self, scale):
        # 2.6793887e36 is the least scale whose code 127 decodes to Inf
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(
                Scheme.Q8_BLOCKWISE, 2, 4, np.array([scale], np.float32), b"\x7f\x01"
            )

    @pytest.mark.parametrize("scale", [0.0, codec._SCALE_MAX])
    def test_scale_range_ends_are_accepted(self, scale):
        scales = np.array([scale, scale], np.float32)
        c = codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 5, 4, scales, b"\x7f\x01\x81\x00\x7f")
        assert np.isfinite(codec.dequantize_q8(c).data).all()

    @pytest.mark.parametrize("at", [0, 3])
    def test_code_minus_128_is_malformed(self, at):
        """The encoder writes codes in [-127, 127]. A -128 is refused where
        the chunk is built, also from wire bytes; at the largest scale it
        would decode to -Inf."""
        payload = bytearray(b"\x01\x02\x03\x04")
        payload[at] = 0x80
        scales = np.array([codec._SCALE_MAX], np.float32)
        with pytest.raises(MalformedChunk, match="-128"):
            codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 4, 4, scales, bytes(payload))
        head = codec._HEADER.pack(codec.MAGIC, Scheme.Q8_BLOCKWISE, 4, 4, 1)
        with pytest.raises(MalformedChunk, match="-128"):
            codec.chunk_from_bytes(head + scales.tobytes() + bytes(payload))

    def test_malformed_payload_length(self):
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(
                Scheme.Q8_BLOCKWISE, 8, 4, np.array([1.0, 1.0], np.float32), bytes(5)
            )

    @pytest.mark.parametrize(
        "scheme, n, block_size, scales, payload",
        [
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 2.5, [0.0, 0.0], bytes(3), id="q8-block_size=2.5"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 0, [], bytes(3), id="q8-block_size=0"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 2**32, [0.0], bytes(3), id="q8-block_size=2**32"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, True, [0.0] * 3, bytes(3), id="q8-block_size=True"),
            pytest.param(Scheme.Q8_BLOCKWISE, None, 4, [0.0], bytes(3), id="num_elements=None"),
            pytest.param(Scheme.Q8_BLOCKWISE, -1, 4, [], b"", id="num_elements=-1"),
            pytest.param(Scheme.Q8_BLOCKWISE, 2**64, 4, [], b"", id="num_elements=2**64"),
            pytest.param(Scheme.F16, 2.0, 0, [], bytes(4), id="f16-num_elements=2.0"),
            pytest.param(Scheme.F16, 2, None, [], bytes(4), id="f16-block_size=None"),
            pytest.param(Scheme.F16, 2, -1, [], bytes(4), id="f16-block_size=-1"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 4, [[0.0]], bytes(3), id="2-D-scales"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 4, "a", bytes(3), id="scales=a"),
            pytest.param(Scheme.Q8_BLOCKWISE, 3, 4, [0.0], None, id="payload=None"),
        ],
    )
    def test_malformed_fields_are_refused(self, scheme, n, block_size, scales, payload):
        """Each field is refused when the chunk is built, not later by a
        decoder or the wire writer with a bare error."""
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(scheme, n, block_size, scales, payload)

    @pytest.mark.parametrize(
        "use", [codec.dequantize_q8, codec.roundtrip_error_bound, codec.decode_f16]
    )
    def test_chunk_of_another_scheme_is_refused(self, use):
        t = TensorBuf([1.0, -2.0])
        other = _encode_f32(t) if use is codec.decode_f16 else codec.encode_f16(t)
        with pytest.raises(MalformedChunk):
            use(other)

    def test_chunk_cannot_change_after_it_is_built(self):
        scales, payload = np.array([1.0], np.float32), bytearray(b"\x7f\x01")
        c = codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 2, 4, scales, payload)
        with pytest.raises(ValueError, match="read-only"):
            c.scales[0] = np.nan
        payload[0] = 0
        assert c.payload == b"\x7f\x01"
        # the writable scales array was copied, as the writable payload was
        scales[0] = np.inf
        assert c.scales.tolist() == [1.0]
        assert codec.decode(c).data.tolist() == [127.0, 1.0]
        assert codec.chunk_from_bytes(codec.chunk_to_bytes(c)) == c

    def test_read_only_payload_is_kept_and_writable_is_copied(self):
        scales = np.array([1.0], np.float32)
        codes = np.array([127, -1], np.int8)
        copied = codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 2, 4, scales, codes)
        assert isinstance(copied.payload, bytes)
        assert not np.shares_memory(np.frombuffer(copied.payload, np.int8), codes)
        codes.flags.writeable = False
        kept = codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 2, 4, scales, codes)
        assert np.shares_memory(np.frombuffer(kept.payload, np.int8), codes)
        assert kept.payload.readonly and kept.payload.format == "B"
        # a byte view of negative codes equals the same bytes
        assert kept.payload == copied.payload == b"\x7f\xff"

    def test_encoded_negative_codes_equal_the_oracle_bytes(self):
        x = TensorBuf(np.array([1.0, -2.0, -0.5, 0.25], np.float32))
        c, want = codec.quantize_q8(x, 2), oracle.quantize_q8(x, 2)
        assert isinstance(c.payload, memoryview) and isinstance(want.payload, bytes)
        assert min(np.frombuffer(c.payload, np.int8)) < 0
        assert c.payload == want.payload
        assert codec.chunk_from_bytes(codec.chunk_to_bytes(c)).payload == want.payload


class TestF16:
    def test_exact_one(self):
        c = codec.encode_f16(TensorBuf([1.0]))
        assert codec.decode_f16(c).data[0] == 1.0

    def test_one_third_reference(self):
        # reference binary16 conversion of 1/3
        c = codec.encode_f16(TensorBuf([1 / 3]))
        assert codec.decode_f16(c).data[0] == np.float32(0.333251953125)

    def test_max_finite_boundary(self):
        c = codec.encode_f16(TensorBuf([65504.0]))
        assert codec.decode_f16(c).data[0] == 65504.0
        # 65519 would round to 65504, 65520 to Inf: both are past 65504
        for past in (65505.0, -65505.0, 65519.0, 65520.0, -65520.0):
            with pytest.raises(OverflowToInfinity):
                codec.encode_f16(TensorBuf([past]))

    def test_decode_exact_on_encoded(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000).astype(np.float32)
        c = codec.encode_f16(TensorBuf(x))
        out = codec.decode_f16(c).data
        assert np.array_equal(out, x.astype(np.float16).astype(np.float32))

    @pytest.mark.parametrize("encode", [codec.encode_f16, _encode_f32])
    @pytest.mark.parametrize(
        "values",
        [[1.0, np.nan], [7e4, np.nan], [np.nan, -7e4], [np.inf, -7e4], [np.inf], [-np.inf]],
    )
    def test_float_encoders_reject_nonfinite(self, encode, values):
        """NaN and Inf are refused as such, also beside a value past 65504."""
        with pytest.raises(NonFiniteInput):
            encode(TensorBuf(values))

    @pytest.mark.parametrize("encode", [codec.encode_f16, _encode_f32])
    def test_float_encoders_take_an_empty_tensor(self, encode):
        c = encode(TensorBuf(np.zeros(0, np.float32)))
        assert (c.num_elements, c.scales.size, len(c.payload)) == (0, 0, 0)

    @pytest.mark.parametrize("encode, itemsize", [(_encode_f32, 4), (codec.encode_f16, 2)])
    def test_float_encoders_copy_once(self, encode, itemsize):
        """The converted array is the payload; nothing else tensor-sized is
        allocated (the input is 4 bytes per element)."""
        x = TensorBuf(np.random.default_rng(1).standard_normal(1 << 20).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            c = encode(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(c.payload) == itemsize * x.num_elements
        assert peak < 1.25 * len(c.payload)


class TestEncodedSize:
    def test_q8_single_block(self):
        size = codec.encoded_size(Scheme.Q8_BLOCKWISE, 4096, 4096)
        assert size == codec.HEADER_BYTES + 4096 + 4

    def test_f16_empty(self):
        assert codec.encoded_size(Scheme.F16, 0) == codec.HEADER_BYTES

    @pytest.mark.parametrize(
        "n, block_size", [(10, 0), (10, 2.5), (-1, 8), (None, 8), (10, True), (True, 8)]
    )
    def test_malformed_sizes_are_refused(self, n, block_size):
        with pytest.raises(MalformedChunk):
            codec.encoded_size(Scheme.Q8_BLOCKWISE, n, block_size)

    def test_unknown_scheme_is_refused(self):
        with pytest.raises(MalformedChunk):
            codec.encoded_size(7, 10)

    def test_q8_megabyte_ratio(self):
        n = 1 << 20
        size = codec.encoded_size(Scheme.Q8_BLOCKWISE, n, 4096)
        assert size == 1048576 + 1024 + codec.HEADER_BYTES
        assert abs(size / (4 * n) - 0.2502) < 1e-3

    def test_matches_actual_bytes(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 100, 5000):
            t = TensorBuf(rng.standard_normal(n).astype(np.float32))
            for make, scheme in (
                (lambda u: codec.quantize_q8(u, 256), Scheme.Q8_BLOCKWISE),
                (codec.encode_f16, Scheme.F16),
                (_encode_f32, Scheme.F32_RAW),
            ):
                raw = codec.chunk_to_bytes(make(t))
                assert len(raw) == codec.encoded_size(scheme, n, 256)


class TestWireLayout:
    def test_header_fields(self):
        t = TensorBuf(np.arange(5, dtype=np.float32))
        raw = codec.chunk_to_bytes(codec.quantize_q8(t, 4))
        assert raw[:4] == b"TQC1"
        scheme, n, block, count = struct.unpack_from("<B3xQII", raw, 4)
        assert (scheme, n, block, count) == (1, 5, 4, 2)

    def test_roundtrip_all_schemes(self):
        rng = np.random.default_rng(9)
        t = TensorBuf(rng.standard_normal(300).astype(np.float32))
        for chunk in (
            codec.quantize_q8(t, 32),
            codec.encode_f16(t),
            _encode_f32(t),
        ):
            back = codec.chunk_from_bytes(codec.chunk_to_bytes(chunk))
            assert back.scheme == chunk.scheme
            assert back.num_elements == chunk.num_elements
            assert back.payload == chunk.payload
            np.testing.assert_array_equal(back.scales, chunk.scales)

    def test_read_only_bytes_are_viewed_and_writable_ones_copied(self):
        """A chunk read from read-only bytes views its scales and payload in
        them; one read from a writable buffer copies both, so that writing
        the buffer afterwards does not change it."""
        raw = codec.chunk_to_bytes(codec.quantize_q8(TensorBuf([1.0, -0.5, 2.0]), 2))
        kept, whole = codec.chunk_from_bytes(raw), np.frombuffer(raw, np.uint8)
        assert np.shares_memory(kept.scales, whole)
        assert np.shares_memory(np.frombuffer(kept.payload, np.uint8), whole)
        buf = bytearray(raw)
        copied = codec.chunk_from_bytes(buf)
        buf[codec.HEADER_BYTES:] = b"\xff" * (len(buf) - codec.HEADER_BYTES)
        assert codec.chunk_to_bytes(copied) == raw

    def test_bad_magic(self):
        with pytest.raises(MalformedChunk):
            codec.chunk_from_bytes(b"XXXX" + bytes(20))

    def test_truncated(self):
        with pytest.raises(MalformedChunk):
            codec.chunk_from_bytes(b"TQC1" + bytes(4))

    @pytest.mark.parametrize(
        "raw",
        ["TQC1" + "\0" * 40, None, 7,
         # every other byte of a twice-repeated valid chunk: its bytes, strided
         np.repeat(np.frombuffer(codec.chunk_to_bytes(codec.encode_f16(TensorBuf([1.0]))),
                                 np.uint8), 2)[::2],
         _released()],
        ids=["str", "None", "int", "strided", "released"],
    )
    def test_non_buffer_is_malformed(self, raw):
        """Anything but a C-contiguous buffer is refused, also a strided
        view of valid chunk bytes and a released view."""
        with pytest.raises(MalformedChunk, match="bytes-like buffer"):
            codec.chunk_from_bytes(raw)

    @pytest.mark.parametrize(
        "view",
        [lambda raw: np.frombuffer(raw, np.uint32), lambda raw: memoryview(raw).cast("H"),
         lambda raw: np.frombuffer(raw, np.uint32).reshape(2, -1)],
        ids=["uint32", "cast-H", "2-D"],
    )
    @pytest.mark.parametrize("encode", [_encode_f32, lambda t: codec.quantize_q8(t, 4)],
                             ids=["f32", "q8"])
    def test_wide_item_views_read_as_their_bytes(self, view, encode):
        """A buffer is measured and sliced in bytes, whatever its item type."""
        raw = codec.chunk_to_bytes(encode(TensorBuf(np.linspace(-1.0, 1.0, 8, dtype=np.float32))))
        assert len(raw) % 8 == 0  # whole uint32 items, in two rows
        got, want = codec.chunk_from_bytes(view(raw)), codec.chunk_from_bytes(raw)
        assert codec.chunk_to_bytes(got) == codec.chunk_to_bytes(want) == raw
        assert codec.decode(got).data.tobytes() == codec.decode(want).data.tobytes()

    def test_determinism(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(10000).astype(np.float32)
        a = codec.chunk_to_bytes(codec.quantize_q8(TensorBuf(x), 512))
        b = codec.chunk_to_bytes(codec.quantize_q8(TensorBuf(x.copy()), 512))
        assert a == b


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, width=32, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=64),
)
def test_q8_roundtrip_bound_property(values, block_size):
    x = np.array(values, dtype=np.float32)
    c = codec.quantize_q8(TensorBuf(x), block_size)
    deq = codec.dequantize_q8(c).data
    err = np.abs(x.astype(np.float64) - deq.astype(np.float64))
    bound = codec.roundtrip_error_bound(c)
    assert np.all(err <= bound)
    s = np.sign(deq)
    assert np.all((s == np.sign(x)) | (s == 0))


class TestErrorBound:
    def test_covers_decode_rounding(self):
        # x / scale is just above 30.5, so x gets code 31, and decode's fp32
        # rounding of 31 * scale lands farther from x than half a scale.
        absmax, x = np.float32(2.6835622787475586), np.float32(0.6444775462150574)
        c = codec.quantize_q8(TensorBuf([absmax, x]), block_size=2)
        assert c.scales[0] == np.float32(0.021130410954356194)
        assert np.frombuffer(c.payload, np.int8).tolist() == [127, 31]
        err = abs(float(x) - float(codec.dequantize_q8(c).data[1]))
        assert err > float(c.scales[0]) / 2
        assert err <= codec.roundtrip_error_bound(c)[1]

    @pytest.mark.parametrize(
        "units", [[190, -3], [1], [127, 64]], ids=["clipped", "zero-scale", "exact"]
    )
    def test_covers_scale_underflow(self, units):
        # values in units of the smallest fp32 subnormal, 2**-149: absmax / 127
        # rounds to a zero or subnormal scale, and 190 units clip at code 127
        x = np.array(units, np.float64) * 2.0**-149
        c = codec.quantize_q8(TensorBuf(x.astype(np.float32)), block_size=len(units))
        err = np.abs(x - codec.dequantize_q8(c).data)
        assert np.all(err <= codec.roundtrip_error_bound(c))


def _assert_same_q8(x: np.ndarray, block_size: int):
    c = codec.quantize_q8(TensorBuf(x), block_size)
    want = oracle.quantize_q8(TensorBuf(x), block_size)
    assert c.payload == want.payload
    assert c.scales.tobytes() == want.scales.tobytes()
    back = codec.dequantize_q8(c).data
    assert back.tobytes() == oracle.dequantize_q8(want).data.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-(2.0**100), max_value=2.0**100, width=32, allow_nan=False),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=70),
    st.sampled_from([1, 5, 64, codec._GROUP]),
)
def test_q8_bytes_match_whole_tensor_oracle(values, block_size, group):
    """Grouped encode/decode equals the zero-padded whole-tensor version,
    at group sizes (in elements) that cut the tensor into many groups."""
    with mock.patch.object(codec, "_GROUP", group):
        _assert_same_q8(np.array(values, np.float32), block_size)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=300),
    st.sampled_from([1, 5, 64, 1000, codec._GROUP]),
)
def test_pieces_are_runs_of_whole_blocks_then_the_partial_block(n, block_size, group):
    """The pieces tile [0, n) in order. Each is whole blocks, at most a
    group of them (at least one block), or it is the one partial block,
    last."""
    with mock.patch.object(codec, "_GROUP", group):
        pieces = codec._pieces(n, block_size)
    edges = [0] + [stop for _, stop in pieces]
    assert [start for start, _ in pieces] == edges[:-1] and edges[-1] == n
    for i, (start, stop) in enumerate(pieces):
        assert start % block_size == 0
        if (stop - start) % block_size:
            assert i == len(pieces) - 1 and stop - start < block_size
        else:
            assert block_size <= stop - start <= max(group, block_size)


@pytest.mark.parametrize(
    "n, block_size",
    [
        (2 * codec._GROUP + 3 * 4096 + 5, 4096),
        (codec._GROUP + 3, 1),
        (codec._GROUP + 100, 64),
        (3 * 4096, 4096),
        (97, 4096),
        (0, 8),
    ],
)
def test_q8_bytes_match_oracle_across_groups(n, block_size):
    rng = np.random.default_rng(n)
    x = (rng.standard_normal(n) * 10.0 ** rng.integers(-40, 30, n)).astype(np.float32)
    x[::11] = 0.0
    _assert_same_q8(x, block_size)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2**23, max_value=2**24 - 1),
    st.integers(min_value=-100, max_value=80),
    st.lists(
        st.tuples(st.integers(min_value=-127, max_value=126), st.integers(min_value=-3, max_value=3)),
        min_size=1,
        max_size=40,
    ),
)
def test_q8_near_ties_match_oracle(mantissa, exponent, near):
    """Blocks of x = (k + 1/2) * s * (1 + j * 2**-24), s the block's scale:
    the fp32 quotient x / s of many of them is exactly k + 1/2 while the
    float64 one is not."""
    top = np.float32(127 * mantissa * 2.0**exponent)
    s = float(top / np.float32(127))
    x = np.array([top] + [(k + 0.5) * s * (1 + j * 2.0**-24) for k, j in near], np.float32)
    _assert_same_q8(x, x.size)


# A block whose absmax is 127 * _TIE_SCALE has the scale _TIE_SCALE, and
# its x = (k + 1/2) * _TIE_SCALE * (1 + j * 2**-24) lie on or next to ties.
_TIE_SCALE = float(np.float32(127 * 12582917 * 2.0**-30) / np.float32(127))
_NEAR_TIE = st.builds(
    lambda k, j: (k + 0.5) * _TIE_SCALE * (1 + j * 2.0**-24),
    st.integers(-127, 126),
    st.integers(-3, 3),
)
_ODD_VALUES = [0.0, -0.0, 2.0**-149, -(2.0**-149), 2.0**-126, 2.0**126, -(2.0**126), 65504.0]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    block_size=st.integers(min_value=1, max_value=70),
    group=st.sampled_from([1, 5, 64, codec._GROUP]),
)
def test_encoding_is_deterministic(data, block_size, group):
    """An input, a copy of it and a strided view of it encode to the same
    wire bytes under every scheme. Values are zeros of both signs,
    subnormals, large magnitudes, or blocks of near-ties."""
    if data.draw(st.booleans(), label="near_ties"):
        x = np.array(data.draw(st.lists(_NEAR_TIE, max_size=300)), np.float32)
        x[::block_size] = 127 * _TIE_SCALE
    else:
        plain = st.floats(-(2.0**126), 2.0**126, width=32) | st.sampled_from(_ODD_VALUES)
        x = np.array(data.draw(st.lists(plain, max_size=300)), np.float32)
    strided = np.zeros((x.size, 3), np.float32)
    strided[:, 1] = x
    encoders = [
        lambda t: codec.quantize_q8(t, block_size),
        lambda t: codec.encode_f16(TensorBuf(np.clip(t.data, -codec.F16_MAX, codec.F16_MAX))),
        _encode_f32,
    ]
    with mock.patch.object(codec, "_GROUP", group):
        for encode in encoders:
            wire = [codec.chunk_to_bytes(encode(TensorBuf(v))) for v in (x, x.copy(), strided[:, 1])]
            assert wire[0] == wire[1] == wire[2]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-65504, max_value=65504, width=32, allow_nan=False),
        max_size=100,
    )
)
def test_f16_roundtrip_is_projection(values):
    x = np.array(values, dtype=np.float32)
    once = codec.decode_f16(codec.encode_f16(TensorBuf(x))).data
    twice = codec.decode_f16(codec.encode_f16(TensorBuf(once))).data
    assert np.array_equal(once, twice)


def _assert_constructor_rebuilds(c: codec.QuantizedChunk):
    """The public constructor, with every check, accepts the fields of a
    chunk an encoder built without them, and keeps them as they are."""
    back = codec.QuantizedChunk(c.scheme, c.num_elements, c.block_size, c.scales, c.payload)
    for key in ("scheme", "num_elements", "block_size"):
        got, want = getattr(back, key), getattr(c, key)
        assert type(got) is type(want) and got == want, key
    for x in (c, back):
        assert x.scales.dtype == np.float32 and x.scales.ndim == 1
        assert not x.scales.flags.writeable
        assert type(x.payload) is memoryview and x.payload.format == "B" and x.payload.readonly
    assert back.scales.tobytes() == c.scales.tobytes()
    assert bytes(back.payload) == bytes(c.payload)


# Blocks of the kinds an encoder's checks stand in for: zero, a scale that
# underflows to zero or a subnormal, near _SCALE_MAX, and plain values.
_BLOCK_KINDS = {
    "zero": lambda rng, k: np.zeros(k),
    "subnormal": lambda rng, k: rng.uniform(-1.0, 1.0, k) * 10.0 ** rng.integers(-44, -37),
    "near_max": lambda rng, k: np.append(3.4028233e38 * rng.choice([-1.0, 1.0]),
                                         rng.uniform(-3.4e38, 3.4e38, k - 1)),
    "plain": lambda rng, k: rng.standard_normal(k),
}


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    block_size=st.sampled_from([1, 2, 3, 7, 16, 64, 4096]),
    kinds=st.lists(st.sampled_from(sorted(_BLOCK_KINDS)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    group=st.sampled_from([1, 5, 64, codec._GROUP]),
)
def test_encoded_q8_chunks_pass_the_constructor(n, block_size, kinds, seed, group):
    """``quantize_q8`` builds its chunk without the constructor's checks;
    the constructor would accept it unchanged."""
    rng = np.random.default_rng(seed)
    blocks = [
        _BLOCK_KINDS[kinds[i % len(kinds)]](rng, min(block_size, n - start))
        for i, start in enumerate(range(0, n, block_size))
    ]
    x = np.concatenate([np.zeros(0), *blocks]).astype(np.float32)
    with mock.patch.object(codec, "_GROUP", group):
        _assert_constructor_rebuilds(codec.quantize_q8(TensorBuf(x), block_size))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-65504, max_value=65504, width=32), max_size=100),
    st.sampled_from([codec.encode_f16, _encode_f32]),
)
def test_encoded_float_chunks_pass_the_constructor(values, encode):
    _assert_constructor_rebuilds(encode(TensorBuf(np.array(values, np.float32))))


@settings(max_examples=100, deadline=None)
@given(
    algo=st.sampled_from(["adam", "lamb"]),
    n=st.integers(min_value=0, max_value=300),
    block_size=st.sampled_from([1, 3, 64, 4096]),
    scale=st.sampled_from([1e-30, 1.0, 1e15]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepped_8bit_moments_pass_the_constructor(algo, n, block_size, scale, seed):
    """The new m and v of an 8-bit Adam or LAMB step, built by the state
    walk without the constructor's checks, pass them unchanged."""
    rng = np.random.default_rng(seed)
    cfg = getattr(optim.OptimConfig, algo)(state_bits=8, block_size=block_size)
    w = TensorBuf(rng.standard_normal(n).astype(np.float32))
    st8 = optim.init_state(n, cfg)
    for _ in range(2):
        g = TensorBuf((rng.standard_normal(n) * scale).astype(np.float32))
        w, st8 = optim.optimizer_step(w, g, st8, cfg, 0.01)
        _assert_constructor_rebuilds(st8.m)
        _assert_constructor_rebuilds(st8.v)


_FUZZ_X = TensorBuf(np.linspace(-3.0, 3.0, 37, dtype=np.float32))
_FUZZ_CHUNKS = [
    codec.chunk_to_bytes(c)
    for c in (codec.quantize_q8(_FUZZ_X, 8), codec.encode_f16(_FUZZ_X), _encode_f32(_FUZZ_X))
]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mangled_chunk_raises_only_swarm_errors(data):
    """Random, cut and byte-mutated wire bytes decode or raise a SwarmError."""
    raw = bytearray(
        data.draw(st.sampled_from(_FUZZ_CHUNKS) | st.binary(max_size=64).map(codec.MAGIC.__add__))
    )
    for at, byte in data.draw(
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)), max_size=8)
    ):
        raw[at] = byte
    raw = bytes(raw[: data.draw(st.integers(0, len(raw)))]) + data.draw(st.binary(max_size=16))
    try:
        codec.decode(codec.chunk_from_bytes(raw))
    except SwarmError:
        pass
