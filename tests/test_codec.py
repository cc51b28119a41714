"""Tensor codec: scheme selection, Q8 blockwise quantization, binary16, wire layout."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmdesk import codec
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


class TestSelectScheme:
    def test_threshold_boundary(self):
        assert codec.select_scheme(65536) == Scheme.Q8_BLOCKWISE
        assert codec.select_scheme(65535) == Scheme.F16

    def test_zero_elements(self):
        assert codec.select_scheme(0) == Scheme.F16

    def test_lossless_policy_overrides(self):
        assert codec.select_scheme(1 << 20, CodecPolicy(lossless=True)) == Scheme.F32_RAW

    def test_monotone_in_n(self):
        policy = CodecPolicy(q8_threshold=100)
        schemes = [codec.select_scheme(n, policy) for n in range(0, 300, 7)]
        seen_q8 = False
        for s in schemes:
            if s == Scheme.Q8_BLOCKWISE:
                seen_q8 = True
            else:
                assert not seen_q8, "scheme flipped back below threshold"


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

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, 2.6793887e36])
    def test_scale_out_of_range_is_malformed(self, scale):
        # 2.6793887e36 is the least scale whose code 127 decodes to Inf
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(
                Scheme.Q8_BLOCKWISE, 2, 4, np.array([scale], np.float32), b"\x7f\x01"
            )

    def test_malformed_payload_length(self):
        with pytest.raises(MalformedChunk):
            codec.QuantizedChunk(
                Scheme.Q8_BLOCKWISE, 8, 4, np.array([1.0, 1.0], np.float32), bytes(5)
            )

    def test_chunk_cannot_change_after_it_is_built(self):
        scales, payload = np.array([1.0], np.float32), bytearray(b"\x7f\x01")
        c = codec.QuantizedChunk(Scheme.Q8_BLOCKWISE, 2, 4, scales, payload)
        with pytest.raises(ValueError, match="read-only"):
            c.scales[0] = np.nan
        payload[0] = 0
        assert c.payload == b"\x7f\x01"


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
        with pytest.raises(OverflowToInfinity):
            codec.encode_f16(TensorBuf([65505.0]))
        with pytest.raises(OverflowToInfinity):
            codec.encode_f16(TensorBuf([-65505.0]))

    def test_decode_exact_on_encoded(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000).astype(np.float32)
        c = codec.encode_f16(TensorBuf(x))
        out = codec.decode_f16(c).data
        assert np.array_equal(out, x.astype(np.float16).astype(np.float32))


class TestEncodedSize:
    def test_q8_single_block(self):
        size = codec.encoded_size(Scheme.Q8_BLOCKWISE, 4096, 4096)
        assert size == codec.HEADER_BYTES + 4096 + 4

    def test_f16_empty(self):
        assert codec.encoded_size(Scheme.F16, 0) == codec.HEADER_BYTES

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
                (codec.encode_f32, Scheme.F32_RAW),
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
            codec.encode_f32(t),
        ):
            back = codec.chunk_from_bytes(codec.chunk_to_bytes(chunk))
            assert back.scheme == chunk.scheme
            assert back.num_elements == chunk.num_elements
            assert back.payload == chunk.payload
            np.testing.assert_array_equal(back.scales, chunk.scales)

    def test_bad_magic(self):
        with pytest.raises(MalformedChunk):
            codec.chunk_from_bytes(b"XXXX" + bytes(20))

    def test_truncated(self):
        with pytest.raises(MalformedChunk):
            codec.chunk_from_bytes(b"TQC1" + bytes(4))

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


_FUZZ_X = TensorBuf(np.linspace(-3.0, 3.0, 37, dtype=np.float32))
_FUZZ_CHUNKS = [
    codec.chunk_to_bytes(c)
    for c in (codec.quantize_q8(_FUZZ_X, 8), codec.encode_f16(_FUZZ_X), codec.encode_f32(_FUZZ_X))
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
