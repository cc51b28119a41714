"""Optimizers: schedule shape, Adam/LAMB steps vs scalar oracles, layer partitions,
8-bit state, config validation and checkpoints."""

import math
import os
import re
import struct
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from swarmdesk import codec, optim, tasks
from swarmdesk.codec import TensorBuf
from swarmdesk.errors import (
    ChecksumMismatch,
    ConfigError,
    MalformedChunk,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    StepOutOfRange,
    SwarmError,
)
from swarmdesk.optim import (
    Algorithm,
    OptimConfig,
    OptimState,
    ScheduleConfig,
    adam_step,
    init_state,
    lamb_step,
    lr_at,
    pack_state,
    trust_ratio,
    unpack_state,
)

import oracle


def scalar_adam(w, g_fn, steps, lr_fn, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar-loop Adam in float64, used as the trajectory oracle."""
    m = [0.0] * len(w)
    v = [0.0] * len(w)
    w = list(w)
    for t in range(1, steps + 1):
        g = g_fn(w)
        lr = lr_fn(t - 1)
        for i in range(len(w)):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            w[i] = w[i] - lr * mhat / (math.sqrt(vhat) + eps)
    return w


class TestSchedule:
    def test_paper_shape(self):
        s = ScheduleConfig()
        assert s.warmup_steps == 3125
        assert lr_at(0, s) == 0.0
        assert lr_at(3125, s) == 2.5e-3
        assert lr_at(31250, s) == 0.0

    def test_interpolated_point(self):
        s = ScheduleConfig()
        assert lr_at(17188, s) == pytest.approx(1.24996e-3, rel=1e-4)

    def test_out_of_range(self):
        s = ScheduleConfig(total_steps=10)
        for step in (-1, 11, None, 2.5, True):
            with pytest.raises(StepOutOfRange):
                lr_at(step, s)

    def test_piecewise_linear_closed_form(self):
        s = ScheduleConfig(total_steps=1000, warmup_fraction=0.2, peak_lr=0.01,
                           end_lr=0.001)
        w = 200
        rng = np.random.default_rng(0)
        for step in rng.integers(0, 1001, size=100):
            step = int(step)
            if step <= w:
                want = 0.01 * step / w
            else:
                t = (step - w) / (1000 - w)
                want = 0.01 * (1 - t) + 0.001 * t
            got = lr_at(step, s)
            assert got == pytest.approx(want, abs=1e-18, rel=1e-15)

    def test_peak_attained_exactly_once(self):
        s = ScheduleConfig(total_steps=100, warmup_fraction=0.3, peak_lr=0.123)
        hits = [step for step in range(101) if lr_at(step, s) == 0.123]
        assert hits == [30]

    def test_warmup_to_the_last_step_ends_at_peak(self):
        """warmup_fraction=1.0 puts the peak at total_steps, where the decay
        has no steps left to divide by."""
        s = ScheduleConfig(total_steps=10, warmup_fraction=1.0, peak_lr=0.123)
        assert lr_at(10, s) == 0.123
        assert lr_at(5, s) == 0.123 * 0.5

    def test_continuity(self):
        s = ScheduleConfig(total_steps=500, warmup_fraction=0.1, peak_lr=1.0)
        lrs = [lr_at(k, s) for k in range(501)]
        jumps = np.abs(np.diff(lrs))
        steepest = max(1.0 / 50, 1.0 / 450)  # warmup slope dominates here
        assert jumps.max() <= steepest + 1e-12


class TestAdam:
    def test_first_step_hand_arithmetic(self):
        w = TensorBuf([0.0])
        g = TensorBuf([1.0])
        cfg = OptimConfig.adam()
        st = init_state(1, cfg)
        new_w, new_st = adam_step(w, g, st, cfg, lr=0.1)
        assert new_w.data[0] == pytest.approx(-0.0999999999, abs=1e-8)
        assert new_st.step == 1

    def test_zero_gradient_no_move(self):
        cfg = OptimConfig.adam()
        w = TensorBuf([1.0, -2.0, 3.0])
        st = init_state(3, cfg)
        new_w, _ = adam_step(w, TensorBuf([0.0, 0.0, 0.0]), st, cfg, 0.1)
        np.testing.assert_array_equal(new_w.data, w.data)

    def test_converges_on_quadratic_vs_scalar_oracle(self):
        rng = np.random.default_rng(42)
        w_star = rng.standard_normal(8)
        w0 = rng.standard_normal(8)
        sched = ScheduleConfig(total_steps=500, warmup_fraction=0.1, peak_lr=0.3)

        oracle = scalar_adam(
            w0, lambda w: [wi - ti for wi, ti in zip(w, w_star)], 500,
            lambda k: lr_at(k, sched),
        )
        assert math.sqrt(sum((a - b) ** 2 for a, b in zip(oracle, w_star))) < 1e-3

        cfg = OptimConfig.adam()
        w = TensorBuf(w0.astype(np.float32))
        st = init_state(8, cfg)
        for k in range(500):
            g = TensorBuf((w.data - w_star.astype(np.float32)).astype(np.float32))
            w, st = adam_step(w, g, st, cfg, lr_at(k, sched))
        assert np.linalg.norm(w.data - w_star) < 1e-3
        np.testing.assert_allclose(w.data, oracle, atol=2e-4)

    def test_shape_mismatch(self):
        cfg = OptimConfig.adam()
        st = init_state(2, cfg)
        with pytest.raises(ShapeMismatch):
            adam_step(TensorBuf([1.0, 2.0]),
                      TensorBuf([1.0]), st, cfg, 0.1)

    def test_nonfinite_gradient(self):
        cfg = OptimConfig.adam()
        st = init_state(1, cfg)
        with pytest.raises(NonFiniteGradient):
            adam_step(TensorBuf([0.0]),
                      TensorBuf([np.nan]), st, cfg, 0.1)

    @pytest.mark.parametrize("beta2", [0.999, 0.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("bits", [32, 8])
    def test_gradient_whose_square_overflows_is_refused(self, bits, sign, beta2):
        """A finite |g| >= 2**64 squares to Inf in fp32, which would freeze
        its weight for good, and with beta2 = 0 8-bit state decodes the
        sqrt(v) of the largest fp32 below 2**64 as 2**64; so the bound is
        2**63. The largest fp32 below 2**63 steps from a fresh state to a
        finite state, and on from there."""
        cfg = OptimConfig.adam(state_bits=bits, beta2=beta2)
        w, st = TensorBuf(np.ones(4, np.float32)), init_state(4, cfg)
        with pytest.raises(NonFiniteGradient):
            adam_step(w, TensorBuf([sign * 2.0**63, 1.0, 1.0, 1.0]), st, cfg, 0.1)
        below = np.nextafter(np.float32(2.0**63), np.float32(0.0))
        new_w, new_st = adam_step(w, TensorBuf([sign * below, 1.0, 1.0, 1.0]), st, cfg, 0.1)
        new_w, new_st = adam_step(new_w, TensorBuf(np.ones(4, np.float32)), new_st, cfg, 0.1)
        new_st = unpack_state(new_st)
        for buf in (new_w, codec.decode(new_st.m), codec.decode(new_st.v)):
            assert np.isfinite(buf.data).all()

    @pytest.mark.parametrize("state_n", [3, 7], ids=["shorter", "longer"])
    @pytest.mark.parametrize("bits", [32, 8])
    @pytest.mark.parametrize("algo", ["adam", "lamb"])
    def test_state_of_another_length_is_refused(self, algo, bits, state_n):
        """Without the check, shorter fp32 state would leave the last
        weights' directions uninitialized, and longer state would raise
        numpy's bare ValueError."""
        cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=4)
        w = TensorBuf(np.ones(5, np.float32))
        with pytest.raises(ShapeMismatch, match="optimizer state sized"):
            optim.optimizer_step(w, w, init_state(state_n, cfg), cfg, 0.1)

    def test_deterministic(self):
        cfg = OptimConfig.adam(weight_decay=0.01)
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal(64).astype(np.float32)
        g = TensorBuf(rng.standard_normal(64).astype(np.float32))
        outs = []
        for _ in range(2):
            w, st = TensorBuf(w0.copy()), init_state(64, cfg)
            for _ in range(10):
                w, st = adam_step(w, g, st, cfg, 0.01)
            outs.append(w.data.tobytes())
        assert outs[0] == outs[1]


class TestLamb:
    def test_zero_norm_ratio_convention(self):
        assert trust_ratio(0.0, 5.0, (0.0, 10.0)) == 1.0
        assert trust_ratio(5.0, 0.0, (0.0, 10.0)) == 1.0

    def test_single_scalar_hand_arithmetic(self):
        cfg = OptimConfig.lamb(beta1=0.0, beta2=0.0)
        st = init_state(1, cfg)
        w, _ = lamb_step(TensorBuf([1.0]), TensorBuf([1.0]),
                         st, cfg, lr=0.1)
        assert w.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_unit_trust_clip_matches_adam_direction(self):
        rng = np.random.default_rng(17)
        w0 = rng.standard_normal(32).astype(np.float32)
        g = TensorBuf(rng.standard_normal(32).astype(np.float32))
        adam_cfg = OptimConfig.adam(weight_decay=0.02)
        lamb_cfg = OptimConfig.lamb(beta2=0.999, weight_decay=0.02,
                                    trust_clip=(1.0, 1.0))
        wa, _ = adam_step(TensorBuf(w0.copy()), g, init_state(32, adam_cfg),
                          adam_cfg, 0.05)
        wl, _ = lamb_step(TensorBuf(w0.copy()), g, init_state(32, lamb_cfg),
                          lamb_cfg, 0.05)
        assert wa.data.tobytes() == wl.data.tobytes()

    def test_trust_ratio_scales_with_weight_norm(self):
        # power-of-two factor keeps the fp division exact
        base = trust_ratio(3.0, 7.0, (0.0, 1e9))
        assert trust_ratio(12.0, 7.0, (0.0, 1e9)) == 4.0 * base

    def test_per_layer_ratios_differ(self):
        cfg = OptimConfig.lamb()
        w = TensorBuf([10.0, 10.0, 0.01, 0.01])
        g = TensorBuf([1.0, 1.0, 1.0, 1.0])
        layers = (("big", 0, 2), ("small", 2, 4))
        st = init_state(4, cfg)
        out, _ = lamb_step(w, g, st, cfg, 0.1, layers=layers)
        step_big = 10.0 - out.data[0]
        step_small = 0.01 - out.data[2]
        assert step_big > step_small * 10

    @pytest.mark.parametrize("bits", [32, 8])
    def test_direction_beyond_fp32_norm_range_steps(self, bits):
        """With beta2 = 0, a zero gradient after a large one leaves v at 0
        and m large, so r = mhat / eps passes 2**64, and the sum of squares
        of its norm overflows fp32. The norm is taken in float64: the step
        moves w by lr * ||w|| against r, with no overflow warning."""
        cfg = OptimConfig.lamb(beta2=0.0, state_bits=bits)
        w, st = lamb_step(TensorBuf([1.0]), TensorBuf([4e11]), init_state(1, cfg), cfg, 0.01)
        w2, _ = lamb_step(w, TensorBuf([0.0]), st, cfg, 0.01)
        assert w2.data[0] == pytest.approx(0.99 * w.data[0], rel=1e-6)

    def test_monotone_loss_on_quadratic(self):
        rng = np.random.default_rng(23)
        w_star = rng.standard_normal(16).astype(np.float32)
        for cfg in (OptimConfig.adam(), OptimConfig.lamb()):
            w = TensorBuf(np.zeros(16, np.float32))
            st = init_state(16, cfg)
            losses = []
            for _ in range(200):
                diff = w.data - w_star
                losses.append(0.5 * float(diff @ diff))
                g = TensorBuf(diff)
                w, st = optim.optimizer_step(w, g, st, cfg, 0.01)
            assert all(b <= a + 1e-7 for a, b in zip(losses, losses[1:]))


def _peak(fn, *args):
    """The most memory that ``fn(*args)`` allocated at once, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Beyond its output (and, for a walk over the state, the four piece-sized
# fp32 buffers) a pack, unpack or checkpoint read allocates numpy's cast
# buffers and a few objects.
_SLACK = 1 << 17


class TestPackedState:
    def test_fresh_zero_state(self):
        cfg = OptimConfig.adam(state_bits=8)
        st = init_state(100, cfg)
        assert st.packed
        assert np.all(st.m.scales == 0.0)
        un = unpack_state(st)
        np.testing.assert_array_equal(codec.decode(un.m).data, np.zeros(100))
        np.testing.assert_array_equal(codec.decode(un.v).data, np.zeros(100))

    @pytest.mark.parametrize("n, block_size", [(0, 8), (1, 8), (100, 16), (4096 + 5, 4096)])
    def test_zero_state_is_quantized_zeros(self, n, block_size):
        st = init_state(n, OptimConfig.lamb(state_bits=8, block_size=block_size))
        want = codec.chunk_to_bytes(codec.quantize_q8(TensorBuf(np.zeros(n)), block_size))
        assert codec.chunk_to_bytes(st.m) == codec.chunk_to_bytes(st.v) == want

    def test_roundtrip_within_codec_bound(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal(5000).astype(np.float32)
        v = (rng.standard_normal(5000).astype(np.float32)) ** 2
        st = _fp32_state(m, v, step=3)
        packed = pack_state(st, block_size=256)
        un = unpack_state(packed)
        un_m, un_v = codec.decode(un.m).data, codec.decode(un.v).data
        assert np.all(np.abs(m - un_m) <= codec.roundtrip_error_bound(packed.m))
        root_err = np.abs(np.sqrt(v) - np.sqrt(un_v))
        assert np.all(root_err <= codec.roundtrip_error_bound(packed.v) + 1e-7)
        assert np.all(un_v >= 0.0)

    def test_pack_unpack_idempotent_bytes(self):
        rng = np.random.default_rng(37)
        m = rng.standard_normal(2048).astype(np.float32)
        v = (rng.standard_normal(2048) ** 2).astype(np.float32)
        st = _fp32_state(m, v)
        p1 = pack_state(st)
        p2 = pack_state(unpack_state(p1))
        assert codec.chunk_to_bytes(p1.m) == codec.chunk_to_bytes(p2.m)
        assert codec.chunk_to_bytes(p1.v) == codec.chunk_to_bytes(p2.v)

    def test_v_stays_nonnegative_through_cycles(self):
        rng = np.random.default_rng(41)
        v = np.abs(rng.standard_normal(1000)).astype(np.float32) * 1e-4
        st = _fp32_state(np.zeros(1000, np.float32), v)
        for _ in range(3):
            st = unpack_state(pack_state(st))
            assert np.all(codec.decode(st.v).data >= 0.0)

    def test_state_nbytes_counts_the_moment_buffers(self):
        n, bs = 100, 16
        st = init_state(n, OptimConfig.adam())
        assert optim.state_nbytes(st) == 8 * n
        packed = pack_state(st, bs)
        assert optim.state_nbytes(packed) == 2 * (n + 4 * 7)  # codes and 7 scales each

    @settings(max_examples=200, deadline=None)
    @given(
        n=hs.integers(0, 300),
        block_size=hs.sampled_from([1, 3, 64, 4096]),
        group=hs.sampled_from([1, 5, 64]),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_pack_and_unpack_match_the_oracle(self, n, block_size, group, seed):
        """Bit for bit against the whole-vector oracle, with a group small
        enough for many pieces and a partial last block. v may be negative,
        which packing clamps to 0; whole blocks may be zero."""
        rng = np.random.default_rng(seed)
        m, v = (rng.standard_normal((2, n)) * 10.0 ** rng.integers(-20, 20, (2, 1))).astype(np.float32)
        m[: rng.integers(0, n + 1)] = 0.0
        st = _fp32_state(m, v, step=int(rng.integers(0, 9)))
        with mock.patch.object(codec, "_GROUP", group):
            packed = pack_state(st, block_size)
            assert _same_state(packed, oracle.pack_state(st, 8, block_size))
            assert _same_state(unpack_state(packed), oracle.unpack_state(packed))

    def _state_1m(self):
        n = 1 << 20
        rng = np.random.default_rng(71)
        m, v = rng.standard_normal((2, n)).astype(np.float32)
        return n, _fp32_state(m, v * v, step=3)

    def test_pack_peak_is_its_output_and_piece_buffers(self):
        n, st = self._state_1m()
        count, size = codec._layout(codec.Scheme.Q8_BLOCKWISE, n, codec.DEFAULT_BLOCK_SIZE)
        output = 2 * (size + 4 * count)
        pieces = 4 * 4 * codec._GROUP
        assert _peak(pack_state, st) <= output + pieces + _SLACK

    def test_unpack_peak_is_its_output_and_piece_buffers(self):
        n, st = self._state_1m()
        packed = pack_state(st)
        pieces = 4 * 4 * codec._GROUP
        assert _peak(unpack_state, packed) <= 2 * 4 * n + pieces + _SLACK

    @pytest.mark.parametrize("block_size", [0, 2.5, None, True, 2**32])
    @pytest.mark.parametrize("bits", [32, 8])
    def test_malformed_block_size_is_a_config_error_naming_it(self, bits, block_size):
        """Whatever the state's encoding, as ``OptimConfig`` refuses it."""
        st = init_state(5, OptimConfig(state_bits=bits, block_size=4))
        with pytest.raises(ConfigError, match=rf"got {re.escape(repr(block_size))}$"):
            pack_state(st, block_size)

    def test_8bit_lamb_tracks_fp32_on_quadratic(self):
        rng = np.random.default_rng(43)
        w_star = rng.standard_normal(100).astype(np.float32)
        sched = ScheduleConfig(total_steps=500, warmup_fraction=0.1, peak_lr=0.25)
        finals = {}
        for bits in (32, 8):
            cfg = OptimConfig.lamb(state_bits=bits)
            w = TensorBuf(np.zeros(100, np.float32))
            st = init_state(100, cfg)
            for k in range(500):
                g = TensorBuf(w.data - w_star)
                w, st = lamb_step(w, g, st, cfg, lr_at(k, sched))
            finals[bits] = w.data
        rel = np.linalg.norm(finals[8] - finals[32]) / np.linalg.norm(finals[32])
        assert rel <= 1e-2
        for bits in (32, 8):
            assert np.linalg.norm(finals[bits] - w_star) / np.linalg.norm(w_star) <= 1e-3


class TestCheckpoint:
    def test_roundtrip_fp32(self, tmp_path):
        rng = np.random.default_rng(53)
        cfg = OptimConfig.lamb(weight_decay=0.01)
        w = TensorBuf(rng.standard_normal(128).astype(np.float32))
        st = _fp32_state(
            rng.standard_normal(128).astype(np.float32),
            (rng.standard_normal(128) ** 2).astype(np.float32),
            step=17,
        )
        path = tmp_path / "opt.topt"
        optim.save_checkpoint(path, cfg, st, w)
        cfg2, st2, w2 = optim.load_checkpoint(path)
        assert cfg2 == cfg
        assert st2.step == 17
        np.testing.assert_array_equal(w2.data, w.data)
        assert _same_state(st2, st)

    def test_roundtrip_8bit_resumes_identically(self, tmp_path):
        rng = np.random.default_rng(59)
        cfg = OptimConfig.adam(state_bits=8)
        w = TensorBuf(rng.standard_normal(512).astype(np.float32))
        st = init_state(512, cfg)
        g = TensorBuf(rng.standard_normal(512).astype(np.float32))
        w, st = adam_step(w, g, st, cfg, 0.01)
        path = tmp_path / "opt8.topt"
        optim.save_checkpoint(path, cfg, st, w)
        _, st2, w2 = optim.load_checkpoint(path)
        wa, sta = adam_step(w, g, st, cfg, 0.01)
        wb, stb = adam_step(w2, g, st2, cfg, 0.01)
        assert wa.data.tobytes() == wb.data.tobytes()
        assert codec.chunk_to_bytes(sta.m) == codec.chunk_to_bytes(stb.m)

    def test_nonfinite_weights_are_not_saved(self, tmp_path):
        cfg = OptimConfig.lamb(state_bits=8)
        path = tmp_path / "c.topt"
        with pytest.raises(NonFiniteInput):
            optim.save_checkpoint(path, cfg, init_state(2, cfg), TensorBuf([1.0, np.nan]))
        assert os.listdir(tmp_path) == []

    def test_magic_check(self, tmp_path):
        """A valid checkpoint with only its magic changed, CRC recomputed."""
        path = tmp_path / "junk"
        path.write_bytes(_with_crc(b"NOPE" + _checkpoint_bytes(OptimConfig())[4:-4]))
        with pytest.raises(MalformedChunk, match="bad magic"):
            optim.load_checkpoint(path)

    def test_temporary_file_is_whole_when_synced(self, tmp_path):
        """Everything written is flushed before ``fsync``, which syncs only
        what the file already holds."""
        cfg = OptimConfig.lamb(state_bits=8)
        w = TensorBuf(np.ones(8, np.float32))
        sizes, fsync = [], os.fsync

        def recording_fsync(fd):
            sizes.append(os.fstat(fd).st_size)
            fsync(fd)

        with mock.patch.object(optim.os, "fsync", recording_fsync):
            optim.save_checkpoint(tmp_path / "c.topt", cfg, init_state(8, cfg), w)
        assert sizes == [len(_checkpoint_bytes(cfg))]


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


# F32_RAW chunks come from ``encode`` under this policy.
_LOSSLESS = codec.CodecPolicy(lossless=True)


def _unchecked_checkpoint(cfg, st, w) -> bytes:
    """The checkpoint ``checkpoint_parts`` writes, without its refusal of
    moments no run reaches, for the reader's own refusal to be tested."""
    with mock.patch.object(optim, "_require_reachable"):
        return b"".join(optim.checkpoint_parts(cfg, st, w))


# The header's fields after magic and version, in ``checkpoint_parts``'s order.
_HEAD_FIELDS = ("algorithm", "state_bits", "step", "beta1", "beta2", "epsilon", "weight_decay",
                "clip_min", "clip_max", "block_size", "n")
# What ``checkpoint_from_bytes`` says when the bytes are not the header's layout.
_LAYOUT_RULE = "header's layout takes"


def _with_header(raw: bytes, **fields) -> bytes:
    """The checkpoint ``raw`` with header ``fields`` set, its CRC fixed up."""
    magic, version, *values = optim._CKPT_HEAD.unpack_from(raw)
    values = dict(zip(_HEAD_FIELDS, values), **fields)
    head = optim._CKPT_HEAD.pack(magic, version, *values.values())
    return _with_crc(head + raw[optim._CKPT_HEAD.size : -4])


def _checkpoint_bytes(cfg, n=8):
    """The checkpoint of ``cfg``'s zero state for ``n`` weights of 1."""
    w = TensorBuf(np.ones(n, np.float32))
    return b"".join(optim.checkpoint_parts(cfg, init_state(n, cfg), w))


def _fp32_state(m, v, step=0) -> OptimState:
    """fp32 state of the arrays ``m`` and ``v``, as F32_RAW chunks."""
    m, v = (codec.encode(TensorBuf(x), _LOSSLESS) for x in (m, v))
    return OptimState(m, v, step)


def _same_state(a: OptimState, b: OptimState) -> bool:
    return a.step == b.step and all(
        (x.scheme, x.block_size) == (y.scheme, y.block_size)
        and x.scales.tobytes() == y.scales.tobytes()
        and x.payload == y.payload
        for x, y in ((a.m, b.m), (a.v, b.v))
    )


def _unit_clip(cfg):
    """Adam is LAMB with the trust ratio fixed at 1, over the whole vector."""
    return replace(cfg, trust_clip=(1.0, 1.0))


def _assert_steps_match_oracle(n, cfg, layers, steps, seed):
    """``steps`` grouped steps are bit-identical to the whole-vector oracle."""
    rng = np.random.default_rng(seed)
    w = w_ref = TensorBuf(rng.standard_normal(n).astype(np.float32))
    s = s_ref = init_state(n, cfg)
    for _ in range(steps):
        g = TensorBuf((rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2)).astype(np.float32))
        if cfg.algorithm == Algorithm.LAMB:
            w, s = lamb_step(w, g, s, cfg, 0.01, layers)
            w_ref, s_ref = oracle.lamb_step(w_ref, g, s_ref, cfg, 0.01, layers)
        else:
            w, s = adam_step(w, g, s, cfg, 0.01)
            w_ref, s_ref = oracle.lamb_step(w_ref, g, s_ref, _unit_clip(cfg), 0.01)
        assert w.data.tobytes() == w_ref.data.tobytes()
        assert _same_state(s, s_ref)


CONFIGS = [
    pytest.param(algo, bits, wd, id=f"{algo}{bits}-wd{wd}")
    for algo in ("adam", "lamb")
    for bits in (32, 8)
    for wd in (0.0, 0.01)
]


class TestGroupedStep:
    @pytest.mark.parametrize("algo, bits, wd", CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(
        n=hs.integers(0, 300),
        block_size=hs.sampled_from([1, 3, 8, 64, 4096]),
        group=hs.sampled_from([1, 5, 64, codec._GROUP]),
        cuts=hs.lists(hs.integers(0, 300), max_size=4),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_matches_whole_vector_oracle(self, algo, bits, wd, n, block_size, group, cuts, seed):
        """Small group sizes (in elements) cut the vector into many groups;
        random layer cuts straddle them."""
        cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=block_size, weight_decay=wd)
        edges = sorted({0, n, *(min(c, n) for c in cuts)})
        layers = tuple((f"l{i}", a, b) for i, (a, b) in enumerate(zip(edges, edges[1:])))
        with mock.patch.object(codec, "_GROUP", group):
            _assert_steps_match_oracle(n, cfg, layers, steps=3, seed=seed)

    @pytest.mark.parametrize("algo, bits, wd", CONFIGS)
    def test_matches_oracle_across_real_groups(self, algo, bits, wd):
        n = codec._GROUP + 4096 + 97
        cfg = getattr(OptimConfig, algo)(state_bits=bits, weight_decay=wd)
        layers = (("a", 0, 1000), ("b", 1000, codec._GROUP + 10), ("c", codec._GROUP + 10, n))
        _assert_steps_match_oracle(n, cfg, layers, steps=2, seed=bits)

    @pytest.mark.parametrize("bits", [32, 8])
    @pytest.mark.parametrize("algo", ["adam", "lamb"])
    @pytest.mark.parametrize("beta1, beta2", [(0.0, 0.95), (0.9, 0.0), (0.0, 0.0)])
    def test_zero_betas_match_oracle(self, beta1, beta2, algo, bits):
        """With a zero beta the step divides by 1 - 0**step, exactly 1,
        where the oracle skips the division: the bits are the same."""
        cfg = getattr(OptimConfig, algo)(
            beta1=beta1, beta2=beta2, state_bits=bits, block_size=8, weight_decay=0.01
        )
        layers = (("a", 0, 50), ("b", 50, 203))
        with mock.patch.object(codec, "_GROUP", 64):
            _assert_steps_match_oracle(203, cfg, layers, steps=3, seed=5)

    @pytest.mark.parametrize("n", [300, codec._GROUP + 4096 + 97])
    @pytest.mark.parametrize("state_bits", [32, 8], ids=["state32", "state8"])
    @pytest.mark.parametrize("bits", [32, 8])
    @pytest.mark.parametrize("algo", ["adam", "lamb"])
    def test_step_leaves_its_inputs_alone(self, algo, bits, state_bits, n):
        """The step writes only into memory it owns, also when the state
        comes in the other encoding than the config's."""
        rng = np.random.default_rng(n + bits)
        cfg = getattr(OptimConfig, algo)(state_bits=bits, weight_decay=0.01)
        w = TensorBuf(rng.standard_normal(n).astype(np.float32))
        g = TensorBuf(rng.standard_normal(n).astype(np.float32))
        st = _fp32_state(
            rng.standard_normal(n).astype(np.float32),
            (rng.standard_normal(n) ** 2).astype(np.float32),
            step=3,
        )
        st = pack_state(st, cfg.block_size) if state_bits == 8 else unpack_state(st)

        def snapshot():
            parts = [w.data.tobytes(), g.data.tobytes()]
            for buf in (st.m, st.v):
                parts += [buf.scales.tobytes(), bytes(buf.payload)]
            return parts

        before = snapshot()
        got_w, got_st = optim.optimizer_step(w, g, st, cfg, 0.01)
        assert snapshot() == before
        ref_cfg = cfg if algo == "lamb" else _unit_clip(cfg)
        want_w, want_st = oracle.lamb_step(w, g, st, ref_cfg, 0.01)
        assert got_w.data.tobytes() == want_w.data.tobytes()
        assert _same_state(got_st, want_st)

    def test_8bit_lamb_peak_below_fp32(self):
        n = 1 << 20
        rng = np.random.default_rng(61)
        w = TensorBuf(rng.standard_normal(n).astype(np.float32))
        g = TensorBuf(rng.standard_normal(n).astype(np.float32))
        peaks = {}
        for bits in (32, 8):
            cfg = OptimConfig.lamb(state_bits=bits)
            _, st = lamb_step(w, g, init_state(n, cfg), cfg, 0.01)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lamb_step(w, g, st, cfg, 0.01)
                peaks[bits] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[8] < peaks[32]
        # Per parameter: r, which becomes the new weights (4 bytes), and the
        # new m and v codes (1 byte each). Per element of a group: two work
        # buffers and the m and sqrt(v) buffers (16 bytes), and 4 more for
        # the scales and the rest.
        assert peaks[8] < 6 * n + 20 * codec._GROUP

    def test_chunks_built_per_step_do_not_grow_with_the_vector(self):
        """An 8-bit step builds two chunks, its new m and v, at 3 groups as
        at 10. Chunks are built by the constructor or, by encoders, with
        ``QuantizedChunk._valid``; both are counted."""
        cfg = OptimConfig.lamb(state_bits=8, block_size=16)
        built = []
        for groups in (3, 10):
            n = groups * codec._GROUP
            w = TensorBuf(np.linspace(-1.0, 1.0, n, dtype=np.float32))
            st = init_state(n, cfg)
            with mock.patch.object(
                codec.QuantizedChunk, "__post_init__", autospec=True,
                side_effect=codec.QuantizedChunk.__post_init__,
            ) as post_init, mock.patch.object(
                codec.QuantizedChunk, "_valid", wraps=codec.QuantizedChunk._valid,
            ) as valid:
                lamb_step(w, w, st, cfg, 0.01)
            built.append(post_init.call_count + valid.call_count)
        assert built == [2, 2]

    def test_packed_state_in_other_block_size_is_refused(self):
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        st = init_state(300, OptimConfig.lamb(state_bits=8, block_size=32))
        w = TensorBuf(np.ones(300, np.float32))
        with pytest.raises(ConfigError):
            lamb_step(w, w, st, cfg, 0.01)
        with pytest.raises(ConfigError):
            pack_state(st, block_size=64)
        assert pack_state(st, block_size=32) is st

    def test_fp32_lamb_peak_is_r_and_the_new_state(self):
        """Per parameter: r, which becomes the new weights, and the new m and
        v (12 bytes), and the four piece buffers: the old fp32 moments are
        read where they are, and the new ones become chunks without a copy."""
        n = 1 << 20
        rng = np.random.default_rng(61)
        w, g = (TensorBuf(x) for x in rng.standard_normal((2, n)).astype(np.float32))
        cfg = OptimConfig.lamb()
        _, st = lamb_step(w, g, init_state(n, cfg), cfg, 0.01)
        assert _peak(lamb_step, w, g, st, cfg, 0.01) <= 12 * n + 4 * 4 * codec._GROUP + _SLACK


@pytest.mark.parametrize("algo", ["adam", "lamb"])
@pytest.mark.parametrize("bits", [32, 8])
@settings(max_examples=25, deadline=None)
@given(
    n=hs.integers(0, 300),
    block_size=hs.sampled_from([1, 3, 8, 64, 4096]),
    group=hs.sampled_from([1, 5, 64, codec._GROUP]),
    cuts=hs.lists(hs.integers(0, 300), max_size=4),
    wd=hs.sampled_from([0.0, 0.01]),
    seed=hs.integers(0, 2**32 - 1),
)
def test_adam_and_lamb_step_force_their_algorithm(bits, algo, n, block_size, group, cuts, wd, seed):
    """``adam_step`` and ``lamb_step`` are ``optimizer_step`` with the
    algorithm forced, bit for bit, whichever algorithm the config names,
    and each matches the oracle of its own algorithm."""
    cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=block_size, weight_decay=wd)
    edges = sorted({0, n, *(min(c, n) for c in cuts)})
    layers = tuple((f"l{i}", a, b) for i, (a, b) in enumerate(zip(edges, edges[1:])))
    adam, lamb = replace(cfg, algorithm=Algorithm.ADAM), replace(cfg, algorithm=Algorithm.LAMB)
    rng = np.random.default_rng(seed)
    w = TensorBuf(rng.standard_normal(n).astype(np.float32))
    st = init_state(n, cfg)
    with mock.patch.object(codec, "_GROUP", group):
        for _ in range(3):
            g = TensorBuf((rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2)).astype(np.float32))
            runs = {
                Algorithm.ADAM: (
                    adam_step(w, g, st, cfg, 0.01),
                    optim.optimizer_step(w, g, st, adam, 0.01, layers),
                    oracle.lamb_step(w, g, st, _unit_clip(cfg), 0.01),
                ),
                Algorithm.LAMB: (
                    lamb_step(w, g, st, cfg, 0.01, layers),
                    optim.optimizer_step(w, g, st, lamb, 0.01, layers),
                    oracle.lamb_step(w, g, st, cfg, 0.01, layers),
                ),
            }
            for (got_w, got_st), *others in runs.values():
                for want_w, want_st in others:
                    assert got_w.data.tobytes() == want_w.data.tobytes()
                    assert _same_state(got_st, want_st)
            w, st = runs[cfg.algorithm][0]


class TestCheckpointFormat:
    def _run(self, cfg, n=300, steps=2):
        rng = np.random.default_rng(67)
        w = TensorBuf(rng.standard_normal(n).astype(np.float32))
        st = init_state(n, cfg)
        g = TensorBuf(rng.standard_normal(n).astype(np.float32))
        for _ in range(steps):
            w, st = optim.optimizer_step(w, g, st, cfg, 0.01)
        return w, st, g

    def test_block_size_survives_and_resume_is_exact(self, tmp_path):
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        w, st, g = self._run(cfg)
        path = tmp_path / "run.topt"
        optim.save_checkpoint(path, cfg, st, w)
        cfg2, st2, w2 = optim.load_checkpoint(path)
        assert cfg2 == cfg
        for _ in range(2):
            w, st = lamb_step(w, g, st, cfg, 0.01)
            w2, st2 = lamb_step(w2, g, st2, cfg2, 0.01)
        assert w.data.tobytes() == w2.data.tobytes()
        assert _same_state(st, st2)

    @pytest.mark.parametrize("bits", [32, 8])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_loaded_state_holds_only_its_own_bytes(self, kind, bits):
        """A loaded moment does not keep the rest of the checkpoint alive,
        whatever buffer the checkpoint comes in."""
        cfg = OptimConfig.lamb(state_bits=bits, block_size=64)
        w, st, _ = self._run(cfg, n=5000)
        raw = b"".join(optim.checkpoint_parts(cfg, st, w))
        _, st2, _ = optim.checkpoint_from_bytes(kind(raw))
        own = codec.encoded_size(st2.m.scheme, 5000, 64)
        for c in (st2.m, st2.v):
            owner = c.payload.obj if isinstance(c.payload, memoryview) else c.payload
            # fp32 moments are a third of the checkpoint, 8-bit ones less
            assert memoryview(owner).nbytes <= own < len(raw) / (4 if bits == 8 else 2)
            # the scales, if any, are in the same bytes, not a second copy
            assert not c.scales.size or np.shares_memory(c.scales, np.frombuffer(owner, np.uint8))

    @pytest.mark.parametrize(
        "buf",
        ["TOPT" + "\0" * 80, None, [1, 2], 7,
         np.repeat(np.frombuffer(_checkpoint_bytes(OptimConfig()), np.uint8), 2)[::2]],
        ids=["str", "None", "list", "int", "strided"],
    )
    def test_non_buffer_is_malformed(self, buf):
        """Anything but a C-contiguous buffer is refused, also a strided
        view of a valid checkpoint."""
        with pytest.raises(MalformedChunk, match="bytes-like buffer"):
            optim.checkpoint_from_bytes(buf)

    @pytest.mark.parametrize("bits", [32, 8])
    @pytest.mark.parametrize(
        "view",
        [lambda raw: np.frombuffer(raw, np.uint32), lambda raw: memoryview(raw).cast("H")],
        ids=["uint32", "cast-H"],
    )
    def test_wide_item_views_read_as_their_bytes(self, view, bits):
        """A buffer is measured and sliced in bytes, whatever its item type."""
        cfg = OptimConfig.lamb(state_bits=bits, block_size=4)
        w, st, _ = self._run(cfg, n=8, steps=1)
        raw = b"".join(optim.checkpoint_parts(cfg, st, w))
        assert len(raw) % 4 == 0  # whole uint32 items
        cfg2, st2, w2 = optim.checkpoint_from_bytes(view(raw))
        cfg3, st3, w3 = optim.checkpoint_from_bytes(raw)
        assert cfg2 == cfg3 == cfg
        assert w2.data.tobytes() == w3.data.tobytes() == w.data.tobytes()
        assert _same_state(st2, st3) and _same_state(st2, st)

    def test_fp32_load_peak_is_its_output(self):
        """Reading an fp32-state checkpoint allocates its fp32 weights and
        one copy of each moment chunk, which the state keeps."""
        n, cfg = 1 << 20, OptimConfig.lamb()
        rng = np.random.default_rng(73)
        w, m, v = rng.standard_normal((3, n)).astype(np.float32)
        st = _fp32_state(m, v * v, step=3)
        raw = b"".join(optim.checkpoint_parts(cfg, st, TensorBuf(w)))
        assert _peak(optim.checkpoint_from_bytes, raw) <= 3 * 4 * n + _SLACK

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 65535])
    def test_other_versions_are_refused(self, version):
        """Only version 4 is read; the CRC is fixed up after the version is
        changed, so the version check itself refuses the checkpoint."""
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        w, st, _ = self._run(cfg)
        body = bytearray(b"".join(optim.checkpoint_parts(cfg, st, w))[:-4])
        body[4:6] = version.to_bytes(2, "little")
        with pytest.raises(MalformedChunk, match="unsupported checkpoint version"):
            optim.checkpoint_from_bytes(_with_crc(bytes(body)))

    def test_bad_headers_raise_malformed(self, tmp_path):
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = path.read_bytes()
        for bad in (raw[:30], raw[:4] + (9).to_bytes(2, "little") + raw[6:]):
            path.write_bytes(bad)
            with pytest.raises(MalformedChunk):
                optim.load_checkpoint(path)

    @pytest.mark.parametrize("offset", [6], ids=["algorithm"])
    def test_enum_byte_out_of_range_is_malformed(self, offset):
        """With the CRC fixed up, so that the header check is reached."""
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        body = bytearray(b"".join(optim.checkpoint_parts(cfg, st, w))[:-4])
        body[offset] = 7
        with pytest.raises(MalformedChunk, match="unknown algorithm"):
            optim.checkpoint_from_bytes(_with_crc(bytes(body)))

    @pytest.mark.parametrize("field, value", [("epsilon", 1e-50), ("weight_decay", 1e39)])
    def test_header_setting_out_of_fp32_range_is_malformed(self, field, value):
        """A header goes through ``OptimConfig``, so a setting that fp32
        turns into 0 or Inf is refused, also with a valid CRC."""
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        w, st, _ = self._run(cfg)
        body = bytearray(b"".join(optim.checkpoint_parts(cfg, st, w))[:-4])
        # the eight-byte reals after magic, version, algorithm, bits and step
        at = 16 + 8 * ["beta1", "beta2", "epsilon", "weight_decay"].index(field)
        body[at : at + 8] = struct.pack("<d", value)
        with pytest.raises(MalformedChunk, match=f"checkpoint header: {field}"):
            optim.checkpoint_from_bytes(_with_crc(bytes(body)))

    def test_crc_mismatch_raises_checksum_mismatch(self, tmp_path):
        cfg = OptimConfig.lamb(state_bits=8)
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = path.read_bytes()
        assert raw[-4:] == struct.pack("<I", zlib.crc32(raw[:-4]))
        for offset in (6, 20, len(raw) // 2, len(raw) - 5, len(raw) - 1):
            bad = bytearray(raw)
            bad[offset] ^= 0x10
            path.write_bytes(bytes(bad))
            with pytest.raises(ChecksumMismatch):
                optim.load_checkpoint(path)
        assert issubclass(ChecksumMismatch, MalformedChunk)

    def test_every_truncation_is_malformed(self, tmp_path):
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(MalformedChunk):
                optim.load_checkpoint(path)

    def test_chunk_that_runs_past_the_trailer_is_malformed(self):
        """A header whose weight count is more than the file's 8 lays the
        moments out past the CRC trailer, the largest u64 too, which is
        refused before any of it is allocated; one less leaves bytes over."""
        for bits in (32, 8):
            for n in (9, 2**64 - 1, 7):
                body = _with_header(_checkpoint_bytes(OptimConfig.adam(state_bits=bits)), n=n)
                with pytest.raises(MalformedChunk, match=_LAYOUT_RULE):
                    optim.checkpoint_from_bytes(body)

    @pytest.mark.parametrize("algo", ["adam", "lamb"])
    def test_8bit_v_that_squares_to_inf_is_malformed(self, algo):
        """8-bit v stores sqrt(v); a block of code 127 whose scale makes
        127 * scale 2**64 in fp32 would square to Inf on the next step. At
        step 1 with beta2 = 0, c2 is 1: the largest scale whose square of
        127 * scale is at most 2**127 loads, and steps to finite state, and
        the next scale above it is refused."""
        n, cfg = 4, getattr(OptimConfig, algo)(state_bits=8, beta2=0.0, block_size=4)
        w, m = TensorBuf(np.ones(n, np.float32)), init_state(n, cfg).m

        def checkpoint_with_v_scale(scale):
            v = codec.QuantizedChunk(codec.Scheme.Q8_BLOCKWISE, n, 4, [scale], bytes([127] * n))
            return _unchecked_checkpoint(cfg, OptimState(m, v, 1), w)

        scale = np.float32(2.0**64 / 127)
        assert np.float32(127) * scale == 2.0**64
        with pytest.raises(MalformedChunk, match="no run reaches"):
            optim.checkpoint_from_bytes(checkpoint_with_v_scale(scale))
        edge = np.float32(2.0**63.5 / 127)
        while float(np.float32(127) * edge) ** 2 > 2.0**127:
            edge = np.nextafter(edge, np.float32(0.0))
        while float(np.float32(127) * np.nextafter(edge, scale)) ** 2 <= 2.0**127:
            edge = np.nextafter(edge, scale)
        with pytest.raises(MalformedChunk, match="no run reaches"):
            optim.checkpoint_from_bytes(checkpoint_with_v_scale(np.nextafter(edge, scale)))
        cfg2, st2, w2 = optim.checkpoint_from_bytes(checkpoint_with_v_scale(edge))
        w2, st2 = optim.optimizer_step(w2, w2, st2, cfg2, 0.1)
        st2 = unpack_state(st2)
        for buf in (w2, codec.decode(st2.m), codec.decode(st2.v)):
            assert np.isfinite(buf.data).all()

    @pytest.mark.parametrize(
        "m, v", [([0.0, 0.0], [3e38, 0.0]), ([3e38, 0.0], [0.0, 0.0]), ([0.0, 0.0], [-1.0, 0.0])],
        ids=["v-above", "m-above", "v-negative"],
    )
    def test_moments_no_run_reaches_are_refused(self, m, v):
        """At step 0 a run has only zero moments. Loaded, these moments would
        make the next step overflow dividing by c2 or c1, or take the square
        root of a negative v. Saving refuses them, and loading too."""
        cfg, w = OptimConfig.adam(), TensorBuf(np.ones(2, np.float32))
        st = _fp32_state(np.float32(m), np.float32(v))
        with pytest.raises(NonFiniteInput, match="no run reaches"):
            optim.checkpoint_parts(cfg, st, w)
        with pytest.raises(MalformedChunk, match="no run reaches"):
            optim.checkpoint_from_bytes(_unchecked_checkpoint(cfg, st, w))

    def test_trailing_bytes_are_malformed(self, tmp_path):
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        path.write_bytes(_with_crc(path.read_bytes()[:-4] + b"\0"))
        with pytest.raises(MalformedChunk, match=_LAYOUT_RULE):
            optim.load_checkpoint(path)

    @pytest.mark.parametrize("bits", [32, 8])
    def test_state_of_another_length_is_malformed(self, tmp_path, bits):
        """The header, with the CRC fixed up, claims one weight less than
        the file holds: its state's layout is shorter than the moments, a
        state ``save_checkpoint`` never writes."""
        cfg = OptimConfig.adam(state_bits=bits, block_size=4)
        w = TensorBuf(np.ones(8, np.float32))
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, init_state(8, cfg), w)
        path.write_bytes(_with_header(path.read_bytes(), n=7))
        with pytest.raises(MalformedChunk, match=_LAYOUT_RULE):
            optim.load_checkpoint(path)

    @pytest.mark.parametrize("bits", [32, 8])
    def test_state_that_does_not_fit_the_weights_is_not_saved(self, tmp_path, bits):
        cfg = OptimConfig.adam(state_bits=bits, block_size=4)
        w = TensorBuf(np.ones(8, np.float32))
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, init_state(8, cfg), w)
        before = path.read_bytes()
        with pytest.raises(ShapeMismatch):
            optim.save_checkpoint(path, cfg, init_state(7, cfg), w)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.topt"]

    def test_state_in_another_scheme_is_malformed(self, tmp_path):
        """The header, with the CRC fixed up, names the other state bits, or
        8-bit state in blocks that give another scale count, than the
        moments the file holds."""
        w = TensorBuf(np.ones(8, np.float32))
        path = tmp_path / "c.topt"
        edits = ((8, {"state_bits": 32}), (32, {"state_bits": 8}), (8, {"block_size": 8}))
        for bits, edit in edits:
            cfg = OptimConfig.adam(state_bits=bits, block_size=4)
            optim.save_checkpoint(path, cfg, init_state(8, cfg), w)
            path.write_bytes(_with_header(path.read_bytes(), **edit))
            with pytest.raises(MalformedChunk, match=_LAYOUT_RULE):
                optim.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bits, chunk", [(32, 0), (32, 1), (32, 2), (8, 0)],
                             ids=["w-state32", "m-state32", "v-state32", "w-state8"])
    def test_non_finite_weights_or_moments_are_malformed(self, bits, chunk, bad):
        """Loading refuses what saving refuses: one value of the weights or
        of an fp32 moment is set to ``bad`` in a checkpoint with a valid CRC."""
        n, cfg = 8, OptimConfig.lamb(state_bits=bits, block_size=4)
        w = TensorBuf(np.ones(n, np.float32))
        body = bytearray(b"".join(optim.checkpoint_parts(cfg, init_state(n, cfg), w))[:-4])
        # the 4n bytes of each part before it (fp32 moments have no scales),
        # and three values
        at = optim._CKPT_HEAD.size + chunk * 4 * n + 4 * 3
        body[at : at + 4] = np.float32(bad).tobytes()
        with pytest.raises(MalformedChunk, match="NaN or Inf"):
            optim.checkpoint_from_bytes(_with_crc(bytes(body)))

    def test_state_code_minus_128_is_malformed(self):
        """8-bit state that decodes beyond its error bound is refused on load,
        not by the re-encode of the next step."""
        n, cfg = 8, OptimConfig.lamb(state_bits=8, block_size=4)
        w = TensorBuf(np.linspace(-1.0, 1.0, n, dtype=np.float32))
        _, st = lamb_step(w, w, init_state(n, cfg), cfg, 0.01)
        body = bytearray(b"".join(optim.checkpoint_parts(cfg, st, w))[:-4])
        # the first code of m: after the weights and m's two scales
        at = optim._CKPT_HEAD.size + 4 * n + 4 * 2
        assert body[at] != 0x80
        body[at] = 0x80
        with pytest.raises(MalformedChunk, match="-128"):
            optim.checkpoint_from_bytes(_with_crc(bytes(body)))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        cfg = OptimConfig.adam(state_bits=8)
        w, st, _ = self._run(cfg)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        before = path.read_bytes()
        w2, st2 = adam_step(w, w, st, cfg, 0.01)
        with mock.patch.object(optim.os, "fsync", side_effect=OSError("disk full")):
            with pytest.raises(OSError):
                optim.save_checkpoint(path, cfg, st2, w2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.topt"]


@pytest.mark.parametrize("algo, bits, wd", CONFIGS)
@settings(max_examples=25, deadline=None)
@given(
    n=hs.integers(0, 300),
    block_size=hs.sampled_from([1, 3, 64, 4096]),
    before=hs.integers(1, 3),
    after=hs.integers(1, 3),
    cuts=hs.lists(hs.integers(0, 300), max_size=3),
    seed=hs.integers(0, 2**32 - 1),
)
def test_resumed_run_matches_uninterrupted_run(
    algo, bits, wd, n, block_size, before, after, cuts, seed
):
    """save -> load -> k more steps gives the bytes of k uninterrupted steps,
    whether the checkpoint travels as a file or as the joined bytes of
    ``checkpoint_parts``. The schedule and the layer partition are the
    caller's and are passed in on every path."""
    cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=block_size, weight_decay=wd)
    sched = ScheduleConfig(total_steps=before + after, warmup_fraction=0.5, peak_lr=0.01)
    edges = sorted({0, n, *(min(c, n) for c in cuts)})
    layers = tuple((f"l{i}", a, b) for i, (a, b) in enumerate(zip(edges, edges[1:])))
    rng = np.random.default_rng(seed)
    w0 = TensorBuf(rng.standard_normal(n).astype(np.float32))
    grads = [TensorBuf(rng.standard_normal(n).astype(np.float32)) for _ in range(before + after)]

    def run(w, st, cfg, k):
        for _ in range(k):
            lr = lr_at(st.step, sched)
            w, st = optim.optimizer_step(w, grads[st.step], st, cfg, lr, layers)
        return w, st

    w, st = run(w0, init_state(n, cfg), cfg, before)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "c.topt")
        optim.save_checkpoint(path, cfg, st, w)
        resumed = [optim.load_checkpoint(path)]
    resumed.append(optim.checkpoint_from_bytes(b"".join(optim.checkpoint_parts(cfg, st, w))))
    w, st = run(w, st, cfg, after)
    for cfg2, st2, w2 in resumed:  # the file, then the bytes
        assert cfg2 == cfg
        w2, st2 = run(w2, st2, cfg2, after)
        assert w2.data.tobytes() == w.data.tobytes()
        assert _same_state(st2, st)


@pytest.mark.parametrize("algo, bits", [(a, b) for a in ("adam", "lamb") for b in (32, 8)])
@settings(max_examples=25, deadline=None)
@given(
    n=hs.integers(0, 300),
    block_size=hs.sampled_from([1, 3, 64, 4096]),
    steps=hs.integers(0, 2),
    seed=hs.integers(0, 2**32 - 1),
)
def test_checkpoint_bytes_are_the_file(algo, bits, n, block_size, steps, seed):
    """The joined parts are the bytes ``save_checkpoint`` writes, and
    ``checkpoint_from_bytes`` reads back what ``load_checkpoint`` reads."""
    cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=block_size)
    rng = np.random.default_rng(seed)
    w, st = TensorBuf(rng.standard_normal(n).astype(np.float32)), init_state(n, cfg)
    for _ in range(steps):
        g = TensorBuf(rng.standard_normal(n).astype(np.float32))
        w, st = optim.optimizer_step(w, g, st, cfg, 0.01)
    raw = b"".join(optim.checkpoint_parts(cfg, st, w))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "c.topt")
        optim.save_checkpoint(path, cfg, st, w)
        with open(path, "rb") as f:
            assert f.read() == raw
        cfg2, st2, w2 = optim.load_checkpoint(path)
    cfg3, st3, w3 = optim.checkpoint_from_bytes(raw)
    assert cfg3 == cfg2 == cfg
    assert w3.data.tobytes() == w2.data.tobytes() == w.data.tobytes()
    assert _same_state(st3, st2) and _same_state(st3, st)


_BELOW_2_63 = float(np.nextafter(np.float32(2.0**63), np.float32(0.0)))


@pytest.mark.parametrize("algo", ["adam", "lamb"])
@pytest.mark.parametrize("bits", [32, 8])
@settings(max_examples=25, deadline=None)
@given(
    n=hs.integers(1, 12),
    steps=hs.integers(1, 6),
    beta2=hs.sampled_from([0.0, 0.5, 0.95, 0.999]),
    data=hs.data(),
)
def test_reached_state_loads_and_steps(algo, bits, n, steps, beta2, data):
    """State that 1 to 6 steps reach, with gradients of any magnitude a step
    takes (up to the largest fp32 below 2**63), is saved, loaded and steps
    on to finite weights and state. Tier-1 makes warnings errors, so an
    overflow in the step fails the test too."""
    cfg = getattr(OptimConfig, algo)(state_bits=bits, beta2=beta2, block_size=4)
    grad = hs.lists(hs.floats(-_BELOW_2_63, _BELOW_2_63, width=32), min_size=n, max_size=n)
    w, st = TensorBuf(np.ones(n, np.float32)), init_state(n, cfg)
    for _ in range(steps + 1):
        w, st = optim.optimizer_step(w, TensorBuf(data.draw(grad)), st, cfg, 0.01)
        cfg, st, w = optim.checkpoint_from_bytes(b"".join(optim.checkpoint_parts(cfg, st, w)))
    st = unpack_state(st)
    for buf in (w, codec.decode(st.m), codec.decode(st.v)):
        assert np.isfinite(buf.data).all()


@pytest.mark.parametrize("bits", [32, 8])
def test_state_in_the_other_encoding_is_saved_in_the_config_s(bits):
    """The checkpoint holds the state in the encoding its header names,
    converted when the state comes in the other one."""
    cfg = OptimConfig.lamb(state_bits=bits, block_size=8)
    other = OptimConfig.lamb(state_bits={32: 8, 8: 32}[bits], block_size=8)
    w = TensorBuf(np.linspace(-1.0, 1.0, 100, dtype=np.float32))
    _, st = lamb_step(w, w, init_state(100, other), other, 0.01)
    _, st2, _ = optim.checkpoint_from_bytes(b"".join(optim.checkpoint_parts(cfg, st, w)))
    assert _same_state(st2, pack_state(st, 8) if bits == 8 else unpack_state(st))


@pytest.mark.parametrize("bits", [32, 8])
def test_checkpoint_parts_view_the_payloads(bits):
    """The weights' and the moments' parts view their arrays: no scale or
    payload is copied on the way to the file."""
    cfg = OptimConfig.lamb(state_bits=bits, block_size=8)
    w = TensorBuf(np.arange(1.0, 101.0, dtype=np.float32))
    _, st = lamb_step(w, w, init_state(100, cfg), cfg, 0.01)
    parts = optim.checkpoint_parts(cfg, st, w)
    assert len(parts) == 7  # header, weights, m's scales and payload, v's, CRC-32
    sources = (w.data, st.m.scales, st.m.payload, st.v.scales, st.v.payload)
    for part, source in zip(parts[1:6], sources):
        part, source = np.frombuffer(part, np.uint8), np.frombuffer(source, np.uint8)
        # fp32 state has no scales: an empty part
        assert part.size == source.size and (not source.size or np.shares_memory(part, source))


@settings(max_examples=50, deadline=None)
@given(n=hs.integers(0, 300), bits=hs.sampled_from([32, 8]), block_size=hs.integers(1, 400))
def test_checkpoint_length_is_the_header_s_layout(n, bits, block_size):
    """The joined parts are exactly as long as the header's n, state bits
    and block size make the layout: the header, 4n bytes of weights, two
    moments of 4 bytes per scale and their payloads, and the CRC."""
    raw = _checkpoint_bytes(OptimConfig.lamb(state_bits=bits, block_size=block_size), n)
    head = dict(zip(_HEAD_FIELDS, optim._CKPT_HEAD.unpack_from(raw)[2:]))
    assert (head["n"], head["state_bits"], head["block_size"]) == (n, bits, block_size)
    scales, payload = ((n + block_size - 1) // block_size, n) if bits == 8 else (0, 4 * n)
    assert len(raw) == 76 + 4 * n + 2 * (4 * scales + payload) + 4


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """One small 8-bit LAMB checkpoint's bytes, as ``save_checkpoint`` writes them."""
    cfg = OptimConfig.lamb(state_bits=8, block_size=4)
    rng = np.random.default_rng(71)
    w = TensorBuf(rng.standard_normal(10).astype(np.float32))
    w, st = lamb_step(w, w, init_state(10, cfg), cfg, 0.01)
    path = tmp_path_factory.mktemp("fuzz") / "c.topt"
    optim.save_checkpoint(path, cfg, st, w)
    return path.read_bytes()


@pytest.mark.parametrize("fix_crc", [False, True], ids=["v3", "v3-crc-fixed"])
@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_mangled_checkpoint_raises_only_swarm_errors(saved_checkpoint, fix_crc, data):
    """Cut, byte-mutated and extended checkpoints are refused with a
    SwarmError or load. With the CRC fixed up after the damage, a
    checkpoint gets past the checksum to the structural checks. The file
    read path is covered by the truncation, trailing-byte and CRC tests."""
    raw = saved_checkpoint
    body = bytearray(raw[:-4] if fix_crc else raw)
    for at, byte in data.draw(
        hs.lists(hs.tuples(hs.integers(0, len(body) - 1), hs.integers(0, 255)), max_size=8)
    ):
        body[at] = byte
    body = bytes(body[: data.draw(hs.integers(0, len(body)))]) + data.draw(hs.binary(max_size=64))
    try:
        optim.checkpoint_from_bytes(_with_crc(body) if fix_crc else body)
    except SwarmError:
        pass


class TestLayerPartition:
    def _step(self, layers, n=4):
        cfg = OptimConfig.lamb()
        w = TensorBuf(np.arange(1.0, n + 1.0, dtype=np.float32))
        return lamb_step(w, TensorBuf(np.ones(n, np.float32)), init_state(n, cfg), cfg, 0.1, layers)

    def test_empty_partition_is_the_whole_vector(self):
        whole, _ = self._step(None)
        empty, st = self._step(())
        assert empty.data.tobytes() == whole.data.tobytes()
        assert np.all(empty.data != np.arange(1.0, 5.0))
        assert st.step == 1

    @pytest.mark.parametrize(
        "layers",
        [
            (("a", 0, 2),),
            (("a", 0, 9),),
            (("a", 0, 3), ("b", 2, 4)),
            (("a", 1, 4),),
            (("b", 2, 4), ("a", 0, 2)),
            (("a", 4),),
            (("a", 0.0, 4.0),),
            (None,),
        ],
        ids=["gap-at-end", "past-the-end", "overlap", "gap-at-start", "out-of-order",
             "two-fields", "float-bounds", "not-a-layer"],
    )
    def test_partition_that_does_not_tile_is_refused(self, layers):
        with pytest.raises(ShapeMismatch):
            self._step(layers)


def _init_state(num_params):
    return init_state(num_params, OptimConfig.lamb(state_bits=8))


def _optim_config_8bit(block_size):
    return OptimConfig(state_bits=8, block_size=block_size)


def _make_quadratic(seed):
    return tasks.make_quadratic(5, seed)


def _make_logreg(seed):
    return tasks.make_logreg(5, 3, seed)


def _quadratic_of_dim(dim):
    return tasks.make_quadratic(dim, 0)


def _logreg_of_size(n_samples=1, dim=1):
    return tasks.make_logreg(n_samples, dim, 0)


def _tiny_mlp_of_size(n_samples):
    return tasks.make_tiny_mlp(0, n_samples)


def _init_state_fp32(num_params):
    return init_state(num_params, OptimConfig())


def _lamb_step(lr):
    w, cfg = TensorBuf([1.0]), OptimConfig.lamb(state_bits=8)
    return lamb_step(w, w, init_state(1, cfg), cfg, lr)


@pytest.mark.parametrize(
    "make, field, value",
    [
        pytest.param(make, field, value, id=f"{make.__name__}.{field}={value}")
        for make, field, value in [
            (OptimConfig, "epsilon", math.nan),
            (OptimConfig, "epsilon", 1e-50),
            (OptimConfig, "epsilon", 1e39),
            (OptimConfig, "weight_decay", math.nan),
            (OptimConfig, "weight_decay", 1e39),
            (OptimConfig, "trust_clip", (math.nan, 1.0)),
            (OptimConfig, "trust_clip", (0.0, math.nan)),
            (OptimConfig, "trust_clip", (-1.0, -0.5)),
            (OptimConfig, "trust_clip", (math.inf, math.inf)),
            (OptimConfig, "trust_clip", (0.0, 1e39)),
            (OptimConfig, "trust_clip", (1.0,)),
            (OptimConfig, "trust_clip", None),
            (OptimConfig, "beta1", math.nan),
            (OptimConfig, "beta1", None),
            (OptimConfig, "beta2", 1.0 - 1e-9),
            (OptimConfig, "algorithm", 7),
            (OptimConfig, "state_bits", 8.0),
            (OptimConfig, "block_size", 0),
            (OptimConfig, "block_size", "a"),
            (OptimConfig, "block_size", 2.5),
            (OptimConfig, "block_size", True),
            (OptimConfig, "block_size", 2**32),
            (_optim_config_8bit, "block_size", 2**32),
            (ScheduleConfig, "peak_lr", math.nan),
            (ScheduleConfig, "peak_lr", 1e39),
            (ScheduleConfig, "peak_lr", 1e-50),
            (ScheduleConfig, "warmup_fraction", 1.5),
            (ScheduleConfig, "end_lr", math.nan),
            (ScheduleConfig, "end_lr", 1e39),
            (ScheduleConfig, "total_steps", math.nan),
            (ScheduleConfig, "total_steps", None),
            (ScheduleConfig, "total_steps", True),
            (codec.CodecPolicy, "q8_threshold", 0),
            (codec.CodecPolicy, "block_size", math.nan),
            (codec.CodecPolicy, "block_size", None),
            (codec.CodecPolicy, "block_size", 2.5),
            (codec.CodecPolicy, "block_size", True),
            (codec.CodecPolicy, "block_size", 2**32),
            (_init_state, "num_params", -1),
            (_init_state, "num_params", 2.5),
            (_init_state, "num_params", True),
            (_init_state, "num_params", 2**62),
            (_init_state_fp32, "num_params", 2**62),
            (_make_quadratic, "seed", "a"),
            (_make_quadratic, "seed", -1),
            (_make_quadratic, "seed", None),
            (_make_quadratic, "seed", True),
            (_make_logreg, "seed", "a"),
            (_make_logreg, "seed", -1),
            (tasks.make_tiny_mlp, "seed", None),
            (tasks.make_tiny_mlp, "seed", True),
            (_quadratic_of_dim, "dim", 2**62),
            (_logreg_of_size, "n_samples", 2**62),
            (_logreg_of_size, "dim", 2**62),
            (_tiny_mlp_of_size, "n_samples", 2**62),
            (_lamb_step, "lr", math.nan),
            (_lamb_step, "lr", math.inf),
            (_lamb_step, "lr", 1e39),
            (_lamb_step, "lr", -0.1),
            (_lamb_step, "lr", None),
        ]
    ],
)
def test_invalid_config_is_config_error(make, field, value):
    with pytest.raises(ConfigError):
        make(**{field: value})


def test_trust_clip_list_is_kept_as_a_tuple():
    """So the config hashes, and equals the one its checkpoint reads back."""
    cfg = OptimConfig(trust_clip=[0.0, 10.0])
    assert type(cfg.trust_clip) is tuple
    assert cfg == OptimConfig() and hash(cfg) == hash(OptimConfig())
    assert optim.checkpoint_from_bytes(_checkpoint_bytes(cfg))[0] == cfg


def test_beta2_defaults_to_each_algorithm_s_own():
    """LAMB's beta2 is 0.95 unless one is given, Adam's 0.999."""
    assert OptimConfig.lamb().beta2 == 0.95
    assert OptimConfig.lamb(beta2=0.5).beta2 == 0.5
    assert OptimConfig.adam().beta2 == 0.999 == OptimConfig().beta2


def _q8(n, block_size=8):
    return init_state(n, OptimConfig.lamb(state_bits=8, block_size=block_size)).m


def _fp32(n, block_size=0):
    return codec.QuantizedChunk(codec.Scheme.F32_RAW, n, block_size, [], bytes(4 * n))


@pytest.mark.parametrize(
    "m, v, step, error",
    [
        pytest.param(_fp32(3), _fp32(4), 0, ShapeMismatch, id="fp32-v-longer"),
        pytest.param(_fp32(4), _fp32(3), 0, ShapeMismatch, id="fp32-v-shorter"),
        pytest.param(_q8(3), _q8(4), 0, ShapeMismatch, id="q8-v-longer"),
        pytest.param(_q8(3), _fp32(3), 0, ConfigError, id="m-q8-v-fp32"),
        pytest.param(_fp32(3), _q8(3), 0, ConfigError, id="m-fp32-v-q8"),
        pytest.param(_q8(3, 4), _q8(3, 8), 0, ConfigError, id="two-block-sizes"),
        pytest.param(_fp32(3), _fp32(3, 4), 0, ConfigError, id="fp32-two-block-sizes"),
        pytest.param(_fp32(3, 4), _fp32(3, 4), 0, ConfigError, id="fp32-block-size-4"),
        pytest.param(TensorBuf(np.zeros(3)), TensorBuf(np.zeros(3)), 0, ConfigError,
                     id="tensorbufs"),
        pytest.param(codec.encode_f16(TensorBuf(np.zeros(3))),
                     codec.encode_f16(TensorBuf(np.zeros(3))), 0, ConfigError, id="f16-chunks"),
        pytest.param(_fp32(3), _fp32(3), None, ConfigError, id="step=None"),
        pytest.param(_fp32(3), _fp32(3), -5, ConfigError, id="step=-5"),
        pytest.param(_fp32(3), _fp32(3), 2.0, ConfigError, id="step=2.0"),
        pytest.param(_fp32(3), _fp32(3), 2**64, ConfigError, id="step=2**64"),
        pytest.param(_fp32(3), _fp32(3), True, ConfigError, id="step=True"),
    ],
)
def test_malformed_state_is_refused(m, v, step, error):
    """Moments that do not match, or a step the checkpoint cannot hold, are
    refused when the state is built, not by a later step or save."""
    with pytest.raises(error):
        OptimState(m=m, v=v, step=step)
