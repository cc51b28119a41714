"""Optimizers: schedule shape, Adam/LAMB steps vs scalar oracles, layer partitions,
8-bit state, config validation and checkpoints."""

import math
import os
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

from swarmdesk import codec, optim
from swarmdesk.codec import TensorBuf
from swarmdesk.errors import (
    ChecksumMismatch,
    ConfigError,
    MalformedChunk,
    NonFiniteGradient,
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
        with pytest.raises(StepOutOfRange):
            lr_at(-1, s)
        with pytest.raises(StepOutOfRange):
            lr_at(11, s)

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


class TestPackedState:
    def test_fresh_zero_state(self):
        cfg = OptimConfig.adam(state_bits=8)
        st = init_state(100, cfg)
        assert st.packed
        assert np.all(st.m.scales == 0.0)
        un = unpack_state(st)
        np.testing.assert_array_equal(un.m.data, np.zeros(100))
        np.testing.assert_array_equal(un.v.data, np.zeros(100))

    def test_roundtrip_within_codec_bound(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal(5000).astype(np.float32)
        v = (rng.standard_normal(5000).astype(np.float32)) ** 2
        st = OptimState(m=TensorBuf(m), v=TensorBuf(v), step=3)
        packed = pack_state(st, 8, block_size=256)
        un = unpack_state(packed)
        assert np.all(np.abs(m - un.m.data) <= codec.roundtrip_error_bound(packed.m))
        root_err = np.abs(np.sqrt(v) - np.sqrt(un.v.data))
        assert np.all(root_err <= codec.roundtrip_error_bound(packed.v) + 1e-7)
        assert np.all(un.v.data >= 0.0)

    def test_pack_unpack_idempotent_bytes(self):
        rng = np.random.default_rng(37)
        m = rng.standard_normal(2048).astype(np.float32)
        v = (rng.standard_normal(2048) ** 2).astype(np.float32)
        st = OptimState(m=TensorBuf(m), v=TensorBuf(v))
        p1 = pack_state(st, 8)
        p2 = pack_state(unpack_state(p1), 8)
        assert codec.chunk_to_bytes(p1.m) == codec.chunk_to_bytes(p2.m)
        assert codec.chunk_to_bytes(p1.v) == codec.chunk_to_bytes(p2.v)

    def test_v_stays_nonnegative_through_cycles(self):
        rng = np.random.default_rng(41)
        v = np.abs(rng.standard_normal(1000)).astype(np.float32) * 1e-4
        st = OptimState(m=TensorBuf(np.zeros(1000, np.float32)), v=TensorBuf(v))
        for _ in range(3):
            st = unpack_state(pack_state(st, 8))
            assert np.all(st.v.data >= 0.0)

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
        st = OptimState(
            m=TensorBuf(rng.standard_normal(128).astype(np.float32)),
            v=TensorBuf((rng.standard_normal(128) ** 2).astype(np.float32)),
            step=17,
        )
        path = tmp_path / "opt.topt"
        optim.save_checkpoint(path, cfg, st, w)
        cfg2, st2, w2 = optim.load_checkpoint(path)
        assert cfg2 == cfg
        assert st2.step == 17
        np.testing.assert_array_equal(w2.data, w.data)
        np.testing.assert_array_equal(st2.m.data, st.m.data)
        np.testing.assert_array_equal(st2.v.data, st.v.data)

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

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(Exception):
            optim.load_checkpoint(path)


def _as_version(raw: bytes, version: int) -> bytes:
    """A version 3 checkpoint in the layout of version 1 or 2: no CRC, and a
    tier byte and transfer counter that the reader must skip."""
    head = optim._CKPT_HEADS[3]
    magic, _, algo, bits, step, *floats, block = head.unpack_from(raw)
    old = optim._CKPT_HEADS[version].pack(
        magic, version, algo, bits, step, 1, *floats, 12345, *([block] if version == 2 else [])
    )
    return old + raw[head.size : -4]


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _same_state(a: OptimState, b: OptimState) -> bool:
    if a.step != b.step or a.packed != b.packed:
        return False
    if a.packed:
        return all(
            x.block_size == y.block_size
            and x.scales.tobytes() == y.scales.tobytes()
            and x.payload == y.payload
            for x, y in ((a.m, b.m), (a.v, b.v))
        )
    return a.m.data.tobytes() == b.m.data.tobytes() and a.v.data.tobytes() == b.v.data.tobytes()


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
        group=hs.sampled_from([1, 5, 64, optim._GROUP]),
        cuts=hs.lists(hs.integers(0, 300), max_size=4),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_matches_whole_vector_oracle(self, algo, bits, wd, n, block_size, group, cuts, seed):
        """Small group sizes (in elements) cut the vector into many groups;
        random layer cuts straddle them."""
        cfg = getattr(OptimConfig, algo)(state_bits=bits, block_size=block_size, weight_decay=wd)
        edges = sorted({0, n, *(min(c, n) for c in cuts)})
        layers = tuple((f"l{i}", a, b) for i, (a, b) in enumerate(zip(edges, edges[1:])))
        with mock.patch.object(optim, "_GROUP", group):
            _assert_steps_match_oracle(n, cfg, layers, steps=3, seed=seed)

    @pytest.mark.parametrize("algo, bits, wd", CONFIGS)
    def test_matches_oracle_across_real_groups(self, algo, bits, wd):
        n = optim._GROUP + 4096 + 97
        cfg = getattr(OptimConfig, algo)(state_bits=bits, weight_decay=wd)
        layers = (("a", 0, 1000), ("b", 1000, optim._GROUP + 10), ("c", optim._GROUP + 10, n))
        _assert_steps_match_oracle(n, cfg, layers, steps=2, seed=bits)

    @pytest.mark.parametrize("n", [300, optim._GROUP + 4096 + 97])
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
        st = OptimState(
            m=TensorBuf(rng.standard_normal(n).astype(np.float32)),
            v=TensorBuf((rng.standard_normal(n) ** 2).astype(np.float32)),
            step=3,
        )
        st = pack_state(st, state_bits, cfg.block_size)

        def snapshot():
            parts = [w.data.tobytes(), g.data.tobytes()]
            for buf in (st.m, st.v):
                if st.packed:
                    parts += [buf.scales.tobytes(), buf.payload]
                else:
                    parts.append(buf.data.tobytes())
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
        # joined m, v's group chunks and the joined v (1 byte each; m's group
        # chunks are released before v is joined). Per element of a group:
        # two work buffers and the decoded m and sqrt(v) (16 bytes), and 4
        # more for the scales and the rest.
        assert peaks[8] < 7 * n + 20 * optim._GROUP

    def test_packed_state_in_other_block_size_is_refused(self):
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        st = init_state(300, OptimConfig.lamb(state_bits=8, block_size=32))
        w = TensorBuf(np.ones(300, np.float32))
        with pytest.raises(ConfigError):
            lamb_step(w, w, st, cfg, 0.01)
        with pytest.raises(ConfigError):
            pack_state(st, 8, block_size=64)
        assert pack_state(st, 8, block_size=32) is st


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

    @pytest.mark.parametrize("bits, want_block", [(8, 64), (32, 4096)])
    def test_reads_version_1(self, tmp_path, bits, want_block):
        cfg = OptimConfig.lamb(state_bits=bits, block_size=64)
        w, st, _ = self._run(cfg)
        path = tmp_path / "v3.topt"
        optim.save_checkpoint(path, cfg, st, w)
        old = tmp_path / "v1.topt"
        old.write_bytes(_as_version(path.read_bytes(), 1))
        cfg1, st1, w1 = optim.load_checkpoint(old)
        assert cfg1 == replace(cfg, block_size=want_block)
        assert w1.data.tobytes() == w.data.tobytes()
        assert st1.step == st.step

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
    def test_enum_byte_out_of_range_is_malformed(self, tmp_path, offset):
        """On a version 2 file, which has no CRC to fail first."""
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = bytearray(_as_version(path.read_bytes(), 2))
        raw[offset] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedChunk):
            optim.load_checkpoint(path)

    def test_reads_version_2_and_skips_its_tier_fields(self, tmp_path):
        cfg = OptimConfig.lamb(state_bits=8, block_size=64)
        w, st, _ = self._run(cfg)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        path.write_bytes(_as_version(path.read_bytes(), 2))
        cfg2, st2, w2 = optim.load_checkpoint(path)
        assert cfg2 == cfg
        assert w2.data.tobytes() == w.data.tobytes()
        assert _same_state(st2, st)

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

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_every_truncation_is_malformed(self, tmp_path, version):
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = path.read_bytes()
        if version < 3:
            raw = _as_version(raw, version)
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            past_head = version < 3 and cut >= optim._CKPT_HEADS[version].size
            with pytest.raises(MalformedChunk, match="chunk table" if past_head else None):
                optim.load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_trailing_bytes_are_malformed(self, tmp_path, version):
        cfg = OptimConfig.adam()
        w, st, _ = self._run(cfg, n=8, steps=1)
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, st, w)
        raw = path.read_bytes()
        longer = _as_version(raw, version) + b"\0" if version < 3 else _with_crc(raw[:-4] + b"\0")
        path.write_bytes(longer)
        with pytest.raises(MalformedChunk, match="after the last chunk"):
            optim.load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("bits", [32, 8])
    def test_state_of_another_length_is_malformed(self, tmp_path, version, bits):
        """Built from parts, since ``save_checkpoint`` refuses such state."""
        cfg = OptimConfig.adam(state_bits=bits, block_size=4)
        w = TensorBuf(np.ones(8, np.float32))
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, init_state(8, cfg), w)
        parts = [path.read_bytes()[: optim._CKPT_HEADS[3].size]]
        optim._write_chunk(parts, codec.encode_f32(w))
        short = init_state(7, cfg)
        for buf in (short.m, short.v):
            optim._write_chunk(parts, buf if short.packed else codec.encode_f32(buf))
        raw = _with_crc(b"".join(parts))
        path.write_bytes(_as_version(raw, version) if version < 3 else raw)
        with pytest.raises(MalformedChunk, match="of 7 elements"):
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
        cfg = OptimConfig.adam(state_bits=8)
        w = TensorBuf(np.ones(8, np.float32))
        path = tmp_path / "c.topt"
        optim.save_checkpoint(path, cfg, init_state(8, cfg), w)
        f16 = replace(codec.encode_f16(w), block_size=cfg.block_size)
        parts = [path.read_bytes()[: optim._CKPT_HEADS[3].size]]
        for chunk in (codec.encode_f32(w), f16, f16):
            optim._write_chunk(parts, chunk)
        path.write_bytes(_with_crc(b"".join(parts)))
        with pytest.raises(MalformedChunk, match="state chunk F16"):
            optim.load_checkpoint(path)

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
    """save -> load -> k more steps gives the bytes of k uninterrupted steps.
    The schedule and the layer partition are the caller's and are passed in
    on both paths."""
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
        cfg2, st2, w2 = optim.load_checkpoint(path)
    assert cfg2 == cfg
    w, st = run(w, st, cfg, after)
    w2, st2 = run(w2, st2, cfg2, after)
    assert w2.data.tobytes() == w.data.tobytes()
    assert _same_state(st2, st)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A directory to write into and one small 8-bit LAMB checkpoint's bytes."""
    cfg = OptimConfig.lamb(state_bits=8, block_size=4)
    rng = np.random.default_rng(71)
    w = TensorBuf(rng.standard_normal(10).astype(np.float32))
    w, st = lamb_step(w, w, init_state(10, cfg), cfg, 0.01)
    path = tmp_path_factory.mktemp("fuzz") / "c.topt"
    optim.save_checkpoint(path, cfg, st, w)
    return path.parent, path.read_bytes()


@pytest.mark.parametrize("version, fix_crc", [(2, False), (3, False), (3, True)],
                         ids=["v2", "v3", "v3-crc-fixed"])
@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_mangled_checkpoint_raises_only_swarm_errors(saved_checkpoint, version, fix_crc, data):
    """Cut, byte-mutated and extended files are refused with a SwarmError or
    load. With the CRC fixed up after the damage, a version 3 file gets past
    the checksum to the structural checks."""
    folder, raw = saved_checkpoint
    body = bytearray(_as_version(raw, 2) if version == 2 else raw[:-4] if fix_crc else raw)
    for at, byte in data.draw(
        hs.lists(hs.tuples(hs.integers(0, len(body) - 1), hs.integers(0, 255)), max_size=8)
    ):
        body[at] = byte
    body = bytes(body[: data.draw(hs.integers(0, len(body)))]) + data.draw(hs.binary(max_size=64))
    path = folder / "mangled.topt"
    path.write_bytes(_with_crc(body) if fix_crc else body)
    try:
        optim.load_checkpoint(path)
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
        ],
        ids=["gap-at-end", "past-the-end", "overlap", "gap-at-start", "out-of-order"],
    )
    def test_partition_that_does_not_tile_is_refused(self, layers):
        with pytest.raises(ShapeMismatch):
            self._step(layers)


@pytest.mark.parametrize(
    "make, field, value",
    [
        pytest.param(make, field, value, id=f"{make.__name__}.{field}={value}")
        for make, field, value in [
            (OptimConfig, "epsilon", math.nan),
            (OptimConfig, "weight_decay", math.nan),
            (OptimConfig, "trust_clip", (math.nan, 1.0)),
            (OptimConfig, "trust_clip", (0.0, math.nan)),
            (OptimConfig, "beta1", math.nan),
            (OptimConfig, "algorithm", 7),
            (OptimConfig, "block_size", 0),
            (ScheduleConfig, "peak_lr", math.nan),
            (ScheduleConfig, "end_lr", math.nan),
            (ScheduleConfig, "total_steps", math.nan),
            (codec.CodecPolicy, "q8_threshold", 0),
            (codec.CodecPolicy, "block_size", math.nan),
        ]
    ],
)
def test_invalid_config_is_config_error(make, field, value):
    with pytest.raises(ConfigError):
        make(**{field: value})
