"""Workloads, the training step, the timed loop and the checks behind run.py.

The step is ``Task.batch_grad_sum -> codec.encode -> codec.chunk_to_bytes ->
codec.chunk_from_bytes -> codec.decode -> optim.optimizer_step`` with the
learning rate from ``optim.lr_at``. Every call goes through the module
attribute (``codec.encode``, never a name bound at import), so a traced run
can swap in timing wrappers.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from swarmdesk import codec, optim, tasks
from swarmdesk.errors import SwarmError

from calib import NOMINAL_S, Calibrator
from tracing import Tracer, roots, self_times

MIB = 1 << 20
SETUP_MIN_REPS, SETUP_MIN_S = 3, 2.0  # setup_s: median of >= 3 set-ups, >= 2 s of them
WARMUP_STEPS = 2
TURN_S = 0.25  # the traced run alternates with the untraced one in turns this long
CALIB_SHARE = 0.25  # reference kernel time per unit of timed step or set-up time
CHECK_STEPS = 2  # steps whose Q8 chunks are all decoded again and checked
POLICY = codec.CodecPolicy()
# decode computes code * scale in fp32, which may land up to half an ulp of
# 127 * scale past the exact product; roundtrip_error_bound (scale / 2) leaves
# that rounding out, so the check allows 127 * 2**-23 of the bound on top.
Q8_DECODE_SLACK = 1.0 + 127 * 2.0**-23
_dequantize_q8 = codec.dequantize_q8  # the unwrapped decoder, for the check


@dataclass(frozen=True)
class Workload:
    """One workload; run.py's docstring says why each was chosen."""

    make_task: Callable[[int], tasks.Task]  # called with the run's seed
    cfg: optim.OptimConfig
    peak_lr: float
    batch: int
    loss_steps: int  # final_loss is taken after this many steps; a loop runs at least this many
    reference: str  # calib.py kernel that does the same kind of work as the step
    # The untraced loop takes turns this long with the reference kernel: short
    # enough that both see the same machine, long enough to hold several
    # steps, since the first step of a turn runs on the caches and heap the
    # kernel left behind (tiny_mlp: 2x slower, logreg: 18% faster) and is
    # left out of step_s.
    turn_s: float
    ckpt_every: int = 0  # save, load and resume from a checkpoint every this many steps


def _quadratic_4m(seed: int) -> tasks.Task:
    dim, n_layers = 1 << 22, 64
    task = tasks.make_quadratic(dim, seed)
    width = dim // n_layers
    # LAMB scales each layer's step by ||w||, so from w = 0 it barely moves.
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    return replace(
        task,
        init_params=rng.standard_normal(dim),
        layers=tuple((f"l{i}", i * width, (i + 1) * width) for i in range(n_layers)),
    )


# The loss of the two small tasks depends far more on the data drawn than on
# the optimizer: across task seeds the quartile spread of final_loss was 7%
# (logreg) and 30-120% (tiny_mlp) of the median. So they are built from one
# fixed seed and the run's seed draws the minibatch order. The quadratic's
# 4M coordinates average that out, so its task comes from the run's seed.
TASK_SEED = 0

WORKLOADS = {
    "q8_lamb8_4m": Workload(
        make_task=_quadratic_4m,
        # block_size stays at its default because that is the default, not to
        # dodge load_checkpoint dropping a non-default block_size.
        cfg=optim.OptimConfig.lamb(state_bits=8),
        peak_lr=0.05,
        batch=256,
        loss_steps=12,
        reference="stream",
        turn_s=1.0,
        ckpt_every=8,
    ),
    "logreg_adam32_f16": Workload(
        make_task=lambda _seed: tasks.make_logreg(8192, 2048, TASK_SEED),
        cfg=optim.OptimConfig.adam(),
        peak_lr=0.01,
        batch=1024,
        loss_steps=100,
        reference="gather_gemv",
        turn_s=0.25,
    ),
    "mlp_lamb8_tiny": Workload(
        make_task=lambda _seed: tasks.make_tiny_mlp(TASK_SEED),
        cfg=optim.OptimConfig.lamb(state_bits=8),
        peak_lr=0.003,
        batch=32,
        loss_steps=300,
        reference="interp",
        turn_s=0.1,
    ),
}


@dataclass
class Run:
    """One workload set up for one seed: task, data order and initial state."""

    wl: Workload
    task: tasks.Task
    schedule: optim.ScheduleConfig
    batches: list
    w0: codec.TensorBuf
    st0: optim.OptimState


def setup(wl: Workload, seed: int) -> Run:
    """Build the task and the initial state, then run warm-up steps."""
    task = wl.make_task(seed)
    order = np.random.default_rng(np.random.SeedSequence((seed, 7))).permutation(
        task.n_samples
    )
    run = Run(
        wl=wl,
        task=task,
        # no warm-up and a decay far beyond any run, so the rate stays near peak
        schedule=optim.ScheduleConfig(
            total_steps=10**7, warmup_fraction=0.0, peak_lr=wl.peak_lr
        ),
        batches=[order[i : i + wl.batch] for i in range(0, task.n_samples, wl.batch)],
        w0=codec.TensorBuf(task.init_params.astype(np.float32)),
        st0=optim.init_state(task.param_dim, wl.cfg),
    )
    w, st = run.w0, run.st0
    for _ in range(WARMUP_STEPS):
        w, st, _ = step(run, w, st)
    return run


def step(run: Run, w, st):
    """One training step; returns the new weights, state and wire bytes."""
    idx = run.batches[st.step % len(run.batches)]
    grad = run.task.batch_grad_sum(w.data.astype(np.float64), idx) / len(idx)
    wire = codec.chunk_to_bytes(codec.encode(codec.TensorBuf(grad.astype(np.float32)), POLICY))
    g = codec.decode(codec.chunk_from_bytes(wire))
    lr = optim.lr_at(st.step, run.schedule)
    w, st = optim.optimizer_step(w, g, st, run.wl.cfg, lr, run.task.layers)
    return w, st, len(wire)


def _same_buf(a, b) -> bool:
    if isinstance(a, codec.QuantizedChunk):
        return (
            isinstance(b, codec.QuantizedChunk)
            and (a.scheme, a.num_elements, a.block_size) == (b.scheme, b.num_elements, b.block_size)
            and a.scales.tobytes() == b.scales.tobytes()
            and a.payload == b.payload
        )
    return not isinstance(b, codec.QuantizedChunk) and a.data.tobytes() == b.data.tobytes()


def _checkpoint_roundtrip(run: Run, w, st, path: str):
    """Save, load and compare bit for bit; training resumes from the loaded copy."""
    optim.save_checkpoint(path, run.wl.cfg, st, w)
    cfg, st2, w2 = optim.load_checkpoint(path)
    same = (
        cfg == run.wl.cfg
        and st2.step == st.step
        and _same_buf(st.m, st2.m)
        and _same_buf(st.v, st2.v)
        and _same_buf(w, w2)
    )
    return w2, st2, same


class Loop:
    """Closed loop, one caller: each step starts when the last one ends.

    Starts from the run's initial state. ``advance`` may be called several
    times, so that two loops can take turns on the machine.
    """

    def __init__(self, run: Run, ckpt_path: str, tracer: Tracer | None = None):
        self.run, self.ckpt_path = run, ckpt_path
        self.span = tracer.span if tracer else (lambda _name: nullcontext())
        self.w, self.st = run.w0, run.st0
        self.step_s: list[float] = []  # wall time of each timed step that completed
        self.attempted = self.failed = self.completed = 0
        self.elapsed_s = 0.0  # time inside advance, checkpoint stalls included
        self.w_at_n = None  # weights after wl.loss_steps steps
        self.wire_bytes = 0

    def advance(self, seconds: float, untimed: int = 0) -> None:
        """Run steps for ``seconds``, at least one of them. The first
        ``untimed`` steps count in ``elapsed_s`` but not in ``step_s``."""
        wl = self.run.wl
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while True:
            self.attempted += 1
            s = time.perf_counter()
            try:
                with self.span("step"):
                    self.w, self.st, self.wire_bytes = step(self.run, self.w, self.st)
            except SwarmError:
                self.failed += 1
            else:
                self.completed += 1
                if untimed:
                    untimed -= 1
                else:
                    self.step_s.append(time.perf_counter() - s)
                if self.st.step == wl.loss_steps:
                    self.w_at_n = self.w
                if wl.ckpt_every and self.st.step % wl.ckpt_every == 0:
                    self.w, self.st, same = _checkpoint_roundtrip(
                        self.run, self.w, self.st, self.ckpt_path
                    )
                    self.failed += not same
            if time.perf_counter() >= deadline:
                break
        self.elapsed_s += time.perf_counter() - t0

    def finish(self) -> None:
        """Run on until ``loss_steps`` steps were attempted."""
        while self.attempted < self.run.wl.loss_steps:
            self.advance(0.0)


def _workdir():
    """Scratch directory for checkpoints, inside the working directory."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=os.getcwd())


def traced_run(run: Run, tracer: Tracer) -> Run:
    """The same run with the task's gradient wrapped; nothing is mutated."""
    grad = tracer.wrap("tasks.batch_grad_sum", run.task.batch_grad_sum)
    return replace(run, task=replace(run.task, batch_grad_sum=grad))


STEP_SELF = ("optim.optimizer_step", "optim.adam_step", "optim.lamb_step", "optim.trust_ratio")


def _info(sp):
    return sp.info


def _nbytes(args, _result) -> int:
    return 4 * args[0].num_elements


def _clip_hit(args, _result) -> int:
    w_norm, r_norm, (lo, hi) = args
    return int(w_norm != 0.0 and r_norm != 0.0 and not lo <= w_norm / r_norm <= hi)


TARGETS = [
    (codec, "encode", None),
    (codec, "decode", None),
    (codec, "quantize_q8", _nbytes),
    (codec, "dequantize_q8", _nbytes),
    (codec, "encode_f16", _nbytes),
    (codec, "decode_f16", _nbytes),
    (codec, "chunk_to_bytes", lambda args, raw: (4 * args[0].num_elements, len(raw))),
    (codec, "chunk_from_bytes", None),
    (optim, "lr_at", None),
    (optim, "optimizer_step", _nbytes),
    (optim, "adam_step", None),
    (optim, "lamb_step", None),
    (optim, "trust_ratio", _clip_hit),
    (optim, "pack_state", None),
    (optim, "unpack_state", None),
    (optim, "save_checkpoint", lambda args, _r: os.path.getsize(args[0])),
    (optim, "load_checkpoint", None),
]


def step_peak_bytes(run: Run) -> int:
    """tracemalloc peak of one step above the memory in use before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(run, run.w0, run.st0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def traced_peaks(run: Run) -> Tracer:
    """One step with every target wrapped and a tracemalloc peak per span."""
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracer.patch(TARGETS), tracer.span("step"):
            step(traced_run(run, tracer), run.w0, run.st0)
    finally:
        tracemalloc.stop()
    return tracer


def _q8_err_probe(args, chunk) -> float:
    err = np.abs(args[0].data.astype(np.float64) - _dequantize_q8(chunk).data)
    bound = codec.roundtrip_error_bound(chunk)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, err / bound, np.where(err > 0, np.inf, 0.0))
    return float(ratio.max()) if ratio.size else 0.0


def q8_err_over_bound(run: Run) -> float:
    """Largest |x - decode(x)| / roundtrip_error_bound over every Q8 chunk
    made in the first CHECK_STEPS steps (0 when no chunk is Q8)."""
    tracer = Tracer()
    with tracer.patch([(codec, "quantize_q8", _q8_err_probe)]):
        w, st = run.w0, run.st0
        for _ in range(CHECK_STEPS):
            w, st, _ = step(run, w, st)
    return max((sp.info for sp in tracer.spans), default=0.0)


def tail(samples, beyond: int = 10, cap: float = 99.0):
    """The highest nearest-rank percentile, at most ``cap``, with at least
    ``beyond`` samples above it, and at least 50 or a twentieth of the
    samples, whichever is fewer. Returns (value, percentile).

    Beyond p99 the slowest steps of a run are host preemptions rather than
    the program, and they change from run to run. So does the 11th-slowest
    of the ~1000 steps of a logreg run: over 10 runs its spread was 0.10 to
    0.18 of the median, and that of the 51st 0.05.
    """
    xs = sorted(samples)
    keep = max(beyond, min(50, len(xs) // 20))
    rank = min(len(xs) - keep, math.floor(len(xs) * cap / 100))
    if rank < 1:
        raise ValueError(f"need more than {beyond} samples, got {len(xs)}")
    return xs[rank - 1], 100.0 * rank / len(xs)


def final_loss(run: Run, lp: Loop) -> float:
    """Task.full_loss after loss_steps steps; NaN if a step before it failed."""
    if lp.w_at_n is None:
        return math.nan
    return run.task.full_loss(lp.w_at_n.data.astype(np.float64))


def end_to_end(wl: Workload, seed: int, seconds: float):
    """Untraced run. Returns (metrics {name: (value, unit)}, notes, attempted, failed).

    Each set-up and each turn of timed steps is followed by calls of the
    workload's reference kernel, and its times are scaled by what that
    kernel measured right after it (calib.py). On tiny_mlp over 10 runs of
    30 s this took the spread of step_ms_p50 to 0.03, where one scale for
    the whole run gave 0.05 and no scaling 0.12 to 0.48.

    ``step_ms_tail`` takes only the slowing part of the scale: a turn that
    ran slower than nominal is brought to nominal, a faster one is left as it
    ran. When the kernel runs fast, 5 to 13% of tiny_mlp's steps in the same
    turn still run at the slow speed, so scaled in full the tail read 0.6 or
    0.9 ms depending on how much of a run the host was fast (spread 0.14
    over 10 runs); unscaled, its median moved 1.4x between two sets of runs
    as the host's slow periods came and went.
    """
    cal = Calibrator(wl.reference)
    setup_s, setup_scaled = [], []
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        run = setup(wl, seed)
        setup_s.append(time.perf_counter() - t0)
        setup_scaled.append(setup_s[-1] * cal.run(CALIB_SHARE * setup_s[-1]))
    with _workdir() as tmp:
        lp = Loop(run, os.path.join(tmp, "state.topt"))
        step_scaled, tail_scaled, elapsed_scaled = [], [], 0.0
        setup_calls = len(cal.times)
        deadline = time.perf_counter() + seconds
        while True:
            n, before = len(lp.step_s), lp.elapsed_s
            lp.advance(wl.turn_s, untimed=1)
            k = cal.run(CALIB_SHARE * (lp.elapsed_s - before))
            step_scaled += [t * k for t in lp.step_s[n:]]
            tail_scaled += [t * min(k, 1.0) for t in lp.step_s[n:]]
            elapsed_scaled += (lp.elapsed_s - before) * k
            if time.perf_counter() >= deadline:
                break
        timed = lp.step_s[:]
        rate = lp.completed * wl.batch / lp.elapsed_s
        rate_scaled = lp.completed * wl.batch / elapsed_scaled
        lp.finish()
    loss = final_loss(run, lp)
    err = q8_err_over_bound(run)
    failed = lp.failed + (not math.isfinite(loss)) + (err > Q8_DECODE_SLACK)
    tail_s, pct = tail(tail_scaled)
    metrics = {
        "step_ms_p50": (1e3 * statistics.median(step_scaled), "ms"),
        "step_ms_tail": (1e3 * tail_s, "ms"),
        "samples_per_s": (rate_scaled, "1/s"),
        "step_peak_mib": (step_peak_bytes(run) / MIB, "MiB"),
        "state_bytes_per_param": (optim.state_nbytes(lp.st) / run.task.param_dim, "B/param"),
        "wire_bytes_per_step": (lp.wire_bytes, "B"),
        "final_loss": (loss, "loss"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    wall = "unscaled wall time"
    notes = {
        "step_ms_p50": f"{wall} {1e3 * statistics.median(timed)!r} ms",
        "step_ms_tail": f"p{pct:.2f} of {len(timed)} timed steps, {wall} {1e3 * tail(timed)[0]!r} ms",
        "samples_per_s": f"{wall} {rate!r} 1/s",
        "setup_s": f"median of {len(setup_s)} set-ups, {wall} {statistics.median(setup_s)!r} s",
        "reference": (
            f"{wl.reference}: median {1e3 * statistics.median(cal.times[setup_calls:])!r} ms"
            f" over {len(cal.times) - setup_calls} calls in the loop,"
            f" nominal {1e3 * NOMINAL_S[wl.reference]!r} ms"
        ),
        "final_loss": f"Task.full_loss after {wl.loss_steps} steps",
        "failed_frac": f"{failed / lp.attempted} ({failed} of {lp.attempted} steps)",
        "q8_err_over_bound": f"{err!r}",
    }
    return metrics, notes, lp.attempted, failed


def _by_step(spans) -> dict:
    """{index of a root "step" span: indices of every span inside it}."""
    top = roots(spans)
    out = {i: [] for i, sp in enumerate(spans) if sp.parent is None and sp.name == "step"}
    for i, r in enumerate(top):
        if r in out:
            out[r].append(i)
    return out


def per_layer(wl: Workload, seed: int, seconds: float):
    """An untraced and a traced loop taking turns, a traced memory step and
    the Q8 check."""
    run = setup(wl, seed)
    tracer = Tracer()
    with _workdir() as tmp:
        plain = Loop(run, os.path.join(tmp, "plain.topt"))
        traced = Loop(traced_run(run, tracer), os.path.join(tmp, "traced.topt"), tracer)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            plain.advance(TURN_S)
            with tracer.patch(TARGETS):
                traced.advance(TURN_S)
        plain.finish()
        with tracer.patch(TARGETS):
            traced.finish()
    mem = traced_peaks(run)
    err = q8_err_over_bound(run)

    spans = tracer.spans
    selfs = self_times(spans)
    steps = _by_step(spans)
    inside = [i for idx in steps.values() for i in idx]

    def ms(*names):
        return 1e3 * statistics.median(
            sum(selfs[i] for i in idx if spans[i].name in names) for idx in steps.values()
        )

    def per_step(*names, value=lambda sp: 1):
        return sum(value(spans[i]) for i in inside if spans[i].name in names) / len(steps)

    def gbps(name):
        done = [i for i in inside if spans[i].name == name]
        secs = sum(selfs[i] for i in done)
        return sum(spans[i].info for i in done) / secs / 1e9 if secs else 0.0

    def peak(name, over=lambda sp: MIB):
        return max((sp.peak / over(sp) for sp in mem.spans if sp.name == name), default=0.0)

    def ckpt_ms(name):
        done = [sp.end - sp.start for sp in spans if sp.parent is None and sp.name == name]
        return 1e3 * statistics.median(done) if done else 0.0

    wire = [spans[i].info for i in inside if spans[i].name == "codec.chunk_to_bytes"]
    saved = [sp.info for sp in spans if sp.parent is None and sp.name == "optim.save_checkpoint"]
    traced_ms = 1e3 * statistics.median(traced.step_s)
    metrics = {
        "tasks.grad_ms": (ms("tasks.batch_grad_sum"), "ms"),
        "tasks.grad_peak_mib": (peak("tasks.batch_grad_sum"), "MiB"),
        "codec.quantize_q8_ms": (ms("codec.quantize_q8"), "ms"),
        "codec.quantize_q8_gbps": (gbps("codec.quantize_q8"), "GB/s"),
        "codec.quantize_q8_peak_x": (peak("codec.quantize_q8", _info), "x"),
        "codec.dequantize_q8_ms": (ms("codec.dequantize_q8"), "ms"),
        "codec.dequantize_q8_gbps": (gbps("codec.dequantize_q8"), "GB/s"),
        "codec.dequantize_q8_peak_x": (peak("codec.dequantize_q8", _info), "x"),
        "codec.encode_f16_ms": (ms("codec.encode_f16"), "ms"),
        "codec.decode_f16_ms": (ms("codec.decode_f16"), "ms"),
        "codec.chunk_to_bytes_ms": (ms("codec.chunk_to_bytes"), "ms"),
        "codec.chunk_from_bytes_ms": (ms("codec.chunk_from_bytes"), "ms"),
        "codec.q8_calls": (per_step("codec.quantize_q8", "codec.dequantize_q8"), "1/step"),
        "codec.f16_calls": (per_step("codec.encode_f16", "codec.decode_f16"), "1/step"),
        "codec.compression_ratio": (statistics.median(n / b for n, b in wire), "x"),
        "codec.q8_err_over_bound": (err, "ratio"),
        "optim.step_self_ms": (ms(*STEP_SELF), "ms"),
        "optim.step_peak_x": (peak("optim.optimizer_step", _info), "x"),
        "optim.pack_state_ms": (ms("optim.pack_state"), "ms"),
        "optim.unpack_state_ms": (ms("optim.unpack_state"), "ms"),
        "optim.trust_ratio_calls": (per_step("optim.trust_ratio"), "1/step"),
        "optim.trust_clip_hits": (per_step("optim.trust_ratio", value=_info), "1/step"),
        "optim.ckpt_save_ms": (ckpt_ms("optim.save_checkpoint"), "ms"),
        "optim.ckpt_load_ms": (ckpt_ms("optim.load_checkpoint"), "ms"),
        "optim.ckpt_bytes": (saved[-1] if saved else 0, "B"),
        "trace.step_ms": (traced_ms, "ms"),
        "trace.untraced_ms": (ms("step"), "ms"),
        "trace.overhead_frac": (traced_ms / (1e3 * statistics.median(plain.step_s)) - 1.0, "frac"),
    }
    gap = max(
        abs(spans[r].end - spans[r].start - sum(selfs[i] for i in idx)) for r, idx in steps.items()
    )
    checks = {
        "traced weights equal untraced": plain.w_at_n is not None
        and traced.w_at_n is not None
        and _same_buf(plain.w_at_n, traced.w_at_n),
        "final_loss finite": math.isfinite(final_loss(run, plain)),
        "q8 error within bound": err <= Q8_DECODE_SLACK,
        "self times add up to step time": gap <= 1e-9,
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + sum(not ok for ok in checks.values())
    notes = {
        "checks": ", ".join(f"{k}: {'ok' if ok else 'FAILED'}" for k, ok in checks.items()),
        "traced_steps": f"{len(steps)}, untraced {len(plain.step_s)}",
        "failed_frac": f"{failed / attempted} ({failed} of {attempted} steps)",
    }
    return metrics, notes, attempted, failed
