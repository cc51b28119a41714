"""Tests for the benchmark's own pieces: span accounting, the tail
percentile, the restoring of wrapped module attributes, the reference
kernel's scaling and the untimed first step of a turn."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bench  # noqa: E402
import calib  # noqa: E402
from swarmdesk import codec  # noqa: E402
from swarmdesk.errors import SwarmError  # noqa: E402
from tracing import Span, Tracer, roots, self_times  # noqa: E402


def _span(name, start, end, parent=None):
    sp = Span(name, start, parent)
    sp.end = end
    return sp


def test_self_time_is_duration_minus_children():
    spans = [
        _span("step", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("other", 11.0, 12.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert roots(spans) == [0, 0, 0, 0, 4]
    assert sum(t for t, r in zip(self_times(spans), roots(spans)) if r == 0) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0), _span("c1", 1.0, 6.0, 0), _span("c2", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_recorded_spans_nest_and_add_up():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(1000))
        with tracer.span("inner"):
            sum(range(1000))
    outer, a, b = tracer.spans
    assert (a.parent, b.parent) == (0, 0)
    assert outer.start <= a.start <= a.end <= b.start <= b.end <= outer.end
    selfs = self_times(tracer.spans)
    assert selfs[0] == pytest.approx((outer.end - outer.start) - (a.end - a.start) - (b.end - b.start))
    assert sum(selfs) == pytest.approx(outer.end - outer.start)


def test_memory_peak_of_parent_covers_child():
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracer.span("outer"):
            keep = np.ones(1 << 18)  # 2 MiB, alive to the end
            with tracer.span("inner"):
                del_me = np.ones(1 << 19)  # 4 MiB, freed inside
                del del_me
            with tracer.span("after"):
                pass
    finally:
        tracemalloc.stop()
    outer, inner, after = tracer.spans
    assert inner.peak >= 4 << 20
    assert outer.peak >= inner.peak + (2 << 20)
    assert after.peak < 1 << 20
    assert keep.size


@pytest.mark.parametrize(
    "n, beyond",
    [(11, 10), (12, 10), (37, 10), (219, 10), (400, 20), (999, 49), (1000, 50), (1001, 50),
     (5000, 50), (5001, 51), (60000, 600)],
)
def test_tail_keeps_ten_samples_beyond(n, beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    value, pct = bench.tail(samples)
    assert sum(s > value for s in samples) == beyond
    assert pct == pytest.approx(100.0 * (n - beyond) / n)
    assert pct <= 99.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        bench.tail([1.0] * 10)


def test_patch_restores_every_attribute_when_a_step_raises():
    run = bench.setup(bench.WORKLOADS["mlp_lamb8_tiny"], seed=0)
    before = {(m.__name__, a): getattr(m, a) for m, a, _ in bench.TARGETS}
    bad_w = codec.TensorBuf(np.full(run.task.param_dim, np.nan, np.float32))
    tracer = Tracer()
    with pytest.raises(SwarmError):
        with tracer.patch(bench.TARGETS):
            assert all(getattr(m, a) is not before[(m.__name__, a)] for m, a, _ in bench.TARGETS)
            bench.step(bench.traced_run(run, tracer), bad_w, run.st0)
    assert all(getattr(m, a) is before[(m.__name__, a)] for m, a, _ in bench.TARGETS)
    assert tracer.spans and all(sp.end >= sp.start for sp in tracer.spans)


def test_calibrator_scales_by_nominal_over_median_of_its_own_calls(monkeypatch):
    cal = calib.Calibrator("interp")
    assert cal.run(0.0) == calib.NOMINAL_S["interp"] / cal.times[0]
    cal.times = [100.0]
    ticks = iter([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 7.0])  # deadline, then a start and an end per call
    monkeypatch.setattr(calib.time, "perf_counter", lambda: next(ticks))
    assert cal.run(5.0) == calib.NOMINAL_S["interp"] / 1.0
    assert cal.times == [100.0, 1.0, 1.0, 3.0]


def test_untimed_steps_count_in_rate_but_not_in_step_times(tmp_path):
    run = bench.setup(bench.WORKLOADS["mlp_lamb8_tiny"], seed=0)
    lp = bench.Loop(run, str(tmp_path / "state.topt"))
    lp.advance(0.0, untimed=1)
    assert (lp.completed, len(lp.step_s)) == (1, 0)
    lp.advance(0.0)
    assert (lp.completed, len(lp.step_s), lp.attempted) == (2, 1, 2)
    assert lp.elapsed_s > lp.step_s[0]
