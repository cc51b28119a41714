"""Training-step benchmark for swarmdesk: one workload, one seed, one run.

    python3 perfbench/run.py --workload q8_lamb8_4m --seed 1 --seconds 30 --trace 0

Run it from the repository root. One process runs one training step after
another in a closed loop (one caller, the next step starts when the last one
ends): ``Task.batch_grad_sum -> codec.encode -> codec.chunk_to_bytes ->
codec.chunk_from_bytes -> codec.decode -> optim.optimizer_step``, with the
rate from ``optim.lr_at``. BLAS is pinned to one thread before numpy loads.
Every metric is printed by name with its unit; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when a check fails.

``--trace 0`` is the untraced run and reports the end-to-end metrics:
``step_ms_p50``; ``step_ms_tail``, the highest percentile (at most p99) with
at least 10 steps beyond it, and at least 50 or a twentieth of the steps
(bench.tail), whose percentile and step count are printed above the JSON;
``samples_per_s`` over the whole timed phase, checkpoint stalls included;
``step_peak_mib``, the tracemalloc peak of one step in its own untimed
phase; ``state_bytes_per_param``; ``wire_bytes_per_step``; ``final_loss``
after the workload's fixed number of steps; and ``setup_s``, the median of
at least three set-ups and 2 s of them (task build, ``init_state``, two
warm-up steps). ``failed_frac`` is printed but is not a
JSON metric, because it is 0 on a good run; ``failed`` / ``attempted`` in
the JSON carry it.

The host's speed drifts by up to 2x between and within runs, so each
set-up and each short turn of timed steps is followed by calls of a
reference kernel that does the same kind of work as the workload's step
(calib.py; the calls take a fifth of the run). The times of a turn or a
set-up are scaled by the kernel's nominal time over the median of the
calls right after it, and ``step_ms_p50``, ``samples_per_s`` and
``setup_s`` are taken from the scaled times: a program change moves them
in full, a slower host hardly at all. ``step_ms_tail`` is scaled only
where the host ran slower than nominal (bench.py says why). The unscaled
values are printed above the JSON. The first step of each turn is left
out of the step times, because it runs on the caches the kernel left
behind.

``--trace 1`` runs an untraced and a traced loop from the same start, taking
turns of 0.25 s so that both see the same machine. The traced loop swaps the
public functions of ``codec`` and ``optim`` (and the task's gradient) for
timing wrappers and restores them afterwards (tracing.py). It reports the
per-layer metrics. A ``_ms`` metric is the median over steps of that
function's self time per step. The self times of all spans in a step plus
``trace.untraced_ms`` (the step's own casts) add up to the traced step time,
which the run checks.

Workloads and why they were chosen:

* ``q8_lamb8_4m``: quadratic task, 2**22 params in 64 equal layers, LAMB with
  8-bit state, Q8 wire, default ``block_size``; a checkpoint is saved,
  loaded and resumed from every 8 steps. This is the paper's configuration
  at a size where ``quantize_q8``, the moment math and ``dequantize_q8``
  carry the step, and the checkpoint uses the state layer a second way.
  ``block_size`` is the default because that is the default, not to dodge
  ``load_checkpoint`` dropping a non-default one (a known defect left to its
  own fix).
* ``logreg_adam32_f16``: logistic regression, 8192 x 2048, seeded
  minibatches of 1024, Adam with fp32 state, F16 wire (2048 is below
  ``q8_threshold``). Here and in ``mlp_lamb8_tiny`` the task is built from
  one fixed seed and ``--seed`` draws the minibatch order, because the loss
  of a small task depends more on the data drawn than on the optimizer. The gradient is nearly the whole step and neither Q8
  nor 8-bit state runs: a codec or optim change should not move it, and it
  is the only workload where a ``tasks`` change shows.
* ``mlp_lamb8_tiny``: ``tiny_mlp`` (97 params, 4 layers), LAMB with 8-bit
  state, batch 32, F16 wire. Fixed per-call cost dominates (validation,
  dataclass construction, the layer loop, one partial Q8 block), so a
  large-tensor rewrite that adds fixed overhead shows here.

Which end-to-end metric each per-layer metric should move, and where:

* ``tasks.grad_ms``, ``tasks.grad_peak_mib`` -> ``step_ms_p50``,
  ``samples_per_s``, ``step_peak_mib`` on ``logreg_adam32_f16``.
* ``codec.quantize_q8_{ms,gbps,peak_x}``, ``codec.dequantize_q8_{ms,gbps,peak_x}``
  -> ``step_ms_p50``, ``step_peak_mib`` on ``q8_lamb8_4m``; no change on
  ``logreg_adam32_f16``, which never calls Q8.
* ``codec.encode_f16_ms``, ``codec.decode_f16_ms``, ``codec.chunk_to_bytes_ms``,
  ``codec.chunk_from_bytes_ms`` -> ``step_ms_p50`` on ``mlp_lamb8_tiny``.
* ``codec.q8_calls``, ``codec.f16_calls``, ``codec.compression_ratio``
  (4 n / wire bytes) -> ``wire_bytes_per_step`` on all workloads.
* ``codec.q8_err_over_bound`` (largest |x - decode(x)| over
  ``roundtrip_error_bound``) moves no timing; it guards ``final_loss``.
* ``optim.step_self_ms`` (moment math and the LAMB loop, without pack and
  unpack), ``optim.step_peak_x`` (peak including children, over parameter
  bytes) -> ``step_ms_p50``, ``step_peak_mib`` on ``q8_lamb8_4m``.
* ``optim.pack_state_ms``, ``optim.unpack_state_ms`` (self times) ->
  ``step_ms_p50`` on ``q8_lamb8_4m`` and ``mlp_lamb8_tiny``.
* ``optim.trust_ratio_calls``, ``optim.trust_clip_hits`` -> ``step_ms_p50``
  on ``mlp_lamb8_tiny`` and ``q8_lamb8_4m``.
* ``optim.ckpt_save_ms``, ``optim.ckpt_load_ms``, ``optim.ckpt_bytes`` ->
  ``samples_per_s`` on ``q8_lamb8_4m``.
* ``trace.step_ms``, ``trace.untraced_ms``, ``trace.overhead_frac``: the
  traced step, the part of it outside any span, and the traced over the
  untraced median minus one.

A run fails (exit 1, ``correct`` false, counted in ``failed``) when a step
raises a ``SwarmError``, a loaded checkpoint differs from the in-memory
weights, moments or step in any bit, a Q8 chunk made in the first two
steps has an error above its bound (plus the fp32 rounding of decode, see
bench.py), ``final_loss`` is not
finite, or, in the traced run, the weights after the fixed number of steps
differ from the untraced run's or the self times do not add up.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def machine() -> dict:
    """The machine and numeric stack the numbers were taken on."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    if not (SRC / "swarmdesk").is_dir():
        print(f"swarmdesk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = bench.WORKLOADS[args.workload]
    measure = bench.per_layer if args.trace else bench.end_to_end
    metrics, notes, attempted, failed = measure(wl, args.seed, args.seconds)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine", json.dumps(machine()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f"  [{notes[name]}]" if name in notes else ""))
    for name, text in notes.items():
        if name not in metrics:
            print(f"{name}: {text}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
