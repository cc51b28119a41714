"""Numerical core of collaborative training over slow peers.

``codec``: blockwise 8-bit (Q8), binary16 and raw fp32 tensor encodings and
their wire format; ``encode`` selects the scheme from a ``CodecPolicy`` and
the element count, and raw fp32 is reached only through ``encode`` and
``decode``. ``optim``: Adam and LAMB in one step function,
``optimizer_step``, with a warmup/decay schedule, optimizer state whose
two moments are codec chunks, fp32 (F32_RAW) or 8-bit (Q8), which
``pack_state`` and ``unpack_state`` convert, and a resumable checkpoint,
as bytes or as a file, whose header fixes its layout: the fp32 weights,
then each moment's scales and payload as its chunk holds them. ``tasks``:
closed-form training tasks with analytic gradients that stand in for the
model, each built by its own factory: ``make_quadratic``, ``make_logreg``
and ``make_tiny_mlp``. A ``Task``'s size is that of its initial parameters, and
only the tiny MLP names layers; the others are one layer for LAMB. Every
task refuses parameters of another shape. ``errors``: the exception types,
and the coercions and the range check that settings go through.
"""

__version__ = "0.1.0"
