"""Exception types shared across the package, the coercions that range
checks of settings use, the one check of integer settings, and the one
refusal of a size that cannot be allocated.

Every error the package raises is a subclass of SwarmError, so callers can
catch one base type at process boundaries.
"""

import contextlib
import math
import numbers

import numpy as np


class SwarmError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(SwarmError):
    """A tensor entering a codec boundary contains NaN or Inf, or optimizer
    state being saved holds moments that no run reaches, whose next step
    could overflow."""


class NonFiniteGradient(SwarmError):
    """A gradient produced or received during training is not finite, or
    has a magnitude of 2**63 or more. The square of 2**64 overflows fp32,
    and 8-bit state, which stores sqrt(v) in Q8, can decode a magnitude
    just below 2**64 as 2**64, so that v overflows one step later."""


class MalformedChunk(SwarmError):
    """An encoded tensor chunk violates its structural invariants."""


class ChecksumMismatch(MalformedChunk):
    """A checkpoint's bytes do not match its CRC-32 trailer."""


class OverflowToInfinity(SwarmError):
    """A value would encode to Inf: beyond binary16's largest finite
    magnitude, or in a Q8 block whose 127 * scale exceeds fp32's."""


class ShapeMismatch(SwarmError):
    """Tensor operands disagree on element count or shape, or a layer
    partition does not tile the parameter vector."""


class StepOutOfRange(SwarmError):
    """A schedule was queried outside [0, total_steps]."""


class ConfigError(SwarmError):
    """A component configuration violates its invariants."""


# ``checked_int`` reads each integer setting that must lie in a range. A
# value of the wrong type (None, a string, 2.5 where a count belongs)
# becomes NaN, which fails the range test, so it is refused with the
# caller's error instead of a TypeError. The caller keeps the returned
# value, so a numpy integer goes on as a Python int, whose arithmetic
# neither wraps nor overflows. An isinstance test against a numbers ABC
# takes about 0.4 us, and an optimizer step calls ``as_int`` twice per
# layer, so ``as_int`` tests ``int`` and ``as_real`` the exact type
# ``float`` first: an int or a float never reaches the ABC.


def as_int(value):
    """``value`` if it is an int (an ``IntEnum`` member too), ``int(value)``
    if it is a numpy integer, else NaN; a bool is not an integer here,
    though Python makes it a subclass of int."""
    if isinstance(value, int):  # an IntEnum member and a bool too
        return math.nan if type(value) is bool else value
    return int(value) if isinstance(value, numbers.Integral) else math.nan


def as_real(value):
    """``value`` if it is a real number (Python or numpy) other than a bool,
    else NaN."""
    if type(value) is float or isinstance(value, numbers.Real) and type(value) is not bool:
        return value
    return math.nan


# The least magnitude that fp32 rounds to Inf: halfway between its largest
# finite value, 2**128 - 2**104, and 2**128, where the tie goes to 2**128.
_F32_OVERFLOW = 2.0**128 - 2.0**103
_NARROW_FLOATS = (np.float16, np.float32)


def as_f32(value):
    """``as_real(value)`` rounded to fp32, as a Python float, if fp32 holds it
    finite; else NaN. The optimizer step computes with its real settings in
    fp32, so each one is range-checked as this value: a setting that fp32
    rounds to Inf, or to 0 where 0 is out of range, fails its check. Unlike
    numpy's cast of a value beyond fp32's range, it warns of nothing."""
    x = as_real(value)
    if type(x) in _NARROW_FLOATS:
        # numpy compares an fp16 or fp32 scalar with a Python float in the
        # scalar's own type, so the bound would overflow in that cast; the
        # widening to a Python float is exact
        x = float(x)
    return float(np.float32(x)) if abs(x) < _F32_OVERFLOW else math.nan


def checked_int(value, name, error, lo=0, hi=math.inf):
    """``as_int(value)`` if that is an integer in [lo, hi); otherwise raise
    ``error`` with a message that names the setting ``name``."""
    n = as_int(value)
    if not lo <= n < hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return n


@contextlib.contextmanager
def allocating(size: str):
    """Raise ``ConfigError`` naming ``size`` when an allocation in the block
    fails: numpy raises ``ValueError`` and ``bytes`` ``OverflowError`` for a
    size past the address space, and both raise ``MemoryError`` for one the
    host cannot hold. Wrap only statements whose other errors are
    ``SwarmError``s."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError):
        raise ConfigError(f"{size} is too large to allocate") from None
