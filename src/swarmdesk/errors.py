"""Exception types shared across the package.

Every error a volunteer-facing component can raise is a subclass of
SwarmError so callers can catch one base type at process boundaries.
"""


class SwarmError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(SwarmError):
    """A tensor entering a codec boundary contains NaN or Inf."""


class NonFiniteGradient(SwarmError):
    """A gradient produced or received during training is not finite."""


class MalformedChunk(SwarmError):
    """An encoded tensor chunk violates its structural invariants."""


class OverflowToInfinity(SwarmError):
    """A value would encode to Inf: beyond binary16's largest finite
    magnitude, or in a Q8 block whose 127 * scale exceeds fp32's."""


class ShapeMismatch(SwarmError):
    """Tensor operands disagree on element count or shape."""


class StepOutOfRange(SwarmError):
    """A schedule was queried outside [0, total_steps]."""


class EmptyRound(SwarmError):
    """Aggregation was requested with zero contributions."""


class RoundAborted(SwarmError):
    """A training round lost every contributor and cannot complete."""


class UnknownPeer(SwarmError):
    """A transport operation referenced a peer that does not exist."""


class CodeOutOfRange(SwarmError):
    """An image code id falls outside the codebook range."""


class EmptyShard(SwarmError):
    """A shard was encoded with zero records."""


class ChecksumMismatch(SwarmError):
    """A shard's records block does not match its header checksum."""


class FetchFailed(SwarmError):
    """A shard source could not be read after exhausting retries."""


class ConfigError(SwarmError):
    """A scenario or component configuration violates its invariants."""
