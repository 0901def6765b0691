"""Reproducible random number streams.

Every sampler in this package takes an explicit source of randomness: either a
stateful :class:`numpy.random.Generator`, or an :class:`RngStream`, which is a
pure value.  Two calls made with the same ``RngStream`` replay the identical
draw sequence, while distinct ``(seed, stream_index)`` pairs give statistically
independent streams.  Engines that fan work out over chunks derive one child
generator per chunk with :meth:`RngStream.generator`, so their results do not
depend on how the chunks would be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "as_generator"]

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """Identity of a reproducible random stream.

    Parameters
    ----------
    seed : int
        Base seed, interpreted as an unsigned 64-bit integer.
    stream_index : int, optional
        Non-negative index separating independent streams that share a seed.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if _count(self.seed, "seed", 0) > _U64_MAX:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        _count(self.stream_index, "stream_index", 0)

    def generator(self, *subkeys: int) -> np.random.Generator:
        """Return a fresh generator for this stream.

        Optional ``subkeys`` extend the stream identity, giving collision-free
        child streams for internal chunking: ``stream.generator(purpose, k)``
        is independent of ``stream.generator(purpose, k + 1)`` and of
        ``stream.generator()`` itself.
        """
        return np.random.default_rng([int(self.seed), int(self.stream_index), *map(int, subkeys)])


def _integral(value) -> bool:
    """Whether ``value`` is a whole number: an integer or an integral float such as ``2.0``, never a bool."""
    return not isinstance(value, (bool, np.bool_)) and (isinstance(value, (int, np.integer)) or float(value).is_integer())


def _count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an ``int`` of at least ``minimum`` (1 or 0): the one rule for every count, size and seed."""
    if not (_integral(value) and value >= minimum):
        raise ValueError(f"{name} must be {'a positive' if minimum else 'a non-negative'} integer, got {value}")
    return int(value)


def _chunk_spans(total: int, step: int):
    """Split ``range(total)`` into consecutive chunks of ``step`` items, the last possibly short.

    Yields ``(k, start, n)``: the chunk index, its first item and its length.
    """
    for k, start in enumerate(range(0, total, step)):
        yield k, start, min(step, total - start)


def _as_stream(rng: RngStream | int, caller: str) -> RngStream:
    """``rng`` as an :class:`RngStream`, an int being its seed; engines that derive chunk streams need one."""
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    if not isinstance(rng, RngStream):
        raise TypeError(f"{caller} needs an RngStream (or int seed) to derive chunk streams")
    return rng


def as_generator(rng: RngStream | np.random.Generator | int) -> np.random.Generator:
    """Normalize the accepted randomness inputs to a ``numpy`` generator.

    Integers are shorthand for ``RngStream(seed).generator()``.  Passing a
    ``Generator`` keeps its state, so successive calls continue the sequence;
    passing the same ``RngStream`` (or int) twice replays identical draws.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"expected RngStream, numpy Generator, or int seed, got {type(rng).__name__}")
