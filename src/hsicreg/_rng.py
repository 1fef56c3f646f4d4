"""Deterministic random streams derived from a base seed and an index path.

`substream` defines the data streams: a Philox generator keyed by
``SeedSequence(seed, spawn_key=key)``.  The stream a given key yields never
depends on how many other streams exist or on the order they are consumed in,
so replicate-level work can be sharded across any number of workers without
changing a single drawn value.

Per-draw streams (bootstrap replicates and permutations) are told apart by
Philox's counter, not its key, as a counter-based generator allows (Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
`replicate_stream` keys one Philox per thread by the seed alone and starts it
at the counter ``(0, replicate, redraw, 1 + len(tail))``: ``(0, b, 0, 1)`` for
permutation b, ``(0, b, r, 2)`` for bootstrap replicate b's redraw r.  A stream
advances only counter word 0, which holds 2**64 blocks, so no two overlap.

:func:`check_integer` is the one rule for every seed, stream key, count and
worker number in the package: a float or a bool is refused, never truncated.
"""
from __future__ import annotations

import operator
import threading

import numpy as np


def check_integer(name: str, value, minimum: int = 0) -> int:
    """``value`` as an ``int``; a ValueError naming ``name`` and the value if it is a bool,
    has no ``__index__`` (numpy integers have one) or is below ``minimum``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be {'nonnegative' if minimum == 0 else f'>= {minimum}'}, got {value}")
    return value


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    seed = check_integer("seed", seed)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(check_integer("stream key", k) for k in key))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the stream keyed by ``(seed, *key)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *key)))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse ``(seed, *key)`` into a single reusable 63-bit integer seed."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0] >> np.uint64(1))


class _Streams(threading.local):
    """One thread's generator and the Philox key of the last seed it drew for."""

    generator: np.random.Generator | None = None
    seed: int | None = None
    key: list[int] | None = None


_streams = _Streams()


def replicate_stream(seed: int, replicate: int, *tail: int) -> np.random.Generator:
    """The stream at counter ``(0, replicate, redraw, 1 + len(tail))`` under the seed's key.

    The generator is this thread's one Philox, re-keyed in place on every
    call, so it is valid only until this thread's next call.  A bootstrap
    replicate passes its redraw as the one tail word; a permutation passes none.
    """
    if len(tail) > 1:
        raise ValueError(f"a stream takes at most one redraw word after the replicate, got {tail!r}")
    seed = check_integer("seed", seed)
    words = [check_integer(name, word) for name, word in zip(("replicate", "redraw"), (replicate, *tail))]
    if max(words) >= 1 << 64:
        raise ValueError(f"replicates and redraws must be below 2**64, got {max(words)}")
    if _streams.generator is None:  # built on first use: importing the package loads no numpy.random
        _streams.generator = np.random.Generator(np.random.Philox(0))
    if _streams.seed != seed:
        _streams.seed, _streams.key = seed, _seed_sequence(seed).generate_state(2, np.uint64).tolist()
    _streams.generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, words[0], words[-1] if tail else 0, 1 + len(tail)), "key": _streams.key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _streams.generator
