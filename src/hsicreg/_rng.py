"""Deterministic random streams derived from a base seed and an index path.

`substream` defines every stream in the package: a counter-based Philox
generator keyed by ``(seed, *key)``.  The stream a given key yields never
depends on how many other streams exist or on the order they are consumed in,
so replicate-level work can be sharded across any number of workers without
changing a single drawn value.

Per-draw streams (bootstrap replicates and permutations) are the same streams,
drawn without building a generator each: `replicate_stream` re-keys one Philox
per thread, with keys computed a block of replicates at a time by a vectorized
port of NumPy's ``SeedSequence`` hash.  The tests check those keys against
`substream`.
"""
from __future__ import annotations

import threading

import numpy as np

_MASK = 0xFFFFFFFF
# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
#: Replicates whose Philox keys are computed together; a power of two, so no
#: block straddles a multiple of 2**32, and its replicates differ in their first word only.
_KEY_BLOCK = 64


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=_checked(seed), spawn_key=tuple(_checked(k) for k in key))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the stream keyed by ``(seed, *key)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *key)))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse ``(seed, *key)`` into a single reusable 63-bit integer seed."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0] >> np.uint64(1))


def _checked(value: int) -> int:
    out = int(value)
    if out < 0:
        raise ValueError(f"seeds and stream keys must be nonnegative integers, got {value!r}")
    return out


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` reads from a nonnegative integer."""
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def _chain(const: int, mult: int, steps: int) -> list[int]:
    """``const`` and the ``steps`` constants after it, each the last times ``mult`` mod 2**32."""
    out = [const]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK)
    return out


def _hash(value, before, after):
    """SeedSequence's hashmix with the constant it finds (``before``) and leaves (``after``)."""
    value = (value ^ before) * after & _MASK
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    out = (_MIX_L * x - _MIX_R * y) & _MASK
    return out ^ (out >> 16)


def _philox_keys(seed: int, first: int, count: int, tail: tuple[int, ...]) -> np.ndarray:
    """``count`` x 2 Philox keys of ``substream(seed, b, *tail)`` for b = first, first + 1, ...

    ``SeedSequence`` hashes its entropy words (the seed's, zero-padded to the
    pool size, then the spawn key's) into a pool of four words and hashes the
    pool once more into the key.  Its hash constant advances the same way
    whatever the data, so the pool the seed builds is computed once, in
    Python integers, and only the replicate's first word is an array: one row
    of pool words per replicate.  Its words above 32 bits, and the tail's, are
    the same for every row.  Needs a block that crosses no multiple of 2**32:
    ``first % 2**32 + count <= 2**32``.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    low, high = first & _MASK, first >> 32
    entropy.append(np.arange(low, low + count, dtype=np.uint64)[:, None])
    if high:
        entropy += _words(high)
    entropy += [word for key in tail for word in _words(key)]
    # One constant per hash of the entropy: 4 to fill the pool, 12 to mix it, 4 per word after.
    c = _chain(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = [_hash(entropy[i], c[i], c[i + 1]) for i in range(_POOL)]
    i = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], c[i], c[i + 1]))
                i += 1
    pool, c = np.array(pool, dtype=np.uint64), np.array(c, dtype=np.uint64)
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(word, c[i : i + _POOL], c[i + 1 : i + _POOL + 1]))
        i += _POOL
    # generate_state(2, np.uint64): four 32-bit words, paired little-endian.
    c = np.array(_chain(_INIT_B, _MULT_B, _POOL), dtype=np.uint64)
    words = _hash(pool, c[:-1], c[1:])
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


class _Streams(threading.local):
    """One thread's generator and the Philox keys of its current block of replicates."""

    generator: np.random.Generator | None = None
    block: tuple | None = None  # (seed, first replicate, tail)
    keys: np.ndarray | None = None


_streams = _Streams()


def replicate_stream(seed: int, replicate: int, *tail: int) -> np.random.Generator:
    """The stream of ``substream(seed, replicate, *tail)``, drawn from this thread's one generator.

    The generator is re-keyed in place on every call, so it is valid only until
    this thread's next call.  A bootstrap replicate passes its redraw as the
    tail; a permutation passes none.
    """
    seed, replicate, tail = _checked(seed), _checked(replicate), tuple(map(_checked, tail))
    first = replicate - replicate % _KEY_BLOCK
    if _streams.block != (seed, first, tail):
        _streams.keys = _philox_keys(seed, first, _KEY_BLOCK, tail)
        _streams.block = (seed, first, tail)
    if _streams.generator is None:
        _streams.generator = np.random.Generator(np.random.Philox(0))
    # The state a fresh Philox(SeedSequence) starts in: counter 0, empty buffers.
    _streams.generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _streams.keys[replicate - first].tolist()},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _streams.generator
