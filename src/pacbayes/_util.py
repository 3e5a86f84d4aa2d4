"""Shared helper: deterministic RNG derivation for seeded experiments.

Two entry points give the same streams:

- ``child_rng(seed, *key)`` is ``default_rng(SeedSequence(seed, spawn_key=key))``,
  one generator per call (about 12 us).  It is the definition.
- ``child_rngs(seed, keys)`` yields, in order, the generator ``child_rng(seed,
  *key)`` returns for each key, with the same ``bit_generator.state``.  It
  runs numpy's published SeedSequence hash as uint32 array passes over all
  keys at once, about 90 us per call plus 2 us per key, so it pays only for
  a whole experiment's keys; single draws keep ``child_rng``.

Domain: the seed is a non-negative int of any size; the keys of one
``child_rngs`` call have one length each, with entries in [0, 2**32), so
every key is one uint32 word per entry.  Anything else is a ValueError.

Each generator is ``Generator(PCG64(holder))`` where the holder is an
``ISeedSequence`` returning its key's four state words.  Subclassing
``ISeedSequence`` imports ``numpy.random`` (about 10 ms), so the holder class
is made on the first ``child_rngs`` call, never at import: ``import
pacbayes.cli`` stays free of ``numpy.random``.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# numpy's SeedSequence constants (pool size 4 words, 16-bit xorshift)
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator derived deterministically from (seed, key).

    Streams with distinct keys are independent, so each trial's draws
    depend only on its own key, never on the trials run before it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of value (an int or a uint32 array) and the next
    const; generate_state hashes each output word the same way with mult B."""
    nxt = const * mult & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_L * x & _MASK) - (_MIX_R * y & _MASK) & _MASK
    return r ^ r >> 16


def _state_words(seed: int, keys) -> np.ndarray:
    """The (keys x 4) uint64 words SeedSequence(seed, spawn_key=key)
    .generate_state(4, uint64) gives for each row key of keys."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    try:
        keys = np.asarray(keys, dtype=np.int64)
    except OverflowError:
        raise ValueError("key entries must be in [0, 2**32)") from None
    if keys.ndim != 2 and keys.size:  # an empty sequence of keys gives no generators
        raise ValueError("keys must be a sequence of equal-length keys")
    if keys.size and not (0 <= keys.min() and keys.max() <= _MASK):
        raise ValueError("key entries must be in [0, 2**32)")
    # the seed's words, zero-padded to the pool size since a spawn key follows
    words = [seed >> 32 * i & _MASK for i in range(max(_POOL, -(-seed.bit_length() // 32)))]
    const, pool = _INIT_A, []
    for word in words[:_POOL]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    # everything so far is the same for every key; each later word, the
    # seed's past the pool size and then each key column, is one uint32
    # pass per pool word over all keys
    pool = [np.full(len(keys), h, dtype=np.uint32) for h in pool]
    for word in [*words[_POOL:], *keys.astype(np.uint32).T]:
        for dst in range(_POOL):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)
    state = np.empty((len(keys), 2 * _POOL), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL):
        state[:, i], const = _hashmix(pool[i % _POOL], const, _MULT_B)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seeding():
    """Generator, PCG64 and a class holding one key's state words, made on
    first use so that importing this module leaves numpy.random unloaded."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for its four uint64 seed words and nothing else
            return self.words

    return Generator, PCG64, StateWords


def child_rngs(seed: int, keys):
    """Iterate child_rng(seed, *key) for each key of keys, in order.

    keys is a sequence of equal-length keys (or a 2-D integer array) with
    entries in [0, 2**32); an empty one gives no generators.  The state words
    of every key are made here, in one array pass; each generator is built
    when the iterator reaches it.
    """
    words = _state_words(seed, keys)
    Generator, PCG64, StateWords = _seeding()
    return (Generator(PCG64(StateWords(row))) for row in words)
