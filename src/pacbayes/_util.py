"""Shared helpers: the whole-number rules and deterministic RNG derivation.

Every count (a sample size, a number of trials, a seed) passes
``_check_count(value, name, low)`` and every index into m hypotheses
``_check_index(value, m, name)``: a whole number (an int, a numpy integer or
an integral float such as JSON's ``1000.0``) >= low, or in [0, m), comes back
as an int; a bool, NaN, +-inf, 2.5 or a string raises ValueError naming it.

RNG derivation has two entry points, which give the same streams:

- ``child_rng(seed, *key)`` is ``default_rng(SeedSequence(seed, spawn_key=key))``,
  one generator per call (about 12 us).  It is the definition.
- ``child_rngs(seed, keys)`` yields, in order, the generator ``child_rng(seed,
  *key)`` returns for each key, with the same ``bit_generator.state``.  It
  runs numpy's published SeedSequence hash as uint32 array passes over all
  keys at once (45 us a call plus 0.05 us a key), or reads one of its last 8
  (seed, keys) sets back (4 us; the lab's common random numbers repeat them),
  then builds each generator (1.2 us, 2-CPU host); single draws keep child_rng.

Domain: the seed is a whole number >= 0 of any size; the keys of one
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
import itertools

import numpy as np

# numpy's SeedSequence constants (pool size 4 words, 16-bit xorshift)
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _whole(value):
    """value as an int if it is a whole number, else None."""
    if isinstance(value, (float, np.floating)):
        return int(value) if float(value).is_integer() else None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)


def _check_count(value, name: str, low: int = 1) -> int:
    """The one count rule: a whole number >= low, returned as an int."""
    if (k := _whole(value)) is None or k < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return k


def _check_index(value, m: int, name: str) -> int:
    """The one index rule: a whole number in [0, m), returned as an int."""
    if (k := _whole(value)) is None or not 0 <= k < m:
        raise ValueError(f"{name} must be an integer in [0, {m}), got {value!r}")
    return k


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator derived deterministically from (seed, key).

    Streams with distinct keys are independent, so each trial's draws
    depend only on its own key, never on the trials run before it.
    """
    seed = _check_count(seed, "seed", 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _consts(const: int, mult: int):
    """The endless (XOR, multiplier) const pairs of successive hashmix calls."""
    chain = itertools.accumulate(itertools.repeat(mult), lambda c, m: c * m & _MASK, initial=const)
    return itertools.pairwise(chain)


def _hashmix(value, const, nxt):
    """SeedSequence's hashmix, on ints or elementwise on uint32 arrays."""
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x & _MASK) - (_MIX_R * y & _MASK) & _MASK
    return r ^ r >> 16


def _state_words(seed: int, keys) -> np.ndarray:
    """The (keys x 4) uint64 words SeedSequence(seed, spawn_key=key)
    .generate_state(4, uint64) gives for each row key of keys, read-only."""
    seed = _check_count(seed, "seed", 0)
    try:
        keys = np.asarray(keys, dtype=np.int64)
    except OverflowError:
        raise ValueError("key entries must be in [0, 2**32)") from None
    if keys.ndim != 2 and keys.size:  # an empty sequence of keys gives no generators
        raise ValueError("keys must be a sequence of equal-length keys")
    if keys.size and not (0 <= keys.min() and keys.max() <= _MASK):
        raise ValueError("key entries must be in [0, 2**32)")
    keys = keys.astype(np.uint32) if keys.ndim == 2 else np.empty((0, 0), np.uint32)
    hashed = _hashed_words if len(keys) <= 2**14 else _hashed_words.__wrapped__  # 512 KiB a set
    return hashed(seed, keys.shape, keys.tobytes())


@functools.lru_cache(maxsize=8)
def _hashed_words(seed: int, shape: tuple, data: bytes) -> np.ndarray:
    """_state_words of checked uint32 keys, given by shape and bytes."""
    # the seed's words, zero-padded to the pool size since a spawn key follows
    words = [seed >> 32 * i & _MASK for i in range(max(_POOL, -(-seed.bit_length() // 32)))]
    consts = _consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, *next(consts)) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    # each later word, the seed's past the pool size and then each key
    # column, mixes into the four pool words at once: a (keys x 4) pass
    pool = np.array(pool, dtype=np.uint32)
    for word in [*words[_POOL:], *np.frombuffer(data, dtype=np.uint32).reshape(shape).T]:
        c = np.array(list(itertools.islice(consts, _POOL)), dtype=np.uint32).T
        pool = _mix(pool, _hashmix(np.reshape(word, (-1, 1)).astype(np.uint32), *c))
    # state word i hashes pool word i % 4: a (keys x 8) pass
    c = np.array(list(itertools.islice(_consts(_INIT_B, _MULT_B), 2 * _POOL)), dtype=np.uint32).T
    pool = np.broadcast_to(pool, (shape[0], _POOL)).take(np.arange(2 * _POOL) % _POOL, axis=1)
    words = _hashmix(pool, *c).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


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
    of every key are made here, in one array pass, or read back for one of
    the last 8 sets; each generator is built when the iterator reaches it.
    """
    words = _state_words(seed, keys)
    Generator, PCG64, StateWords = _seeding()
    return (Generator(PCG64(StateWords(row))) for row in words)
