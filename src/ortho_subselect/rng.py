"""Seedable random streams with deterministic child-seed derivation.

All randomness in the package flows from one integer seed. Independent
substreams are derived with :func:`child_seed`: the child for
``(seed, p1, p2, ...)`` is the first 8 bytes of ``SHA-256("seed:p1:p2:...")``
read big-endian. Generators are NumPy PCG64 (``numpy.random.default_rng``).
Both choices are load-bearing for replay of recorded traces and must not
change silently.

Monte-Carlo loops take their per-trial generators from :func:`trial_rngs`.
It evaluates ``SeedSequence(child_seed(seed, k)).generate_state(4, uint64)``
(O'Neill's seed_seq mixer, as numpy implements it) for a chunk of trials at
once in uint32 numpy arithmetic, and hands each row of words to PCG64, so
every stream is bit-identical to ``default_rng(child_seed(seed, k))``.
``tests/test_rng.py`` guards that identity against numpy's own SeedSequence.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterator

import numpy as np

# Trials seeded per batch: 32 KiB of PCG64 words, enough to spread the
# batch's fixed numpy cost, bounded for any trial count.
_SEED_CHUNK = 1024
_MASK32 = 0xFFFFFFFF


def child_seed(seed: int, *path: int | str) -> int:
    """Derive the 64-bit seed of the substream named by ``path``."""
    text = ":".join(str(p) for p in (seed, *path))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for the given seed."""
    return np.random.default_rng(seed)


def rademacher(rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of independent +-1 signs, each with probability 1/2."""
    return 2.0 * rng.integers(0, 2, size=size).astype(np.float64) - 1.0


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row k is ``SeedSequence(seeds[k]).generate_state(4, np.uint64)``.

    ``seeds`` holds integers below 2**64. numpy reads a seed as its uint32
    words, least significant first, and pads a 4-word pool with hashes of
    0, so a seed below 2**32 gets the same pool as its 2-word form with a
    zero high word. Every hash constant advances the same way for every
    seed, so the mixer runs column-wise over all seeds at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931E8875 & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x
        r -= np.uint32(0x4973F715) * y
        r ^= r >> np.uint32(16)
        return r

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = 0x8B51F9DD
    words = np.zeros((*seeds.shape, 4), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * 0x58F38DED & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        # uint32 word 2j is the low half of uint64 word j, 2j+1 the high half
        words[..., i // 2] |= value.astype(np.uint64) << np.uint64(32 * (i % 2))
    return words


@functools.cache
def _preset_state_type() -> type:
    """Seed sequence whose ``generate_state(4, uint64)`` is already known.

    PCG64 takes only ``ISeedSequence`` instances. The class is built on
    first use, so importing this module does not import numpy.random,
    which ``certify`` never needs.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
                raise ValueError("preset state holds 4 uint64 words only")
            return self.words

    return PresetState


def trial_rngs(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Generators for ``child_seed(seed, k)``, ``k = start .. stop-1``, in order.

    Each equals ``make_rng(child_seed(seed, k))`` draw for draw. Seeds are
    derived and mixed lazily, ``_SEED_CHUNK`` trials at a time.
    """
    preset = _preset_state_type()
    prefix = f"{seed}:"
    for lo in range(start, stop, _SEED_CHUNK):
        digests = bytearray()  # child_seed's 8 big-endian bytes per trial
        for k in range(lo, min(lo + _SEED_CHUNK, stop)):
            digests += hashlib.sha256(f"{prefix}{k}".encode("ascii")).digest()[:8]
        for words in _seed_words(np.frombuffer(digests, dtype=">u8")):
            yield np.random.Generator(np.random.PCG64(preset(words)))
