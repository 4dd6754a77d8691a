"""Deterministic seed derivation.

Every piece of randomness in this package flows from a single master seed
through `derive_seed`, a fixed 64-bit mixing function.  Derived streams are
keyed by small integer tags (task index, epoch index, ...) so that changing
one stream never perturbs another, and so that nothing ever depends on label
values or wall-clock state.  `generators` makes default_rng's Generators of
many seeds at once, with one numpy pass of SeedSequence's hash for all.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1


def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One round of the splitmix64 finalizer (well-mixed 64-bit hash), of an
    int in [0, 2**64) or of every entry of a uint64 array, which wraps."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int | np.ndarray, *indices: int) -> int | np.ndarray:
    """Fold integer tags into a master seed, producing an independent substream seed.

    derive_seed(s) != s in general; derive_seed(s, i) and derive_seed(s, j)
    are unrelated for i != j.  Accepts any Python ints; values are reduced
    mod 2**64 first.  A uint64 array of masters gives an array of seeds.
    """
    acc = splitmix64(master & _MASK)
    for ix in indices:
        acc = splitmix64(acc ^ splitmix64(ix & _MASK))
    return acc


def seed_grid(master: int, prefix: tuple[int, ...], *axes) -> list[int]:
    """derive_seed(master, *prefix, *cell) for every cell of the grid the
    axes (sequences of ints) span, in C order: the last axis varies fastest.
    The prefix is folded once, and each axis in one uint64 pass."""
    accs = np.array([derive_seed(master, *prefix)], np.uint64)
    for axis in axes:
        mixed = splitmix64(np.array([ix & _MASK for ix in axis], np.uint64))
        accs = splitmix64((accs[:, None] ^ mixed).ravel())
    return accs.tolist()


# SeedSequence's hash on uint32 words.  Its multipliers step with each use, not
# with the data: 16 uses fill and mix the 4 pool words, 8 make the output.
def _hash_constants(h: int, mult: int, uses: int) -> list[tuple[int, int]]:
    return [(h, h := h * mult & 0xFFFFFFFF) for _ in range(uses)]


_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, constants: tuple[int, int]) -> np.ndarray:
    value = (value ^ constants[0]) * constants[1]
    return value ^ (value >> 16)


def _state_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every seed s of a
    uint64 array, as an (n, 4) array.  A seed's entropy words are its low and
    high 32 bits, then zeros, which is how SeedSequence pads a one-word seed."""
    low_high = seeds.astype("<u8").view("<u4").reshape(-1, 2)
    zero = np.zeros(len(seeds), np.uint32)
    mixes = iter(_MIX_CONSTANTS)
    pool = [_hashmix(w, next(mixes)) for w in (low_high[:, 0], low_high[:, 1], zero, zero)]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], next(mixes))
        pool[dst] = mixed ^ (mixed >> 16)
    out = np.stack([_hashmix(pool[i % 4], c) for i, c in enumerate(_OUT_CONSTANTS)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 one seed's precomputed state words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds):
    """The Generator np.random.default_rng(s) makes, bit for bit, for each
    seed s, an int in [0, 2**64), from one hash pass over all the seeds.  An
    out-of-range seed raises ValueError before any Generator is made."""
    seeds = np.array(seeds, dtype=object).reshape(-1)  # exact ints, however large
    if ((seeds < 0) | (seeds > _MASK)).any():
        raise ValueError("seeds must be integers in [0, 2**64)")
    words = _state_words(seeds.astype(np.uint64))
    return (np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words)
