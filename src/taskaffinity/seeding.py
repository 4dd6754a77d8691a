"""Deterministic seed derivation.

Every piece of randomness in this package flows from a single master seed
through `derive_seed`, a fixed 64-bit mixing function.  Derived streams are
keyed by small integer tags (task index, epoch index, ...) so that changing
one stream never perturbs another, and so that nothing ever depends on label
values or wall-clock state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (well-mixed 64-bit hash)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Fold integer tags into a master seed, producing an independent substream seed.

    derive_seed(s) != s in general; derive_seed(s, i) and derive_seed(s, j)
    are unrelated for i != j.  Accepts any Python ints; values are reduced
    mod 2**64 first.
    """
    acc = splitmix64(master & _MASK)
    for ix in indices:
        acc = splitmix64(acc ^ splitmix64(ix & _MASK))
    return acc


def seed_grid(master: int, prefix: tuple[int, ...], *axes) -> list[int]:
    """derive_seed(master, *prefix, *cell) for every cell of the grid the
    axes (sequences of ints) span, in C order: the last axis varies fastest.
    The prefix is folded once, and each index of an axis is mixed once."""
    accs = [derive_seed(master, *prefix)]
    for axis in axes:
        mixed = [splitmix64(ix & _MASK) for ix in axis]
        accs = [splitmix64(acc ^ m) for acc in accs for m in mixed]
    return accs
