"""Splittable seed derivation for reproducible Monte Carlo.

Every replicate of every random quantity draws from its own counter-based
stream, keyed by (master seed, replicate index, stream label). Results are
therefore independent of the order in which replicates are drawn.
"""
from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


def derive_seed(master: int, replicate: int, stream: str) -> int:
    """Collision-resistant 64-bit seed from (master, replicate, stream label)."""
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    h = hashlib.blake2b(digest_size=8)
    h.update((master & MASK64).to_bytes(8, "little"))
    h.update(replicate.to_bytes(8, "little"))
    h.update(stream.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
