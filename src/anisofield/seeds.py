"""Stream keys for reproducible Monte Carlo.

Every random quantity of a run draws from a named stream of the master
seed. Replicate i of a stream draws from the counter-based generator
Philox with the 128-bit key (stream_key(master, stream), i) and counter 0,
so a replicate depends only on the master, the stream label and i, never
on the order in which replicates are drawn. Distinct keys give independent
Philox streams (Salmon, Moraes, Dror & Shaw, SC'11).
"""
from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


def stream_key(master: int, stream: str) -> int:
    """First Philox key word of a stream: the 64-bit BLAKE2b hash of
    (master mod 2^64, stream label)."""
    h = hashlib.blake2b(digest_size=8)
    h.update((master & MASK64).to_bytes(8, "little"))
    h.update(stream.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
