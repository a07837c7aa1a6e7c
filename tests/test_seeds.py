import numpy as np
from hypothesis import given, strategies as st

from anisofield.seeds import stream_key


def test_deterministic():
    assert stream_key(42, "field") == stream_key(42, "field")


@given(st.integers(0, 2**64 - 1))
def test_streams_distinct(master):
    assert stream_key(master, "field") != stream_key(master, "drift")


def test_collision_scan():
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, size=1_000_000)
    seen = {stream_key(int(m), "field") for m in masters}
    seen |= {stream_key(int(m), "drift") for m in masters}
    assert len(seen) == 2 * len(set(masters))


def test_in_range():
    for master in (0, 1, 17, 2**31, 2**64 - 1, -1):
        s = stream_key(master, "x")
        assert 0 <= s < 2**64
