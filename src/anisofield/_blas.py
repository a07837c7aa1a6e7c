"""The BLAS thread policy: OpenBLAS loaded with one thread, and held at
one thread for a run.

A BLAS call on more than one thread changes the bits of a Cholesky factor
and of z @ L.T with the thread count, and on a small host OpenBLAS's idle
workers spin-wait for about 0.1 s after the library loads and after every
call, burning CPU time that does no work. Two rules keep both away:

- at load: anisofield/__init__.py imports this module first. When numpy
  is not loaded yet and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
  OMP_NUM_THREADS is set, numpy is imported here with
  OPENBLAS_NUM_THREADS=1, so OpenBLAS starts no worker and no start-up
  spin, and the variable is removed again, so a child process inherits
  nothing. A count the user sets is kept.
- per run: one_blas_thread holds the loaded OpenBLAS at one thread and
  restores its count on exit. The load-time rule does not cover a numpy
  that the caller imported first, or a count the user set, so the data
  bits rest on the pin, not on the load.

The library is the OpenBLAS mapped into the process that exports a
get/set_num_threads pair, found through ctypes on the first run. Without
one (another BLAS, or a platform without /proc/self/maps) the pin is a
no-op and says so.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
from typing import Callable, Iterator, Optional

# the variables OpenBLAS reads its thread count from at load
_COUNT_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(v in os.environ for v in _COUNT_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
# in every case numpy, and with it OpenBLAS, is loaded by `import anisofield`
import numpy  # noqa: E402, F401

# symbol prefix and suffix of the thread-count pair, as numpy's wheels
# (scipy-openblas, 64-bit ints) and system OpenBLAS builds export it
_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def _openblas() -> Optional[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(basename, get_num_threads, set_num_threads) of the first OpenBLAS
    mapped into the process that exports both, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return os.path.basename(path), get, put
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[dict]:
    """Hold the loaded OpenBLAS at one thread inside the with block and
    restore its thread count on exit.

    Yields the BLAS state that manifest.json records: the library's
    basename, the thread count found, and whether it was pinned (false,
    with both others None, when no OpenBLAS handle was found).
    """
    found = _openblas()
    if found is None:
        yield {"library": None, "threads": None, "pinned": False}
        return
    library, get, put = found
    threads = get()
    put(1)
    try:
        yield {"library": library, "threads": threads, "pinned": True}
    finally:
        put(threads)
