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
get/set_num_threads pair, found through ctypes on first use; dpotrf also
hands out its LAPACK Cholesky. Without one (another BLAS, or a platform
without /proc/self/maps) the pin is a no-op and says so.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
from typing import Any, Callable, Iterator, Optional

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
def _library() -> Optional[tuple[str, Any, str, str]]:
    """(path, ctypes handle, symbol prefix, suffix) of the first OpenBLAS
    mapped into the process that exports a thread-count pair, or None."""
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
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return path, lib, prefix, suffix
    return None


@functools.cache
def _openblas() -> Optional[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(basename, get_num_threads, set_num_threads) of _library(), or None."""
    import ctypes
    if (found := _library()) is None:
        return None
    path, lib, prefix, suffix = found
    get, put = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}") for op in ("get", "set"))
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return os.path.basename(path), get, put


@functools.cache
def dpotrf() -> Optional[Callable[[Any], int]]:
    """potrf(a) -> info: dpotrf('L', n, a, n, info) of _library() on the
    memory of a C-ordered float64 n x n array a, or None; in numpy's wheels
    scipy_dpotrf_64_ (64-bit ints), the routine numpy's cholesky calls."""
    import ctypes
    _, lib, prefix, suffix = _library() or (None, None, "", "")
    fn = getattr(lib, prefix.replace("openblas", "") + "dpotrf_" + suffix, None)
    if fn is None:
        return None
    c_int = ctypes.c_int64 if suffix else ctypes.c_int
    fn.restype, ptr = None, ctypes.POINTER(c_int)
    fn.argtypes = [ctypes.c_char_p, ptr, ctypes.c_void_p, ptr, ptr]

    def potrf(a) -> int:
        n, info = c_int(len(a)), c_int(0)
        fn(b"L", n, a.ctypes.data, n, info)
        return info.value
    return potrf


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
