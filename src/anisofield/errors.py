"""Shared exception types, and the physical-memory check that refuses a size."""
import os


class Refusal(RuntimeError):
    """A hypothesis of the underlying result is violated (or the discretization
    is too coarse to be meaningful); we refuse rather than return a wrong number."""


class ModelRejected(RuntimeError):
    """Covariance factorization failed after maximal jitter, or the model is degenerate."""


class NumericalCheckFailed(RuntimeError):
    """Two routes to the same internal quantity disagreed; the result cannot be trusted."""


def check_fits(what: str, need: float) -> None:
    """Raise MemoryError, before anything is allocated, if what (a plural
    noun phrase) needs more than physical memory's bytes."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError(f"{what} need about {need:.3g} bytes, more than "
                          f"the {have} bytes of physical memory")
