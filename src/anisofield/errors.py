"""Shared exception types."""


class Refusal(RuntimeError):
    """A hypothesis of the underlying result is violated (or the discretization
    is too coarse to be meaningful); we refuse rather than return a wrong number."""


class ModelRejected(RuntimeError):
    """Covariance factorization failed after maximal jitter, or the model is degenerate."""


class NumericalCheckFailed(RuntimeError):
    """Two routes to the same internal quantity disagreed; the result cannot be trusted."""
