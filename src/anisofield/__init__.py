"""Simulation and verification toolkit for anisotropic Gaussian random fields."""

from . import _blas  # noqa: F401  (first: loads numpy's OpenBLAS at one thread)

__version__ = "0.9.1"
