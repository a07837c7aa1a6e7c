import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def drawn(blocks):
    """The (lo, X) draw blocks of field.path_blocks or
    calibration.spectral_blocks in one array, bit for bit."""
    return np.concatenate([X for _, X in blocks])
