"""Simulation and verification toolkit for anisotropic Gaussian random fields."""

from . import _blas  # noqa: F401  (first: loads numpy's OpenBLAS at one thread)
from .errors import ModelRejected, NumericalCheckFailed, Refusal
from .metric import (ChainingSchedule, EuclideanBall, GridCover,
                     HurstVector, IndexSet,
                     ball_bounding_box, chaining_schedule,
                     chaining_series_bound, covering_number_upper,
                     entropy_integral_closed_form, grid_cover,
                     hausdorff_premeasure, max_pair_ratio)
from .field import (FieldModel, ModulusReport, build_covariance,
                    modulus_statistic, sample_paths, verify_condition1,
                    verify_condition2)
from .hitting import (HittingEstimate, LipschitzDrift, ScalingReport,
                      check_lipschitz, hitting_probability, polarity_scan,
                      scaling_exponent, wilson_interval)
from .calibration import (FrequencyGrid, NoiseLevel, PsiEstimate,
                          fourier_O, holder_bound_check, holder_exponent,
                          ito_covariance, lambda_min_on_IV, psi_estimator,
                          simulate_spectral_noise, tail_integral, total_mass)
from .seeds import derive_seed

__version__ = "0.6.0"
