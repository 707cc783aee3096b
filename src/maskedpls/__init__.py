"""Recovery of a planted cross-view direction pair under missing data.

Exact asymptotic thresholds and overlaps for the leading singular pair
of a rescaled cross-covariance between two entrywise-masked views, a
seeded generative model with non-Gaussian noise and MAR masking, a
deterministic Monte Carlo sweep harness, baseline imputation
estimators, and split-half stability diagnostics.  Each submodule is
its own namespace: ``maskedpls.theory``, ``synth``, ``estimators``,
``harness``, ``presets``, ``matio``, ``linalg`` and ``streams``.
"""

__version__ = "0.1.0"

from . import estimators, harness, linalg, matio, presets, streams, synth, theory

__all__ = ["__version__", "estimators", "harness", "linalg", "matio", "presets",
           "streams", "synth", "theory"]
