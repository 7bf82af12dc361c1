"""Reference models and the prediction oracle shared by the test modules."""

import numpy as np

from csi_feedback import ArModel, NoiseSpec

REF_AR4 = ArModel(coeffs=(0.5, 0.2, 0.1, 0.05), innovation_var=1.0)
REF_AR1 = ArModel(coeffs=(0.9,), innovation_var=1.0)
UNIT_NOISE = NoiseSpec(obs_noise_var=1.0)


def sliding_predictions(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Vectorized one-step predictions; entry j forecasts x[len(theta) + j]."""
    windows = np.lib.stride_tricks.sliding_window_view(y, theta.size)[:-1]
    return windows @ theta[::-1]
