"""Infinite-rate baselines: order-L MMSE prediction and zero-holding.

Both estimators see only the noisy observation stream y.  The Wiener
coefficients come from the Toeplitz normal equations over kappa_y, and the
closed-form MSEs are the distortion floors used by every bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Autocovariance, NoiseSpec
from .errors import DimensionMismatch, SingularSystem


@dataclass(frozen=True, eq=False)
class PredictorCoefficients:
    """Wiener coefficients theta_1..theta_L and the prediction MSE sigma_P^2."""

    theta: np.ndarray
    sigma_p_sq: float

    @property
    def order(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class ZhEstimator:
    """Zero-holding estimator: forecast alpha * y_k.

    sigma_z_sq is the paper's closed form: the hold-gap MSE plus the filtering
    MSE, without their cross term.  The realised MSE of alpha * y_k is
    sigma_z_sq - 2 (1 - alpha) (kappa_x(0) - kappa_x(1)).
    """

    alpha: float
    sigma_z_sq: float


def kappa_y_matrix(acov: Autocovariance, noise: NoiseSpec, order: int) -> np.ndarray:
    """Entry (i, j) is kappa_y(|i - j|) = kappa_x(|i - j|) + sigma_xi^2 [i == j], for i, j < order."""
    kappa_y = acov.lags[:order].copy()
    kappa_y[0] += noise.obs_noise_var
    lags = np.arange(order)
    return kappa_y[np.abs(lags[:, None] - lags[None, :])]


def mmse_coefficients(acov: Autocovariance, noise: NoiseSpec, order: int) -> PredictorCoefficients:
    """Solve the normal equations K theta = r for the one-step predictor.

    K is the L x L Toeplitz matrix of kappa_y and r = (kappa_x(1..L)); the
    prediction MSE is sigma_x^2 - r' K^-1 r.
    """
    if order < 1:
        raise ValueError("predictor order must be >= 1")
    if acov.max_lag < order:
        raise ValueError(f"autocovariance max_lag {acov.max_lag} < order {order}")

    r = acov.lags[1 : order + 1]
    try:
        theta = np.linalg.solve(kappa_y_matrix(acov, noise, order), r)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("observation covariance matrix is singular") from exc
    sigma_p_sq = float(acov.lags[0] - r @ theta)
    # guard against roundoff producing a tiny negative MSE in noiseless cases
    sigma_p_sq = max(sigma_p_sq, 0.0)
    return PredictorCoefficients(theta=theta, sigma_p_sq=sigma_p_sq)


def predict_one_step(coeffs: PredictorCoefficients, window) -> float:
    """One-step forecast sum_l theta_l * y_{k+1-l}.

    ``window`` is ordered oldest to newest, (y_{k-L+1}, ..., y_k).
    """
    window = np.asarray(window, dtype=float)
    if window.shape != (coeffs.order,):
        raise DimensionMismatch(f"window length {window.shape} != order {coeffs.order}")
    return float(np.dot(coeffs.theta, window[::-1]))


def zh_estimator(acov: Autocovariance, noise: NoiseSpec) -> ZhEstimator:
    """Zero-holding baseline: alpha y_k as the forecast of x_{k+1}.

    alpha is the scalar MMSE weight sigma_x^2 / (sigma_x^2 + sigma_xi^2) and
    sigma_z_sq = 2 sigma_x^2 - 2 kappa_x(1) + sigma_x^2 sigma_xi^2 / (sigma_x^2 + sigma_xi^2)
    is the paper's closed form: the hold-gap MSE E[(x_{k+1} - x_k)^2] plus the
    filtering MSE E[(x_k - alpha y_k)^2], without their cross term.  The
    realised MSE of the forecast is sigma_z_sq - 2 (1 - alpha) (sigma_x^2 - kappa_x(1)).
    """
    sigma_x_sq = acov.sigma_x_sq
    total = sigma_x_sq + noise.obs_noise_var
    alpha = sigma_x_sq / total if total > 0 else 0.0
    sigma_z_sq = 2.0 * sigma_x_sq - 2.0 * float(acov.lags[1]) + _filtering_mse(sigma_x_sq, noise)
    return ZhEstimator(alpha=alpha, sigma_z_sq=sigma_z_sq)


def _filtering_mse(sigma_x_sq: float, noise: NoiseSpec) -> float:
    total = sigma_x_sq + noise.obs_noise_var
    return sigma_x_sq * noise.obs_noise_var / total if total > 0 else 0.0


def zh_estimate(y_k: float, est: ZhEstimator) -> float:
    """Zero-holding forecast from the newest observation."""
    return est.alpha * y_k
