"""Rate-distortion lower bounds and the high-resolution uniform-quantizer rate.

Each bound maps a target reconstruction distortion D to a minimum number of
bits per feedback sample.  The prediction-based bounds share the floor
sigma_P^2 and the zero-holding bound has the (higher) floor sigma_Z^2.

The aperiodic bounds come in two variants.  The default forms keep the full
window-entropy and weight terms; those factors are not per-sample quantities,
which makes cross-scheme rate comparisons meaningless.  ``normalized=True``
switches to dimensionally consistent per-sample Shannon-lower-bound forms,
which comparative sweeps should use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analysis
from .analysis import TWO_PI_E
from .channel import ArModel, Autocovariance, NoiseSpec, _dot, autocovariance
from .errors import DegenerateCovariance, DistortionBelowFloor, SingularSystem
from .predictor import (
    PredictorCoefficients,
    ZhEstimator,
    _filtering_mse,
    kappa_y_matrix,
    mmse_coefficients,
    zh_estimator,
)


class Scheme(enum.Enum):
    """Feedback schemes with a rate-distortion curve."""

    APERIODIC_PREDICTION = "aperiodic_prediction"
    APERIODIC_ZH = "aperiodic_zh"
    PERIODIC = "periodic"
    UNIFORM_APERIODIC = "uniform_aperiodic"
    PRACTICAL_AR1 = "practical_ar1"


class RdPoint(NamedTuple):
    distortion: float
    rate: float


@dataclass(frozen=True, eq=False)
class SchemeParams:
    """Model-derived quantities shared by all bound evaluations."""

    acov: Autocovariance
    noise: NoiseSpec
    coeffs: PredictorCoefficients
    zh: ZhEstimator
    sigma_nu_sq: float
    log_det_ky: float
    ar1: analysis.Ar1Approx  # AR(1) fit of the channel behind the practical scheme
    ar1_gain: float  # its converged codec gain at sigma_Q^2 = 0
    log2_theta_sq_sum: float  # sum_l log2 theta_l^2 of the predictor weights


@dataclass(eq=False)
class RdCurve:
    """Rate-distortion points for one scheme, ascending in distortion."""

    scheme: Scheme
    points: list[RdPoint]
    skipped: int = 0


def log_det_ky(acov: Autocovariance, noise: NoiseSpec, order: int) -> float:
    """log2 determinant of the order x order Toeplitz kappa_y matrix."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if acov.max_lag < order - 1:
        raise ValueError(f"autocovariance max_lag {acov.max_lag} < order-1")
    sign, log_det = np.linalg.slogdet(kappa_y_matrix(acov, noise, order))
    if sign <= 0:
        raise SingularSystem("kappa_y Toeplitz matrix is not positive definite")
    return float(log_det / math.log(2.0))


def make_scheme_params(model: ArModel, noise: NoiseSpec, order: int | None = None) -> SchemeParams:
    """Bundle the derived quantities every bound and experiment needs for one model/noise pair.

    The autocovariance reaches max(order, model order), so a predictor of lower
    order than the channel works.  A channel with zero variance, or one so
    large that its AR(1) fit or kappa_y(0) = sigma_x^2 + sigma_xi^2 overflows,
    raises DegenerateCovariance.
    """
    if order is None:
        order = model.order
    acov = autocovariance(model, max(order, model.order))
    ar1 = analysis.ar1_fit(acov)
    if not (math.isfinite(ar1.beta) and math.isfinite(ar1.iota_var)):
        raise DegenerateCovariance(
            f"AR(1) fit of the channel overflows: beta={ar1.beta}, sigma_iota^2={ar1.iota_var}"
        )
    if not math.isfinite(acov.sigma_x_sq + noise.obs_noise_var):
        raise DegenerateCovariance(
            f"observation variance overflows: sigma_x^2={acov.sigma_x_sq}, "
            f"sigma_xi^2={noise.obs_noise_var}"
        )
    coeffs = mmse_coefficients(acov, noise, order)
    return SchemeParams(
        acov=acov,
        noise=noise,
        coeffs=coeffs,
        zh=zh_estimator(acov, noise),
        sigma_nu_sq=nu_variance(model, noise),
        log_det_ky=log_det_ky(acov, noise, order),
        ar1=ar1,
        ar1_gain=analysis.converged_gain(ArModel((ar1.beta,), ar1.iota_var), noise, sigma_q_sq=0.0),
        log2_theta_sq_sum=_sum_log2_theta_sq(coeffs),
    )


def _sum_log2_theta_sq(coeffs: PredictorCoefficients) -> float:
    theta_sq = coeffs.theta.astype(float) ** 2
    if np.any(theta_sq == 0.0):
        return -math.inf
    return float(np.sum(np.log2(theta_sq)))


def rate_aperiodic_prediction(
    d_x: float, p: SchemeParams, normalized: bool = False, clamp: bool = True
) -> float:
    """Lower bound on bits per sample for aperiodic feedback of predictions.

    Default form: log2|K_y| - 1/2 log2(D - sigma_P^2) + 1/2 sum_l log2 theta_l^2.
    Normalized form divides the entropy and weight terms by 2L.  ``clamp=False``
    returns the raw expression (useful for curve-shift comparisons; physical
    rates are non-negative).
    """
    floor = p.coeffs.sigma_p_sq
    if d_x <= floor:
        raise DistortionBelowFloor(f"D={d_x} <= sigma_P^2={floor}")
    log_weights = p.log2_theta_sq_sum
    gap = -0.5 * math.log2(d_x - floor)
    if normalized:
        rate = (p.log_det_ky + log_weights) / (2.0 * p.coeffs.order) + gap
    else:
        rate = p.log_det_ky + 0.5 * log_weights + gap
    return max(0.0, rate) if clamp else rate


def rate_aperiodic_zh(
    d_x: float, p: SchemeParams, normalized: bool = False, clamp: bool = True
) -> float:
    """Lower bound on bits per sample for aperiodic zero-holding feedback.

    Default form: 1/2 h(y) + 1/2 log2 alpha - 1/2 log2(2 pi e (D - sigma_Z^2))
    with h(y) = 1/2 log2(2 pi e sigma_y^2).  Normalized form is the scalar
    Gaussian bound 1/2 log2(alpha^2 sigma_y^2 / (D - sigma_Z^2)).  An alpha
    that underflows to 0 has no log and raises DegenerateCovariance.
    """
    if p.zh.alpha == 0.0:
        raise DegenerateCovariance("zero-holding weight alpha underflows to 0")
    floor = p.zh.sigma_z_sq
    if d_x <= floor:
        raise DistortionBelowFloor(f"D={d_x} <= sigma_Z^2={floor}")
    sigma_y_sq = p.acov.sigma_x_sq + p.noise.obs_noise_var
    if normalized:
        rate = 0.5 * math.log2(p.zh.alpha**2 * sigma_y_sq / (d_x - floor))
    else:
        rate = (
            0.25 * math.log2(TWO_PI_E * sigma_y_sq)
            + 0.5 * math.log2(p.zh.alpha)
            - 0.5 * math.log2(TWO_PI_E * (d_x - floor))
        )
    return max(0.0, rate) if clamp else rate


def nu_variance(model: ArModel, noise: NoiseSpec) -> float:
    """Variance of the innovation driving the AR structure of the observation y.

    sigma_nu^2 = (sigma_x^2 sigma_xi^2 / (sigma_x^2 + sigma_xi^2)) * sum_m a_m^2
               + sigma_psi^2 + sigma_xi^2
    """
    filter_mse = _filtering_mse(model.sigma_x_sq, noise)
    sum_a_sq = _dot(model.coeffs, model.coeffs)
    return filter_mse * sum_a_sq + model.innovation_var + noise.obs_noise_var


def rate_periodic(d_x: float, p: SchemeParams, clamp: bool = True) -> float:
    """Lower bound on bits per sample for periodic innovation feedback."""
    floor = p.coeffs.sigma_p_sq
    if d_x <= floor:
        raise DistortionBelowFloor(f"D={d_x} <= sigma_P^2={floor}")
    rate = 0.5 * math.log2(p.sigma_nu_sq / (d_x - floor)) + 0.5 * p.log2_theta_sq_sum
    return max(0.0, rate) if clamp else rate


def rate_uniform_aperiodic(
    mse_target: float, sigma_x_sq: float, sigma_p_sq: float, clamp: bool = True
) -> float:
    """High-resolution uniform-quantizer rate for aperiodic prediction feedback."""
    if mse_target <= sigma_p_sq:
        raise DistortionBelowFloor(f"target {mse_target} <= sigma_P^2={sigma_p_sq}")
    scale = math.sqrt(TWO_PI_E * (sigma_x_sq + sigma_p_sq)) / 12.0
    rate = 0.5 * math.log2(scale / (mse_target - sigma_p_sq))
    return max(0.0, rate) if clamp else rate


def distortion_floor(scheme: Scheme, p: SchemeParams) -> float:
    """Distortion below which the scheme's rate is undefined (diverges).

    The practical scheme's floor needs a positive codec gain; one that
    underflows to 0 raises DegenerateCovariance.
    """
    if scheme is Scheme.APERIODIC_ZH:
        return p.zh.sigma_z_sq
    if scheme is Scheme.PRACTICAL_AR1:
        if p.ar1_gain == 0.0:
            raise DegenerateCovariance("codec gain of the AR(1) fit underflows to 0")
        return analysis.steady_state(p.ar1, p.noise, p.ar1_gain, 0.0).varsigma_inf
    return p.coeffs.sigma_p_sq


def default_distortion_grid(scheme: Scheme, p: SchemeParams) -> tuple[float, float]:
    """Log-grid endpoints: just above the scheme floor up to 10 sigma_x^2."""
    floor = distortion_floor(scheme, p)
    return floor * (1.0 + 1e-3), 10.0 * p.acov.sigma_x_sq


def _log_grid(d_min: float, d_max: float, n: int) -> np.ndarray:
    """``np.geomspace(d_min, d_max, n)`` for 0 < d_min < d_max and n >= 2, bit for bit.

    It calls geomspace's ufuncs in geomspace's order (log10 of the endpoints,
    their linspace, 10**y, then the endpoints written back) without its
    generic set-up; the last exponent is not pinned to log10(d_max), as
    linspace pins it, because the last point is d_max itself.  Keep numpy's
    ufuncs: its log10 and power do not round as libm's do.
    """
    lo, hi = np.log10(np.array([d_min, d_max])).tolist()
    exponents = np.arange(n, dtype=float) * ((hi - lo) / (n - 1)) + lo
    grid = np.power(10.0, exponents)
    grid[0] = d_min
    grid[-1] = d_max
    return grid


def sweep(
    scheme: Scheme,
    params: SchemeParams,
    d_min: float,
    d_max: float,
    n_points: int,
    normalized: bool = False,
) -> RdCurve:
    """Evaluate a scheme's rate on a log-spaced distortion grid.

    Grid points at or below the scheme's floor are skipped and counted in the
    curve's ``skipped`` field rather than aborting the sweep.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not 0 < d_min < d_max:
        raise ValueError("need 0 < d_min < d_max")

    # rate(d, *args) for this scheme, chosen once per curve
    if scheme is Scheme.APERIODIC_PREDICTION:
        rate, args = rate_aperiodic_prediction, (params, normalized)
    elif scheme is Scheme.APERIODIC_ZH:
        rate, args = rate_aperiodic_zh, (params, normalized)
    elif scheme is Scheme.PERIODIC:
        rate, args = rate_periodic, (params,)
    elif scheme is Scheme.UNIFORM_APERIODIC:
        rate, args = rate_uniform_aperiodic, (params.acov.sigma_x_sq, params.coeffs.sigma_p_sq)
    else:
        # read from the module on every sweep, so a wrapper put there sees each call
        rate, args = analysis.rate_practical, (params.ar1, params.noise, params.ar1_gain)

    points: list[RdPoint] = []
    skipped = 0
    for d in _log_grid(d_min, d_max, n_points).tolist():
        try:
            points.append(RdPoint(d, rate(d, *args)))
        except DistortionBelowFloor:
            skipped += 1
    return RdCurve(scheme=scheme, points=points, skipped=skipped)
