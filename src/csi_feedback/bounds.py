"""Rate-distortion lower bounds and the high-resolution uniform-quantizer rate.

Each bound maps a target reconstruction distortion D to a minimum number of
bits per feedback sample.  The prediction-based bounds share the floor
sigma_P^2 and the zero-holding bound has the (higher) floor sigma_Z^2.

The aperiodic bounds come in two variants.  The default forms keep the full
window-entropy and weight terms; those factors are not per-sample quantities,
which makes cross-scheme rate comparisons meaningless.  ``normalized=True``
switches to dimensionally consistent per-sample Shannon-lower-bound forms,
which comparative sweeps should use.  It changes only ``aperiodic_prediction``
and ``aperiodic_zh``: ``periodic``, ``uniform_aperiodic`` and ``practical_ar1``
ignore it, and the last two still move by -1/4 log2 c when every variance and
D is scaled by c.

``scheme_rate`` gives one scheme's rate at one D, ``sweep`` a curve of them.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analysis
from .analysis import TWO_PI_E, _check_distortion, _log2
from .channel import ArModel, Autocovariance, NoiseSpec, _dot, autocovariance
from .errors import CsiFeedbackError, DegenerateCovariance, DistortionBelowFloor, SingularSystem
from .predictor import (
    PredictorCoefficients,
    ZhEstimator,
    _filtering_mse,
    _solve_mmse,
    kappa_y_matrix,
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


_new = tuple.__new__  # a NamedTuple from a tuple of all its fields, without its __new__


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
    return _log2_det(kappa_y_matrix(acov, noise, order))


def _log2_det(k_y: np.ndarray) -> float:
    """``log_det_ky`` of its kappa_y matrix ``k_y``, built by the caller."""
    sign, log_det = np.linalg.slogdet(k_y)
    if sign <= 0:
        raise SingularSystem("kappa_y Toeplitz matrix is not positive definite")
    return float(log_det / math.log(2.0))


def make_scheme_params(model: ArModel, noise: NoiseSpec, order: int | None = None) -> SchemeParams:
    """Bundle the derived quantities every bound and experiment needs for one model/noise pair.

    The autocovariance reaches max(order, model order), so a predictor of lower
    order than the channel works.  A channel with zero variance, or one so
    large that a lag of kappa_x or kappa_y(0) = sigma_x^2 + sigma_xi^2
    overflows, raises DegenerateCovariance.
    """
    if order is None:
        order = model.order
    acov = autocovariance(model, max(order, model.order))
    lags = acov.lags.tolist()
    bad = next((tau for tau, value in enumerate(lags) if not math.isfinite(value)), None)
    if bad is not None:  # the AR(1) fit of finite lags is finite: |beta| <= about 1
        raise DegenerateCovariance(f"channel autocovariance overflows: kappa_x({bad})={lags[bad]}")
    ar1 = analysis.ar1_fit(acov)
    if not math.isfinite(acov.sigma_x_sq + noise.obs_noise_var):
        raise DegenerateCovariance(
            f"observation variance overflows: sigma_x^2={acov.sigma_x_sq}, "
            f"sigma_xi^2={noise.obs_noise_var}"
        )
    if order < 1:  # mmse_coefficients' check, before the matrix is built
        raise CsiFeedbackError("predictor order must be >= 1")
    k_y = kappa_y_matrix(acov, noise, order)  # one matrix for the solve and the determinant
    coeffs = _solve_mmse(acov, k_y)
    return SchemeParams(
        acov=acov,
        noise=noise,
        coeffs=coeffs,
        zh=zh_estimator(acov, noise),
        sigma_nu_sq=nu_variance(model, noise),
        log_det_ky=_log2_det(k_y),
        ar1=ar1,
        ar1_gain=analysis.converged_gain(ArModel((ar1.beta,), ar1.iota_var), noise, sigma_q_sq=0.0),
        log2_theta_sq_sum=_sum_log2_theta_sq(coeffs),
    )


def _sum_log2_theta_sq(coeffs: PredictorCoefficients) -> float:
    """numpy's pairwise sum of its log2 of each theta^2; -inf if a theta^2 is 0, NaN on a NaN."""
    theta_sq = coeffs.theta * coeffs.theta
    if not theta_sq.all():
        return -math.inf
    return float(np.log2(theta_sq).sum())


def _clamped(rate: float) -> float:
    """max(0.0, rate), which is 0.0 for NaN and -0.0 too."""
    return rate if rate > 0.0 else 0.0


# Each analytic scheme's rate is one rule (floor, rates): ``rates`` maps
# distortions above the floor to raw rates, taking the terms that do not depend
# on D once per call.  ``sweep`` calls it on the points of a curve above the
# floor, and only if there are any, so a constant that raises does so only
# where a point would have.


def _prediction_rule(p: SchemeParams, normalized: bool):
    floor = p.coeffs.sigma_p_sq

    def rates(distortions):
        if normalized:
            constant = (p.log_det_ky + p.log2_theta_sq_sum) / (2.0 * p.coeffs.order)
        else:
            constant = p.log_det_ky + 0.5 * p.log2_theta_sq_sum
        return [constant - 0.5 * math.log2(d - floor) for d in distortions]

    return floor, rates


def _zh_rule(p: SchemeParams, normalized: bool):
    alpha, floor = p.zh.alpha, p.zh.sigma_z_sq
    if alpha == 0.0:
        raise DegenerateCovariance("zero-holding weight alpha underflows to 0")

    def rates(distortions):
        sigma_y_sq = p.acov.sigma_x_sq + p.noise.obs_noise_var
        if normalized:
            scale = alpha**2 * sigma_y_sq
            ratios = [scale / (d - floor) for d in distortions]
            if 0.0 in ratios:
                raise DegenerateCovariance(
                    "normalized zero-holding ratio alpha^2 sigma_y^2 / (D - sigma_Z^2) "
                    f"underflows to 0: alpha={alpha}"
                )
            return [0.5 * math.log2(ratio) for ratio in ratios]
        entropy = _log2(TWO_PI_E, sigma_y_sq, "2 pi e sigma_y^2", divide=False)
        constant = 0.25 * entropy + 0.5 * math.log2(alpha)
        return [constant - 0.5 * math.log2(TWO_PI_E * (d - floor)) for d in distortions]

    return floor, rates


def nu_variance(model: ArModel, noise: NoiseSpec) -> float:
    """Variance of the innovation driving the AR structure of the observation y.

    sigma_nu^2 = (sigma_x^2 sigma_xi^2 / (sigma_x^2 + sigma_xi^2)) * sum_m a_m^2
               + sigma_psi^2 + sigma_xi^2
    """
    filter_mse = _filtering_mse(model.sigma_x_sq, noise)
    sum_a_sq = _dot(model.coeffs, model.coeffs)
    return filter_mse * sum_a_sq + model.innovation_var + noise.obs_noise_var


def _periodic_rule(p: SchemeParams):
    floor = p.coeffs.sigma_p_sq

    def rates(distortions):
        weights = 0.5 * p.log2_theta_sq_sum
        what = "sigma_nu^2 / (D - sigma_P^2)"
        return [0.5 * _log2(p.sigma_nu_sq, d - floor, what) + weights for d in distortions]

    return floor, rates


def _uniform_rule(sigma_x_sq: float, sigma_p_sq: float):
    def rates(targets):
        variance = sigma_x_sq + sigma_p_sq
        scale = math.sqrt(TWO_PI_E * variance) / 12.0
        if scale < math.inf:
            what = "sqrt(2 pi e (sigma_x^2 + sigma_P^2)) / 12 / (D - sigma_P^2)"
            return [0.5 * _log2(scale, d - sigma_p_sq, what) for d in targets]
        log_scale = analysis._log2_sqrt_two_pi_e(variance, "2 pi e (sigma_x^2 + sigma_P^2)")
        return [
            0.5 * (log_scale - _log2(12.0, d - sigma_p_sq, "12 (D - sigma_P^2)", divide=False))
            for d in targets
        ]

    return sigma_p_sq, rates


def _rule(scheme: Scheme, p: SchemeParams, normalized: bool):
    """The (floor, rates) rule of one of the four analytic schemes."""
    if scheme is Scheme.APERIODIC_PREDICTION:
        return _prediction_rule(p, normalized)
    if scheme is Scheme.APERIODIC_ZH:
        return _zh_rule(p, normalized)
    if scheme is Scheme.PERIODIC:
        return _periodic_rule(p)
    return _uniform_rule(p.acov.sigma_x_sq, p.coeffs.sigma_p_sq)


def _practical(p: SchemeParams) -> tuple[analysis.Ar1Approx, NoiseSpec, float]:
    """The AR(1) fit, noise and gain of the practical scheme; a gain that
    underflows to 0 raises DegenerateCovariance."""
    if p.ar1_gain == 0.0:
        raise DegenerateCovariance("codec gain of the AR(1) fit underflows to 0")
    return p.ar1, p.noise, p.ar1_gain


def scheme_rate(scheme: Scheme, params: SchemeParams, d: float, normalized: bool = False) -> float:
    """Bits per sample of ``scheme`` at distortion ``d``, clamped at 0: one point of ``sweep``.

    ``normalized`` selects the per-sample forms of the two aperiodic bounds;
    ``periodic``, ``uniform_aperiodic`` and ``practical_ar1`` ignore it.  A NaN
    or infinite ``d`` raises NonFiniteInput and a ``d`` at or below the floor
    DistortionBelowFloor, both naming the scheme; a log without a finite,
    positive argument raises DegenerateCovariance.  The practical rate is
    ``analysis.rate_practical``, looked up on the module at each call.
    """
    _check_distortion(scheme.value, d)
    if scheme is Scheme.PRACTICAL_AR1:
        try:
            return _clamped(analysis.rate_practical(d, *_practical(params)))
        except DistortionBelowFloor as exc:
            raise DistortionBelowFloor(f"{scheme.value}: {exc}") from None
    floor, rates = _rule(scheme, params, normalized)
    if d <= floor:
        raise DistortionBelowFloor(f"{scheme.value}: D={d} <= floor {floor}")
    (rate,) = rates([d])
    return _clamped(rate)


def distortion_floor(scheme: Scheme, p: SchemeParams) -> float:
    """Distortion below which the scheme's rate is undefined (diverges).

    The zero-holding floor needs a positive weight alpha and the practical
    scheme's a positive codec gain; either underflowing to 0 raises
    DegenerateCovariance.
    """
    if scheme is Scheme.PRACTICAL_AR1:
        return analysis.steady_state(*_practical(p), 0.0).varsigma_inf
    floor, _ = _rule(scheme, p, False)
    return floor


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

    Each point is ``scheme_rate`` at its D, bit for bit, and ``normalized``
    changes only the two aperiodic schemes, as there.  Grid points at or below
    the scheme's floor are skipped and counted in the curve's ``skipped``
    field rather than aborting the sweep.  ``n_points`` is taken through
    ``operator.index``.  A grid that is not 0 < d_min < d_max, or whose d_max
    is inf, raises naming the scheme.
    """
    n_points = operator.index(n_points)
    if n_points < 2:
        raise CsiFeedbackError("n_points must be >= 2")
    if not 0 < d_min < d_max:
        raise CsiFeedbackError(f"{scheme.value}: need 0 < d_min < d_max, got [{d_min}, {d_max}]")
    if d_max == math.inf:  # 10 sigma_x^2 may overflow
        raise CsiFeedbackError(f"{scheme.value}: d_max overflows to inf")

    grid = _log_grid(d_min, d_max, n_points).tolist()
    if scheme is Scheme.PRACTICAL_AR1:
        # read from the module on every sweep, so a wrapper put there sees each point
        rate, args = analysis.rate_practical, _practical(params)
        points: list[RdPoint] = []
        skipped = 0
        for d in grid:
            try:
                points.append(_new(RdPoint, (d, _clamped(rate(d, *args)))))
            except DistortionBelowFloor:
                skipped += 1
        return RdCurve(scheme=scheme, points=points, skipped=skipped)

    floor, rates = _rule(scheme, params, normalized)
    kept = [d for d in grid if not d <= floor]
    points = [_new(RdPoint, p) for p in zip(kept, map(_clamped, rates(kept)))] if kept else []
    return RdCurve(scheme=scheme, points=points, skipped=n_points - len(kept))
