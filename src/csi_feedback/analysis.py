"""Steady-state performance analysis of the closed-loop innovation codec.

Covers the long-term MSE recursion, its AR(1) approximation (beta, sigma_iota^2,
varsigma_inf), the innovation variance entering the high-resolution rate
formula, and the practical rate R_u at a target long-term MSE.

The gain fixed point and the long-term MSE recursion run in the compiled
kernel when it builds, else in the Python loops here, which give the same bits.
"""

from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .channel import ArModel, Autocovariance, NoiseSpec, _dot
from .errors import (
    ContractionViolated,
    CsiFeedbackError,
    DegenerateCovariance,
    DistortionBelowFloor,
    LagOutOfRange,
    NonConvergence,
    NonFiniteInput,
)

TWO_PI_E = 2.0 * math.pi * math.e

GAIN_TOL = 1e-10
# steps of converged_prediction_state before NonConvergence
GAIN_MAX_ITER = 1_000_000

# mse_recursion stops at the first value within MSE_RTOL * max(|previous|, MSE_MIN_SCALE)
# of its predecessor
MSE_RTOL = 1e-10
MSE_MIN_SCALE = 1e-12

# first trajectory buffer of the compiled MSE recursion, in doubles; it doubles when full
_MSE_CHUNK = 1024


def _check_quant_noise(sigma_q_sq: float) -> None:
    if not math.isfinite(sigma_q_sq):
        raise NonFiniteInput(f"sigma_q_sq {sigma_q_sq} is not finite")
    if sigma_q_sq < 0.0:
        raise CsiFeedbackError("sigma_q_sq must be non-negative")


def _check_gain(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise CsiFeedbackError("lam must lie in (0, 1]")


def _check_distortion(name: str, d: float) -> None:
    """NonFiniteInput naming ``name`` and ``d`` unless the distortion ``d`` is finite."""
    if not math.isfinite(d):
        raise NonFiniteInput(f"{name}: distortion {d} is not finite")


def _log2(a: float, b: float, what: str, divide: bool = True) -> float:
    """log2(a / b), or log2(a * b) without ``divide``.

    Where a / b (a * b) is finite and positive, its log keeps its bits.  Where
    it under- or overflows though a and b are finite and positive, the log is
    log2 a - log2 b (log2 a + log2 b).  Anything else has no log and raises
    DegenerateCovariance, naming ``what``.
    """
    value = a / b if divide else a * b
    if 0.0 < value < math.inf:
        return math.log2(value)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DegenerateCovariance(f"{what} has no log: factors {a} and {b}")
    return math.log2(a) - math.log2(b) if divide else math.log2(a) + math.log2(b)


def _log2_sqrt_two_pi_e(variance: float, what: str) -> float:
    """log2 sqrt(2 pi e v), the high-resolution scale of a Gaussian of variance v.

    Where 2 pi e v is finite and positive, the log keeps its bits.  Otherwise it
    is 0.5 * (log2(2 pi e) + log2 v) by ``_log2``, which raises
    DegenerateCovariance, naming ``what``, for a v that is not finite and positive.
    """
    product = TWO_PI_E * variance
    if 0.0 < product < math.inf:
        return math.log2(math.sqrt(product))
    return 0.5 * _log2(TWO_PI_E, variance, what, divide=False)


@dataclass(frozen=True)
class Ar1Approx:
    """First-order fit of the channel: beta = kappa(1)/kappa(0), drive sigma_iota^2."""

    beta: float
    iota_var: float


@dataclass(frozen=True)
class SteadyState:
    """Converged long-term MSE of the closed-loop codec."""

    varsigma_inf: float


def ar1_fit(acov: Autocovariance) -> Ar1Approx:
    """MMSE AR(1) approximation of the channel from its autocovariance."""
    if acov.max_lag < 1:
        raise LagOutOfRange("need kappa_x up to lag 1")
    kappa0 = acov.sigma_x_sq
    if kappa0 <= 0:
        raise DegenerateCovariance("kappa_x(0) must be positive")
    kappa1 = float(acov.lags[1])
    beta = kappa1 / kappa0
    # kappa1^2 can overflow where kappa1^2 / kappa0, at most kappa0, does not;
    # only then is it taken as kappa1 * beta, so every finite fit keeps its bits
    explained = kappa1 * kappa1 / kappa0
    if not math.isfinite(explained):
        explained = kappa1 * beta
    return Ar1Approx(beta=beta, iota_var=kappa0 - explained)


def mse_recursion(
    model: ArModel,
    noise: NoiseSpec,
    lam: float,
    sigma_q_sq: float,
    steps: int,
) -> np.ndarray:
    """Iterate the long-term reconstruction-MSE recursion at a fixed gain.

    varsigma_k = (1-lam)^2 sum_m a_m^2 varsigma_{k-m}
               + (1-lam)^2 sigma_psi^2 + lam^2 sigma_xi^2 + sigma_Q^2

    starting from varsigma_0 = sigma_x^2.  Returns the trajectory up to and
    including the first value within 1e-10 relative of its predecessor; raises
    NonConvergence naming the first step whose value is not finite, or if no
    value converges within ``steps`` iterations.  Memory follows the
    trajectory's length, not ``steps``.
    """
    _check_gain(lam)
    _check_quant_noise(sigma_q_sq)
    steps = operator.index(steps)
    ring, _, _ = _recursion_start(model, noise)
    shrink = (1.0 - lam) ** 2
    constant = shrink * model.innovation_var + lam * lam * noise.obs_noise_var + sigma_q_sq
    coeff_sq = [a * a for a in model.coeffs]

    lib = _kernel.load()
    if lib is None:
        trajectory = _mse_steps(coeff_sq, shrink, constant, ring, steps)
    else:
        trajectory = _mse_trajectory(lib, coeff_sq, shrink, constant, ring, steps)
    if trajectory is None:
        raise NonConvergence(f"MSE recursion not converged after {steps} steps")
    return trajectory


def _mse_steps(coeff_sq, shrink, constant, ring, steps):
    """The Python loop of ``mse_recursion`` from the lag ring; None if it does not converge."""
    trajectory = [ring[0]]
    for _ in range(steps):
        previous = trajectory[-1]
        value = shrink * _dot(coeff_sq, ring) + constant
        trajectory.append(value)
        ring.insert(0, value)
        ring.pop()
        if not math.isfinite(value):
            raise _non_finite(len(trajectory) - 1, value)
        if abs(value - previous) < MSE_RTOL * max(abs(previous), MSE_MIN_SCALE):
            return np.asarray(trajectory)
    return None


def _non_finite(step, value):
    return NonConvergence(f"MSE recursion value {value} at step {step} is not finite")


def _mse_trajectory(lib, coeff_sq, shrink, constant, ring, steps):
    """``_mse_steps`` in the compiled kernel; a full buffer is doubled and the run restarted.

    A non-finite value never converges and every later one is non-finite too,
    so a full buffer whose last value is finite holds none.
    """
    order = len(coeff_sq)
    pad = order - 1  # copies of varsigma_0 standing for the lags before it
    coeffs = (ctypes.c_double * order)(*coeff_sq)
    capacity = min(max(steps, 0) + 1, _MSE_CHUNK)
    while True:
        buffer = (ctypes.c_double * (pad + capacity))()
        buffer[:order] = ring
        length = lib.mse_trajectory(
            order, coeffs, shrink, constant, MSE_RTOL, MSE_MIN_SCALE, buffer, capacity
        )
        if length > 0:
            return np.frombuffer(buffer, count=length, offset=8 * pad).copy()
        if not math.isfinite(buffer[pad + capacity - 1]):
            values = np.frombuffer(buffer, count=capacity, offset=8 * pad)
            step = int(np.argmin(np.isfinite(values)))
            raise _non_finite(step, values[step])
        if capacity > steps:
            return None
        capacity = min(2 * capacity, steps + 1)


def steady_state(approx: Ar1Approx, noise: NoiseSpec, lam: float, sigma_q_sq: float) -> SteadyState:
    """Closed-form long-term MSE of the AR(1)-approximated codec."""
    _check_gain(lam)
    _check_quant_noise(sigma_q_sq)
    contraction = (1.0 - lam) ** 2 * approx.beta**2
    if contraction >= 1.0:
        raise ContractionViolated(f"(1-lam)^2 beta^2 = {contraction} >= 1")
    numerator = (
        (1.0 - lam) ** 2 * approx.iota_var
        + lam * lam * noise.obs_noise_var
        + sigma_q_sq
    )
    return SteadyState(varsigma_inf=numerator / (1.0 - contraction))


def _spectral_variance(approx: Ar1Approx) -> float:
    """(1/2pi) integral of sigma_iota^2 / |1 - beta e^{j w}|^2 over [-pi, pi].

    The integral has the closed form sigma_iota^2 / (1 - beta^2) for |beta| < 1.
    """
    beta = approx.beta
    if not -1.0 < beta < 1.0:
        raise CsiFeedbackError("spectral variance needs |beta| < 1")
    return approx.iota_var / (1.0 - beta * beta)


def _ep_variance_from_approx(approx: Ar1Approx, noise: NoiseSpec) -> float:
    kappa0 = _spectral_variance(approx)
    kappa1 = approx.beta * kappa0
    return kappa0 - kappa1 * kappa1 / (kappa0 + noise.obs_noise_var)


def ep_variance(acov: Autocovariance, noise: NoiseSpec) -> float:
    """Variance of the one-step prediction error under the AR(1) approximation.

    kappa_tilde(0) = sigma_iota^2 / (1 - beta^2) is the variance of the AR(1)
    spectrum, kappa_tilde(1) = beta kappa_tilde(0), and the scalar Wiener error
    is kappa_tilde(0) - kappa_tilde(1)^2 / (kappa_tilde(0) + sigma_xi^2).
    """
    return _ep_variance_from_approx(ar1_fit(acov), noise)


def rate_practical(
    varsigma_target: float, approx: Ar1Approx, noise: NoiseSpec, lam: float
) -> float:
    """Bits per sample for the closed-loop codec at a target long-term MSE.

    Inverts the steady-state closed form to get the quantisation-noise budget
    implied by the target, then applies the high-resolution uniform-quantizer
    rate for a Gaussian innovation.  The rate is raw: it may be negative, and
    ``bounds.scheme_rate`` clamps it.  A NaN or infinite target raises
    NonFiniteInput, and a gain outside (0, 1] CsiFeedbackError.
    """
    _check_distortion("rate_practical", varsigma_target)
    _check_gain(lam)
    contraction = (1.0 - lam) ** 2 * approx.beta**2
    implied_q = (
        (1.0 - contraction) * varsigma_target
        - (1.0 - lam) ** 2 * approx.iota_var
        - lam * lam * noise.obs_noise_var
    )
    if implied_q <= 0:
        raise DistortionBelowFloor(
            f"target {varsigma_target} leaves no quantisation budget (implied {implied_q})"
        )
    innovation_var = _ep_variance_from_approx(approx, noise)
    return (
        0.5 * math.log2(1.0 / 12.0)
        + 0.5 * _log2_sqrt_two_pi_e(innovation_var, "2 pi e e_P")
        - 0.5 * math.log2(implied_q)
    )


def kalman_gain(pred_err_var: float, obs_noise_var: float) -> float:
    """Codec gain E / (E + sigma_xi^2) for prediction-error variance E; 1 without noise.

    ``_kernel.c`` repeats this arithmetic; change both together.
    """
    if obs_noise_var == 0.0:
        return 1.0
    return pred_err_var / (pred_err_var + obs_noise_var)


def _recursion_start(model: ArModel, noise: NoiseSpec) -> tuple[list[float], float, float]:
    """Start of the codec's recursions: a new lag ring [sigma_x^2] * L, sigma_x^2 and its gain."""
    sigma_x_sq = model.sigma_x_sq
    return [sigma_x_sq] * model.order, sigma_x_sq, kalman_gain(sigma_x_sq, noise.obs_noise_var)


def gain_step(
    model: ArModel,
    noise: NoiseSpec,
    sigma_q_sq: float,
    filtered: list,
    pred_err_var: float,
    gain: float,
) -> tuple[float, float, bool]:
    """One step of the codec's gain recursion: (prediction-error variance, gain, settled).

    Pushes the filtered variance (1 - gain) * pred_err_var into the per-lag
    ring ``filtered`` (most recent first, updated in place), sums
    sigma_psi^2 + sum_m a_m^2 (filtered_m + sigma_Q^2) in lag order and takes
    its ``kalman_gain``.  ``settled`` says whether the step left the variance
    and the ring exactly unchanged: the ring after the push equals the ring
    before it iff every entry equals the pushed value.  ``_kernel.c`` repeats
    this arithmetic; change both together.
    """
    pushed = (1.0 - gain) * pred_err_var
    same = all(f == pushed for f in filtered)
    filtered.insert(0, pushed)
    filtered.pop()
    total = model.innovation_var
    for a, f in zip(model.coeffs, filtered):
        total = total + a * a * (f + sigma_q_sq)
    return total, kalman_gain(total, noise.obs_noise_var), total == pred_err_var and same


def converged_prediction_state(
    model: ArModel,
    noise: NoiseSpec,
    sigma_q_sq: float = 0.0,
) -> tuple[float, float]:
    """Fixed point (gain, prediction-error variance) of the codec recursion.

    Steps the encoder's recursion, ``gain_step``, from its initial state
    until the gain moves by less than ``GAIN_TOL``, within ``GAIN_MAX_ITER``
    steps or NonConvergence.  The filtered variance is bounded by sigma_xi^2,
    so the iteration converges for every stationary model.
    """
    _check_quant_noise(sigma_q_sq)
    lib = _kernel.load()
    if lib is None:
        state = _gain_steps(model, noise, sigma_q_sq)
    else:
        order = model.order
        out = (ctypes.c_double * 2)()
        settled = lib.gain_fixed_point(
            order,
            (ctypes.c_double * order)(*model.coeffs),
            model.innovation_var,
            noise.obs_noise_var,
            sigma_q_sq,
            model.sigma_x_sq,
            GAIN_TOL,
            GAIN_MAX_ITER,
            out,
            (ctypes.c_double * (2 * order))(),
        )
        state = tuple(out) if settled else None
    if state is None:
        raise NonConvergence(f"gain iteration not settled after {GAIN_MAX_ITER} steps")
    return state


def _gain_steps(model, noise, sigma_q_sq):
    """The Python loop of ``converged_prediction_state``; None if the gain does not settle."""
    filtered, pred_var, gain = _recursion_start(model, noise)
    for _ in range(GAIN_MAX_ITER):
        previous = gain
        pred_var, gain, _ = gain_step(model, noise, sigma_q_sq, filtered, pred_var, gain)
        if abs(gain - previous) < GAIN_TOL:
            return gain, pred_var
    return None


def converged_gain(model: ArModel, noise: NoiseSpec, sigma_q_sq: float = 0.0) -> float:
    """Converged codec gain for a model, noise level and quantiser noise."""
    gain, _ = converged_prediction_state(model, noise, sigma_q_sq)
    return gain
