"""AR(L) fading-channel model: stationarity, exact autocovariance, seeded traces.

The channel state x follows an order-L autoregression driven by white Gaussian
noise, and the receiver only sees the noisy observation y = x + xi.  Everything
downstream (predictors, bounds, codecs) is parameterised by the model defined
here and by its exact autocovariance sequence.
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .errors import CsiFeedbackError, LagOutOfRange, NonStationaryModel, SingularSystem

# A root of modulus 1 - 1e-9 is already uselessly slow to mix; treat it as
# non-stationary rather than letting burn-in estimates blow up.
STATIONARITY_MARGIN = 1e-9

# A step-down pass leaves a model undecided where some stage's |1 - |k_p|| is
# within this many times the growth of rounding error so far, 1 / prod(1 - k_q^2)
# over the earlier stages, scaled to the pass's precision (x 10^(16 - digits)).
# Measured on 200k random AR(2..8) models near the margin, every float decision
# that differed from the roots' had a ratio below 1e-13; the theory_grid models
# of seeds 1-10 have none below 8e-4.
STEP_DOWN_GUARD = 1e-8

# Precisions, in decimal digits, of the step-down passes after the float one
STEP_DOWN_DIGITS = (40, 80, 160, 320, 640)

MAX_BURN_IN = 10_000


@dataclass(frozen=True)
class ArModel:
    """Order-L autoregressive channel x_k = sum_m a_m x_{k-m} + psi_k.

    ``coeffs`` holds (a_1, ..., a_L) and ``innovation_var`` is the variance of
    the white Gaussian drive psi; all must be finite.  A zero innovation
    variance is allowed only as a degenerate test drive (the process is then
    identically zero).  Stationarity is checked where the model is used: the
    first use checks it and solves for kappa_x(0..L), which the instance then
    keeps, so every later use reads the same head; the stationarity decision
    and the spectral radius behind the burn-in are likewise found once each.
    """

    coeffs: tuple[float, ...]
    innovation_var: float
    order: int = field(init=False)

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coeffs)
        if len(coeffs) == 0:
            raise CsiFeedbackError("ArModel needs at least one coefficient")
        if not all(math.isfinite(a) for a in coeffs):
            raise CsiFeedbackError("ar_coeffs must be finite")
        if not (math.isfinite(self.innovation_var) and self.innovation_var >= 0):
            raise CsiFeedbackError("innovation_var must be finite and non-negative")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "innovation_var", float(self.innovation_var))
        object.__setattr__(self, "order", len(coeffs))

    def characteristic_roots(self) -> np.ndarray:
        """Roots of z^L - a_1 z^{L-1} - ... - a_L, as ``np.roots`` finds them."""
        return np.roots([1.0, *(-a for a in self.coeffs)])

    @functools.cached_property
    def _acov_head(self) -> np.ndarray:
        # kappa_x(0..L), read-only; an error is raised again on every access
        head = _solve_yule_walker(self)
        head.flags.writeable = False
        return head

    @functools.cached_property
    def _stationary(self) -> bool:
        # the first step-down pass clear of its guard decides; a model none clears is on the margin
        for digits in (None, *STEP_DOWN_DIGITS):
            if (decided := _step_down_decision(self.coeffs, digits)) is not None:
                return decided
        return False

    @functools.cached_property
    def _spectral_radius(self) -> float:
        # max |root|, for the burn-in
        return float(np.max(np.abs(self.characteristic_roots())))

    @property
    def sigma_x_sq(self) -> float:
        """Channel variance kappa_x(0); raises as ``autocovariance`` does."""
        return float(self._acov_head[0])

    def __getstate__(self) -> dict:
        # the head, the decision and the radius derive from the fields: pickle and copy only those
        state = dict(self.__dict__)
        for cached in ("_acov_head", "_stationary", "_spectral_radius"):
            state.pop(cached, None)
        return state


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian observation noise with variance sigma_xi^2."""

    obs_noise_var: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.obs_noise_var) and self.obs_noise_var >= 0):
            raise CsiFeedbackError("obs_noise_var must be finite and non-negative")
        object.__setattr__(self, "obs_noise_var", float(self.obs_noise_var))


@dataclass(frozen=True, eq=False)
class Autocovariance:
    """Exact channel autocovariance kappa_x(0..max_lag)."""

    lags: np.ndarray

    @property
    def max_lag(self) -> int:
        return self.lags.size - 1

    @property
    def sigma_x_sq(self) -> float:
        return float(self.lags[0])


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """A seeded realisation of the channel and its noisy observation."""

    x: np.ndarray
    y: np.ndarray


def validate_stationarity(model: ArModel) -> bool:
    """True iff every characteristic root has modulus < 1 - 1e-9.

    One rule decides every order: the Schur-Cohn step-down recursion on the
    coefficients scaled to radius 1 - 1e-9, without an eigensolver.  It runs
    in floats first; where a stage lands inside its guard band
    (STEP_DOWN_GUARD) or overflows, it runs again in ``decimal`` from the
    exact values of the float coefficients, at 40, 80, 160, 320 and 640
    digits in turn (STEP_DOWN_DIGITS), with the guard scaled to each
    precision, until a pass is clear of its guard.  A model that no pass
    clears has a root on the margin at every precision (a_1 = 1 - 1e-9 as a
    float, say) and counts as not stationary.  The model keeps its decision.
    """
    return model._stationary


def _step_down_decision(coeffs: tuple[float, ...], digits: int | None = None) -> bool | None:
    """All roots of z^L - a_1 z^{L-1} - ... - a_L inside 1 - 1e-9, or None if too close to call.

    One step-down pass (``_step_down``) in floats, or with ``digits`` in
    ``decimal`` at that precision from the exact values of the float
    coefficients and of the float radius, its guard STEP_DOWN_GUARD scaled by
    10^(16 - digits).
    """
    if digits is None:
        return _step_down(coeffs, float, STEP_DOWN_GUARD)
    with decimal.localcontext(prec=digits):
        return _step_down(coeffs, decimal.Decimal, decimal.Decimal(STEP_DOWN_GUARD).scaleb(16 - digits))


def _step_down(coeffs: tuple[float, ...], number: type, guard) -> bool | None:
    """The Schur-Cohn step-down in ``number`` arithmetic; None where a stage is within ``guard``.

    With b_m = a_m / rho^m, each stage p = L..1 takes k_p = b_p and steps down
    to b_m <- (b_m + k_p b_{p-m}) / (1 - k_p^2); the roots lie inside rho iff
    every |k_p| < 1.  A stage whose |1 - |k_p|| is at most ``guard`` times the
    error growth of the earlier stages, 1 / prod(1 - k_q^2), or whose k_p is
    infinite or NaN, gives None.
    """
    rho = number(1.0 - STATIONARITY_MARGIN)
    b = [number(a) / rho**m for m, a in enumerate(coeffs, start=1)]
    one = growth = number(1)
    while True:
        k = b.pop()
        margin = one - abs(k)
        if not abs(margin) > guard * growth or abs(k) == math.inf:
            return None
        if margin < 0 or not b:  # outside rho, or the last stage inside it
            return margin > 0
        scale = one - k * k
        b = [(x + k * y) / scale for x, y in zip(b, reversed(b))]
        growth /= scale


def _check_stationary(model: ArModel) -> None:
    if not validate_stationarity(model):
        raise NonStationaryModel(f"characteristic roots not inside unit circle: {model.coeffs}")


def _dot(coeffs, values) -> float:
    """sum_m coeffs[m] * values[m] left to right from 0.0, unlike sum() since Python 3.12."""
    total = 0.0
    for a, v in zip(coeffs, values):
        total += a * v
    return total


def _solve_yule_walker(model: ArModel) -> np.ndarray:
    """Check stationarity, then solve the Yule-Walker system for kappa_x(0..L)."""
    _check_stationary(model)
    size = model.order + 1
    # the identity minus each a_m at (tau, |tau - m|): the subtractions, in their
    # order, of a build on a numpy matrix, in Python floats converted once
    system = [[1.0 if tau == j else 0.0 for j in range(size)] for tau in range(size)]
    for tau, row in enumerate(system):
        for m, a in enumerate(model.coeffs, start=1):
            row[abs(tau - m)] -= a
    rhs = [model.innovation_var] + [0.0] * model.order
    try:
        return np.linalg.solve(np.array(system), np.array(rhs))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Yule-Walker system is singular") from exc


def autocovariance(model: ArModel, max_lag: int) -> Autocovariance:
    """Exact kappa_x(0..max_lag) from the extended Yule-Walker system.

    The solve is exact for AR processes: lags 0..L come from the linear system

        kappa(tau) - sum_m a_m kappa(|tau - m|) = sigma_psi^2 * [tau == 0]

    and higher lags follow the recursion kappa(tau) = sum_m a_m kappa(tau - m).
    The model solves the system once and keeps lags 0..L; each call returns a
    new array.  ``max_lag`` is taken through ``operator.index``.

    Raises NonStationaryModel if the model fails the stationarity check and
    SingularSystem if the linear solve is numerically singular, on every call.
    """
    max_lag = operator.index(max_lag)
    head = model._acov_head
    if max_lag < model.order:
        raise CsiFeedbackError(f"max_lag ({max_lag}) must be >= model order ({model.order})")

    lags = head.tolist()
    for _ in range(model.order, max_lag):  # each lag from the last L, most recent first
        lags.append(_dot(model.coeffs, lags[: -model.order - 1 : -1]))
    return Autocovariance(lags=np.array(lags))


def obs_autocovariance(acov: Autocovariance, noise: NoiseSpec, lag: int) -> float:
    """kappa_y(lag): the channel autocovariance plus noise power at lag zero."""
    if lag < 0 or lag > acov.max_lag:
        raise LagOutOfRange(f"lag {lag} outside [0, {acov.max_lag}]")
    value = float(acov.lags[lag])
    if lag == 0:
        value += noise.obs_noise_var
    return value


def cross_autocovariance(acov: Autocovariance, lag: int) -> float:
    """kappa_xy(lag) = kappa_x(lag); the noise is independent of the channel."""
    if lag < 0 or lag > acov.max_lag:
        raise LagOutOfRange(f"lag {lag} outside [0, {acov.max_lag}]")
    return float(acov.lags[lag])


def default_burn_in(model: ArModel) -> int:
    """Burn-in long enough to wash out the zero initial state.

    10 * L / (1 - max |root|), capped at MAX_BURN_IN.
    """
    estimate = 10.0 * model.order / max(1.0 - model._spectral_radius, 1e-6)
    return int(min(MAX_BURN_IN, max(model.order, math.ceil(estimate))))


def _ar_filter(coeffs: tuple[float, ...], psi: np.ndarray) -> np.ndarray:
    """x_k = sum_m a_m x_{k-m} + psi_k from a zero state, bit for bit as lfilter computes it.

    The kernel's ``ar_trace`` and the loop here both run lfilter's direct form
    II transposed in its operation order, 0 * x terms included.
    """
    lib = _kernel.load()
    if lib is None:
        d = [-a for a in coeffs]
        z, last, x = [0.0] * len(d), len(d) - 1, []
        for value in psi.tolist():
            out = z[0] + 1.0 * value
            for m in range(last):
                z[m] = z[m + 1] + 0.0 * value - d[m] * out
            z[last] = 0.0 * value - d[last] * out
            x.append(out)
        return np.array(x)
    a = np.array(coeffs)
    x = np.empty_like(psi)
    z = np.empty(a.size)
    lib.ar_trace(psi.size, a.size, a.ctypes.data, psi.ctypes.data, x.ctypes.data, z.ctypes.data)
    return x


def generate_trace(model: ArModel, noise: NoiseSpec, n: int, seed: int) -> ChannelTrace:
    """Generate a seeded channel realisation with its noisy observation.

    The AR recursion starts from a zero state and drops its first
    ``default_burn_in(model)`` samples, so the trace is effectively stationary.
    The output is a pure function of (model, noise, n, seed).  ``n`` and
    ``seed`` are taken through ``operator.index``, so None and floats raise
    TypeError; a seed below zero, or an ``n`` numpy cannot size an array
    for, raises CsiFeedbackError.
    """
    n, seed = operator.index(n), operator.index(seed)
    _check_stationary(model)
    if n <= 0:
        raise CsiFeedbackError("n must be positive")
    if seed < 0:
        raise CsiFeedbackError("seed must be >= 0")
    burn_in = default_burn_in(model)

    rng = np.random.default_rng(seed)
    try:
        psi = rng.normal(0.0, math.sqrt(model.innovation_var), size=burn_in + n)
    except ValueError as exc:  # only the size can be refused: the scale is finite and >= 0
        raise CsiFeedbackError(f"n {n} is too large to draw") from exc
    x = _ar_filter(model.coeffs, psi)[burn_in:]
    xi = rng.normal(0.0, math.sqrt(noise.obs_noise_var), size=n)
    return ChannelTrace(x=x, y=x + xi)
