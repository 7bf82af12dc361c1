"""AR(L) fading-channel model: stationarity, exact autocovariance, seeded traces.

The channel state x follows an order-L autoregression driven by white Gaussian
noise, and the receiver only sees the noisy observation y = x + xi.  Everything
downstream (predictors, bounds, codecs) is parameterised by the model defined
here and by its exact autocovariance sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .errors import LagOutOfRange, NonStationaryModel, SingularSystem

# A root of modulus 1 - 1e-9 is already uselessly slow to mix; treat it as
# non-stationary rather than letting burn-in estimates blow up.
STATIONARITY_MARGIN = 1e-9

MAX_BURN_IN = 10_000


@dataclass(frozen=True)
class ArModel:
    """Order-L autoregressive channel x_k = sum_m a_m x_{k-m} + psi_k.

    ``coeffs`` holds (a_1, ..., a_L) and ``innovation_var`` is the variance of
    the white Gaussian drive psi; all must be finite.  A zero innovation
    variance is allowed only as a degenerate test drive (the process is then
    identically zero).  Stationarity is checked where the model is used: the
    first use checks it and solves for kappa_x(0..L), which the instance then
    keeps, so every later use reads the same head; the spectral radius behind
    the check and the burn-in is likewise found once.
    """

    coeffs: tuple[float, ...]
    innovation_var: float
    order: int = field(init=False)

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coeffs)
        if len(coeffs) == 0:
            raise ValueError("ArModel needs at least one coefficient")
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError("ar_coeffs must be finite")
        if not (math.isfinite(self.innovation_var) and self.innovation_var >= 0):
            raise ValueError("innovation_var must be finite and non-negative")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "innovation_var", float(self.innovation_var))
        object.__setattr__(self, "order", len(coeffs))

    def characteristic_roots(self) -> np.ndarray:
        """Roots of z^L - a_1 z^{L-1} - ... - a_L."""
        return np.roots([1.0, *(-a for a in self.coeffs)])

    @functools.cached_property
    def _acov_head(self) -> np.ndarray:
        # kappa_x(0..L), read-only; an error is raised again on every access
        head = _solve_yule_walker(self)
        head.flags.writeable = False
        return head

    @functools.cached_property
    def _spectral_radius(self) -> float:
        # max |root|; the one root of z - a_1 is a_1 itself, found without np.roots
        if self.order == 1:
            return abs(self.coeffs[0])
        return float(np.max(np.abs(self.characteristic_roots())))

    @property
    def sigma_x_sq(self) -> float:
        """Channel variance kappa_x(0); raises as ``autocovariance`` does."""
        return float(self._acov_head[0])

    def __getstate__(self) -> dict:
        # the head and the radius derive from the fields: pickle and copy only those
        state = dict(self.__dict__)
        state.pop("_acov_head", None)
        state.pop("_spectral_radius", None)
        return state


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian observation noise with variance sigma_xi^2."""

    obs_noise_var: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.obs_noise_var) and self.obs_noise_var >= 0):
            raise ValueError("obs_noise_var must be finite and non-negative")
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
    """True iff every characteristic root has modulus < 1 - 1e-9."""
    return model._spectral_radius < 1.0 - STATIONARITY_MARGIN


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
    order = model.order
    a = model.coeffs
    system = np.eye(order + 1)
    for tau in range(order + 1):
        for m in range(1, order + 1):
            system[tau, abs(tau - m)] -= a[m - 1]
    rhs = np.zeros(order + 1)
    rhs[0] = model.innovation_var
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Yule-Walker system is singular") from exc


def autocovariance(model: ArModel, max_lag: int) -> Autocovariance:
    """Exact kappa_x(0..max_lag) from the extended Yule-Walker system.

    The solve is exact for AR processes: lags 0..L come from the linear system

        kappa(tau) - sum_m a_m kappa(|tau - m|) = sigma_psi^2 * [tau == 0]

    and higher lags follow the recursion kappa(tau) = sum_m a_m kappa(tau - m).
    The model solves the system once and keeps lags 0..L; each call returns a
    new array.

    Raises NonStationaryModel if the model fails the stationarity check and
    SingularSystem if the linear solve is numerically singular, on every call.
    """
    head = model._acov_head
    if max_lag < model.order:
        raise ValueError(f"max_lag ({max_lag}) must be >= model order ({model.order})")

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
    The output is a pure function of (model, noise, n, seed).
    """
    _check_stationary(model)
    if n <= 0:
        raise ValueError("n must be positive")
    burn_in = default_burn_in(model)

    rng = np.random.default_rng(seed)
    psi = rng.normal(0.0, math.sqrt(model.innovation_var), size=burn_in + n)
    x = _ar_filter(model.coeffs, psi)[burn_in:]
    xi = rng.normal(0.0, math.sqrt(noise.obs_noise_var), size=n)
    return ChannelTrace(x=x, y=x + xi)
