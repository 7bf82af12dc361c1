"""Exception types shared across the toolkit."""


class CsiFeedbackError(Exception):
    """Base class for all toolkit errors."""


class NonStationaryModel(CsiFeedbackError):
    """AR model has characteristic roots on or outside the unit circle."""


class SingularSystem(CsiFeedbackError):
    """A linear solve (Yule-Walker or Wiener) hit a singular matrix."""


class LagOutOfRange(CsiFeedbackError):
    """Requested autocovariance lag exceeds the computed range."""


class DimensionMismatch(CsiFeedbackError):
    """Vector length does not match the predictor order."""


class DistortionBelowFloor(CsiFeedbackError):
    """Target distortion is at or below the scheme's distortion floor."""


class UnknownIndex(CsiFeedbackError):
    """Codeword index outside the quantizer's codebook."""


class NonFiniteInput(CsiFeedbackError, ValueError):
    """A quantizer input is NaN or infinite; also a ValueError, as for any bad argument."""


class NonConvergence(CsiFeedbackError):
    """An iterative recursion failed to converge within the step budget."""


class ContractionViolated(CsiFeedbackError):
    """Steady-state closed form needs (1 - lambda)^2 * beta^2 < 1."""


class DegenerateCovariance(CsiFeedbackError):
    """Autocovariance has non-positive variance at lag zero, or a fit of it overflows."""


class ConfigError(CsiFeedbackError):
    """Experiment configuration is missing or invalid."""
