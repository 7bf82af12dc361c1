"""Channel-state-feedback overhead toolkit.

Simulates noisy autoregressive fading channels, computes the MMSE and
zero-holding baselines with their closed-form MSEs, evaluates rate-distortion
lower bounds for periodic and aperiodic feedback, runs a closed-loop
innovation codec with Kalman-style gain, and reproduces the rate-distortion
experiments as CSV curves.
"""

from .analysis import (
    Ar1Approx,
    SteadyState,
    ar1_fit,
    converged_gain,
    converged_prediction_state,
    ep_variance,
    mse_recursion,
    rate_practical,
    steady_state,
)
from .bounds import (
    RdCurve,
    RdPoint,
    Scheme,
    SchemeParams,
    default_distortion_grid,
    distortion_floor,
    log_det_ky,
    make_scheme_params,
    nu_variance,
    rate_aperiodic_prediction,
    rate_aperiodic_zh,
    rate_periodic,
    rate_uniform_aperiodic,
    sweep,
)
from .channel import (
    ArModel,
    Autocovariance,
    ChannelTrace,
    NoiseSpec,
    autocovariance,
    cross_autocovariance,
    default_burn_in,
    generate_trace,
    obs_autocovariance,
    validate_stationarity,
)
from .codec import (
    CodecOutput,
    DecoderState,
    EncoderState,
    UniformQuantizer,
    decode_sequence,
    encode_batch,
    encode_sequence,
    innovation_quantizer,
    pack_indices,
    run_codec,
    unpack_indices,
)
from .errors import (
    ConfigError,
    ContractionViolated,
    CsiFeedbackError,
    DegenerateCovariance,
    DimensionMismatch,
    DistortionBelowFloor,
    LagOutOfRange,
    NonConvergence,
    NonFiniteInput,
    NonStationaryModel,
    SingularSystem,
    UnknownIndex,
)
from .harness import (
    CsvRow,
    ExperimentConfig,
    ValidationReport,
    parse_config,
    parse_config_text,
    read_csv,
    run_codec_experiment,
    run_theory_sweep,
    validate_theory,
    write_csv,
)
from .predictor import (
    PredictorCoefficients,
    ZhEstimator,
    mmse_coefficients,
    predict_one_step,
    zh_estimate,
    zh_estimator,
)

__version__ = "0.1.0"
