"""One error root: every error the package raises is a CsiFeedbackError, itself a ValueError."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import csi_feedback
from csi_feedback import (
    Ar1Approx,
    ArModel,
    Autocovariance,
    EncoderState,
    NoiseSpec,
    Scheme,
    UniformQuantizer,
    ar1_fit,
    autocovariance,
    encode_batch,
    ep_variance,
    errors,
    generate_trace,
    innovation_quantizer,
    log_det_ky,
    make_scheme_params,
    mse_recursion,
    pack_indices,
    rate_practical,
    steady_state,
    sweep,
    unpack_indices,
)
from csi_feedback.errors import CsiFeedbackError, NonFiniteInput
from csi_feedback.predictor import kappa_y_matrix, mmse_coefficients, zh_estimator
from shared import REF_AR1, REF_AR4, UNIT_NOISE

SOURCES = sorted(Path(csi_feedback.__file__).parent.glob("*.py"))


def _state():
    return EncoderState(REF_AR1, UNIT_NOISE, innovation_quantizer(REF_AR1, UNIT_NOISE, 4))


def _encode_one_state_twice():
    state, y = _state(), np.zeros(20)
    encode_batch([state, state], [y, y])


# (entry point with a bad argument, the message it raises)
BAD_ARGUMENTS = {
    "analysis quant noise": (
        lambda: steady_state(Ar1Approx(0.5, 1.0), UNIT_NOISE, 0.5, -1.0),
        "sigma_q_sq must be non-negative",
    ),
    "analysis gain": (
        lambda: mse_recursion(REF_AR1, UNIT_NOISE, 0.0, 0.0, 10),
        "lam must lie in (0, 1]",
    ),
    # a NaN and a gain above 1 gave 0.0 bits, and 0 a DistortionBelowFloor
    "analysis practical gain nan": (
        lambda: rate_practical(5.0, ar1_fit(autocovariance(REF_AR1, 1)), UNIT_NOISE, math.nan),
        "lam must lie in (0, 1]",
    ),
    "analysis practical gain above 1": (
        lambda: rate_practical(5.0, ar1_fit(autocovariance(REF_AR1, 1)), UNIT_NOISE, 1.5),
        "lam must lie in (0, 1]",
    ),
    "analysis practical gain 0": (
        lambda: rate_practical(5.0, ar1_fit(autocovariance(REF_AR1, 1)), UNIT_NOISE, 0.0),
        "lam must lie in (0, 1]",
    ),
    "analysis ar1 lag": (
        lambda: ar1_fit(Autocovariance(np.array([1.0]))),
        "need kappa_x up to lag 1",
    ),
    "analysis ar1 no lag": (  # an IndexError before
        lambda: ar1_fit(Autocovariance(np.array([]))),
        "need kappa_x up to lag 1",
    ),
    "analysis spectral beta": (
        lambda: ep_variance(Autocovariance(np.array([1.0, 1.0])), UNIT_NOISE),
        "spectral variance needs |beta| < 1",
    ),
    "bounds log det order": (
        lambda: log_det_ky(autocovariance(REF_AR1, 1), UNIT_NOISE, 0),
        "order must be >= 1",
    ),
    "bounds log det lag": (
        lambda: log_det_ky(Autocovariance(np.array([1.0])), UNIT_NOISE, 3),
        "autocovariance max_lag 0 < order-1",
    ),
    "bounds log det singular": (  # the zero channel's kappa_y matrix of order 2 is all zeros
        lambda: log_det_ky(Autocovariance(np.zeros(3)), NoiseSpec(0.0), 2),
        "kappa_y Toeplitz matrix is not positive definite",
    ),
    "bounds params order": (  # checked before the one kappa_y matrix is built
        lambda: make_scheme_params(REF_AR1, UNIT_NOISE, 0),
        "predictor order must be >= 1",
    ),
    "bounds sweep points": (
        lambda: sweep(Scheme.PERIODIC, make_scheme_params(REF_AR1, UNIT_NOISE), 1.0, 2.0, 1),
        "n_points must be >= 2",
    ),
    "bounds sweep grid": (
        lambda: sweep(Scheme.PERIODIC, make_scheme_params(REF_AR1, UNIT_NOISE), 2.0, 1.0, 5),
        "periodic: need 0 < d_min < d_max, got [2.0, 1.0]",
    ),
    "channel no coefficient": (
        lambda: ArModel((), 1.0),
        "ArModel needs at least one coefficient",
    ),
    "channel coefficient": (
        lambda: ArModel((math.nan,), 1.0),
        "ar_coeffs must be finite",
    ),
    "channel innovation var": (
        lambda: ArModel((0.5,), -1.0),
        "innovation_var must be finite and non-negative",
    ),
    "channel noise var": (
        lambda: NoiseSpec(-1.0),
        "obs_noise_var must be finite and non-negative",
    ),
    "channel max lag": (
        lambda: autocovariance(REF_AR4, 2),
        "max_lag (2) must be >= model order (4)",
    ),
    "channel trace length": (
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 0, seed=0),
        "n must be positive",
    ),
    # numpy's own "expected non-negative integer" before
    "channel trace seed": (
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 10, seed=-1),
        "seed must be >= 0",
    ),
    # numpy refuses both sizes before allocating: the first beyond its dimensions,
    # the second beyond its bytes; each raised numpy's ValueError
    "channel trace too long": (
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 10**19, seed=0),
        "n 10000000000000000000 is too large to draw",
    ),
    "channel trace too many bytes": (
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 2**62, seed=0),
        "n 4611686018427387904 is too large to draw",
    ),
    "codec step": (
        lambda: UniformQuantizer(bits=2, step=0.0),
        "step must be positive",
    ),
    "codec infinite step": (
        lambda: UniformQuantizer(bits=2, step=math.inf),
        "step must be finite",
    ),
    # 4 std / 2^(bits - 1) overflows; a finite step up to the largest float is legal
    "codec loaded step overflows": (
        lambda: UniformQuantizer.loaded(1, 1e308),
        "1-bit quantizer step overflows to inf: std=1e+308",
    ),
    "codec std": (
        lambda: UniformQuantizer.loaded(2, 0.0),
        "std must be positive",
    ),
    "codec width": (
        lambda: UniformQuantizer(bits=0, step=1.0),
        "bits must lie in 1..53",
    ),
    "codec loaded width": (  # checked before the step 4 std / 2^(bits - 1) is formed
        lambda: UniformQuantizer.loaded(0, 1.0),
        "bits must lie in 1..53",
    ),
    "codec shared state": (
        _encode_one_state_twice,
        "each row needs its own encoder state",
    ),
    "codec stream count": (
        lambda: encode_batch([_state()], [np.zeros(20), np.zeros(20)]),
        "need one observation stream per encoder state",
    ),
    "codec stream lengths": (
        lambda: encode_batch([_state(), _state()], [np.zeros(20), np.zeros(19)]),
        "observation streams must be one-dimensional and of equal length",
    ),
    "codec index dimension": (
        lambda: pack_indices([[0, 1]], 2),
        "index stream must be one-dimensional",
    ),
    "codec short stream": (
        lambda: unpack_indices(b"", 2, 1),
        "stream too short: got 0 of 1 indices",
    ),
    "codec negative count": (  # an empty stream before
        lambda: unpack_indices(b"", 2, -1),
        "count must be >= 0",
    ),
    "predictor order": (
        lambda: mmse_coefficients(autocovariance(REF_AR1, 1), UNIT_NOISE, 0),
        "predictor order must be >= 1",
    ),
    "predictor lag": (
        lambda: mmse_coefficients(Autocovariance(np.array([1.0, 0.5])), UNIT_NOISE, 2),
        "autocovariance max_lag 1 < order 2",
    ),
    # each raised an IndexError, and kappa_y_matrix of order -1 returned a 0 x 0 matrix
    "predictor zh lag": (
        lambda: zh_estimator(Autocovariance(np.array([1.0])), UNIT_NOISE),
        "need kappa_x up to lag 1",
    ),
    "predictor kappa_y lag": (
        lambda: kappa_y_matrix(Autocovariance(np.array([1.0, 0.5])), UNIT_NOISE, 3),
        "autocovariance max_lag 1 < order-1",
    ),
    "predictor kappa_y order 0": (
        lambda: kappa_y_matrix(Autocovariance(np.array([1.0, 0.5])), UNIT_NOISE, 0),
        "order must be >= 1",
    ),
    "predictor kappa_y order -1": (
        lambda: kappa_y_matrix(Autocovariance(np.array([1.0, 0.5])), UNIT_NOISE, -1),
        "order must be >= 1",
    ),
}


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_argument_raises_the_toolkit_error(call, message):
    with pytest.raises(CsiFeedbackError) as raised:
        call()
    assert isinstance(raised.value, ValueError)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 10, seed=None),  # would draw OS entropy
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 10, seed=1.5),
        lambda: generate_trace(REF_AR1, UNIT_NOISE, 2.5, seed=0),
        lambda: autocovariance(REF_AR4, 4.5),
    ],
    ids=["trace seed None", "trace seed float", "trace length float", "max lag float"],
)
def test_channel_integers_are_taken_through_index(call):
    with pytest.raises(TypeError):
        call()


def test_one_error_root():
    assert issubclass(CsiFeedbackError, ValueError)
    assert NonFiniteInput.__bases__ == (CsiFeedbackError,)
    classes = [value for value in vars(errors).values() if isinstance(value, type)]
    assert all(issubclass(cls, CsiFeedbackError) for cls in classes)


# (module, function) of the only code that may silence numpy's overflow warning:
# the quantizer's level division and the squared-error score
ERRSTATE_OWNERS = {("codec", "_levels"), ("codec", "_mean_squares")}


def _rule_breaks(source: str, module: str) -> list[tuple[int, str]]:
    """(line, rule) of each raise of a bare ValueError, each call of the builtin sum
    and each ``errstate`` of ``module`` outside ``ERRSTATE_OWNERS``."""
    breaks = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                breaks.append((node.lineno, "raise ValueError"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            breaks.append((node.lineno, "builtin sum"))
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "errstate" and (module, function) not in ERRSTATE_OWNERS:
            breaks.append((node.lineno, "np.errstate"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(breaks)


def test_rule_check_reads_code_not_text():
    source = (
        '"""A docstring may say raise ValueError(...), sum(x) or np.errstate."""\n'
        "total = np.sum(x)\n"
        "if total:\n"
        "    raise ValueError('bad')\n"
        "raise ValueError\n"
        "total = sum(x)\n"
        "def _levels(x):\n"
        "    with np.errstate(over='ignore'):\n"
        "        return x / 3\n"
        "def _mean_squares(x):\n"
        "    def inner():\n"
        "        return errstate\n"
        "with np.errstate(all='ignore'):\n"
        "    pass\n"
    )
    expected = [(4, "raise ValueError"), (5, "raise ValueError"), (6, "builtin sum")]
    errstates = [(12, "np.errstate"), (13, "np.errstate")]
    assert _rule_breaks(source, "codec") == sorted([*expected, *errstates])
    assert _rule_breaks(source, "harness") == sorted([*expected, (8, "np.errstate"), *errstates])


def test_sources_raise_no_bare_value_error_and_call_no_builtin_sum():
    # a bare ValueError escapes the CLI's one except clause; builtin sum() of
    # floats is compensated from Python 3.12 on, so channel._dot sums instead;
    # an overflow silenced anywhere but in its owners would go unchecked
    assert SOURCES
    breaks = {path.name: _rule_breaks(path.read_text(), path.stem) for path in SOURCES}
    assert {name: found for name, found in breaks.items() if found} == {}
