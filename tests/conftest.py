"""Shared fixtures: reference models and session-scoped long traces."""

import warnings

import pytest

from csi_feedback import _kernel, autocovariance, generate_trace
from shared import REF_AR1, REF_AR4, UNIT_NOISE


# Hypothesis's pytest plugin imports this module while it reports a failing
# test, and the import warns; under filterwarnings = ["error"] that warning
# ends the session with INTERNALERROR, and later tests neither run nor report
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:  # without libcst, Hypothesis imports nothing here
        pass


@pytest.fixture(params=["kernel", "fallback"])
def either_path(request, monkeypatch):
    """Run the test through the compiled kernel and through the no-compiler fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    return request.param


@pytest.fixture(scope="session")
def ar4():
    return REF_AR4


@pytest.fixture(scope="session")
def ar1():
    return REF_AR1


@pytest.fixture(scope="session")
def noise():
    return UNIT_NOISE


@pytest.fixture(scope="session")
def ar4_acov():
    return autocovariance(REF_AR4, 8)


@pytest.fixture(scope="session")
def ar1_acov():
    return autocovariance(REF_AR1, 4)


@pytest.fixture(scope="session")
def ar4_trace_1m():
    return generate_trace(REF_AR4, UNIT_NOISE, 1_000_000, seed=4)


@pytest.fixture(scope="session")
def ar1_trace_10m():
    return generate_trace(REF_AR1, UNIT_NOISE, 10_000_000, seed=99)

