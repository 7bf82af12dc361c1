"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
tolerances are fixed here, not tuned: closed-form agreement at 2%, codec
steady-state agreement at 15%, quantizer noise model at 10%, window
stability at 5%, cross-module identities at 1e-9.
"""

import math
import time

import numpy as np
import pytest

from csi_feedback import (
    ArModel,
    DecoderState,
    EncoderState,
    ar1_fit,
    autocovariance,
    converged_gain,
    decode_sequence,
    encode_sequence,
    ep_variance,
    generate_trace,
    innovation_quantizer,
    make_scheme_params,
    mmse_coefficients,
    mse_recursion,
    rate_aperiodic_prediction,
    rate_aperiodic_zh,
    rate_periodic,
    run_codec,
    steady_state,
    zh_estimator,
    UniformQuantizer,
)
from csi_feedback.errors import DistortionBelowFloor
from shared import REF_AR4, UNIT_NOISE, sliding_predictions

ORDER = 4


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} | {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def acov():
    return autocovariance(REF_AR4, 8)


@pytest.fixture(scope="module")
def coeffs(acov):
    return mmse_coefficients(acov, UNIT_NOISE, ORDER)


@pytest.fixture(scope="module")
def trace_1m():
    return generate_trace(REF_AR4, UNIT_NOISE, 1_000_000, seed=4)


def test_criterion_01_prediction_mse_matches_simulation(acov, coeffs):
    started = time.perf_counter()
    trace = generate_trace(REF_AR4, UNIT_NOISE, 1_000_000, seed=4)
    predictions = sliding_predictions(trace.y, coeffs.theta)
    empirical = float(np.mean((trace.x[ORDER:] - predictions) ** 2))
    elapsed = time.perf_counter() - started
    rel_err = abs(empirical - coeffs.sigma_p_sq) / coeffs.sigma_p_sq
    report(
        1,
        rel_err < 0.02 and elapsed < 30.0,
        f"sigma_p_sq={coeffs.sigma_p_sq:.5f} empirical={empirical:.5f} "
        f"rel_err={rel_err:.3%} (tol 2%), runtime {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_zero_holding_mse_matches_closed_form(acov, coeffs, trace_1m):
    # sigma_z_sq is the paper's closed form: the hold-gap MSE E[(x_{k+1}-x_k)^2]
    # plus the filtering MSE E[(x_k - alpha y_k)^2], without their cross term
    zh = zh_estimator(acov, UNIT_NOISE)
    ordering_ok = coeffs.sigma_p_sq < zh.sigma_z_sq
    x, y = trace_1m.x, trace_1m.y
    hold_gap = float(np.mean((x[1:] - x[:-1]) ** 2))
    filtering = float(np.mean((x - zh.alpha * y) ** 2))
    components_err = abs(hold_gap + filtering - zh.sigma_z_sq) / zh.sigma_z_sq
    # the realised MSE of the forecast alpha y_k, expanded term by term
    k0, k1 = acov.lags[0], acov.lags[1]
    exact = k0 + zh.alpha * k0 - 2 * zh.alpha * k1
    realised = float(np.mean((x[1:] - zh.alpha * y[:-1]) ** 2))
    realised_err = abs(realised - exact) / exact
    # the two differ by exactly the dropped cross term 2(1-alpha)(kappa0-kappa1)
    cross_term = 2 * (1 - zh.alpha) * (k0 - k1)
    identity_gap = abs(zh.sigma_z_sq - cross_term - exact)
    report(
        2,
        ordering_ok and components_err < 0.02 and realised_err < 0.02 and identity_gap < 1e-9,
        f"sigma_z_sq={zh.sigma_z_sq:.5f} vs hold-gap + filtering MSE "
        f"{hold_gap:.5f} + {filtering:.5f}: rel_err={components_err:.3%} (tol 2%); "
        f"realised estimator MSE={realised:.5f} vs exact form {exact:.5f}: "
        f"rel_err={realised_err:.3%} (tol 2%); cross term={cross_term:.5f}, sigma_z_sq minus "
        f"it vs exact form: gap={identity_gap:.2e} (tol 1e-9); sigma_p_sq < sigma_z_sq: "
        f"{ordering_ok}",
    )


def test_criterion_03_codec_synchrony_100k():
    trace = generate_trace(REF_AR4, UNIT_NOISE, 100_000, seed=9)
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    started = time.perf_counter()
    encoder = EncoderState(REF_AR4, UNIT_NOISE, quantizer)
    decoder = DecoderState(REF_AR4, quantizer)
    indices, encoder_recon = encode_sequence(encoder, trace.y)
    decoder_recon = decode_sequence(decoder, indices)
    elapsed = time.perf_counter() - started
    exact = bool(np.array_equal(encoder_recon, decoder_recon))
    report(
        3,
        exact and elapsed < 5.0,
        f"encoder/decoder reconstructions exactly equal over 1e5 steps: {exact}, "
        f"runtime {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_04_no_error_accumulation():
    trace = generate_trace(REF_AR4, UNIT_NOISE, 80_000, seed=31415)
    quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 6)
    output = run_codec(REF_AR4, UNIT_NOISE, quantizer, trace.y, trace.x)
    err_sq = (trace.x - output.encoder_recon) ** 2
    early = float(np.mean(err_sq[10_000:20_000]))
    late = float(np.mean(err_sq[40_000:80_000]))
    rel_diff = abs(early - late) / early
    report(
        4,
        rel_diff < 0.05,
        f"MSE[1e4:2e4]={early:.5f} MSE[4e4:8e4]={late:.5f} rel_diff={rel_diff:.3%} (tol 5%)",
    )


def test_criterion_05_steady_state_theory(acov):
    approx = ar1_fit(acov)
    trace = generate_trace(REF_AR4, UNIT_NOISE, 150_000, seed=20240809)
    lines = []
    ok = True
    for bits in (4, 6, 8):
        quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, bits)
        sigma_q_sq = quantizer.noise_var
        lam = converged_gain(REF_AR4, UNIT_NOISE, sigma_q_sq)
        predicted = steady_state(approx, UNIT_NOISE, lam, sigma_q_sq).varsigma_inf
        output = run_codec(REF_AR4, UNIT_NOISE, quantizer, trace.y, trace.x)
        empirical = float(np.mean((trace.x[10_000:] - output.encoder_recon[10_000:]) ** 2))
        rel_err = abs(empirical - predicted) / predicted
        ok = ok and rel_err < 0.15
        lines.append(f"R={bits}: predicted={predicted:.4f} empirical={empirical:.4f} ({rel_err:.1%})")
    report(5, ok, "; ".join(lines) + " (tol 15%)")


def test_criterion_06_bound_ordering_and_floors(acov, coeffs):
    params = make_scheme_params(REF_AR4, UNIT_NOISE, ORDER)
    floor_p = coeffs.sigma_p_sq
    floor_z = params.zh.sigma_z_sq
    grid = np.geomspace(floor_p * (1 + 1e-6), 10 * acov.sigma_x_sq, 40)
    ordering = all(
        rate_periodic(float(d), params) <= rate_aperiodic_prediction(float(d), params) + 1e-12
        for d in grid
    )
    shared_floor = True
    for d in (floor_p, floor_p * 0.999):
        for rate in (rate_periodic, rate_aperiodic_prediction):
            try:
                rate(float(d), params)
                shared_floor = False
            except DistortionBelowFloor:
                pass
    zh_floor_above = floor_z > floor_p
    report(
        6,
        ordering and shared_floor and zh_floor_above,
        f"periodic <= aperiodic at all {grid.size} grid points: {ordering}; both undefined at "
        f"sigma_p_sq={floor_p:.4f}: {shared_floor}; sigma_z_sq={floor_z:.4f} > sigma_p_sq: "
        f"{zh_floor_above}",
    )


def test_criterion_07_variance_shift():
    doubled = ArModel(coeffs=REF_AR4.coeffs, innovation_var=2.0)
    p1 = make_scheme_params(REF_AR4, UNIT_NOISE, ORDER)
    p2 = make_scheme_params(doubled, UNIT_NOISE, ORDER)
    rates = {
        "aperiodic_prediction": lambda p, d, clamp: rate_aperiodic_prediction(d, p, clamp=clamp),
        "aperiodic_zh": lambda p, d, clamp: rate_aperiodic_zh(d, p, clamp=clamp),
        "periodic": lambda p, d, clamp: rate_periodic(d, p, clamp=clamp),
    }
    strict = True
    never_lower = True
    zh_floor_2 = p2.zh.sigma_z_sq
    grid = np.geomspace(zh_floor_2 * 1.001, 10 * p2.acov.sigma_x_sq, 25)
    for name, rate in rates.items():
        for d in grid:
            strict = strict and rate(p2, float(d), False) > rate(p1, float(d), False)
            never_lower = never_lower and rate(p2, float(d), True) >= rate(p1, float(d), True)
    report(
        7,
        strict and never_lower,
        f"doubling the drive variance raises all three bounds strictly (raw expressions) at "
        f"all {grid.size} common distortions: {strict}; clamped rates never decrease: "
        f"{never_lower}",
    )


def test_criterion_08_practical_scheme_ordering(acov, coeffs):
    approx = ar1_fit(acov)
    direct_std = math.sqrt(acov.sigma_x_sq + coeffs.sigma_p_sq)
    open_std = math.sqrt(approx.iota_var + (1 + approx.beta**2) * UNIT_NOISE.obs_noise_var)
    trace = generate_trace(REF_AR4, UNIT_NOISE, 50_000, seed=777)

    def open_loop_mse(quantizer):
        reconstruction = 0.0
        total = 0.0
        for x_k, y_k in zip(trace.x.tolist(), trace.y.tolist()):
            prediction = approx.beta * reconstruction
            _, quantized = quantizer.quantize(y_k - prediction)
            reconstruction = prediction + quantized
            total += (x_k - reconstruction) ** 2
        return total / trace.x.size

    ordering_ok = True
    lines = []
    direct_at_10 = None
    for bits in range(2, 11):
        direct_q = UniformQuantizer.loaded(bits, direct_std)
        _, quantized = direct_q.quantize_many(sliding_predictions(trace.y, coeffs.theta))
        direct = float(np.mean((trace.x[ORDER:] - quantized) ** 2))
        open_loop = open_loop_mse(UniformQuantizer.loaded(bits, open_std))
        closed = run_codec(
            REF_AR4, UNIT_NOISE, innovation_quantizer(REF_AR4, UNIT_NOISE, bits), trace.y, trace.x
        ).empirical_mse
        ordering_ok = ordering_ok and open_loop > closed
        if bits == 10:
            direct_at_10 = direct
        lines.append(f"R={bits}: open={open_loop:.3f} closed={closed:.3f}")
    plateau_err = abs(direct_at_10 - coeffs.sigma_p_sq) / coeffs.sigma_p_sq
    report(
        8,
        ordering_ok and plateau_err < 0.10,
        f"noise-blind AR(1) codec worse than closed loop at every width: {ordering_ok}; "
        f"direct quantization at R=10 sits {plateau_err:.1%} from sigma_p_sq "
        f"(tol 10%). " + "; ".join(lines[:3]) + " ...",
    )


def test_criterion_09_quantizer_high_resolution():
    rng = np.random.default_rng(5)
    sigma = 2.0
    samples = rng.normal(0.0, sigma, size=4_000_000)
    ok = True
    lines = []
    for bits in (6, 8):
        quantizer = UniformQuantizer.loaded(bits, sigma)
        _, recon = quantizer.quantize_many(samples)
        mse = float(np.mean((samples - recon) ** 2))
        ratio = mse / quantizer.noise_var
        ok = ok and abs(ratio - 1.0) < 0.10
        lines.append(f"R={bits}: mse/(step^2/12)={ratio:.3f}")
    report(9, ok, "; ".join(lines) + " (tol 10%)")


def test_criterion_10_cross_module_identities():
    ar1 = ArModel((0.9,), 1.0)
    acov1 = autocovariance(ar1, 4)
    scalar = mmse_coefficients(acov1, UNIT_NOISE, 1)
    spectral = ep_variance(acov1, UNIT_NOISE)
    identity_gap = abs(spectral - scalar.sigma_p_sq)

    approx = ar1_fit(acov1)
    lam, sigma_q_sq = 0.55, 0.02
    trajectory = mse_recursion(ar1, UNIT_NOISE, lam, sigma_q_sq, steps=10_000)
    closed = steady_state(approx, UNIT_NOISE, lam, sigma_q_sq).varsigma_inf
    recursion_gap = abs(trajectory[-1] - closed)
    report(
        10,
        identity_gap < 1e-9 and recursion_gap < 1e-9,
        f"spectral-path prediction error vs scalar Wiener MSE: gap={identity_gap:.2e}; "
        f"recursion fixed point vs closed form: gap={recursion_gap:.2e} (tol 1e-9)",
    )
