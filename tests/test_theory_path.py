"""The theory path beyond demos/reference.cfg's AR(4): digests of AR(1..8) models, on both paths.

Each model below is the AR(L) fit of a unit-power Jakes channel (as
bench/inputs.py builds them) at a fixed Doppler and noise level.  For each,
the digest covers the bytes of ``format_csv(run_theory_sweep(config))`` in
both bound forms and the bits of ``(step, gain, varsigma_inf, last MSE)``
per quantizer width, which the theory_grid benchmark computes.  Like the
reference digests, they hold for numpy 2.4.6, Python 3.11.7 and glibc on
x86-64 Linux; a change that moves them changes the theory outputs.
"""

import hashlib

import pytest

from csi_feedback import analysis, bounds, channel, codec, harness
from csi_feedback.bounds import RdPoint, Scheme
from csi_feedback.harness import CsvRow

MODELS = {
    1: "ar_coeffs = 0.290273940149\ninnovation_var = 0.91665678071\nobs_noise_var = 0.5\n",
    2: "ar_coeffs = 1.68769195993, -0.696068857752\n"
    "innovation_var = 0.00508450495749\nobs_noise_var = 0.01\n",
    3: "ar_coeffs = 2.20530858846, -2.09506344627, 0.817269733216\n"
    "innovation_var = 0.0279476192878\nobs_noise_var = 0.1\n",
    4: "ar_coeffs = 1.60880806775, -0.192946344165, -0.660426034508, 0.190023166481\n"
    "innovation_var = 0.00563102962845\nobs_noise_var = 1\n",
    5: "ar_coeffs = 2.11426910045, -2.93067902676, 2.70864824913, -1.65158810798, "
    "0.562475113873\ninnovation_var = 0.0804511431411\nobs_noise_var = 0.03\n",
    6: "ar_coeffs = 0.663316297021, 0.45315408124, 0.250718984658, 0.0566106979121, "
    "-0.128604432412, -0.304395252902\ninnovation_var = 0.00188057457039\nobs_noise_var = 0.2\n",
    7: "ar_coeffs = 1.90076747095, -0.576124174787, -0.764755611653, -0.0313632188186, "
    "0.459600143637, 0.246957000389, -0.304903770874\n"
    "innovation_var = 0.00854431350523\nobs_noise_var = 0.003\n",
    8: "ar_coeffs = 1.59814895877, 0.00575298285482, -0.571834076098, -0.441726864014, "
    "-0.00210930313642, 0.350932668736, 0.309846465251, -0.281253569334\n"
    "innovation_var = 0.00534000863524\nobs_noise_var = 0.05\n",
}
N_POINTS = 16
WIDTHS = (2, 6, 10)
MSE_STEPS = 100_000

# sha256 of each model's outputs (``model_outputs``), keyed by the AR order
SHA256 = {
    1: "50afd001ccc7d5bccf4d41ad1802df040fcb4e4c6628b64e1871db1d18dc7928",
    2: "3965e801911cced28a8b85369f68ac259d438a1be45f2236d35b94229cff2e3e",
    3: "005eff5f8428ade007da5c725527df76a33a871431219f9431215899746f91d6",
    4: "d1a88d4205057e3b1d890e87513d22d490267730bcf6af877f3854187ee686d1",
    5: "3dcdaecf9b614fbe94610a64221ff00ef4b9ee4e0abff557c06992b834194528",
    6: "8cc39dcc151a1a0ebcda40cd2b79005dda128f29abf2cc77d2dd1bb4ce2bb767",
    7: "4b6d8365eabf63d5120180cbd21bd0469d24b852143b96f27ddcf9a1f2d997bb",
    8: "21df5a99262175163d102f282f0d070fec262a16fc7ef794726419690e2fa587",
}


def config_of(order: int, normalized: bool) -> harness.ExperimentConfig:
    form = "true" if normalized else "false"
    text = f"{MODELS[order]}n_points = {N_POINTS}\nnormalized_bounds = {form}\n"
    return harness.parse_config_text(text)


def steady_states(config: harness.ExperimentConfig) -> str:
    """(step, gain, varsigma_inf, last MSE) per width in hex, as the theory_grid bench has them."""
    model, noise = config.model, config.noise
    approx = analysis.ar1_fit(channel.autocovariance(model, model.order))
    lines = []
    for width in WIDTHS:
        quantizer = codec.innovation_quantizer(model, noise, width)
        sigma_q_sq = quantizer.noise_var
        gain = analysis.converged_gain(model, noise, sigma_q_sq)
        varsigma = analysis.steady_state(approx, noise, gain, sigma_q_sq).varsigma_inf
        last = float(analysis.mse_recursion(model, noise, gain, sigma_q_sq, MSE_STEPS)[-1])
        lines.append(" ".join(value.hex() for value in (quantizer.step, gain, varsigma, last)))
    return "\n".join(lines) + "\n"


def model_outputs(order: int) -> bytes:
    """The CSV in the paper's form, the CSV in the normalised form, then the steady states."""
    configs = [config_of(order, normalized) for normalized in (False, True)]
    tables = [harness.format_csv(harness.run_theory_sweep(config)) for config in configs]
    return "".join(tables + [steady_states(configs[0])]).encode()


@pytest.mark.parametrize("order", sorted(MODELS))
def test_theory_outputs_keep_their_digests(order, either_path):
    assert hashlib.sha256(model_outputs(order)).hexdigest() == SHA256[order]


@pytest.mark.parametrize("order", sorted(MODELS))
def test_rows_and_points_are_whole_records(order):
    for normalized in (False, True):
        config = config_of(order, normalized)
        assert set(config.schemes) == set(Scheme)
        for row in harness.run_theory_sweep(config):
            assert type(row) is CsvRow and len(row) == 8
        params = bounds.make_scheme_params(config.model, config.noise)
        for scheme in Scheme:
            d_min, d_max = bounds.default_distortion_grid(scheme, params)
            curve = bounds.sweep(scheme, params, d_min, d_max, N_POINTS, normalized)
            assert curve.points, scheme
            for point in curve.points:
                assert type(point) is RdPoint and len(point) == 2


if __name__ == "__main__":
    for order in sorted(MODELS):
        print(f'    {order}: "{hashlib.sha256(model_outputs(order)).hexdigest()}",')
