"""Experiment harness: config parsing, CSV schema, sweeps, validation, CLI."""

import logging
import math
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csi_feedback import (
    CsvRow,
    Scheme,
    generate_trace,
    make_scheme_params,
    parse_config_text,
    read_csv,
    run_codec_experiment,
    run_theory_sweep,
    sweep,
    validate_theory,
    write_csv,
)
from csi_feedback.cli import main as cli_main
from csi_feedback.codec import MAX_BITS, _mean_squares
from csi_feedback.errors import ConfigError
from csi_feedback.harness import (
    AR1_OPEN_LOOP,
    CLOSED_LOOP,
    CSV_HEADER,
    DIRECT_QUANTIZATION,
    MAX_POINTS,
    ValidationEntry,
    format_csv,
    parse_config,
    read_index_stream,
)
from test_codec import _ar_from_pacf

REFERENCE_CONFIG = """
# reference fading model
ar_coeffs = 0.5, 0.2, 0.1, 0.05
innovation_var = 1.0
obs_noise_var = 1.0
predictor_order = 4
schemes = periodic
n_points = 5
d_min = 2.0
d_max = 8.0
quantizer_bits = 4
trials = 1
samples_per_trial = 2000
seed = 7
"""


# a variance log-uniform over 1e-320..1e308, subnormals included
_LOG_UNIFORM_VAR = st.floats(-320.0, 308.0).map(lambda exponent: 10.0**exponent)

# an end of an explicit distortion grid, log-uniform over 1e-300..1e308, or None for
# "auto"; 10.0**308.0 is the largest power that does not overflow
_GRID_END = st.none() | st.floats(-300.0, 308.0).map(lambda exponent: 10.0**exponent)

# white channel and noise of variance 1e308: each is finite, their sum is not
_HUGE_CHANNEL = "ar_coeffs = 0.0\ninnovation_var = 1e308\nobs_noise_var = 1e308\n"


def make_config(**overrides) -> str:
    lines = []
    for line in REFERENCE_CONFIG.strip().splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides.pop(key)}")
        else:
            lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    return "\n".join(lines)


class TestConfigParsing:
    def test_reference_config(self):
        config = parse_config_text(REFERENCE_CONFIG)
        assert config.model.coeffs == (0.5, 0.2, 0.1, 0.05)
        assert config.model.innovation_var == 1.0
        assert config.noise.obs_noise_var == 1.0
        assert config.predictor_order == 4
        assert [s.value for s in config.schemes] == ["periodic"]
        assert config.n_points == 5
        assert (config.d_min, config.d_max) == (2.0, 8.0)
        assert config.quantizer_bits == (4,)
        assert config.seed == 7
        assert config.normalized_bounds is False

    def test_defaults_applied(self):
        config = parse_config_text("ar_coeffs = 0.9")
        assert config.predictor_order == 1
        assert len(config.schemes) == 5
        assert config.d_min is None and config.d_max is None
        assert config.output_path == "rd.csv"

    def test_comments_and_blank_lines(self):
        config = parse_config_text("\n# comment\nar_coeffs = 0.9  # trailing\n\nseed=3\n")
        assert config.model.coeffs == (0.9,)
        assert config.seed == 3

    @pytest.mark.parametrize(
        "text",
        [
            "seed = 1",  # missing ar_coeffs
            "ar_coeffs = 0.9\nbogus_key = 1",
            "ar_coeffs = 0.9\nseed = x",
            "ar_coeffs = 0.9\nschemes = nonsense",
            "ar_coeffs = 0.9\ntrials = 0",
            "ar_coeffs = 0.9\nn_points = 1",
            f"ar_coeffs = 0.9\nn_points = {MAX_POINTS + 1}",  # parsed, never run
            "ar_coeffs = 0.9\nsamples_per_trial = 5",
            "ar_coeffs = 0.9\nd_min = 3\nd_max = 2",
            "ar_coeffs = 0.9\nnormalized_bounds = maybe",
            "ar_coeffs = 0.9\nquantizer_bits = 0",
            "ar_coeffs = not-a-number",
            "ar_coeffs 0.9",
            "ar_coeffs = 0.9\nquantizer_bits = 54",
            "ar_coeffs = 0.9\nquantizer_bits = 4.7",
            "ar_coeffs = 0.9\nquantizer_bits = nan",
            "ar_coeffs = 0.9\nseed = -1",
            "ar_coeffs = nan",
            "ar_coeffs = 0.9\ninnovation_var = nan",
            "ar_coeffs = 0.9\nobs_noise_var = inf",
        ],
    )
    def test_invalid_configs_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


def fstring_csv(rows) -> str:
    """The CSV as format_csv wrote it one f-string per row, the oracle of its % format."""
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(
            f"{row.scheme},{row.sigma_psi_sq:.17g},{row.sigma_xi_sq:.17g},"
            f"{row.distortion:.17g},{row.rate_bits:.17g},{row.source},"
            f"{row.seed},{row.n_samples}"
        )
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [
    0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min,
]
# any float64 bit pattern (NaN payloads and subnormals included), as float or np.float64
_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_INTS = st.one_of(st.integers(0, 10**7), st.integers(-(2**63), 2**63 - 1).map(np.int64))
_TAGS = st.sampled_from([DIRECT_QUANTIZATION, "theory", "simulation", "periodic"])
_ROWS = st.builds(CsvRow, _TAGS, _FLOATS, _FLOATS, _FLOATS, _FLOATS, _TAGS, _INTS, _INTS)


class TestCsvSchema:
    def test_round_trip_is_lossless(self, tmp_path):
        rows = [
            CsvRow("periodic", 1.0, 1 / 3, 2.0000000000000004, 1.23456789012345678e-3, "theory", 0, 0),
            CsvRow("closed_loop", 2.0, 0.1, np.pi, 6.0, "simulation", 12345, 100000),
        ]
        path = tmp_path / "rows.csv"
        write_csv(path, rows)
        assert read_csv(path) == rows

    def test_rows_are_immutable_tuples(self, tmp_path):
        row = CsvRow("periodic", 1.0, 0.5, 2.0, 3.0, "theory", 0, 0)
        with pytest.raises(AttributeError):
            row.rate_bits = 4.0
        assert row == ("periodic", 1.0, 0.5, 2.0, 3.0, "theory", 0, 0)
        assert row._replace(rate_bits=4.0) == ("periodic", 1.0, 0.5, 2.0, 4.0, "theory", 0, 0)
        path = tmp_path / "rows.csv"
        write_csv(path, [row])
        assert read_csv(path) == [row]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=st.lists(_ROWS, max_size=8))
    @example(rows=[CsvRow("s", *_SPECIAL_FLOATS[:4], "t", np.int64(-3), np.int64(2**63 - 1))])
    @example(rows=[CsvRow("s", *_SPECIAL_FLOATS[4:8], "t", 0, 0)])
    @example(rows=[CsvRow("s", *_SPECIAL_FLOATS[8:], np.float64(0.1), -0.0, "t", 1, 2)])
    def test_format_matches_fstring_oracle(self, rows):
        assert format_csv(rows) == fstring_csv(rows)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_csv(path)

    def test_byte_identical_reruns(self):
        config = parse_config_text(REFERENCE_CONFIG)
        assert format_csv(run_theory_sweep(config)) == format_csv(run_theory_sweep(config))


class TestTheorySweep:
    def test_row_count_and_tags(self):
        config = parse_config_text(REFERENCE_CONFIG)
        rows = run_theory_sweep(config)
        assert len(rows) == 5
        assert all(row.scheme == "periodic" for row in rows)
        assert all(row.source == "theory" for row in rows)
        assert all(row.rate_bits >= 0 for row in rows)
        distortions = [row.distortion for row in rows]
        assert distortions == sorted(distortions)

    def test_theory_rows_ignore_seed(self):
        base = parse_config_text(make_config(seed=1))
        other = parse_config_text(make_config(seed=999))
        assert format_csv(run_theory_sweep(base)) == format_csv(run_theory_sweep(other))

    def test_all_schemes_covered(self):
        config = parse_config_text(
            make_config(
                schemes="aperiodic_prediction,aperiodic_zh,periodic,uniform_aperiodic,practical_ar1",
                d_min="auto",
                d_max="auto",
            )
        )
        rows = run_theory_sweep(config)
        assert {row.scheme for row in rows} == {
            "aperiodic_prediction",
            "aperiodic_zh",
            "periodic",
            "uniform_aperiodic",
            "practical_ar1",
        }

    def test_drive_variance_shift_on_common_grid(self):
        # the sigma_psi^2 = 2 curve dominates, strictly wherever it is positive
        schemes = "aperiodic_prediction,aperiodic_zh,periodic"
        low = parse_config_text(
            make_config(schemes=schemes, d_min=3.7, d_max=12.0, n_points=9)
        )
        high = parse_config_text(
            make_config(schemes=schemes, d_min=3.7, d_max=12.0, n_points=9, innovation_var=2.0)
        )
        rows_low = run_theory_sweep(low)
        rows_high = run_theory_sweep(high)
        assert len(rows_low) == len(rows_high) == 27
        saw_strict = False
        for a, b in zip(rows_low, rows_high):
            assert (a.scheme, a.distortion) == (b.scheme, b.distortion)
            assert b.rate_bits >= a.rate_bits
            if b.rate_bits > 0:
                assert b.rate_bits > a.rate_bits
                saw_strict = True
        assert saw_strict

    def test_zh_rows_dominate_prediction_rows(self):
        # fixed model, noise sweep: zero-holding needs at least as many bits
        for obs_noise_var in (0.5, 1.0):
            config = parse_config_text(
                make_config(
                    schemes="aperiodic_prediction,aperiodic_zh",
                    obs_noise_var=obs_noise_var,
                    d_min=2.4,
                    d_max=9.0,
                    n_points=7,
                    normalized_bounds="true",
                )
            )
            rows = run_theory_sweep(config)
            by_scheme = {}
            for row in rows:
                by_scheme.setdefault(row.scheme, []).append(row)
            pairs = list(zip(by_scheme["aperiodic_zh"], by_scheme["aperiodic_prediction"]))
            assert len(pairs) == 7
            for zh_row, pred_row in pairs:
                assert zh_row.distortion == pred_row.distortion
                assert zh_row.rate_bits >= pred_row.rate_bits
            assert pairs[0][0].rate_bits > pairs[0][1].rate_bits

    def test_skipped_points_are_logged(self, caplog):
        config = parse_config_text("ar_coeffs = 0.9\nd_min = 0.01\nd_max = 10\nn_points = 20")
        with caplog.at_level(logging.INFO, logger="csi_feedback.harness"):
            rows = run_theory_sweep(config)
        params = make_scheme_params(config.model, config.noise)
        skipped = sum(sweep(scheme, params, 0.01, 10.0, 20).skipped for scheme in config.schemes)
        assert (skipped, len(rows)) == (72, 28)
        assert caplog.messages == [f"theory sweep skipped {skipped} grid points below scheme floors"]


@pytest.fixture(scope="module")
def codec_rows():
    config = parse_config_text(
        make_config(quantizer_bits="2,4,6", trials=2, samples_per_trial=20000)
    )
    return run_codec_experiment(config)


class TestCodecExperiment:
    def test_row_structure(self, codec_rows):
        assert len(codec_rows) == 9
        assert {row.scheme for row in codec_rows} == {
            DIRECT_QUANTIZATION,
            AR1_OPEN_LOOP,
            CLOSED_LOOP,
        }
        assert all(row.source == "simulation" for row in codec_rows)
        assert all(row.seed == 7 for row in codec_rows)
        assert all(row.n_samples == 40000 for row in codec_rows)

    def test_mse_improves_with_rate(self, codec_rows):
        closed = {
            row.rate_bits: row.distortion for row in codec_rows if row.scheme == CLOSED_LOOP
        }
        assert closed[6.0] < closed[2.0]

    def test_noise_blind_ar1_always_worse(self, codec_rows):
        by_bits = {}
        for row in codec_rows:
            by_bits.setdefault(row.rate_bits, {})[row.scheme] = row.distortion
        for bits, schemes in by_bits.items():
            assert schemes[AR1_OPEN_LOOP] > schemes[CLOSED_LOOP], bits

    def test_codec_rows_match_scalar_encoder(self):
        from csi_feedback import ArModel, NoiseSpec, ar1_fit, autocovariance, generate_trace
        from csi_feedback.codec import EncoderState, UniformQuantizer, innovation_quantizer

        def scalar_mse(model, noise, quantizer, trace):
            state = EncoderState(model, noise, quantizer)
            recon = np.array([state.encode_step(y)[1] for y in trace.y.tolist()])
            return float(np.mean((trace.x - recon) ** 2))

        config = parse_config_text(
            make_config(quantizer_bits="2,5", trials=2, samples_per_trial=3000)
        )
        model, noise = config.model, config.noise
        approx = ar1_fit(autocovariance(model, 4))
        open_loop_model = ArModel((approx.beta,), approx.iota_var)
        open_loop_std = np.sqrt(approx.iota_var + (1.0 + approx.beta**2) * noise.obs_noise_var)
        traces = [generate_trace(model, noise, 3000, config.seed + t) for t in range(2)]
        rows = run_codec_experiment(config)
        for bits in (2, 5):
            by_scheme = {r.scheme: r.distortion for r in rows if r.rate_bits == bits}
            open_loop_q = UniformQuantizer(bits, 4.0 * open_loop_std / (1 << (bits - 1)))
            closed_loop_q = innovation_quantizer(model, noise, bits)
            open_loop = [
                scalar_mse(open_loop_model, NoiseSpec(0.0), open_loop_q, t) for t in traces
            ]
            closed_loop = [scalar_mse(model, noise, closed_loop_q, t) for t in traces]
            # the harness sums the per-trial MSEs in trial order, then divides
            assert by_scheme[AR1_OPEN_LOOP] == sum(open_loop) / 2
            assert by_scheme[CLOSED_LOOP] == sum(closed_loop) / 2

    def test_every_row_matches_a_per_trial_oracle(self, either_path):
        # each trial scored alone with np.mean((x - r) ** 2), summed in trial order
        from csi_feedback import ArModel, NoiseSpec, make_scheme_params
        from csi_feedback.codec import (
            CLIP_LOADING,
            EncoderState,
            UniformQuantizer,
            encode_sequence,
            innovation_quantizer,
        )
        from csi_feedback.harness import _predicted_states

        config = parse_config_text(
            make_config(quantizer_bits="2,5,8", trials=3, samples_per_trial=1500)
        )
        model, noise, order = config.model, config.noise, config.predictor_order
        params = make_scheme_params(model, noise, order)
        approx = params.ar1
        direct_clip = CLIP_LOADING * math.sqrt(params.acov.sigma_x_sq + params.coeffs.sigma_p_sq)
        open_loop_std = math.sqrt(approx.iota_var + (1.0 + approx.beta**2) * noise.obs_noise_var)
        traces = [generate_trace(model, noise, 1500, config.seed + t) for t in range(3)]

        def codec_mse(state, trace):
            return float(np.mean((trace.x - encode_sequence(state, trace.y)[1]) ** 2))

        rows = run_codec_experiment(config)
        assert len(rows) == 9
        for bits in (2, 5, 8):
            half = 1 << (bits - 1)
            direct_q = UniformQuantizer(bits, direct_clip / half)
            open_loop_q = UniformQuantizer(bits, CLIP_LOADING * open_loop_std / half)
            closed_loop_q = innovation_quantizer(model, noise, bits)
            expected = {DIRECT_QUANTIZATION: 0.0, AR1_OPEN_LOOP: 0.0, CLOSED_LOOP: 0.0}
            for trace in traces:
                predicted = _predicted_states(trace.y, params.coeffs.theta)
                quantized = direct_q.quantize_many(predicted)[1]
                expected[DIRECT_QUANTIZATION] += float(np.mean((trace.x[order:] - quantized) ** 2))
                open_loop = EncoderState(
                    ArModel((approx.beta,), approx.iota_var), NoiseSpec(0.0), open_loop_q
                )
                expected[AR1_OPEN_LOOP] += codec_mse(open_loop, trace)
                expected[CLOSED_LOOP] += codec_mse(EncoderState(model, noise, closed_loop_q), trace)
            got = {r.scheme: r.distortion for r in rows if r.rate_bits == bits}
            assert got == {scheme: total / 3 for scheme, total in expected.items()}

    @pytest.mark.parametrize("n", [1, 7, 128, 129, 4996, 8192, 8193, 100_000])
    def test_row_means_of_a_strided_view_match_one_row_means(self, n):
        # numpy sums each row pairwise, in blocks that split at 8 and 128 entries
        rng = np.random.default_rng(n)
        base = rng.normal(size=(3, 4, 2, n + 5)) ** 2
        for view in (base[..., :n], base[::2, 1:, ::-1, 3 : 3 + n]):
            means = view.mean(axis=-1).tolist()
            for index in np.ndindex(view.shape[:-1]):
                row = np.ascontiguousarray(view[index])
                assert means[index[0]][index[1]][index[2]] == float(np.mean(row)), index
        # the contiguous (widths, trials, 2, n) block the harness scores
        block = base[..., :n].copy()
        assert block.mean(axis=-1).tolist() == [
            [[float(np.mean(row)) for row in pair] for pair in trial] for trial in block
        ]

    def test_direct_quantization_plateaus_at_prediction_floor(self):
        from csi_feedback import autocovariance, mmse_coefficients, NoiseSpec

        config = parse_config_text(
            make_config(quantizer_bits="10", trials=2, samples_per_trial=20000)
        )
        rows = run_codec_experiment(config)
        direct = next(r for r in rows if r.scheme == DIRECT_QUANTIZATION)
        coeffs = mmse_coefficients(autocovariance(config.model, 4), NoiseSpec(1.0), 4)
        assert abs(direct.distortion - coeffs.sigma_p_sq) / coeffs.sigma_p_sq < 0.10

    @pytest.mark.parametrize("order", range(1, 13))
    def test_predictions_summed_oldest_lag_first(self, order):
        from csi_feedback.harness import _predicted_states

        rng = np.random.default_rng(order)
        y, theta = rng.normal(size=300), rng.normal(size=order)
        expected = []
        for k in range(order, y.size):
            total = 0.0
            for lag in range(order, 0, -1):
                total += float(theta[lag - 1]) * float(y[k - lag])
            expected.append(total)
        assert _predicted_states(y, theta).tolist() == expected


class TestIndexStreamDump:
    def test_replay_from_binary_dump(self, tmp_path):
        from csi_feedback import (
            DecoderState,
            decode_sequence,
            generate_trace,
            innovation_quantizer,
            run_codec,
        )
        from csi_feedback.harness import read_index_stream, write_index_stream
        from shared import REF_AR4, UNIT_NOISE

        trace = generate_trace(REF_AR4, UNIT_NOISE, 2000, seed=71)
        quantizer = innovation_quantizer(REF_AR4, UNIT_NOISE, 5)
        out = run_codec(REF_AR4, UNIT_NOISE, quantizer, trace.y, trace.x)
        path = tmp_path / "stream.bin"
        write_index_stream(path, out.indices, quantizer.bits)
        replayed, bits = read_index_stream(path)
        assert bits == 5
        assert replayed == out.indices
        recon = decode_sequence(DecoderState(REF_AR4, quantizer), replayed)
        assert np.array_equal(recon, out.encoder_recon)

    def test_array_list_and_generator_dump_alike(self, tmp_path):
        from csi_feedback.harness import write_index_stream

        codes = np.random.default_rng(17).integers(0, 1 << 6, 1000)
        dumps = []
        for name, stream in [
            ("array", codes),
            ("list", codes.tolist()),
            ("generator", (code for code in codes)),
        ]:
            write_index_stream(tmp_path / name, stream, 6)
            dumps.append((tmp_path / name).read_bytes())
        assert dumps[0] == dumps[1] == dumps[2]
        assert read_index_stream(tmp_path / "array") == (codes.tolist(), 6)

    def test_rejects_foreign_blob(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"whatever")
        from csi_feedback.harness import read_index_stream

        with pytest.raises(ConfigError):
            read_index_stream(path)

    @pytest.mark.parametrize(
        "bits, count, payload",
        [
            (0, 4, b"\xff"),
            (54, 1, b"\xff" * 7),
            (255, 1, b"\xff" * 32),
            (5, 10, b"\xff" * 6),  # 48 bits hold 9 of 10 indices
            (1, 1 << 63, b"\xff"),
            (MAX_BITS, (1 << 64) - 1, b""),
        ],
        ids=["width 0", "width 54", "width 255", "short", "2^63 over 1 byte", "2^64-1 over none"],
    )
    def test_rejects_corrupt_header(self, tmp_path, bits, count, payload):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(b"CSIF" + bytes([bits]) + count.to_bytes(8, "big") + payload)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="corrupt index-stream dump"):
                read_index_stream(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing sized by the header's count


class TestMeanSquares:
    def test_finite_means_keep_the_bits_of_np_mean(self):
        errors = np.random.default_rng(5).normal(size=(2, 3, 999)) * np.logspace(-150, 150, 999)
        means = _mean_squares(errors.copy())
        for row, mean in zip(errors.reshape(-1, 999), np.ravel(means)):
            assert struct.pack("<d", mean) == struct.pack("<d", float(np.mean(row**2)))
        for row in errors.reshape(-1, 999):
            assert struct.pack("<d", _mean_squares(row.copy())) == struct.pack(
                "<d", float(np.mean(row**2))
            )

    def test_a_sum_that_overflows_is_taken_again_scaled(self):
        # 400 squares near 1e308: each and their mean are finite, their sum is not
        errors = np.random.default_rng(6).uniform(0.9e154, 1.3e154, size=400)
        squares = errors**2
        assert np.isfinite(squares).all()
        with np.errstate(over="ignore"):  # as its callers run it
            assert np.mean(squares) == math.inf
            mean = _mean_squares(errors.copy())
        assert mean == float(np.ldexp(np.mean(np.ldexp(squares, -9)), 9))  # 400 < 2^9
        assert mean == pytest.approx(math.fsum(s / 400 for s in squares.tolist()), rel=1e-14)

    def test_an_infinite_square_keeps_its_row_inf(self):
        rows = np.array([[1.2e154] * 300, [1e155] + [1.0] * 299, [3.0] * 300])
        with np.errstate(over="ignore"):
            overflowing, infinite, finite = _mean_squares(rows)
        assert overflowing == pytest.approx(1.44e308, rel=1e-14)
        assert infinite == math.inf
        assert finite == 9.0
        # the rows were squared in place
        assert rows[2, 0] == 9.0


class TestValidateTheory:
    def test_slow_channel_passes_everything(self):
        config = parse_config_text(
            "ar_coeffs = 0.99\nsamples_per_trial = 150000\nquantizer_bits = 6\nseed = 2"
        )
        report = validate_theory(config)
        assert report.passed, report.format()
        names = [entry.name for entry in report.entries]
        assert names == ["sigma_p_sq", "sigma_z_sq", "varsigma_inf[bits=6]"]

    def test_long_run_entries_keep_the_per_row_bits(self, either_path):
        from csi_feedback import EncoderState, encode_batch, innovation_quantizer

        config = parse_config_text(make_config(samples_per_trial=20000, quantizer_bits="2,4,6,8,10"))
        entries = validate_theory(config).entries[2:]
        model, noise = config.model, config.noise
        trace = generate_trace(model, noise, 20000, config.seed)
        states = [
            EncoderState(model, noise, innovation_quantizer(model, noise, bits))
            for bits in config.quantizer_bits
        ]
        _, recon = encode_batch(states, [trace.y] * len(states), with_indices=False)
        warmup = 5000  # a quarter of the samples
        for entry, row in zip(entries, recon, strict=True):
            per_row = float(np.mean((trace.x[warmup:] - row[warmup:]) ** 2))
            assert struct.pack("<d", entry.empirical) == struct.pack("<d", per_row), entry.name

    @pytest.mark.parametrize(
        "empirical, rel_err, passed", [(0.0, 0.0, True), (5e-324, math.inf, False)]
    )
    def test_zero_analytic_value(self, empirical, rel_err, passed):
        entry = ValidationEntry("varsigma_inf[bits=53]", 0.0, empirical, 0.15)
        assert entry.rel_err == rel_err
        assert entry.passed is passed

    def test_reference_model_exposes_zh_gap(self):
        # the zero-holding closed form drops hold/filter cross terms, so the
        # realised estimator MSE misses the 2% band on the reference model
        config = parse_config_text(
            make_config(samples_per_trial=150000, quantizer_bits="6", trials=1)
        )
        report = validate_theory(config)
        by_name = {entry.name: entry for entry in report.entries}
        assert by_name["sigma_p_sq"].passed
        assert by_name["varsigma_inf[bits=6]"].passed
        assert not by_name["sigma_z_sq"].passed
        assert 0.15 < by_name["sigma_z_sq"].rel_err < 0.22
        assert not report.passed
        assert "FAIL" in report.format()


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_theory_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rd.csv"
        cfg = self.write(tmp_path, make_config(output_path=str(out)))
        assert cli_main(["theory", "--config", cfg]) == 0
        rows = read_csv(out)
        assert len(rows) == 5
        assert capsys.readouterr().out.strip().startswith("wrote theory rows")

    def test_out_and_seed_overrides(self, tmp_path):
        cfg = self.write(tmp_path, make_config())
        out = tmp_path / "override.csv"
        assert cli_main(["theory", "--config", cfg, "--out", str(out), "--seed", "55"]) == 0
        assert out.exists()

    def test_codec_subcommand(self, tmp_path):
        out = tmp_path / "codec.csv"
        cfg = self.write(
            tmp_path,
            make_config(quantizer_bits="3", trials=1, samples_per_trial=5000, output_path=str(out)),
        )
        assert cli_main(["codec", "--config", cfg]) == 0
        rows = read_csv(out)
        assert {row.scheme for row in rows} == {DIRECT_QUANTIZATION, AR1_OPEN_LOOP, CLOSED_LOOP}

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert cli_main(["theory", "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "ar_coeffs = 0.9\nbogus = 1")
        assert cli_main(["validate", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("quantizer_bits", "70"), ("quantizer_bits", "4.7"), ("seed", "-1")]
    )
    def test_out_of_range_config_is_exit_1(self, tmp_path, capsys, key, value):
        cfg = self.write(tmp_path, make_config(**{key: value}))
        assert cli_main(["codec", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["theory", "codec", "validate"])
    def test_zero_innovation_is_exit_1(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, make_config(innovation_var=0))
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "z.csv")]) == 1
        assert "kappa_x(0) must be positive" in capsys.readouterr().err

    NO_PRACTICAL = ("aperiodic_prediction", "aperiodic_zh", "periodic", "uniform_aperiodic")
    BAD_GRID = "[0.0, 1.3333333333333334e+201]"

    @pytest.mark.parametrize(
        "command, text, code, error",
        [
            ("codec", "", 0, ""),
            ("validate", "", 0, ""),
            ("theory", f"schemes = {', '.join(NO_PRACTICAL)}\n", 0, ""),
            # the practical floor still loses the scale
            ("theory", "", 1, f"error: practical_ar1: need 0 < d_min < d_max, got {BAD_GRID}\n"),
        ],
        ids=["codec", "validate", "theory", "theory with practical_ar1"],
    )
    def test_an_ar1_fit_whose_lag_1_square_overflows_keeps_its_scale(
        self, tmp_path, capsys, either_path, command, text, code, error
    ):
        # kappa(1)^2 = 1.8e400 overflows, though kappa(1)^2 / kappa(0) = 3.3e199 does not
        cfg = self.write(
            tmp_path,
            "ar_coeffs = 0.5\ninnovation_var = 1e200\nobs_noise_var = 0\n"
            f"quantizer_bits = 2, 4\ntrials = 1\nsamples_per_trial = 2000\n{text}",
        )
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == code
        out, err = capsys.readouterr()
        assert err == error
        if command == "validate":
            assert out.endswith("all checks passed\n")

    @pytest.mark.parametrize(
        "grid", ["", "d_min = 1e300\nd_max = 1e308\n"], ids=["auto", "explicit"]
    )
    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_overflowing_observation_variance_is_exit_1(self, tmp_path, capsys, scheme, grid):
        # sigma_x^2 + sigma_xi^2 overflows: theory used to write inf rows at exit 0
        cfg = self.write(tmp_path, f"{_HUGE_CHANNEL}{grid}schemes = {scheme}")
        out = tmp_path / "rd.csv"
        assert cli_main(["theory", "--config", cfg, "--out", str(out)]) == 1
        assert "error: observation variance overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["codec", "validate"])
    def test_overflowing_observation_variance_is_exit_1_for_the_codec(
        self, tmp_path, capsys, command
    ):
        cfg = self.write(tmp_path, f"{_HUGE_CHANNEL}samples_per_trial = 2000")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "error: observation variance overflows" in capsys.readouterr().err

    def test_overflowing_default_d_max_is_exit_1(self, tmp_path, capsys):
        # without noise kappa_y(0) is finite, but the automatic d_max = 10 sigma_x^2 is not
        cfg = self.write(tmp_path, "ar_coeffs = 0.0\ninnovation_var = 1e308\nobs_noise_var = 0")
        out = tmp_path / "rd.csv"
        assert cli_main(["theory", "--config", cfg, "--out", str(out)]) == 1
        assert "error: aperiodic_prediction: d_max overflows to inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("codec", "direct_quantization at 4 bits: mean squared error overflows to inf"),
            ("validate", "sigma_p_sq: mean squared error overflows to inf"),
            ("trace", None),
        ],
    )
    def test_overflowing_squared_error_is_exit_1(
        self, tmp_path, capsys, either_path, command, message
    ):
        # kappa_y(0) = 1e308 is finite, but the squared errors of x ~ 1e154 are not
        cfg = self.write(
            tmp_path, "ar_coeffs = 0.0\ninnovation_var = 1e308\nobs_noise_var = 0\n"
            "samples_per_trial = 2000\nquantizer_bits = 4,6"
        )
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([command, "--config", cfg, "--out", str(out)])
        if message is None:
            assert code == 0
            assert len(out.read_text().splitlines()) == 2001
            return
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["codec", "validate"])
    def test_finite_mean_whose_sum_overflows_is_written(
        self, tmp_path, capsys, either_path, command
    ):
        # squares of x ~ 1e153 are finite and so is their mean, but the pairwise
        # sum of 400 of them is not: that used to exit 1
        text = (
            "ar_coeffs = 0.0\ninnovation_var = 1e306\nobs_noise_var = 0\n"
            "quantizer_bits = 4\ntrials = 1\nsamples_per_trial = 400\n"
        )
        cfg = self.write(tmp_path, text)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([command, "--config", cfg, "--out", str(out)])
        if command == "codec":
            assert code == 0
            rows = read_csv(out)
            assert [row.scheme for row in rows] == [DIRECT_QUANTIZATION, AR1_OPEN_LOOP, CLOSED_LOOP]
            assert all(1e303 < row.distortion < 1e307 for row in rows)
            return
        assert code == 2
        assert "nan" not in capsys.readouterr().out
        entries = validate_theory(parse_config_text(text)).entries
        assert [e.name for e in entries] == ["sigma_p_sq", "sigma_z_sq", "varsigma_inf[bits=4]"]
        assert all(math.isfinite(e.empirical) and math.isfinite(e.rel_err) for e in entries)
        assert entries[0].empirical > 1e305

    def test_parser_is_built_once_and_keeps_no_options(self, tmp_path, monkeypatch):
        from csi_feedback import cli, harness

        assert cli._build_parser() is cli._build_parser()
        used = []

        def recording(config):
            used.append(config)
            return []

        monkeypatch.setattr(harness, "run_theory_sweep", recording)
        cfg = self.write(tmp_path, make_config(output_path=str(tmp_path / "rd.csv")))
        assert cli_main(["theory", "--config", cfg, "--seed", "3", "--normalized-bounds"]) == 0
        assert cli_main(["theory", "--config", cfg]) == 0
        assert [(c.seed, c.normalized_bounds) for c in used] == [(3, True), (7, False)]

    def test_trace_of_a_huge_channel_is_finite(self, tmp_path):
        cfg = self.write(tmp_path, f"{_HUGE_CHANNEL}samples_per_trial = 2000")
        out = tmp_path / "trace.csv"
        assert cli_main(["trace", "--config", cfg, "--out", str(out)]) == 0
        samples = np.loadtxt(out, delimiter=",", skiprows=1)
        assert samples.shape == (2000, 3) and np.isfinite(samples).all()

    @pytest.mark.parametrize("command", ["theory", "codec", "trace"])
    def test_unwritable_out_is_exit_1(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, make_config())
        out = tmp_path / "missing-dir" / "x.csv"
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["theory", "codec", "validate"])
    def test_predictor_below_channel_order(self, tmp_path, command):
        # order-2 predictor on the AR(4) channel: every command derives from
        # an autocovariance that still reaches the channel's order
        out = tmp_path / "p2.csv"
        text = make_config(
            predictor_order=2,
            schemes=",".join(s.value for s in Scheme),
            d_min="auto",
            d_max="auto",
            quantizer_bits="2,6",
            samples_per_trial=3000,
        )
        cfg = self.write(tmp_path, text)
        code = cli_main([command, "--config", cfg, "--out", str(out)])
        if command == "validate":
            assert code in (0, 2)
            return
        assert code == 0
        rows = read_csv(out)
        assert rows
        assert all(np.isfinite([row.distortion, row.rate_bits]).all() for row in rows)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("obs_noise_var = 0", "practical_ar1: need 0 < d_min < d_max, got [0.0, 13.33"),
            ("d_min = 100", "aperiodic_prediction: need 0 < d_min < d_max, got [100.0, "),
            ("d_max = 1e-9", "aperiodic_prediction: need 0 < d_min < d_max, got [1.144, 1e-09]"),
            ("d_min = nan", "d_min must be finite"),
            ("d_min = inf", "d_min must be finite"),
            ("d_max = nan", "d_max must be finite"),
            ("d_min = 1\nd_max = inf", "d_max must be finite"),
        ],
        ids=["noise 0", "d_min 100", "d_max 1e-9", "d_min nan", "d_min inf", "d_max nan", "d_max inf"],
    )
    def test_empty_distortion_grid_is_exit_1(self, tmp_path, capsys, extra, message):
        cfg = self.write(tmp_path, f"ar_coeffs = 0.5\n{extra}")
        out = tmp_path / "rd.csv"
        assert cli_main(["theory", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_is_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, make_config())
        assert cli_main(["codec", "--config", cfg, "--seed", "-1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_validate_pass_and_fail_exit_codes(self, tmp_path, capsys):
        passing = self.write(
            tmp_path, "ar_coeffs = 0.99\nsamples_per_trial = 150000\nquantizer_bits = 6\nseed = 2"
        )
        assert cli_main(["validate", "--config", passing]) == 0
        assert "all checks passed" in capsys.readouterr().out
        failing = tmp_path / "ref.cfg"
        failing.write_text(make_config(samples_per_trial=150000, quantizer_bits="6", trials=1))
        assert cli_main(["validate", "--config", str(failing)]) == 2
        assert "validation FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["theory", "codec", "validate", "trace"])
    @pytest.mark.parametrize(
        "text, expected, errors",
        [
            # a 1-bit step of 4e154, whose noise variance step^2 / 12 overflows
            (
                "ar_coeffs = 0.0\ninnovation_var = 1e308\nobs_noise_var = 1.0\n"
                "quantizer_bits = 1,2\nsamples_per_trial = 400\n",
                {"codec": {1}},
                {},
            ),
            # the 53-bit sigma_Q^2 underflows to 0, and so does the analytic varsigma_inf
            (
                "ar_coeffs = 0.0\ninnovation_var = 1e-300\nobs_noise_var = 0.0\n"
                "quantizer_bits = 2,53\nsamples_per_trial = 300\n",
                {"validate": {0, 2}},
                {},
            ),
            # codec: the open-loop std sqrt(iota + (1 + beta^2) sigma_xi^2) overflows, so
            # its 1-bit step is inf; validate: the encoder's prediction-error recursion
            # overflows, and its gain is NaN
            (
                "ar_coeffs = 1.8, -0.81\ninnovation_var = 1e150\nobs_noise_var = 1e308\n"
                "quantizer_bits = 1\nsamples_per_trial = 300\n",
                {"codec": {1}, "validate": {1}},
                {
                    "codec": "error: ar1_open_loop at 1 bits, trial 0: "
                    "cannot quantize NaN or infinite values at sample 1\n",
                    "validate": "error: varsigma_inf[bits=1]: "
                    "cannot quantize NaN or infinite values at sample 292\n",
                },
            ),
            # alpha^2 = (1.3e-170)^2 underflows to 0, so the normalized ratio has no log
            (
                "ar_coeffs = 0.5\ninnovation_var = 1e-300\nobs_noise_var = 1e-130\n"
                "normalized_bounds = true\nsamples_per_trial = 300\n",
                {"theory": {1}},
                {
                    "theory": "error: normalized zero-holding ratio alpha^2 sigma_y^2 / "
                    "(D - sigma_Z^2) underflows to 0: alpha=1.3333333333333332e-170\n",
                },
            ),
            # the 53-bit step 4 zeta / 2^52 of a weighted innovation std of 1.3e-310 underflows
            (
                "ar_coeffs = 0.5\ninnovation_var = 1e-310\nobs_noise_var = 1.0\n"
                "quantizer_bits = 53\nsamples_per_trial = 300\n",
                {"codec": {1}, "validate": {1}},
                dict.fromkeys(
                    ("codec", "validate"),
                    "error: 53-bit quantizer step underflows to 0: std=1.3333333333333e-310\n",
                ),
            ),
        ],
        ids=[
            "noise variance overflows",
            "analytic zero",
            "gain is NaN",
            "normalized alpha squared underflows",
            "step underflows",
        ],
    )
    def test_extreme_variances_keep_the_exit_codes(
        self, tmp_path, capsys, either_path, text, expected, errors, command
    ):
        cfg = self.write(tmp_path, f"{text}trials = 1\n")
        code = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert code in expected.get(command, {0, 1, 2})
        if command in errors:
            assert capsys.readouterr().err == errors[command]

    # sigma_x^2 sigma_xi^2 = 1.3e350 overflows, though the filtering MSE is below sigma_x^2
    FILTERING_OVERFLOW = "ar_coeffs = 0.5\ninnovation_var = 1e150\nobs_noise_var = 1e200\n"
    TINY_DRIVE = "ar_coeffs = 0.5\ninnovation_var = 1e-300\nobs_noise_var = 0\n"
    # 2 pi e times sigma_x^2 + sigma_P^2 = 1e308, or times e_P = 5e307, overflows
    TOP_OF_RANGE = (
        "ar_coeffs = 0.0\ninnovation_var = 5e307\nobs_noise_var = 0\n"
        "d_min = 6e307\nd_max = 1e308\n"
    )

    @pytest.mark.parametrize(
        "text, schemes",
        [
            (FILTERING_OVERFLOW, 5),
            (FILTERING_OVERFLOW + "schemes = aperiodic_prediction, periodic, practical_ar1\n", 3),
            # sigma_nu^2 / (D - sigma_P^2) and the uniform quotient underflow to 0
            (TINY_DRIVE + "d_min = 1e20\nd_max = 1e30\n", 5),
            (TINY_DRIVE + "d_min = 1e200\nd_max = 1e300\nschemes = uniform_aperiodic\n", 1),
            # 2 pi e sigma_y^2 overflows
            ("ar_coeffs = 0.5\ninnovation_var = 1\nobs_noise_var = 2e307\n", 5),
            (TOP_OF_RANGE + "schemes = uniform_aperiodic\n", 1),
            (TOP_OF_RANGE + "schemes = practical_ar1\n", 1),
        ],
        ids=[
            "filtering product overflows",
            "filtering product overflows, no zero-holding",
            "periodic quotient underflows",
            "uniform quotient underflows",
            "output entropy overflows",
            "uniform scale overflows",
            "practical scale overflows",
        ],
    )
    def test_out_of_range_intermediates_give_finite_theory_rows(
        self, tmp_path, either_path, text, schemes
    ):
        cfg = self.write(tmp_path, text)
        out = tmp_path / "t.csv"
        assert cli_main(["theory", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 25 * schemes
        assert np.isfinite([[row.distortion, row.rate_bits] for row in rows]).all()

    def test_overflowing_filtering_product_validates_a_finite_sigma_z(
        self, tmp_path, capsys, either_path
    ):
        cfg = self.write(tmp_path, self.FILTERING_OVERFLOW + "samples_per_trial = 2000\ntrials = 1")
        # the paper's sigma_Z^2 drops the hold/filter cross term, and fails its 2% check
        assert cli_main(["validate", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "FAIL  sigma_z_sq: analytic=2.66667e+150 empirical=" in out
        assert re.search(r"=[-+]?(inf|nan)", out) is None

    def test_trace_dump(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = self.write(
            tmp_path, make_config(samples_per_trial=200, output_path=str(out))
        )
        assert cli_main(["trace", "--config", cfg]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "k,x,y"
        assert len(lines) == 201
        k, x, y = lines[5].split(",")
        assert int(k) == 4
        float(x), float(y)  # parseable
        # the bytes of one f-string per sample over the trace's numpy scalars
        config = parse_config(cfg)
        trace = generate_trace(config.model, config.noise, 200, config.seed)
        rows = (f"{k},{x:.17g},{y:.17g}" for k, (x, y) in enumerate(zip(trace.x, trace.y)))
        assert text == "\n".join(["k,x,y", *rows]) + "\n"

    def test_normalized_bounds_flag_changes_rates(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg = self.write(
            tmp_path,
            make_config(schemes="aperiodic_zh", d_min=2.1, d_max=4.0, output_path=str(out_a)),
        )
        assert cli_main(["theory", "--config", cfg]) == 0
        assert cli_main(["theory", "--config", cfg, "--out", str(out_b), "--normalized-bounds"]) == 0
        rates_a = [row.rate_bits for row in read_csv(out_a)]
        rates_b = [row.rate_bits for row in read_csv(out_b)]
        assert rates_a != rates_b

    # the observation noise swamps the channel: the gain, alpha and the AR(1)
    # fit's gain all underflow to 0
    DEGENERATE_SNR = "ar_coeffs = 0.9\ninnovation_var = 1e-300\nobs_noise_var = 1e300\n"

    @pytest.mark.parametrize(
        "command, message",
        [
            ("theory", "zero-holding weight alpha underflows to 0"),
            ("codec", "weighted innovation has no spread"),
            ("validate", "weighted innovation has no spread"),
            ("trace", None),  # the raw trace needs no gain
        ],
    )
    def test_degenerate_snr_per_command(self, tmp_path, capsys, command, message):
        cfg = self.write(tmp_path, self.DEGENERATE_SNR + "samples_per_trial = 2000\ntrials = 1")
        out = tmp_path / "d.csv"
        code = cli_main([command, "--config", cfg, "--out", str(out)])
        if message is None:
            assert code == 0
            assert len(out.read_text().splitlines()) == 2001
            return
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("normalized", ["false", "true"])
    @pytest.mark.parametrize(
        "scheme, message",
        [
            ("aperiodic_zh", "zero-holding weight alpha underflows to 0"),
            ("practical_ar1", "codec gain of the AR(1) fit underflows to 0"),
            ("aperiodic_prediction", None),
            ("periodic", None),
            ("uniform_aperiodic", None),
        ],
    )
    def test_degenerate_snr_per_scheme(self, tmp_path, capsys, scheme, message, normalized):
        text = self.DEGENERATE_SNR + f"schemes = {scheme}\nnormalized_bounds = {normalized}"
        cfg = self.write(tmp_path, text + "\nn_points = 7")
        out = tmp_path / "s.csv"
        code = cli_main(["theory", "--config", cfg, "--out", str(out)])
        if message is not None:
            assert code == 1
            assert f"error: {message}" in capsys.readouterr().err
            return
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 7
        assert all(np.isfinite([row.distortion, row.rate_bits]).all() for row in rows)

    # the examples once ended in a traceback or in non-finite rows: a log of the
    # normalized zero-holding ratio alpha^2 ... = 0, a 53-bit closed-loop step that
    # underflows to 0, a filtering MSE whose product sigma_x^2 sigma_xi^2 overflows,
    # a log of a periodic and of a uniform-aperiodic quotient that underflows to 0,
    # a log of 2 pi e sigma_y^2 that overflows, and high-resolution scales
    # sqrt(2 pi e v) that overflow (aperiodic_zh's floor lies above that grid)
    @settings(
        derandomize=True,
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pacf=st.lists(st.floats(-0.99999, 0.99999), min_size=1, max_size=12),
        innovation_var=_LOG_UNIFORM_VAR,
        noise_var=st.one_of(st.just(0.0), _LOG_UNIFORM_VAR),
        normalized=st.booleans(),
        widths=st.lists(st.sampled_from([1, 52, 53]) | st.integers(1, 53), min_size=1, max_size=3),
        samples=st.integers(60, 2000),
        seed=st.integers(0, 1 << 16),
        order_shift=st.integers(-3, 4),  # predictor order minus model order
        n_points=st.sampled_from([2, 3, 25]),
        grid=st.tuples(_GRID_END, _GRID_END),
    )
    @example(
        pacf=[0.5], innovation_var=1e-300, noise_var=1e-130, normalized=True,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(None, None),
    )
    @example(
        pacf=[0.5], innovation_var=1e-310, noise_var=1.0, normalized=False,
        widths=[53], samples=300, seed=0, order_shift=0, n_points=25, grid=(None, None),
    )
    @example(
        pacf=[0.5], innovation_var=1e150, noise_var=1e200, normalized=False,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(None, None),
    )
    @example(
        pacf=[0.5], innovation_var=1e-300, noise_var=0.0, normalized=False,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(1e20, 1e30),
    )
    @example(
        pacf=[0.5], innovation_var=1e-300, noise_var=0.0, normalized=False,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(1e200, 1e300),
    )
    @example(
        pacf=[0.5], innovation_var=1.0, noise_var=2e307, normalized=False,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(None, None),
    )
    @example(
        pacf=[0.0], innovation_var=5e307, noise_var=0.0, normalized=False,
        widths=[4], samples=300, seed=0, order_shift=0, n_points=25, grid=(6e307, 1e308),
    )
    def test_cli_contract(
        self, tmp_path, either_path, pacf, innovation_var, noise_var, normalized, widths,
        samples, seed, order_shift, n_points, grid,
    ):
        # every command exits 0, 1 or 2 without a traceback, and exit 0 means finite rows
        coeffs = _ar_from_pacf(pacf)
        if None not in grid:
            grid = sorted(grid)
        d_min, d_max = ("auto" if end is None else repr(end) for end in grid)
        cfg = self.write(
            tmp_path,
            f"ar_coeffs = {', '.join(map(repr, coeffs))}\ninnovation_var = {innovation_var!r}\n"
            f"obs_noise_var = {noise_var!r}\nnormalized_bounds = {normalized}\n"
            f"quantizer_bits = {','.join(map(str, widths))}\ntrials = 1\n"
            f"samples_per_trial = {samples}\nseed = {seed}\n"
            f"predictor_order = {max(1, len(coeffs) + order_shift)}\n"
            f"n_points = {n_points}\nd_min = {d_min}\nd_max = {d_max}\n",
        )
        out = tmp_path / "o.csv"
        for command in ("theory", "codec", "validate", "trace"):
            out.unlink(missing_ok=True)
            code = cli_main([command, "--config", cfg, "--out", str(out)])
            assert code in (0, 1, 2), command
            if code != 0 or command == "validate":
                continue
            if command == "trace":
                values = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            else:
                values = np.array([[row.distortion, row.rate_bits] for row in read_csv(out)])
            assert np.isfinite(values).all(), command
