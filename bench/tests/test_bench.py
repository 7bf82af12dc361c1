"""Tests of the benchmark's own code: inputs, span arithmetic, output checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

from pathlib import Path

import pytest

import inputs
import spans
import workloads
from csi_feedback import ArModel, NoiseSpec, channel, harness

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    first = inputs.make_inputs(name, 7, ROOT)
    assert inputs.make_inputs(name, 7, ROOT) == first
    assert inputs.digest(inputs.make_inputs(name, 7, ROOT)) == inputs.digest(first)
    assert inputs.make_inputs(name, 8, ROOT) != first


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 2, 3])
def test_theory_grid_keeps_the_same_number_of_models_that_hit_the_known_defect(seed):
    # models with kappa(1) <= 0 (Doppler above ~0.383) stay in the grid, as
    # many on every seed, and none has kappa(1) within rounding of 0
    configs = inputs.theory_grid_inputs(seed)["configs"]
    betas = []
    for text in configs:
        model = harness.parse_config_text(text).model
        acov = channel.autocovariance(model, model.order)
        betas.append(acov.lags[1] / acov.lags[0])
    n_fast = inputs.theory_grid_fast_models(len(configs))
    assert 0 < n_fast < len(betas) // 4
    assert sum(b <= 0 for b in betas) == n_fast
    assert min(abs(b) for b in betas) > 1e-4


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        (-1, 0.0, 10.0),  # 0 root
        (0, 1.0, 4.0),  # 1 child
        (1, 2.0, 3.0),  # 2 grandchild: counts against 1 only
        (0, 5.0, 6.0),  # 3 child
        (0, 5.5, 7.0),  # 4 child overlapping 3
        (0, 9.0, 12.0),  # 5 child running past its parent: clipped to 1.0
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 2 - 1, 2.0, 1.0, 1.0, 1.5, 3.0])


def test_layer_metrics_attribute_self_and_busy_time():
    tracer = spans.Tracer()
    tracer.spans += [
        [0, "harness.run_theory_sweep", -1, 0.0, 10.0],
        [0, "bounds.sweep", 0, 1.0, 5.0],
        [0, "analysis.rate_practical", 1, 2.0, 4.0],
        [0, "analysis.converged_gain", -1, 11.0, 12.0],
        [0, "analysis.converged_prediction_state", 3, 11.0, 11.5],
        [1, "cli.main", -1, 20.0, 30.0],
    ]
    tracer.counts[0].update({"bounds.points": 3, "bounds.skipped": 1})
    metrics = spans.job_metrics(tracer, 0)
    assert metrics["harness.self_s"] == pytest.approx(6.0)
    assert metrics["bounds.self_s"] == pytest.approx(2.0)
    assert metrics["analysis.busy_s"] == pytest.approx(3.0)
    assert metrics["analysis.calls"] == 3
    assert metrics["analysis.rate_practical.calls"] == 1
    assert metrics["bounds.skipped_frac"] == pytest.approx(0.25)
    assert metrics["cli.self_s"] == 0


def test_patch_traces_names_imported_by_name_and_restores_them():
    original = harness.generate_trace
    tracer = spans.Tracer()
    model, noise = ArModel((0.5,), 1.0), NoiseSpec(0.5)
    with tracer.patch(0):
        assert harness.generate_trace is not original
        harness.generate_trace(model, noise, 100, seed=3)
    assert harness.generate_trace is original
    assert [s[1] for s in tracer.spans][:1] == ["channel.generate_trace"]
    assert tracer.counts[0]["channel.samples"] == 100


def _perturb(text: str, row: int, column: int, factor: float) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = f"{float(fields[column]) * factor:.17g}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_codec_checker_allows_ulp_drift_and_rejects_1e9():
    stored = workloads.load_reference("reference_codec")["csv"]
    assert workloads.compare_codec_csv(stored, stored) == []
    assert workloads.compare_codec_csv(_perturb(stored, 5, 3, 1 + 1e-13), stored) == []
    assert workloads.compare_codec_csv(_perturb(stored, 5, 3, 1 + 1e-9), stored)
    assert workloads.compare_codec_csv(_perturb(stored, 5, 4, 1 + 1e-9), stored)


def test_theory_checker_matches_program_and_rejects_1e9():
    reference = workloads.load_reference("theory_grid")["models"]
    configs = inputs.theory_grid_inputs(inputs.DEFAULT_SEED)
    index = next(i for i, m in enumerate(reference) if "rows" in m)
    table, error, quant = workloads._theory_item(configs["configs"][index], tuple(configs["bits"]))
    assert error is None
    assert workloads.compare_theory((table, error, quant), reference[index]) == []
    for row in (0, 7):
        perturbed = _perturb(table, row, 4, 1 + 1e-9)
        assert workloads.compare_theory((perturbed, error, quant), reference[index])


def test_theory_invariants_reject_negative_rates_and_unknown_errors():
    table = workloads.CSV_HEADER + "\nperiodic,1,1,2.5,-0.25,theory,0,0\n"
    item = workloads.Item(0.0, (table, None, ((1.0, 0.5, 0.5, 0.5),)))
    assert workloads.check_theory_item(item)
    item = workloads.Item(0.0, None, "NonConvergence: gain iteration not settled")
    assert workloads.check_theory_item(item)
    known = next(iter(workloads.KNOWN_DEFECTS))
    assert workloads.check_theory_item(workloads.Item(0.0, None, known)) == []
