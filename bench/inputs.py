"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python float arithmetic (``math`` and
``random.Random`` seeded with a string), so one seed gives bit-identical
inputs on every machine.  The program under test only ever receives the
generated config texts and trace seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("reference_codec", "theory_grid", "link_replay")

# reference_codec: demos/reference.cfg with a shorter trace per trial
CODEC_SAMPLES_PER_TRIAL = 5_000

# theory_grid: orders x Doppler strata x noise levels stationary AR(L) fits of
# the Jakes autocorrelation J0(2 pi f_D tau)
THEORY_ORDERS = tuple(range(1, 9))
THEORY_DOPPLER_RANGE = (0.01, 0.5)
THEORY_DOPPLER_STRATA = 10
THEORY_NOISE_LEVELS = (0.01, 0.1, 1.0)
THEORY_POINTS = 12
THEORY_BITS = (2, 4, 6, 8, 10)
# Doppler of the first zero of J0(2 pi f_D): a fit with a higher Doppler has
# kappa(1) < 0 and hits the known defect in the practical_ar1 sweep
KAPPA1_ZERO_DOPPLER = 2.404825557695773 / (2.0 * math.pi)
# no Doppler within this relative distance of that zero, so the sign of
# kappa(1) never rests on rounding
KAPPA1_ZERO_GAP = 1e-3
# diagonal loading of the Yule-Walker system: keeps slow-fading fits well
# conditioned and their poles away from the unit circle
JAKES_LOADING = 1e-3

# link_replay: one long stream per non-byte-aligned width
REPLAY_BITS = (2, 6, 10)
REPLAY_SAMPLES = 80_000
REPLAY_DOPPLER_RANGE = (0.005, 0.05)
REPLAY_ORDER = 4  # fixed: decode time per sample grows with the order


def jakes_correlation(doppler: float, lag: int, nodes: int = 512) -> float:
    """J0(2 pi doppler lag) by the midpoint rule on (1/pi) int_0^pi cos(x sin t) dt.

    The integrand is smooth and periodic, so the rule converges exponentially;
    512 nodes are exact to rounding for the arguments used here (x < 30).
    """
    x = 2.0 * math.pi * doppler * lag
    h = math.pi / nodes
    return math.fsum(math.cos(x * math.sin((k + 0.5) * h)) for k in range(nodes)) / nodes


def levinson(acf: list[float], order: int) -> tuple[list[float], float]:
    """AR(order) coefficients a_1..a_L and innovation variance from acf[0..L]."""
    coeffs: list[float] = []
    error = acf[0]
    for m in range(1, order + 1):
        acc = acf[m] - math.fsum(coeffs[i] * acf[m - 1 - i] for i in range(m - 1))
        k = acc / error
        coeffs = [coeffs[i] - k * coeffs[m - 2 - i] for i in range(m - 1)] + [k]
        error *= 1.0 - k * k
    return coeffs, error


def jakes_ar_config(doppler: float, order: int, noise_var: float, extra: str = "") -> str:
    """Config text of the AR(order) fit to a unit-power Jakes channel."""
    acf = [jakes_correlation(doppler, lag) for lag in range(order + 1)]
    acf[0] *= 1.0 + JAKES_LOADING
    coeffs, innovation_var = levinson(acf, order)
    return (
        f"ar_coeffs = {', '.join(f'{a:.12g}' for a in coeffs)}\n"
        f"innovation_var = {innovation_var:.12g}\n"
        f"obs_noise_var = {noise_var:.12g}\n"
        f"{extra}"
    )


def _log_uniform(rng: random.Random, low: float, high: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def _override(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    if not pattern.search(text):
        raise ValueError(f"reference config has no {key!r} line")
    return pattern.sub(f"{key} = {value}", text)


def reference_codec_inputs(seed: int, reference_cfg: str) -> dict:
    rng = random.Random(f"reference_codec:{seed}")
    text = _override(reference_cfg, "samples_per_trial", str(CODEC_SAMPLES_PER_TRIAL))
    text = _override(text, "seed", str(rng.randrange(1, 2**31)))
    return {"config": text}


def theory_grid_fast_models(n_models: int) -> int:
    """How many of ``n_models`` lie above KAPPA1_ZERO_DOPPLER: their log-uniform
    share of THEORY_DOPPLER_RANGE, rounded to a whole model."""
    low, high = THEORY_DOPPLER_RANGE
    return round(n_models * math.log(high / KAPPA1_ZERO_DOPPLER) / math.log(high / low))


def theory_grid_inputs(seed: int) -> dict:
    """Stratified model grid: the Doppler of each stratum is spread over its
    models by a shuffled Latin-hypercube draw, so the share of fast-fading
    models (and with it the work per job) barely moves between seeds.

    The Doppler axis is close to log-uniform, split at the first zero of J0:
    the same number of models (theory_grid_fast_models) lies above it on
    every seed, so the share that hits the known defect is the same too."""
    rng = random.Random(f"theory_grid:{seed}")
    low, high = THEORY_DOPPLER_RANGE
    per_stratum = len(THEORY_ORDERS) * len(THEORY_NOISE_LEVELS)
    n_models = THEORY_DOPPLER_STRATA * per_stratum
    n_fast = theory_grid_fast_models(n_models)
    n_slow = n_models - n_fast
    slow_high = KAPPA1_ZERO_DOPPLER * (1.0 - KAPPA1_ZERO_GAP)
    fast_low = KAPPA1_ZERO_DOPPLER * (1.0 + KAPPA1_ZERO_GAP)
    configs = []
    for stratum in range(THEORY_DOPPLER_STRATA):
        slots = list(range(per_stratum))
        rng.shuffle(slots)
        cells = [(order, level) for order in THEORY_ORDERS for level in THEORY_NOISE_LEVELS]
        for slot, (order, level) in zip(slots, cells):
            position = stratum * per_stratum + slot  # one model per Doppler slot
            if position < n_slow:
                doppler = _log_uniform(rng, low, slow_high, (position + rng.random()) / n_slow)
            else:
                doppler = _log_uniform(rng, fast_low, high, (position - n_slow + rng.random()) / n_fast)
            noise_var = level * math.exp(rng.uniform(-0.2, 0.2))
            normalized = "true" if len(configs) % 2 else "false"
            extra = f"n_points = {THEORY_POINTS}\nnormalized_bounds = {normalized}\n"
            configs.append(jakes_ar_config(doppler, order, noise_var, extra))
    return {"configs": configs, "bits": list(THEORY_BITS)}


def link_replay_inputs(seed: int) -> dict:
    rng = random.Random(f"link_replay:{seed}")
    streams = []
    for bits in REPLAY_BITS:
        doppler = _log_uniform(rng, *REPLAY_DOPPLER_RANGE)
        noise_var = _log_uniform(rng, 0.05, 0.5)
        streams.append(
            {
                "config": jakes_ar_config(doppler, REPLAY_ORDER, noise_var),
                "bits": bits,
                "samples": REPLAY_SAMPLES,
                "trace_seed": rng.randrange(1, 2**31),
            }
        )
    return {"streams": streams}


def make_inputs(workload: str, seed: int, root: Path) -> dict:
    """Inputs of one workload at one seed; ``root`` is the repository checkout."""
    if workload == "reference_codec":
        return reference_codec_inputs(seed, (root / "demos" / "reference.cfg").read_text())
    if workload == "theory_grid":
        return theory_grid_inputs(seed)
    if workload == "link_replay":
        return link_replay_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    """Stable fingerprint of generated inputs, stored next to reference outputs."""
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
