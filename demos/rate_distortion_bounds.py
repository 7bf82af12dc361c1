"""Rate-distortion bounds for channel state feedback, swept into CSV curves.

Walks through the theory side of the toolkit: build a fading-channel model,
derive the infinite-rate floors (MMSE prediction and zero-holding), then sweep
every feedback scheme's bound over a distortion grid, once for drive variance
1 and once for 2 to show the rightward shift of all curves.

Run:  python demos/rate_distortion_bounds.py
Writes rd_curves.csv next to this script.
"""

from pathlib import Path

from csi_feedback import (
    ArModel,
    CsvRow,
    NoiseSpec,
    Scheme,
    distortion_floor,
    make_scheme_params,
    parse_config_text,
    run_theory_sweep,
    scheme_rate,
    write_csv,
)

NOISE = NoiseSpec(obs_noise_var=1.0)


def describe(model: ArModel) -> None:
    params = make_scheme_params(model, NOISE)
    print(f"model: AR({model.order}) coeffs={model.coeffs} drive var={model.innovation_var}")
    print(f"  channel variance          {params.acov.sigma_x_sq:8.4f}")
    print(f"  prediction floor sigma_P2 {params.coeffs.sigma_p_sq:8.4f}")
    print(f"  zero-holding floor        {params.zh.sigma_z_sq:8.4f}")
    print(f"  observation innovation    {params.sigma_nu_sq:8.4f}")


def sweep_all(model: ArModel) -> list[CsvRow]:
    """Every scheme's theory rows on its automatic 40-point grid, as ``csi-feedback theory``."""
    config = parse_config_text(
        f"ar_coeffs = {', '.join(map(repr, model.coeffs))}\n"
        f"innovation_var = {model.innovation_var!r}\n"
        f"obs_noise_var = {NOISE.obs_noise_var!r}\n"
        "n_points = 40\n"
    )
    rows = run_theory_sweep(config)
    params = make_scheme_params(model, NOISE)
    for scheme in Scheme:
        first = next(row for row in rows if row.scheme == scheme.value)
        print(
            f"  {scheme.value:22s} floor={distortion_floor(scheme, params):7.4f} "
            f"rate at floor*1.001 = {first.rate_bits:7.3f} bits"
        )
    return rows


def main() -> None:
    print("== floors and derived quantities ==")
    reference = ArModel(coeffs=(0.5, 0.2, 0.1, 0.05), innovation_var=1.0)
    describe(reference)

    print("\n== sweeping all five schemes, drive variance 1 then 2 ==")
    rows = []
    for variance in (1.0, 2.0):
        model = ArModel(coeffs=reference.coeffs, innovation_var=variance)
        print(f"drive variance {variance}:")
        rows.extend(sweep_all(model))

    # the rightward shift: at a fixed distortion above both zero-holding
    # floors, the doubled-variance channel always needs at least as many bits
    params_1 = make_scheme_params(reference, NOISE)
    params_2 = make_scheme_params(ArModel(reference.coeffs, 2.0), NOISE)
    d = params_2.zh.sigma_z_sq * 1.05
    print(
        f"\nzero-holding bound at D={d:.3f}: "
        f"{scheme_rate(Scheme.APERIODIC_ZH, params_1, d):.3f} bits (var 1) vs "
        f"{scheme_rate(Scheme.APERIODIC_ZH, params_2, d):.3f} bits (var 2)"
    )

    out = Path(__file__).with_name("rd_curves.csv")
    write_csv(out, rows)
    print(f"\nwrote {len(rows)} curve points to {out}")


if __name__ == "__main__":
    main()
