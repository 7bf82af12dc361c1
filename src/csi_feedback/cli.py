"""Command line front end: theory sweeps, codec experiments, validation, traces.

Exit codes: 0 success, 1 configuration, domain or output error, 2 validation
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness
from .channel import generate_trace
from .errors import CsiFeedbackError


@functools.cache  # built on first use; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csi-feedback",
        description="Channel-state-feedback overhead experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("theory", "evaluate rate-distortion bounds and write CSV"),
        ("codec", "run quantized feedback simulations and write CSV"),
        ("validate", "cross-check closed forms against simulation"),
        ("trace", "dump one raw channel trace as CSV columns k,x,y"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output path")
        cmd.add_argument(
            "--normalized-bounds",
            action="store_true",
            default=None,
            help="use the per-sample normalized bound variants",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = harness.parse_config(args.config)
        config = harness.with_overrides(
            config,
            seed=args.seed,
            output_path=args.out,
            normalized_bounds=args.normalized_bounds,
        )
    except (CsiFeedbackError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "theory":
            harness.write_csv(config.output_path, harness.run_theory_sweep(config))
            print(f"wrote theory rows to {config.output_path}")
        elif args.command == "codec":
            harness.write_csv(config.output_path, harness.run_codec_experiment(config))
            print(f"wrote codec rows to {config.output_path}")
        elif args.command == "validate":
            report = harness.validate_theory(config)
            print(report.format())
            if not report.passed:
                return 2
        elif args.command == "trace":
            trace = generate_trace(
                config.model, config.noise, config.samples_per_trial, config.seed
            )
            harness.write_trace(config.output_path, trace)
            print(f"wrote {len(trace.x)} samples to {config.output_path}")
    except (CsiFeedbackError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
