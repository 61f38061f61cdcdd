"""Command line entry point.

    bpu-lab run --config experiment.json [--output DIR]
    bpu-lab list-experiments

Exit codes: 0 when all verdicts pass, 1 when the experiment ran but failed
a tolerance, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

# One OpenBLAS thread unless the user sets one; frozen objects skip teardown's GC.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
atexit.register(gc.freeze)

from .errors import BpuLabError, ConfigError  # noqa: E402
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, emit_report, run_experiment  # noqa: E402

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bpu-lab",
                                     description="Experiment runner for the "
                                                 "loop-projection laboratory")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the configuration JSON")
    run_p.add_argument("--output", default=None,
                       help="output directory (default: alongside the config)")
    sub.add_parser("list-experiments", help="list available experiment kinds")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-experiments":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0

    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    outdir = Path(args.output) if args.output else config_path.parent / "out"
    try:
        result = run_experiment(ExperimentConfig.from_json(config_path.read_text()))
        csv_path, json_path = emit_report(result, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BpuLabError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1

    for name, ok in sorted(result.verdicts.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"wrote {csv_path} and {json_path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
