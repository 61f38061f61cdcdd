"""Command line entry point; `USAGE` lists the commands and options.

Exit codes: 0 when all verdicts pass, 1 when the experiment failed a
tolerance or raised an error or on an I/O error, 2 for configuration or
usage errors.
"""

from __future__ import annotations

import atexit
import gc
import getopt
import os
import sys
from pathlib import Path

# One OpenBLAS thread unless the user sets one; frozen objects skip teardown's GC.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
atexit.register(gc.freeze)

from .errors import BpuLabError, ConfigError  # noqa: E402
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, emit_report, run_experiment  # noqa: E402

__all__ = ["main"]

USAGE = """\
usage: bpu-lab run --config experiment.json [--output DIR]
       bpu-lab list-experiments
       bpu-lab -h | --help"""


def _usage_error(message: str) -> int:
    print(f"error: {message}\n{USAGE}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        opts, args = getopt.gnu_getopt(sys.argv[1:] if argv is None else argv, "h",
                                       ["config=", "output=", "help"])
    except getopt.GetoptError as exc:
        return _usage_error(str(exc))
    options = dict(opts)
    if options.keys() & {"-h", "--help"}:
        print(USAGE)
        return 0
    if not args or args[0] not in ("run", "list-experiments"):
        return _usage_error(f"unknown command {args[0]!r}" if args else "no command given")
    extra = args[1:] + (list(options) if args[0] == "list-experiments" else [])
    if extra:
        return _usage_error(f"unexpected argument {extra[0]!r}")

    if args[0] == "list-experiments":
        print("\n".join(EXPERIMENT_KINDS))
        return 0

    if "--config" not in options:
        return _usage_error("run needs --config")
    config_path = Path(options["--config"])
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    outdir = Path(options["--output"]) if options.get("--output") else config_path.parent / "out"
    try:
        result = run_experiment(ExperimentConfig.from_json(config_path.read_bytes()))
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
