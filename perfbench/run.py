"""bpu-lab benchmark: fresh `bpu_lab.cli run` processes, one at a time.

    python3 perfbench/run.py --workload crosscheck --seed 7 --seconds 10 --trace 0

Run it from the root of a source checkout.  Each workload generates its
config from a shipped one, runs the CLI on it in fresh processes until
`--seconds` of workload time have passed (at least once), probes the
fixed start-up cost with `configs/identity_suite.json` several times, checks
every output (see checker.py) and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
run's processes).  With `--trace 1` the run makes one untraced and one
traced workload process and reports per-layer metrics from the spans that
tracer.py records.  The line before the last one holds the run's details:
environment, per-process figures, accuracy and byte-identity with the
reference.  `--record-reference` rewrites the reference outputs instead.
Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import tracer  # noqa: E402

REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = Path(".perfbench_work")
DEFAULT_SEED = 7
SETUP_PROBES = 3
# Every process of a run is killed if it is still running this long after the start.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    kind: str
    shipped: str            # config the workload is generated from
    changes: dict           # keys replaced in the shipped config
    seeded: bool = False    # the benchmark seed goes into the config
    min_processes: int = 1  # workload processes per run, however long they take


WORKLOADS = {
    # Transport path: fd_d_bpu -> flow_state -> foot_parameters -> TrigInterpolator.
    # One process takes 20-35 s, so a run takes the median of two.
    "crosscheck": Workload("derivative-crosscheck", "configs/derivative_crosscheck.json",
                           {}, seeded=True, min_processes=2),
    # Projection path on one fixed lift: c=1/3 (r=3), k = 3..600, below r*N = 768.
    "ladder": Workload("norm-sweep", "configs/norm_sweep_r2.json",
                       {"c": "1/3", "l_max": 200}),
    # The same (lift, k) matrices rebuilt by bpu_map, d_bpu and fs_pullback.
    "pullback": Workload("theorem-check", "configs/theorem_check_r2.json", {"l_max": 80}),
}
SETUP = Workload("identity-suite", "configs/identity_suite.json", {})


def make_config(root: Path, workload: Workload, seed: int) -> dict:
    config = json.loads((root / workload.shipped).read_text())
    config.update(workload.changes)
    if workload.seeded:
        config["seed"] = seed
    return config


@dataclass
class Process:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv: list[str], root: Path, log: Path, timeout: float) -> Process:
    """Run one child to completion; wall time and rusage from os.wait4.

    The child is polled every 2 ms, so its wall time is exact to about that.
    A child still running after `timeout` seconds is killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with log.open("wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(child.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0)


@dataclass
class Operation:
    name: str
    process: Process
    check: checker.Check

    def to_dict(self) -> dict:
        return {"name": self.name, "returncode": self.process.returncode,
                "wall_s": self.process.wall_s, "cpu_s": self.process.cpu_s,
                "peak_rss_mb": self.process.peak_rss_mb, "problems": self.check.problems,
                "byte_identical": self.check.byte_identical, **self.check.accuracy}


class Session:
    """The processes of one benchmark run, each in its own work directory."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        shutil.rmtree(root / WORK_DIR, ignore_errors=True)
        self.operations: list[Operation] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run(self, name: str, spans: Path | None = None,
            compare: bool = True) -> tuple[Operation, Path]:
        """One CLI process on workload `name` ("setup" for the probe).

        With `spans` the process runs under the tracer; with `compare` its
        output is compared with the recorded reference.
        """
        workload = SETUP if name == "setup" else WORKLOADS[name]
        case = WORK_DIR / f"{len(self.operations):03d}-{name}"
        (self.root / case).mkdir(parents=True)
        config = make_config(self.root, workload, self.seed)
        (self.root / case / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        cli_args = ["run", "--config", str(case / "config.json"), "--output", str(case / "out")]
        if spans is None:
            argv = [sys.executable, "-m", "bpu_lab.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans),
                    "--", *cli_args]
        process = run_process(argv, self.root, self.root / case / "log.txt",
                              timeout=self.deadline - time.perf_counter())
        check = checker.check_output(process.returncode, self.root / case / "out",
                                     workload.kind, config,
                                     REFERENCE_DIR / name if compare else None,
                                     compare_values=not workload.seeded)
        op = Operation(name, process, check)
        self.operations.append(op)
        return op, self.root / case / "out"


def end_to_end(session: Session, name: str, seconds: float) -> dict[str, tuple[float, str]]:
    """Workload processes until `seconds` of them (and at least the workload's
    minimum) have run, with setup probes between them."""
    walls: list[float] = []
    rss: list[float] = []
    setup: list[float] = []

    def more_work() -> bool:
        return len(walls) < WORKLOADS[name].min_processes or sum(walls) < seconds

    while len(setup) < SETUP_PROBES or more_work():
        if len(setup) < SETUP_PROBES:
            setup.append(session.run("setup")[0].process.wall_s)
        if more_work():
            op, _ = session.run(name)
            walls.append(op.process.wall_s)
            rss.append(op.process.peak_rss_mb)
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def per_layer(session: Session, name: str) -> dict[str, tuple[float, str]]:
    """One untraced and one traced workload process; metrics from the spans."""
    untraced, _ = session.run(name)
    spans_path = session.root / WORK_DIR / "spans.json"
    traced, _ = session.run(name, spans=spans_path)
    try:
        doc = json.loads(spans_path.read_text())
    except (OSError, ValueError):
        traced.check.problems.append("traced process wrote no spans")
        doc = {"import_s": 0.0, "spans": []}
    metrics = tracer.summarize(doc["spans"])
    metrics["cli.import_s"] = doc["import_s"]
    metrics["cli.cpu_s"] = traced.process.cpu_s
    metrics["trace.wall_s"] = traced.process.wall_s
    metrics["trace.overhead_s"] = traced.process.wall_s - untraced.process.wall_s
    return {key: (value, unit_of(key)) for key, value in metrics.items()}


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_version, "git_sha": sha}


def record_reference(root: Path) -> None:
    """Rewrite reference/<workload>/ from one run of each workload at DEFAULT_SEED."""
    session = Session(root, DEFAULT_SEED)
    for name in ("setup", *WORKLOADS):
        op, outdir = session.run(name, compare=False)
        if not op.check.ok:
            raise SystemExit(f"{name}: {'; '.join(op.check.problems)}; nothing recorded")
        shutil.rmtree(REFERENCE_DIR / name, ignore_errors=True)
        shutil.copytree(outdir, REFERENCE_DIR / name)
        print(f"recorded {REFERENCE_DIR / name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bpu-lab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [Path("src/bpu_lab/cli.py"), *(Path(w.shipped) for w in (SETUP, *WORKLOADS.values()))]
    missing = [str(p) for p in needed if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a bpu-lab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    session = Session(root, args.seed)
    if args.trace:
        metrics = per_layer(session, args.workload)
    else:
        metrics = end_to_end(session, args.workload, args.seconds)
    failed = sum(not op.check.ok for op in session.operations)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(root),
                      "operations": [op.to_dict() for op in session.operations]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(session.operations),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
