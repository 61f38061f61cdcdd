"""Output checks for one `bpu_lab.cli run` process.

An operation fails when any of these holds:

* the process exited with a non-zero code;
* the manifest has a FAIL verdict (or `passed` is not true);
* the CSV or the manifest holds a non-finite number, `NaN` token included.
  The one exception is the `slope` of an asymptotics ladder report whose
  `inconclusive` flag is true: the program writes `NaN` there to mean "no
  slope estimate" (the degenerate pullback pairs do this at every commit so
  far), and the verdict already records the report as inconclusive;
* a value is off the reference output recorded for the workload by more
  than the tolerances below, or an accuracy figure exceeds its ceiling.

Byte-identity with the reference is reported but is not a failure: a
legitimate optimisation may change the last bits of a value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# CSV value tolerance against the reference: |a - b| <= RTOL*|b| + ATOL_SCALE*max|column|.
# The absolute part covers entries at rounding level, such as the pullback
# values of a pair whose targets vanish.
RTOL = 1e-6
ATOL_SCALE = 1e-9

# Accuracy ceilings.  Values at the recorded commit: crosscheck errors up to
# 9.7e-8 over seeds 1-40, ladder deviation 4.1e-6, pullback deviation 8.1e-4.
CEILINGS = {
    "fd_rel_err": 1e-6,
    "leading_dev": 1e-5,
    "pair_dev": 2e-3,
}

CSV_HEADER = "k,l,r,value_re,value_im"


@dataclass
class Check:
    problems: list[str] = field(default_factory=list)
    byte_identical: bool = False
    accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def read_csv(path: Path) -> list[tuple[int, int, int, float, float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    rows = []
    for line in lines[1:]:
        k, l, r, re, im = line.split(",")
        rows.append((int(k), int(l), int(r), float(re), float(im)))
    return rows


def non_finite_paths(tree, path: str = "") -> list[str]:
    """Paths of non-finite numbers in a parsed manifest, less the allowed markers."""
    if isinstance(tree, dict):
        out = []
        for key, value in tree.items():
            sub = f"{path}.{key}" if path else key
            if (key == "slope" and tree.get("inconclusive") is True
                    and isinstance(value, float) and math.isnan(value)):
                continue
            out.extend(non_finite_paths(value, sub))
        return out
    if isinstance(tree, list):
        return [p for i, v in enumerate(tree) for p in non_finite_paths(v, f"{path}[{i}]")]
    if isinstance(tree, float) and not math.isfinite(tree):
        return [path]
    return []


def accuracy(manifest: dict) -> dict[str, float]:
    """The workload's accuracy figure, keyed as in CEILINGS."""
    fits = manifest.get("fits", {})
    kind = manifest.get("kind")
    if kind == "derivative-crosscheck":
        return {"fd_rel_err": fits["worst"]}
    if kind == "norm-sweep":
        return {"leading_dev": fits["deviation"]}
    if kind == "theorem-check":
        return {"pair_dev": max(max(p["omega_deviation"], p["g_deviation"])
                                for p in fits["pairs"])}
    return {}


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= RTOL * abs(b) + atol


def compare_rows(rows, ref_rows, values: bool) -> list[str]:
    """Rows must match the reference in k, l, r; with `values`, also in value."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    if any(row[:3] != ref[:3] for row, ref in zip(rows, ref_rows)):
        problems.append("k, l, r columns differ from the reference")
    if values:
        for col in (3, 4):
            atol = ATOL_SCALE * max((abs(ref[col]) for ref in ref_rows), default=0.0)
            bad = [i for i, (row, ref) in enumerate(zip(rows, ref_rows))
                   if not _close(row[col], ref[col], atol)]
            if bad:
                i = bad[0]
                problems.append(f"{len(bad)} values of column {col} off the reference, "
                                f"first at row {i}: {rows[i][col]!r} vs {ref_rows[i][col]!r}")
    return problems


def check_output(returncode: int, outdir: Path, kind: str, config: dict,
                 reference: Path | None, compare_values: bool = True) -> Check:
    """Check the CSV and manifest that one CLI process wrote to `outdir`.

    `reference` is the directory of the outputs recorded for the same
    workload, or None to skip the comparison.  The k, l, r columns, the
    verdict names, the convention signs and constants must match it; with
    `compare_values` the CSV values must match it too.  Without, as for the seeded crosscheck whose values are
    themselves error estimates, they answer to their accuracy ceiling alone.
    """
    check = Check()
    if returncode != 0:
        check.problems.append(f"exit code {returncode}")
    csv_path, json_path = outdir / f"{kind}.csv", outdir / f"{kind}.json"
    try:
        rows = read_csv(csv_path)
        manifest = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        check.problems.append(f"unreadable output: {exc}")
        return check

    bad_rows = [i for i, row in enumerate(rows) if not all(map(math.isfinite, row[3:]))]
    if bad_rows:
        check.problems.append(f"non-finite CSV values in {len(bad_rows)} rows")
    nan_paths = non_finite_paths(manifest)
    if nan_paths:
        check.problems.append(f"non-finite manifest values at {', '.join(nan_paths[:5])}")
    failed = sorted(name for name, ok in manifest.get("verdicts", {}).items() if not ok)
    if failed or manifest.get("passed") is not True:
        check.problems.append(f"FAIL verdicts: {', '.join(failed) or 'passed is not true'}")
    if manifest.get("config") != config:
        check.problems.append("manifest config differs from the generated config")

    try:
        check.accuracy = accuracy(manifest)
    except (KeyError, TypeError, ValueError) as exc:
        check.problems.append(f"manifest lacks its accuracy figure: {exc!r}")
    for name, value in check.accuracy.items():
        if not value <= CEILINGS[name]:
            check.problems.append(f"{name} = {value!r} exceeds its ceiling {CEILINGS[name]}")

    if reference is None:
        return check
    ref_csv, ref_json = reference / csv_path.name, reference / json_path.name
    if not (ref_csv.is_file() and ref_json.is_file()):
        check.problems.append(f"no reference output in {reference}")
        return check
    ref_manifest = json.loads(ref_json.read_text())
    check.problems.extend(compare_rows(rows, read_csv(ref_csv), values=compare_values))
    for key in ("c_omega", "c_g", "kind", "tolerances"):
        if manifest.get(key) != ref_manifest.get(key):
            check.problems.append(f"manifest {key} differs from the reference")
    signs = manifest.get("calibrated_signs", {})
    for key in ("sigma_theta", "sigma_p"):
        if signs.get(key) != ref_manifest["calibrated_signs"][key]:
            check.problems.append(f"convention sign {key} differs from the reference")
    if sorted(manifest.get("verdicts", {})) != sorted(ref_manifest["verdicts"]):
        check.problems.append("verdict names differ from the reference")
    check.byte_identical = (csv_path.read_bytes() == ref_csv.read_bytes()
                            and json_path.read_bytes() == ref_json.read_bytes())
    return check
