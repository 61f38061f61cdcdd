"""Configuration-driven experiments with deterministic artifacts.

Each experiment kind consumes a single JSON configuration document,
produces a CSV data table (columns k, l, r, value_re, value_im), a JSON
manifest carrying the configuration verbatim, the pinned convention constants
and their checks, the fits and the PASS/FAIL verdicts, and reports an
overall verdict.  Given identical configurations the emitted bytes are equal.
The runners own their verdict rules: the decay run, for one, judges the
values that `bpu.pointwise_values` returns for all its points from one kernel
pass, and gives no verdict for points nearer the loop than DECAY_MIN_DISTANCE.
Seeded draws come from `random.Random(seed).random()` alone, whose sequence
Python keeps stable for a given seed.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import asymptotics, bpu, calibration, leaf
from .errors import ConfigError, OutsideAdmissibleSetError
from .fourier import grid_nodes
from .geometry import (
    MAX_HOLONOMY_ORDER,
    SQRT_PI,
    fs_distance,
    graph_loop,
    horizontal_lift,
    latitude_loop,
    normal_frame,
)
from .leaf import HalfWeight, LeafTangent, project_constraints

__all__ = [
    "EXPERIMENT_KINDS",
    "MAX_NODES",
    "TOLERANCES",
    "SPHERE_DIAMETER",
    "DECAY_MIN_DISTANCE",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "emit_report",
]

EXPERIMENT_KINDS = (
    "norm-sweep",
    "theorem-check",
    "derivative-crosscheck",
    "profile",
    "decay",
    "identity-suite",
)

# The acceptance tolerance of every verdict; each manifest records them.
TOLERANCES = {
    "leading_rel": 0.01,        # norm sweep leading coefficient
    "pair_rel": 0.03,           # theorem check per-pair deviation
    "ladder_band": 0.25,        # residual slope band
    "fd_rel": 1e-3,             # derivative cross-check
    "gaussian_abs": 0.02,       # transverse profile deviation
    "decay_slope": -10.0,       # super-polynomial decay threshold
    "identity_abs": 1e-9,       # algebraic identity suite
}

# Maximal base distance in the area-1 metric (pole to pole), and the base
# distance from the loop below which a decay point gets no verdict.
SPHERE_DIAMETER = SQRT_PI / 2.0
DECAY_MIN_DISTANCE = 0.2 * SPHERE_DIAMETER

# A constrained tangent no larger than this fraction of its raw samples is
# rounding left over by the moment constraints.
_TANGENT_FLOOR = 1e-12

MAX_NODES = 2 ** 16  # the largest node count n a config may set


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _number(raw: Any, name: str, integer: bool = False) -> float | int:
    """`raw` as a finite float, or as an int when `integer`; ConfigError otherwise,
    also for a JSON boolean or string."""
    try:
        value = float(raw)
        ok = (not isinstance(raw, (bool, str)) and math.isfinite(value)
              and (value.is_integer() or not integer))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}: {raw!r}")
    return (raw if isinstance(raw, int) else int(value)) if integer else value


def _parse_fraction(raw: Any) -> tuple[int, int]:
    """`raw`, a string "p/q" of one to nine digits each with q > 0, in lowest terms."""
    match = isinstance(raw, str) and re.fullmatch(r"([0-9]{1,9})/([0-9]{1,9})", raw)
    if not match or not int(match[2]):
        raise ConfigError(f"circle parameter c must be a string 'p/q', got {raw!r}")
    p, q = int(match[1]), int(match[2])
    return p // math.gcd(p, q), q // math.gcd(p, q)


def _checked(raw: Any, kind: type, name: str):
    if not isinstance(raw, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {raw!r}")
    return raw


def _descriptor(raw: Any, keys: set[str], name: str) -> dict:
    """`raw` as a JSON object whose keys all lie in `keys`; ConfigError otherwise."""
    unknown = sorted(set(_checked(raw, dict, name)) - keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}")
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    c: float
    n: int
    l_max: int
    seed: int
    halfweight: dict
    tangents: list[dict]
    pairs: list[tuple[int, int]]
    k_values: list[int]
    points: list[dict]
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _descriptor(raw, _CONFIG_KEYS, "configuration")
        kind = raw.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; "
                              f"choose one of {', '.join(EXPERIMENT_KINDS)}")
        p, q = _parse_fraction(raw.get("c", "1/2"))
        if not 0 < p < q:
            raise ConfigError(f"circle parameter must lie in (0, 1), got {p}/{q}")
        if q > MAX_HOLONOMY_ORDER:
            raise ConfigError(f"circle parameter denominator {q} exceeds {MAX_HOLONOMY_ORDER}")
        n = _number(raw.get("n", 256), "n", integer=True)
        if not 64 <= n <= MAX_NODES or n & (n - 1):
            raise ConfigError(f"node count must be a power of two in [64, {MAX_NODES}], got {n}")
        l_max = _number(raw.get("l_max", 40), "l_max", integer=True)
        if l_max < 5:
            raise ConfigError("l_max must be at least 5")
        seed = _number(raw.get("seed", 1), "seed", integer=True)
        k_values = [_number(k, "k_values entry", integer=True)
                    for k in _checked(raw.get("k_values", []), list, "k_values")]
        if any(k < 1 for k in k_values):
            raise ConfigError(f"k_values must be positive integers, got {k_values}")
        if kind in ("profile", "decay") and len(k_values) > 1:
            raise ConfigError(f"{kind} reads one level, got k_values {k_values}")
        tangents = [_descriptor(t, {"f", "s_ell"}, "tangent")
                    for t in _checked(raw.get("tangents", []), list, "tangents")]
        pairs = [tuple(_number(i, "pair index", integer=True) for i in _checked(p, list, "pair"))
                 for p in _checked(raw.get("pairs", []), list, "pairs")]
        for pair in pairs:
            if len(pair) != 2 or not all(0 <= i < len(tangents) for i in pair):
                raise ConfigError(f"pair {list(pair)} must be two indices into the tangent list")
        return cls(
            kind=kind,
            c=p / q,
            n=n,
            l_max=l_max,
            seed=seed,
            halfweight=_descriptor(raw.get("halfweight", {"type": "constant"}), {"type", "terms"},
                                   "half-weight"),
            tangents=tangents,
            pairs=pairs,
            k_values=k_values,
            points=[_descriptor(p, {"c", "psi"}, "point")
                    for p in _checked(raw.get("points", []), list, "points")],
            raw=raw,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "ExperimentConfig":
        """Parse one JSON document, given as text or as UTF-8 bytes."""
        try:
            raw = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"configuration is not UTF-8: {exc}") from exc
        except ValueError as exc:  # bad JSON, or an integer past int()'s digit limit
            raise ConfigError(f"configuration is not readable JSON: {exc}") from exc
        return cls.from_dict(raw)


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"raw"}


@dataclass
class RunResult:
    rows: list[tuple[int, int, int, float, float]]
    fits: dict[str, Any]
    verdicts: dict[str, bool]
    config: ExperimentConfig
    signs: calibration.Calibration

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


# ---------------------------------------------------------------------------
# Descriptor realization
# ---------------------------------------------------------------------------

def _fourier_samples(terms: list[dict], phi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(phi)
    for term in _checked(terms, list, "Fourier terms"):
        term = _descriptor(term, {"mode", "amplitude", "kind"}, "Fourier term")
        mode = _number(term.get("mode", 1), "Fourier term mode", integer=True)
        # On n nodes, mode m and n - m take the same samples.
        if abs(mode) >= phi.size // 2:
            raise ConfigError(f"Fourier term mode {mode} must lie below n/2 = {phi.size // 2}")
        amp = _number(term.get("amplitude", 1.0), "Fourier term amplitude")
        kind = term.get("kind", "cos")
        if kind not in ("cos", "sin"):
            raise ConfigError(f"unknown Fourier term kind {kind!r}")
        out = out + amp * (np.cos if kind == "cos" else np.sin)(mode * phi)
    return out


def _build_halfweight(loop, descriptor: dict) -> HalfWeight:
    kind = descriptor.get("type", "constant")
    if kind == "constant":
        return HalfWeight.constant(loop)
    if kind == "fourier":
        phi = loop.phi
        raw = 1.0 + _fourier_samples(descriptor.get("terms", []), phi)
        if np.min(raw) <= 0:
            raise ConfigError("half-weight descriptor must stay positive")
        return HalfWeight.from_samples(loop, raw)
    raise ConfigError(f"unknown half-weight descriptor type {kind!r}")


def _build_tangent(loop, hw: HalfWeight, descriptor: dict, index: int) -> LeafTangent:
    phi = loop.phi
    f = _fourier_samples(descriptor.get("f", []), phi)
    s_ell = _fourier_samples(descriptor.get("s_ell", []), phi) * hw.s_lambda
    w = project_constraints(loop, f, s_ell, hw)
    # A tangent that the moment constraints reduce to rounding moves nothing;
    # every ratio built from it would be 0/0 or a vacuous pass.
    raw = max(np.max(np.abs(f)), np.max(np.abs(s_ell)))
    if max(np.max(np.abs(w.f)), np.max(np.abs(w.s_ell))) <= _TANGENT_FLOOR * raw:
        raise ConfigError(f"tangent {index} vanishes under the moment constraints")
    return w


def _random_tangent(loop, hw: HalfWeight, rng: random.Random) -> LeafTangent:
    """The constrained tangent whose f and s_ell / s_lambda each sum two
    cosines, drawn per term as amplitude in [0.5, 1.5), mode in {1, 2, 3} and
    phase in [0, 2*pi)."""
    phi = loop.phi
    f, s = (sum((0.5 + rng.random()) * np.cos((1 + int(3 * rng.random())) * phi
                                              + 2 * np.pi * rng.random())
                for _ in range(2))
            for _ in range(2))
    return project_constraints(loop, f, s * hw.s_lambda, hw)


def _point_from_descriptor(descriptor: dict) -> np.ndarray:
    c = _number(descriptor.get("c", 0.9), "point c")
    psi = _number(descriptor.get("psi", 0.0), "point psi")
    if not 0.0 <= c <= 1.0:
        raise ConfigError(f"point area coordinate must lie in [0, 1], got {c}")
    return np.array([math.sqrt(c) * np.exp(1j * psi), math.sqrt(1.0 - c)],
                    dtype=np.complex128)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

# What a runner returns: CSV rows, fits and verdicts.
_Outcome = tuple[list[tuple[int, int, int, float, float]], dict[str, Any], dict[str, bool]]


def _setup(config: ExperimentConfig):
    loop = latitude_loop(config.c, config.n)
    lift = horizontal_lift(loop)
    hw = _build_halfweight(loop, config.halfweight)
    return loop, lift, hw


def _run_norm_sweep(config: ExperimentConfig) -> _Outcome:
    loop, lift, hw = _setup(config)
    r = lift.winding
    ks = [r * l for l in range(1, config.l_max + 1)]
    table = bpu.norm_sweep(lift, hw, ks)
    rows = [(row["k"], row["l"], row["r"], row["norm_sq"], 0.0) for row in table]
    fit, ladder = _expansion([(row["k"], row["norm_sq"]) for row in table], 0.5)
    target = math.sqrt(2.0 / math.pi) * r * r
    deviation = abs(fit.leading / target - 1.0)
    smallest = min((row["k"] for row in table if row["admissible"]), default=None)
    fits = {
        "leading": fit,
        "target": target,
        "deviation": deviation,
        "ladder": ladder,
        "smallest_admissible_k": smallest,
    }
    verdicts = {
        "leading_coefficient": deviation < TOLERANCES["leading_rel"],
        "ladder_residual": ladder.consistent or ladder.inconclusive,
    }
    return rows, fits, verdicts


def _expansion(samples, alpha: float, floor: float | None = None):
    """The three-term leading fit of a sampled series and the one-term ladder
    check of its remainder: the policy by which every series is judged."""
    return (asymptotics.fit_leading(samples, alpha=alpha, m=3),
            asymptotics.ladder_residual_check(samples, alpha=alpha, m=1,
                                              band=TOLERANCES["ladder_band"], floor=floor))


def _pair_deviation(fitted: float, constant: float, target: float, scale: float) -> float:
    denom = abs(constant) * max(abs(target), 0.1 * scale)
    return abs(fitted - constant * target) / denom


def _run_theorem_check(config: ExperimentConfig) -> _Outcome:
    loop, lift, hw = _setup(config)
    r = lift.winding
    if not config.tangents or not config.pairs:
        raise ConfigError("theorem-check requires tangents and pairs")
    tangents = [_build_tangent(loop, hw, d, i) for i, d in enumerate(config.tangents)]
    ks = [r * l for l in range(1, config.l_max + 1)]
    rows = []
    fits: dict[str, Any] = {"c_omega": bpu.C_OMEGA, "c_g": bpu.C_G, "pairs": []}
    verdicts: dict[str, bool] = {}
    forms = bpu.fs_pullback(lift, hw, tangents, ks)
    for idx, (i, j) in enumerate(config.pairs):
        w, wp = tangents[i], tangents[j]
        scale = math.sqrt(leaf.metric_g(w, w, hw) * leaf.metric_g(wp, wp, hw))
        values = forms[:, i, j]
        rows.extend((k, k // r, r, float(v.real), float(v.imag)) for k, v in zip(ks, values))
        # Pullback values are Gram ratios of k^2-sized products; cancellation
        # noise below this scale supports no ladder-slope estimate.
        noise_floor = 1e-10 * scale * max(ks) ** 2
        pair: dict[str, Any] = {"pair": [i, j]}
        for part, series, constant, target in (
                ("omega", values.imag, bpu.C_OMEGA, leaf.omega(w, wp, hw)),
                ("g", values.real, bpu.C_G, leaf.metric_g(w, wp, hw))):
            fit, ladder = _expansion(list(zip(ks, series)), 2.0, noise_floor)
            deviation = _pair_deviation(fit.leading, constant, target, scale)
            pair.update({f"{part}_target": target, f"{part}_fit": fit,
                         f"{part}_deviation": deviation, f"{part}_ladder": ladder})
            verdicts[f"pair{idx}_{part}"] = deviation < TOLERANCES["pair_rel"]
            verdicts[f"pair{idx}_{part}_ladder"] = ladder.consistent or ladder.inconclusive
        fits["pairs"].append(pair)
    return rows, fits, verdicts


def _run_derivative_crosscheck(config: ExperimentConfig) -> _Outcome:
    loop, lift, hw = _setup(config)
    r = lift.winding
    ks = config.k_values or [4 * r, 8 * r, 16 * r]
    if config.tangents:
        tangents = [_build_tangent(loop, hw, d, i) for i, d in enumerate(config.tangents)]
    else:
        rng = random.Random(config.seed)
        tangents = [_random_tangent(loop, hw, rng) for _ in range(5)]
    off_lattice = [k for k in ks if k % r]
    if off_lattice:
        raise ConfigError(f"cross-check levels {off_lattice} must be divisible by r = {r}")
    levels = list(zip(bpu.d_bpu(lift, hw, tangents, ks), bpu.fd_d_bpu(lift, hw, tangents, ks)))
    errors = [float(np.linalg.norm(ana[i] - fd[i])) / float(np.linalg.norm(fd[i]))
              for i in range(len(tangents)) for ana, fd in levels]
    rows = [(k, k // r, r, rel, 0.0) for k, rel in zip(ks * len(tangents), errors)]
    worst = max(errors)
    fits = {"relative_errors": errors, "worst": worst}
    verdicts = {"derivative_agreement": worst < TOLERANCES["fd_rel"]}
    return rows, fits, verdicts


def _run_profile(config: ExperimentConfig) -> _Outcome:
    loop, lift, hw = _setup(config)
    r = lift.winding
    k = config.k_values[0] if config.k_values else 40 * r
    if k % r:
        raise ConfigError(f"profile level {k} must be divisible by r = {r}")
    # |u_k| from node 0 of the lift at the C^2 angles w/sqrt(k) along the loop's
    # unit normal turned by the node's fiber phase, a horizontal direction
    # perpendicular to the loop: w is the Heisenberg transverse length, in which
    # the predicted profile is exp(-w^2).
    samples = np.linspace(0.0, 1.5, 16)
    x, normal = lift.points[0], lift.phases[0] * normal_frame(loop)[0]
    theta = samples[:, None] / math.sqrt(k)
    displaced = np.cos(theta) * x + np.sin(theta) * (normal / np.linalg.norm(normal))
    values = np.abs(bpu.pointwise_values(lift, hw, np.vstack([x, displaced]), [k])[0])
    if values[0] == 0.0:
        raise OutsideAdmissibleSetError("projection vanishes at the profile point")
    ratio, gaussian = values[1:] / values[0], np.exp(-samples ** 2)
    rows = [(k, k // r, r, float(q), float(w)) for w, q in zip(samples, ratio)]
    deviation = float(np.max(np.abs(ratio - gaussian)))
    fits = {
        "k": k,
        "w_norm": samples,
        "ratio": ratio,
        "gaussian": gaussian,
        "max_abs_deviation": deviation,
    }
    verdicts = {"gaussian_profile": deviation < TOLERANCES["gaussian_abs"]}
    return rows, fits, verdicts


def _run_decay(config: ExperimentConfig) -> _Outcome:
    descriptors = config.points or [{"c": 0.9, "psi": 0.0}, {"c": 0.88, "psi": 2.0},
                                    {"c": 0.92, "psi": 4.0}]
    points = np.array([_point_from_descriptor(d) for d in descriptors])
    loop, lift, hw = _setup(config)
    r = lift.winding
    k_max = config.k_values[0] if config.k_values else 80
    if k_max < 2 * r:
        raise ConfigError(f"decay level {k_max} must reach 2r = {2 * r} to hold a (k, 2k) pair")
    ks = list(range(r, k_max + 1, r))
    values = np.abs(bpu.pointwise_values(lift, hw, points, ks))
    rows = []
    fits: dict[str, Any] = {"points": []}
    verdicts = {}
    for p_idx, (desc, x, column) in enumerate(zip(descriptors, points, values.T)):
        report = asymptotics.superpoly_decay(list(zip(ks, column)), TOLERANCES["decay_slope"])
        dist = float(np.min(fs_distance(x[None, :], loop.points)))
        if dist < DECAY_MIN_DISTANCE:  # too near the loop for a verdict
            report = replace(report, passed=False, inconclusive=True)
        rows.extend((k, k // r, r, float(v), 0.0) for k, v in zip(ks, column))
        fits["points"].append({"descriptor": desc, "distance": dist, "report": report})
        verdicts[f"point{p_idx}_decay"] = bool(report.passed and not report.inconclusive)
    return rows, fits, verdicts


def _run_identity_suite(config: ExperimentConfig) -> _Outcome:
    tol = TOLERANCES["identity_abs"]
    rng = random.Random(config.seed)
    phi = grid_nodes(config.n)
    # The second loop's area coordinate adds modes 1..3 of amplitude
    # 0.04 * [0.3, 1) / m and random phase; its mean stays c, and graph_loop
    # needs it 1e-3 clear of both poles.
    reach = 0.04 * (1 + 1 / 2 + 1 / 3) + 1e-3
    if not reach < config.c < 1 - reach:
        raise ConfigError(f"identity-suite needs c in ({reach:.4f}, {1 - reach:.4f}) "
                          f"for its graph loop, got c = {config.raw.get('c', '1/2')}")
    area = np.full(config.n, config.c)
    for m in (1, 2, 3):
        area = area + (0.04 * (0.3 + 0.7 * rng.random()) / m
                       * np.cos(m * phi + 2 * np.pi * rng.random()))
    loops = [latitude_loop(config.c, config.n), graph_loop(area)]
    worst: dict[str, float] = {}

    def record(name: str, value: float):
        worst[name] = max(worst.get(name, 0.0), abs(value))

    for loop in loops:
        hw = _build_halfweight(loop, config.halfweight)
        pairs = [( _random_tangent(loop, hw, rng), _random_tangent(loop, hw, rng))
                 for _ in range(10)]
        for w, wp in pairs:
            jw, jwp = leaf.j_map(w, hw), leaf.j_map(wp, hw)
            jjw = leaf.j_map(jw, hw)
            record("j_involution", float(np.max(np.abs(jjw.f + w.f))))
            record("j_involution", float(np.max(np.abs(jjw.s_ell + w.s_ell))))
            record("compatibility", leaf.omega(w, jwp, hw) - leaf.metric_g(w, wp, hw))
            record("psi_naturality",
                   leaf.omega(w, wp, hw)
                   - leaf.omega_weinstein(leaf.psi_pushforward(w, hw),
                                          leaf.psi_pushforward(wp, hw)))
            record("omega_antisymmetry", leaf.omega(w, wp, hw) + leaf.omega(wp, w, hw))
            record("g_symmetry", leaf.metric_g(w, wp, hw) - leaf.metric_g(wp, w, hw))
            for res in w.constraint_residuals(hw) + wp.constraint_residuals(hw):
                record("constraints", res)
            for res in jw.constraint_residuals(hw):
                record("j_preserves_constraints", res)
            record("f_hermitian",
                   abs(bpu.f_integrand(w, wp, hw) - np.conj(bpu.f_integrand(wp, w, hw))))
    return [], {"worst_defects": worst}, {name: bool(v < tol) for name, v in sorted(worst.items())}


_RUNNERS = {
    "norm-sweep": _run_norm_sweep,
    "theorem-check": _run_theorem_check,
    "derivative-crosscheck": _run_derivative_crosscheck,
    "profile": _run_profile,
    "decay": _run_decay,
    "identity-suite": _run_identity_suite,
}


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the experiment, then the convention sign check, once per run.

    The check comes last so that the runner's configuration errors surface
    without waiting for it.
    """
    rows, fits, verdicts = _RUNNERS[config.kind](config)
    return RunResult(rows, fits, verdicts, config, calibration.calibrated_signs())


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def emit_report(result: RunResult, outdir: Path | str) -> tuple[Path, Path]:
    """Write the CSV table and JSON manifest; byte-stable given equal inputs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    kind = result.config.kind
    csv_path = outdir / f"{kind}.csv"
    json_path = outdir / f"{kind}.json"

    lines = ["k,l,r,value_re,value_im"] + [f"{k},{l},{r},{_format_float(v_re)},{_format_float(v_im)}"
                                           for k, l, r, v_re, v_im in result.rows]
    csv_path.write_text("\n".join(lines) + "\n")

    manifest = {
        "config": result.config.raw,
        "kind": kind,
        "calibrated_signs": result.signs,
        "c_omega": bpu.C_OMEGA,
        "c_g": bpu.C_G,
        "tolerances": TOLERANCES,
        "fits": result.fits,
        "verdicts": result.verdicts,
        "passed": result.passed,
    }
    json_path.write_text(json.dumps(manifest, sort_keys=True, indent=2,
                                    default=_json_default) + "\n")
    return csv_path, json_path


def _json_default(obj):
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")
