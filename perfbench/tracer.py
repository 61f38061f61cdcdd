"""Span tracer for one `bpu_lab.cli` process, kept outside the program.

Run as a script in place of `python -m bpu_lab.cli`:

    python3 perfbench/tracer.py --spans SPANS.json -- run --config C --output D

It imports the package, wraps every public function of each layer module
(and the public methods, `__init__` and `__call__` of its classes, on the
class), then calls `bpu_lab.cli.main` with the arguments after `--`.  A
wrapper replaces every attribute of every `bpu_lab` module that is bound to
the same function object, so names imported with `from .leaf import
flow_state` are traced as `leaf.flow_state` wherever they are called.

Spans are kept in memory as `[layer, name, start, end, parent, extra]` and
written once, when `main` returns.  `summarize` turns a span list into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "experiments", "calibration", "bpu", "hardy", "leaf",
          "geometry", "fourier", "asymptotics")
PACKAGE = "bpu_lab"

# A coefficient is useful when its share of norm_sq exceeds this fraction.
USEFUL_SHARE = 1e-16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, clock(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced


def _array_key(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.blake2b(arr.tobytes(), digest_size=12).hexdigest() + str(arr.shape)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _monomial_extra(args, kwargs, result):
    b = _arg(args, kwargs, 0, "b")
    points = np.atleast_2d(_arg(args, kwargs, 1, "points"))
    return {"entries": int(result.size), "key": f"{b.k}:{_array_key(points)}"}


def _interp_extra(args, kwargs, result):
    interp, phi = args[0], _arg(args, kwargs, 1, "phi")
    return {"entries": int(np.size(phi)) * interp.n}


def _foot_extra(args, kwargs, result):
    return {"points": int(np.atleast_1d(result).shape[0])}


def _bpu_map_extra(args, kwargs, result):
    contrib = np.abs(result.coefficients) ** 2 * result.sec_basis.norms_sq
    total = float(np.sum(contrib))
    useful = int(np.count_nonzero(contrib > USEFUL_SHARE * total)) if total > 0 else 0
    return {"coefficients": int(contrib.size), "useful": useful}


def _emit_extra(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


# Per-call data recorded beside the span, by (layer, name).
EXTRAS = {
    ("hardy", "monomial_values"): _monomial_extra,
    ("hardy", "monomial_derivatives"): _monomial_extra,
    ("fourier", "TrigInterpolator.__call__"): _interp_extra,
    ("fourier", "TrigInterpolator.derivative"): _interp_extra,
    ("geometry", "foot_parameters"): _foot_extra,
    ("bpu", "bpu_map"): _bpu_map_extra,
    ("experiments", "emit_report"): _emit_extra,
}


def _is_traced_method(name: str) -> bool:
    return not name.startswith("_") or name in ("__init__", "__call__")


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = tracer.wrap(layer, name, obj, EXTRAS.get((layer, name)))
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    for mod in [m for key, m in sys.modules.items()
                if key == PACKAGE or key.startswith(PACKAGE + ".")]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        if not _is_traced_method(name):
            continue
        label = f"{cls.__name__}.{name}"
        extra = EXTRAS.get((layer, label))
        if isinstance(attr, (staticmethod, classmethod)):
            setattr(cls, name, type(attr)(tracer.wrap(layer, label, attr.__func__, extra)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(layer, label, attr, extra))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics, keyed `<layer>.<metric>`, from one traced process."""
    own = self_times(spans)
    by_name: dict[tuple[str, str], list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault((s[0], s[1]), []).append(i)

    def calls(*keys):
        return sum(len(by_name.get(k, [])) for k in keys)

    def self_s(*keys):
        return sum(own[i] for k in keys for i in by_name.get(k, []))

    def total_s(*keys):
        return sum(spans[i][3] - spans[i][2] for k in keys for i in by_name.get(k, []))

    def extra_sum(key, field):
        return sum(spans[i][5][field] for i in by_name.get(key, []))

    def distinct_ratio(key):
        idx = by_name.get(key, [])
        return len({spans[i][5]["key"] for i in idx}) / len(idx) if idx else 0.0

    def layer_self(layer):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == layer)

    interp = [("fourier", "TrigInterpolator.__call__"), ("fourier", "TrigInterpolator.derivative")]
    values, derivs = ("hardy", "monomial_values"), ("hardy", "monomial_derivatives")
    bpu_map = ("bpu", "bpu_map")
    computed = extra_sum(bpu_map, "coefficients")
    calib = [("calibration", "calibrated_signs"), ("calibration", "measured_constants")]
    return {
        "fourier.interp_calls": calls(*interp),
        "fourier.interp_entries": sum(extra_sum(k, "entries") for k in interp),
        "fourier.interp_self_s": self_s(*interp),
        "geometry.foot_calls": calls(("geometry", "foot_parameters")),
        "geometry.foot_points": extra_sum(("geometry", "foot_parameters"), "points"),
        "geometry.foot_self_s": self_s(("geometry", "foot_parameters")),
        "geometry.lift_calls": calls(("geometry", "horizontal_lift")),
        "geometry.lift_self_s": self_s(("geometry", "horizontal_lift")),
        "leaf.flow_calls": calls(("leaf", "flow_state")),
        "leaf.flow_total_s": total_s(("leaf", "flow_state")),
        "leaf.flow_self_s": self_s(("leaf", "flow_state")),
        "leaf.gamma_calls": calls(("leaf", "gamma_flow")),
        "leaf.gamma_self_s": self_s(("leaf", "gamma_flow")),
        "hardy.values_calls": calls(values),
        "hardy.values_entries": extra_sum(values, "entries"),
        "hardy.values_self_s": self_s(values),
        "hardy.values_distinct_ratio": distinct_ratio(values),
        "hardy.derivs_calls": calls(derivs),
        "hardy.derivs_entries": extra_sum(derivs, "entries"),
        "hardy.derivs_self_s": self_s(derivs),
        "hardy.derivs_distinct_ratio": distinct_ratio(derivs),
        "bpu.map_calls": calls(bpu_map),
        "bpu.map_self_s": self_s(bpu_map),
        "bpu.map_useful_ratio": extra_sum(bpu_map, "useful") / computed if computed else 0.0,
        "bpu.d_calls": calls(("bpu", "d_bpu")),
        "bpu.d_self_s": self_s(("bpu", "d_bpu")),
        "bpu.pullback_calls": calls(("bpu", "fs_pullback")),
        "bpu.pullback_total_s": total_s(("bpu", "fs_pullback")),
        "bpu.fd_calls": calls(("bpu", "fd_d_bpu")),
        "bpu.fd_total_s": total_s(("bpu", "fd_d_bpu")),
        "calibration.calls": calls(*calib),
        "calibration.total_s": total_s(*calib),
        "asymptotics.fit_calls": calls(("asymptotics", "fit_leading")),
        "asymptotics.self_s": layer_self("asymptotics"),
        "experiments.run_s": total_s(("experiments", "run_experiment")),
        "experiments.emit_s": self_s(("experiments", "emit_report")),
        "experiments.emit_bytes": extra_sum(("experiments", "emit_report"), "bytes"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for bpu_lab.cli after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        Path(args.spans).write_text(json.dumps(
            {"import_s": import_s, "wall_s": wall, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
