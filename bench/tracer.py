"""Span tracer for the benchmark's traced run.

Run as a script, it stands in for the ``cellpp`` command:

    python3 bench/tracer.py SPANS_JSON RUN_ID -- <cellpp arguments>

It imports ``cellpp``, replaces the public functions listed in
``HOOKS`` with timing wrappers (in every ``cellpp`` module that holds a
reference to them), calls ``cellpp.cli.main`` in process, and writes
the spans to ``SPANS_JSON`` when the command ends.  Spans stay in
memory until then.  Each span records its name, start, end, parent
span and run id, plus the counters its hook reads off the call.

Imported as a module, it turns the spans of a run into the per-layer
metrics of ``per_layer_catalogue`` and a self-time split.  The
program itself carries no tracing code; a hook whose target no longer
exists is reported as missing, with the metrics that depend on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

FAMILIES = ("poisson", "beta-ginibre", "gauss-dpp", "cauchy-dpp")
CALLERS = ("fit", "gof")
ESTIMATORS = ("K", "F", "G")


def _sample_attrs(args, kwargs, result):
    return {"family": args[0].name, "points": int(result.n)}


def _estimate_k_attrs(args, kwargs, result):
    return {"n": int(args[0].n)}


def _estimate_f_attrs(args, kwargs, result):
    return {"test_points": int(result.meta["n_test"])}


def _fit_attrs(args, kwargs, result):
    return {"family": args[1] if len(args) > 1 else kwargs["family"]}


def _replicate_attrs(args, kwargs, result):
    return {"family": args[0].name}


def _ingest_attrs(args, kwargs, result):
    # Rows ingest returned: kept records plus rejects (rows dropped by the
    # operator or technology filter are not counted).
    return {"rows": len(result.records) + len(result.rejects),
            "rejects": len(result.rejects)}


# (module, public function, counters read off the call)
HOOKS = (
    ("pipeline", "load_pattern", None),
    ("pipeline", "analyze_pattern", None),
    ("pipeline", "write_outputs", None),
    ("samplers", "sample", _sample_attrs),
    ("estimators", "estimate_K", _estimate_k_attrs),
    ("estimators", "estimate_F", _estimate_f_attrs),
    ("estimators", "estimate_G", None),
    ("models", "theoretical_curve", None),
    ("fitting", "fit", _fit_attrs),
    ("fitting", "contrast", None),
    ("gof", "replicate_curves", _replicate_attrs),
    ("gof", "pointwise_envelope", None),
    ("gof", "global_envelope", None),
    ("gof", "verdict", None),
    ("geom", "ingest", _ingest_attrs),
    ("geom", "project", None),
    ("geom", "clip", None),
    ("geom", "quadrat_stationarity", None),
)
ROOT_SPAN = "cli.main"
ENVELOPE_SPANS = ("gof.pointwise_envelope", "gof.global_envelope",
                  "gof.verdict")


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, attrs_fn=None):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs_fn is not None:
            try:
                span["attrs"] = attrs_fn(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                span["attrs"] = {}
        return result

    def _wrapper(self, name, fn, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)
        return wrapper

    def install(self) -> None:
        """Wrap every hook target, in each ``cellpp`` module holding it."""
        modules = {}
        for module_name, _, _ in HOOKS:
            try:
                modules[module_name] = importlib.import_module(
                    f"cellpp.{module_name}")
            except ImportError:
                modules[module_name] = None
        importlib.import_module("cellpp.cli")
        holders = [m for name, m in sys.modules.items()
                   if (name == "cellpp" or name.startswith("cellpp."))
                   and m is not None]
        for module_name, attr, attrs_fn in HOOKS:
            name = f"{module_name}.{attr}"
            original = getattr(modules[module_name], attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, original, attrs_fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)


def _child_main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- ARGS...")
    tracer = Tracer(run_id)
    tracer.install()
    import cellpp.cli

    code = 1
    try:
        code = tracer.call(ROOT_SPAN, cellpp.cli.main, (cli_args,), {})
    finally:
        Path(spans_path).write_text(json.dumps(
            {"spans": tracer.spans, "missing": tracer.missing,
             "exit": code}))
    return code


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark process; imports nothing from cellpp)
# ---------------------------------------------------------------------------

def per_layer_catalogue() -> list[tuple[str, str, str, tuple]]:
    """Every per-layer metric as (name, unit, better, hooks it needs)."""
    out = []
    for fam in FAMILIES:
        for caller in CALLERS:
            base = f"samplers.sample.{fam}.{caller}"
            parent = ("fitting.fit" if caller == "fit"
                      else "gof.replicate_curves")
            need = ("samplers.sample", parent)
            out += [(f"{base}.s", "s", "lower", need),
                    (f"{base}.calls", "count", "lower", need),
                    (f"{base}.points", "count", "lower", need)]
    for kind in ESTIMATORS:
        need = (f"estimators.estimate_{kind}",)
        out += [(f"estimators.estimate_{kind}.s", "s", "lower", need),
                (f"estimators.estimate_{kind}.calls", "count", "lower", need)]
    out += [("estimators.estimate_F.test_points", "count", "lower",
             ("estimators.estimate_F",)),
            ("estimators.estimate_K.max_n", "count", "lower",
             ("estimators.estimate_K",)),
            ("models.theoretical_curve.s", "s", "lower",
             ("models.theoretical_curve",)),
            ("models.theoretical_curve.calls", "count", "lower",
             ("models.theoretical_curve",))]
    for fam in FAMILIES:
        need = ("fitting.fit",)
        out += [(f"fitting.fit.{fam}.s", "s", "lower", need),
                (f"fitting.fit.{fam}.evaluations", "count", "lower", need),
                (f"fitting.fit.{fam}.s_per_eval", "s", "lower", need)]
    out.append(("fitting.contrast.calls", "count", "lower",
                ("fitting.contrast",)))
    for fam in FAMILIES:
        out.append((f"gof.replicate_curves.{fam}.s", "s", "lower",
                    ("gof.replicate_curves",)))
    out.append(("gof.envelopes.s", "s", "lower", ENVELOPE_SPANS))
    for fn in ("ingest", "project", "clip", "quadrat_stationarity"):
        out.append((f"geom.{fn}.s", "s", "lower", (f"geom.{fn}",)))
    out += [("geom.ingest.rows", "count", "lower", ("geom.ingest",)),
            ("geom.ingest.rejects", "count", "lower", ("geom.ingest",))]
    for fn in ("load_pattern", "analyze_pattern", "write_outputs"):
        out.append((f"pipeline.{fn}.s", "s", "lower", (f"pipeline.{fn}",)))
    out += [("pipeline.write_outputs.bytes", "bytes", "lower",
             ("pipeline.write_outputs",)),
            ("trace.overhead_s", "s", "lower", ())]
    return out


def load_spans(paths) -> tuple[list[dict], set]:
    """Spans of several traced invocations, parents re-indexed into
    one list, plus the hooks any of them reported missing."""
    spans, missing = [], set()
    for path in paths:
        data = json.loads(Path(path).read_text())
        offset = len(spans)
        for span in data["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
        missing.update(data["missing"])
    return spans, missing


def _caller(spans, span) -> str | None:
    """``fit`` or ``gof``: the nearest enclosing fit or gof span."""
    parent = span["parent"]
    while parent is not None:
        name = spans[parent]["name"]
        if name == "fitting.fit":
            return "fit"
        if name.startswith("gof."):
            return "gof"
        parent = spans[parent]["parent"]
    return None


def _group(spans, span) -> str:
    """Key of a span in the self-time split."""
    name, attrs = span["name"], span.get("attrs", {})
    if name == "samplers.sample":
        return f"{name}.{attrs.get('family')}.{_caller(spans, span)}"
    if name in ("fitting.fit", "gof.replicate_curves"):
        return f"{name}.{attrs.get('family')}"
    return name


def self_time_split(spans) -> dict:
    """Self time per group (span duration minus the part its child
    spans cover), largest first, with the traced total."""
    child_time = [0.0] * len(spans)
    total = 0.0
    for span in spans:
        dur = span["end"] - span["start"]
        if span["parent"] is None:
            total += dur
        else:
            child_time[span["parent"]] += dur
    groups: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        key = _group(spans, span)
        self_s = span["end"] - span["start"] - covered
        groups[key] = groups.get(key, 0.0) + self_s
    ordered = dict(sorted(groups.items(), key=lambda kv: -kv[1]))
    return {"total_s": total, "self_s": ordered}


def layer_values(spans, evaluations: dict, out_bytes: int) -> dict:
    """Per-layer values of one traced run (all but ``trace.overhead_s``).

    ``.s`` values are inclusive wall time of the layer's calls; a
    sampler or estimator has no traced children, so there it equals
    self time.  ``evaluations`` maps family to the evaluation count in
    the run's report diagnostics.
    """
    values = {name: 0.0 if unit == "s" else 0
              for name, unit, *_ in per_layer_catalogue()}

    def add(key, amount):
        # A family outside FAMILIES, or one the hook could not read,
        # has no metric.
        if key in values:
            values[key] += amount

    for span in spans:
        name, attrs = span["name"], span.get("attrs", {})
        dur = span["end"] - span["start"]
        if name == "samplers.sample":
            caller = _caller(spans, span)
            if caller is None:
                continue
            base = f"{name}.{attrs.get('family')}.{caller}"
            add(f"{base}.s", dur)
            add(f"{base}.calls", 1)
            add(f"{base}.points", attrs.get("points", 0))
        elif name.startswith("estimators.estimate_"):
            add(f"{name}.s", dur)
            add(f"{name}.calls", 1)
            if name.endswith("_F"):
                add(f"{name}.test_points", attrs.get("test_points", 0))
            elif name.endswith("_K"):
                values[f"{name}.max_n"] = max(values[f"{name}.max_n"],
                                              attrs.get("n", 0))
        elif name == "models.theoretical_curve":
            add(f"{name}.s", dur)
            add(f"{name}.calls", 1)
        elif name in ("fitting.fit", "gof.replicate_curves"):
            add(f"{name}.{attrs.get('family')}.s", dur)
        elif name == "fitting.contrast":
            add("fitting.contrast.calls", 1)
        elif name in ENVELOPE_SPANS:
            add("gof.envelopes.s", dur)
        elif name.startswith(("geom.", "pipeline.")):
            add(f"{name}.s", dur)
            if name == "geom.ingest":
                add("geom.ingest.rows", attrs.get("rows", 0))
                add("geom.ingest.rejects", attrs.get("rejects", 0))
    for fam in FAMILIES:
        count = evaluations.get(fam, 0)
        values[f"fitting.fit.{fam}.evaluations"] = count
        if count:
            values[f"fitting.fit.{fam}.s_per_eval"] = (
                values[f"fitting.fit.{fam}.s"] / count)
    values["pipeline.write_outputs.bytes"] = out_bytes
    return values


def layer_metrics(runs: list[dict], overhead_s: float,
                  missing: set) -> tuple[dict, list[str]]:
    """Median of each per-layer value over the traced runs, as the
    ``metrics`` object; metrics whose hook is missing are left out and
    returned by name."""
    metrics, dropped = {}, []
    for name, unit, _, needs in per_layer_catalogue():
        if any(hook in missing for hook in needs):
            dropped.append(name)
            continue
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(run[name] for run in runs)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, dropped


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
