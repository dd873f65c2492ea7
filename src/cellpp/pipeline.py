"""End-to-end analysis: registry file in, fitted-model report out.

The stages are fixed: read records, project to the plane, choose or
accept a window, clip, screen for gross inhomogeneity, compute the
empirical summary curves, fit each requested family by minimum
contrast, test each fitted model with simulated envelopes, and pick
the winner (lowest F-contrast among families whose four statistics all
stay inside their bands).  Every random draw hangs off one master
seed, so a rerun with the same config and inputs is byte-identical;
wall-clock metadata goes to a sidecar file, never into the report.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CellppError,
    ConfigError,
    DataError,
    DegeneratePatternError,
    InsufficientDataError,
)
from .estimators import (
    CURVE_KINDS,
    RadiusGrid,
    default_test_point_count,
    empirical_curves,
    write_curves_csv,
)
from .fitting import FAMILY_NAMES, ContrastSpec, FitResult, fit
from .geom import (
    PointPattern,
    ProjectionSpec,
    Rectangle,
    clip,
    ingest,
    intensity_estimate,
    project,
    quadrat_stationarity,
    window_from_dict,
)
from .gof import global_envelope, pointwise_envelope, replicate_curves, verdict, write_band_csv
from .rng import RngStreamSpec

# Published retention estimates for 2021-era antenna registries, by
# region and radio technology; used as the reference column of the
# comparison table.  Technologies a source did not fit are absent.
REFERENCE_RETENTION = {
    ("liege", "gsm-900"): 0.91,
    ("liege", "lte-1800"): 0.86,
    ("hainaut", "gsm-900"): 0.15,
    ("hainaut", "umts-900"): 0.18,
    ("hainaut", "lte-1800"): 0.13,
    ("paris", "gsm-900"): 0.95,
    ("paris", "umts-900"): 0.54,
    ("paris", "lte-1800"): 0.31,
    ("paris-east-suburb", "gsm-900"): 0.50,
    ("paris-east-suburb", "umts-900"): 0.67,
    ("paris-east-suburb", "lte-1800"): 0.66,
    ("millevaches", "gsm-900"): 0.17,
    ("millevaches", "umts-900"): 0.83,
}

# Stream-id layout under the master seed.  Families use fixed offsets
# (not list positions) so reordering the config cannot change results.
_STREAM_TEST_POINTS = 1
_STREAM_GOF = {"poisson": 1_000_000, "beta-ginibre": 2_000_000,
               "gauss-dpp": 3_000_000, "cauchy-dpp": 4_000_000}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def _require_known(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(allowed))}")


def projection_from_dict(d: dict | None) -> ProjectionSpec:
    """Resolve a projection config: a named grid, a tangent plane, or
    a fully spelled-out conic."""
    if d is None:
        return ProjectionSpec.lambert_93()
    _require_known(d, {"kind", "origin_lon", "origin_lat", "half_span",
                       "std_parallel_1", "std_parallel_2",
                       "false_easting", "false_northing",
                       "lon_min", "lon_max", "lat_min", "lat_max"},
                   "projection")
    kind = d.get("kind", "lambert-93")
    if kind == "lambert-93":
        return ProjectionSpec.lambert_93()
    if kind == "local-tangent":
        try:
            return ProjectionSpec.local_tangent(
                float(d["origin_lon"]), float(d["origin_lat"]),
                half_span_deg=float(d.get("half_span", 3.0)))
        except KeyError as exc:
            raise ConfigError("local-tangent projection needs origin_lon "
                              "and origin_lat") from exc
    if kind == "lambert-conformal-conic":
        try:
            return ProjectionSpec(
                kind=kind,
                origin_lon_deg=float(d["origin_lon"]),
                origin_lat_deg=float(d["origin_lat"]),
                std_parallel_1_deg=float(d["std_parallel_1"]),
                std_parallel_2_deg=float(d["std_parallel_2"]),
                false_easting_m=float(d.get("false_easting", 0.0)),
                false_northing_m=float(d.get("false_northing", 0.0)),
                lon_min_deg=float(d.get("lon_min", -180.0)),
                lon_max_deg=float(d.get("lon_max", 180.0)),
                lat_min_deg=float(d.get("lat_min", -89.0)),
                lat_max_deg=float(d.get("lat_max", 89.0)))
        except KeyError as exc:
            raise ConfigError(f"conic projection config missing {exc}")
    raise ConfigError(f"unknown projection kind {kind!r}")


@dataclass
class PipelineConfig:
    """Everything a run needs; see ``from_dict`` for the file format."""

    input: str | None = None
    planar: bool = False
    columns: dict = field(default_factory=dict)
    filters: dict = field(default_factory=dict)
    projection: dict | None = None
    window: dict | None = None
    auto_window_min_points: int = 80
    duplicates: str = "reject"
    families: tuple = FAMILY_NAMES
    contrast: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)
    grid_points: int = 512
    # Accepted for old config files and echoed in the report; model
    # curves are exact, so nothing reads them.
    fit_replicates: int = 200
    model_test_points: int = 2000
    max_evaluations: int = 500
    master_seed: int = 0
    output_dir: str | None = None
    place: str | None = None
    technology: str | None = None

    def __post_init__(self):
        self.families = tuple(self.families)
        for name in self.families:
            if name not in FAMILY_NAMES:
                raise ConfigError(f"unknown family {name!r}; "
                                  f"choose from {FAMILY_NAMES}")
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.duplicates not in ("reject", "jitter"):
            raise ConfigError("duplicates must be 'reject' or 'jitter'")
        _require_known(self.columns,
                       {"id", "lon", "lat", "x", "y", "operator",
                        "technology"}, "columns")
        _require_known(self.filters, {"operator", "technology"}, "filters")
        _require_known(self.envelope, {"replicates", "mode", "gate"},
                       "envelope")
        mode = self.envelope.get("mode", "both")
        if mode not in ("pointwise", "global", "both"):
            raise ConfigError("envelope mode must be pointwise, global "
                              "or both")
        # The global band is the whole-curve test with exact size, so
        # it is the default pass/fail gate; pointwise bands are
        # per-radius diagnostics.
        gate = self.envelope.get("gate",
                                 "pointwise" if mode == "pointwise"
                                 else "global")
        if gate not in ("pointwise", "global"):
            raise ConfigError("envelope gate must be pointwise or global")
        if mode != "both" and gate != mode:
            raise ConfigError(f"envelope gate {gate!r} needs mode "
                              f"{gate!r} or 'both'")
        replicates = int(self.envelope.get("replicates", 39))
        self.envelope = {"replicates": replicates, "mode": mode,
                         "gate": gate}
        _require_known(self.contrast,
                       {"statistic", "p", "q", "r_min", "r_max",
                        "step_weighted"}, "contrast")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        if self.auto_window_min_points < 2:
            raise ConfigError("auto_window_min_points must be at least 2")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        _require_known(d, {f.name for f in fields(cls)}, "config")
        return cls(**d)

    def contrast_spec(self) -> ContrastSpec:
        return ContrastSpec(**self.contrast)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Windowing and point IO
# ---------------------------------------------------------------------------

def auto_window(points, min_points: int = 80) -> Rectangle:
    """Smallest axis-aligned square centred on the centroid that holds
    at least ``min_points`` points.

    Compact squares keep the border correction mild; the side is set by
    the ``min_points``-th largest Chebyshev distance from the centroid.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n < min_points:
        raise InsufficientDataError(
            f"auto window needs {min_points} points; only {n} available")
    cx, cy = pts.mean(axis=0)
    cheb = np.maximum(np.abs(pts[:, 0] - cx), np.abs(pts[:, 1] - cy))
    half = float(np.partition(cheb, min_points - 1)[min_points - 1])
    half *= 1.0 + 1e-9
    if half <= 0.0:
        raise DegeneratePatternError(
            "the nearest points to the centroid are all coincident; "
            "cannot build a window")
    return Rectangle(cx - half, cx + half, cy - half, cy + half)


def write_points_csv(path, points) -> None:
    """Planar points as two-column CSV (x, y in metres)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in pts:
            writer.writerow([repr(float(x)), repr(float(y))])


def read_points_csv(path, x_column: str = "x", y_column: str = "y"):
    """Planar points from CSV; returns (points, rejects)."""
    from .errors import EmptyInputError, SchemaError

    points, rejects = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (x_column, y_column):
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}; "
                                  f"header has {header}")
        for line_no, row in enumerate(reader, start=2):
            try:
                points.append((float(row[x_column]), float(row[y_column])))
            except (TypeError, ValueError):
                rejects.append({"line": line_no,
                                "reason": "unparsable coordinate",
                                "row": dict(row)})
    if not points and not rejects:
        raise EmptyInputError(f"{path}: no data rows")
    if not points:
        first = rejects[0]
        raise DataError(f"{path}: all {len(rejects)} rows rejected; first "
                        f"at line {first['line']} ({first['reason']}): "
                        f"{first['row']}")
    return np.asarray(points, dtype=float).reshape(-1, 2), rejects


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Plain JSON types only; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass
class Report:
    """Run outcome: dataset summary, per-family fits and verdicts, and
    the winning family (or none)."""

    config: dict
    dataset: dict
    stationarity: dict | None
    families: dict
    winner: str | None
    near_poisson: bool
    version: str = __version__
    # Working objects for the output writers; never serialized.
    curves: dict | None = field(default=None, repr=False)
    fit_results: dict | None = field(default=None, repr=False)
    bands: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return _jsonable({
            "config": self.config,
            "dataset": self.dataset,
            "stationarity": self.stationarity,
            "families": self.families,
            "winner": self.winner,
            "near_poisson": self.near_poisson,
            "version": self.version,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _stage(name: str):
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, CellppError):
                exc.stage = name
            return False

    return _StageContext()


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def load_pattern(config: PipelineConfig):
    """Stages 1-3: records to a clipped planar pattern.

    Returns (pattern, info) where info holds counts and the reject
    rows for the audit file.
    """
    if config.input is None:
        raise ConfigError("config has no input path")
    cols = config.columns
    with _stage("ingest"):
        if config.planar:
            points, rejects = read_points_csv(
                config.input, x_column=cols.get("x", "x"),
                y_column=cols.get("y", "y"))
            n_read = points.shape[0] + len(rejects)
        else:
            result = ingest(
                config.input,
                id_column=cols.get("id", "id"),
                lon_column=cols.get("lon", "lon"),
                lat_column=cols.get("lat", "lat"),
                operator_column=cols.get("operator"),
                technology_column=cols.get("technology"),
                operator=config.filters.get("operator"),
                technology=config.filters.get("technology"))
            rejects = result.rejects
            n_read = len(result.records) + len(rejects)
            if not result.records:
                raise DataError(f"{config.input}: no records left after "
                                f"filtering")
    with _stage("project"):
        if not config.planar:
            projection = projection_from_dict(config.projection)
            points = project([r.coordinate for r in result.records],
                             projection,
                             record_ids=[r.record_id for r in result.records])
    with _stage("window"):
        if config.window is not None:
            try:
                window = window_from_dict(config.window)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad window description "
                                  f"{config.window!r}: {exc!r}") from exc
        else:
            window = auto_window(points, config.auto_window_min_points)
    with _stage("clip"):
        pattern = clip(points, window, on_duplicates=config.duplicates)
    info = {"n_read": int(n_read), "n_projected": int(points.shape[0]),
            "n_clipped": int(pattern.n), "rejects": rejects}
    return pattern, info


def analyze_pattern(config: PipelineConfig, pattern: PointPattern,
                    info: dict | None = None) -> Report:
    """Stages 4-8 on an already-built pattern."""
    info = info or {}
    base = RngStreamSpec(master_seed=config.master_seed)
    lam = intensity_estimate(pattern)
    window = pattern.window

    with _stage("stationarity"):
        stationarity = None
        try:
            screen = quadrat_stationarity(pattern)
            stationarity = {"statistic": screen.statistic,
                            "dof": screen.dof,
                            "p_value": screen.p_value,
                            "grid_size": screen.grid_size,
                            "rejected": bool(screen.p_value < 0.01)}
            if screen.p_value < 0.01:
                warnings.warn(
                    f"quadrat screen rejects homogeneity "
                    f"(p={screen.p_value:.2e}); the stationary models "
                    f"below describe an average, interpret with care",
                    stacklevel=2)
        except InsufficientDataError as exc:
            stationarity = {"skipped": str(exc)}

    with _stage("curves"):
        grid = RadiusGrid.default(window, config.grid_points)
        n_test = default_test_point_count(pattern.n)
        curves = empirical_curves(
            pattern, grid, seed=base.substream(_STREAM_TEST_POINTS),
            n_test=n_test)

    cspec = config.contrast_spec()
    mode = config.envelope["mode"]
    gate = config.envelope["gate"]
    replicates = config.envelope["replicates"]
    # Verdicts cover the fitted range only: beyond it the model was
    # never asked to match and the border-corrected curves get noisy.
    verdict_r_max = cspec.resolved(grid, window).r_max
    families = {}
    fit_results: dict[str, FitResult] = {}
    all_bands: dict = {}
    for family in config.families:
        with _stage(f"fit:{family}"):
            res = fit(pattern, family, cspec, curves=curves,
                      max_evaluations=config.max_evaluations)
            fit_results[family] = res
        with _stage(f"gof:{family}"):
            reps = replicate_curves(
                res.model, window, replicates, grid,
                stream=base.substream(_STREAM_GOF[family]), n_test=n_test)
            verdicts: dict[str, dict] = {m: {} for m in
                                         ("pointwise", "global")}
            for kind in CURVE_KINDS:
                if mode in ("pointwise", "both"):
                    band = pointwise_envelope(reps[kind], grid, kind)
                    all_bands[(family, kind, "pointwise")] = band
                    verdicts["pointwise"][kind] = verdict(
                        band, curves[kind], r_max=verdict_r_max)
                if mode in ("global", "both"):
                    band = global_envelope(reps[kind],
                                           res.model_curves[kind])
                    all_bands[(family, kind, "global")] = band
                    verdicts["global"][kind] = verdict(
                        band, curves[kind], r_max=verdict_r_max)
            all_pass = all(v.passed for v in verdicts[gate].values())
        families[family] = {
            "fit": res.to_dict(),
            "gate": gate,
            "verdicts": {k: v.to_dict()
                         for k, v in verdicts[gate].items()},
            "diagnostic_verdicts": {
                m: {k: v.to_dict() for k, v in verdicts[m].items()}
                for m in verdicts if m != gate and verdicts[m]},
            "all_pass": bool(all_pass),
        }

    with _stage("report"):
        candidates = [
            (families[f]["fit"]["distances"]["F"], f)
            for f in config.families
            if families[f]["all_pass"]
            and families[f]["fit"]["distances"]["F"] is not None
        ]
        winner = min(candidates)[1] if candidates else None
        repulsive = [f for f in config.families if f != "poisson"]
        near_poisson = bool(repulsive) and all(
            fit_results[f].diagnostics["near_poisson"] for f in repulsive)

        dataset = {
            "n_points": int(pattern.n),
            "n_read": info.get("n_read"),
            "n_rejected": len(info.get("rejects", [])),
            "window": window.to_dict(),
            "intensity": lam.value,
            "intensity_se": lam.se,
            "grid_points": int(grid.size),
            "grid_r_max": float(grid.r[-1]),
            "test_points": int(n_test),
        }
        report = Report(config=config.to_dict(), dataset=dataset,
                        stationarity=stationarity, families=families,
                        winner=winner, near_poisson=near_poisson,
                        curves=curves, fit_results=fit_results,
                        bands=all_bands)
    return report


def write_outputs(report: Report, out_dir, rejects=None) -> None:
    """Write report.json, curve and band CSVs, the reject audit file,
    and the wall-clock sidecar."""
    out = Path(out_dir)
    (out / "curves").mkdir(parents=True, exist_ok=True)
    (out / "bands").mkdir(parents=True, exist_ok=True)

    (out / "report.json").write_text(report.to_json())

    if report.curves:
        write_curves_csv(out / "curves" / "empirical.csv",
                         [report.curves[k] for k in CURVE_KINDS])
    for name, res in (report.fit_results or {}).items():
        if res.model_curves:
            write_curves_csv(out / "curves" / f"model_{name}.csv",
                             [res.model_curves[k] for k in CURVE_KINDS])
    for (name, kind, mode), band in (report.bands or {}).items():
        write_band_csv(out / "bands" / f"{name}_{kind}_{mode}.csv", band)

    with open(out / "rejects.jsonl", "w") as fh:
        for row in rejects or []:
            fh.write(json.dumps(_jsonable(row), sort_keys=True) + "\n")

    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "version": __version__}
    (out / "run_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def run_pipeline(config: PipelineConfig, out_dir=None) -> Report:
    """All stages; writes outputs when a directory is configured."""
    pattern, info = load_pattern(config)
    report = analyze_pattern(config, pattern, info)
    target = out_dir or config.output_dir
    if target is not None:
        write_outputs(report, target, rejects=info.get("rejects"))
    return report


# ---------------------------------------------------------------------------
# Reference comparison table
# ---------------------------------------------------------------------------

def emit_table_one_regression(reports) -> str:
    """Fitted retention per report next to the published reference
    value for the same (place, technology); "/" marks cells the
    reference source did not fit.

    Accepts Report objects or loaded report.json dicts.
    """
    header = f"{'place':<20} {'technology':<12} {'fitted':>8} " \
             f"{'reference':>10} {'abs diff':>9}"
    lines = [header, "-" * len(header)]
    for report in reports:
        if isinstance(report, Report):
            config, families = report.config, report.families
        else:
            config = report.get("config", {})
            families = report.get("families", {})
        place = (config.get("place") or "?")
        tech = (config.get("technology") or "?")
        entry = families.get("beta-ginibre")
        if entry is None:
            fitted = None
        else:
            fitted = entry["fit"]["params"].get("beta")
        ref = REFERENCE_RETENTION.get((place, tech))
        fitted_s = "/" if fitted is None else f"{fitted:.2f}"
        ref_s = "/" if ref is None else f"{ref:.2f}"
        diff_s = ("" if fitted is None or ref is None
                  else f"{abs(fitted - ref):.2f}")
        lines.append(f"{place:<20} {tech:<12} {fitted_s:>8} "
                     f"{ref_s:>10} {diff_s:>9}")
    return "\n".join(lines) + "\n"
