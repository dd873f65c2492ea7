"""End-to-end analysis: registry file in, fitted-model report out.

The stages are fixed: read records, project to the plane, choose or
accept a window, clip, screen for gross inhomogeneity, compute the
empirical summary curves, fit each requested family by minimum
contrast, test each fitted model with simulated envelopes, and pick
the winner (lowest F-contrast among families whose four statistics all
stay inside their global bands).  Every random draw hangs off one master
seed, so a rerun with the same config and inputs is byte-identical;
wall-clock metadata goes to a sidecar file, never into the report.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
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
    clark_evans_index,
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
    read_points_csv,
    window_from_dict,
    write_csv,
)
from .gof import (MIN_REPLICATES, RECOMMENDED_REPLICATES, gof,
                  replicate_curves, write_bands)
from .models import theoretical_curve
from .rng import RngStreamSpec
from .samplers import check_samplable

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

# Stream-id layout under the master seed.  Families use fixed offsets,
# not positions in the config or in ``models.FAMILIES``: a reorder of
# either must not move a family's stream.
_STREAM_TEST_POINTS = 1
_STREAM_GOF = {"poisson": 1_000_000, "beta-ginibre": 2_000_000,
               "gauss-dpp": 3_000_000, "cauchy-dpp": 4_000_000}

# Most envelope replicates times radii a run may ask for: its replicate
# curves hold four values per pair.  A run at the bound peaked at about
# 0.6 GiB (see CHANGES.md).
CURVE_ENTRY_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _require_known(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(allowed)) or 'none'}")


# The keys besides "kind" that each projection kind reads; a conic's
# are the spec's own fields.
_PROJECTION_KEYS = {
    "lambert-93": set(),
    "local-tangent": {"origin_lon", "origin_lat", "half_span"},
    "lambert-conformal-conic": {f.name for f in fields(ProjectionSpec)}
                               - {"kind"},
}


def projection_from_dict(d: dict | None, origin=None) -> ProjectionSpec:
    """Resolve a projection config: a named grid, a tangent plane, or
    a fully spelled-out conic.  ``origin``, a (lon, lat) pair, stands
    in for a tangent plane's missing origin.  A key the kind does not
    read is a ConfigError, so that an origin given to the named grid
    is not silently dropped."""
    d = d or {}
    kind = d.get("kind", "lambert-93")
    if not isinstance(kind, str) or kind not in _PROJECTION_KEYS:
        raise ConfigError(f"unknown projection kind {kind!r}")
    _require_known(d, {"kind"} | _PROJECTION_KEYS[kind],
                   f"{kind} projection")
    numbers = {k: v for k, v in d.items() if k != "kind"}
    try:
        if kind == "lambert-93":
            return ProjectionSpec.lambert_93()
        if kind == "local-tangent":
            if origin is not None:
                numbers = {"origin_lon": origin[0], "origin_lat": origin[1],
                           **numbers}
            return ProjectionSpec.local_tangent(**numbers)
        return ProjectionSpec(kind=kind, **numbers)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} projection config {d!r}: "
                          f"{exc}") from exc


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
    master_seed: int = 0
    output_dir: str | None = None
    place: str | None = None
    technology: str | None = None

    def __post_init__(self):
        for name, kinds in (("columns", dict), ("filters", dict),
                            ("envelope", dict), ("contrast", dict),
                            ("projection", (dict, type(None))),
                            ("window", (dict, type(None))),
                            ("families", (list, tuple)),
                            ("input", (str, type(None))),
                            ("output_dir", (str, type(None))),
                            ("place", (str, type(None))),
                            ("technology", (str, type(None))),
                            ("planar", bool)):
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} has the wrong type: "
                                  f"{getattr(self, name)!r}")
        self.families = tuple(self.families)
        for i, name in enumerate(self.families):
            if name not in FAMILY_NAMES:
                raise ConfigError(f"unknown family {name!r}; "
                                  f"choose from {FAMILY_NAMES}")
            if name in self.families[:i]:
                raise ConfigError(f"family {name!r} is listed twice")
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.duplicates not in ("reject", "jitter"):
            raise ConfigError("duplicates must be 'reject' or 'jitter'")
        _require_known(self.columns,
                       {"id", "lon", "lat", "x", "y", "operator",
                        "technology"}, "columns")
        # planar input has no operator or technology to filter on
        _require_known(self.filters, () if self.planar
                       else {"operator", "technology"},
                       "planar filters" if self.planar else "filters")
        for key in self.filters:
            # without its column, ingest reads every row's value as ""
            if key not in self.columns:
                raise ConfigError(f"filters.{key} needs the registry column "
                                  f"that holds it: set columns.{key} "
                                  f"(--{key}-column)")
        _require_known(self.envelope, {"replicates"}, "envelope")
        replicates = _require_int(self.envelope.get("replicates",
                                                    RECOMMENDED_REPLICATES),
                                  "envelope replicates", MIN_REPLICATES)
        self.envelope = {"replicates": replicates}
        _require_known(self.contrast, {f.name for f in fields(ContrastSpec)},
                       "contrast")
        try:
            # not a field: the report echoes the config as given
            self.cspec = ContrastSpec(**self.contrast)
        except TypeError as exc:
            raise ConfigError(f"bad contrast {self.contrast!r}: "
                              f"{exc}") from exc
        # a bad projection fails before ingest; load_points resolves it
        # once the origin an originless tangent plane centres on is known
        projection_from_dict(self.projection, origin=(0.0, 0.0))
        self.grid_points = _require_int(self.grid_points, "grid_points", 2)
        if replicates * self.grid_points > CURVE_ENTRY_BUDGET:
            raise ConfigError(
                f"{replicates} envelope replicates on {self.grid_points} "
                f"radii exceed the bound of {CURVE_ENTRY_BUDGET:,} "
                f"replicate-radius pairs")
        self.auto_window_min_points = _require_int(
            self.auto_window_min_points, "auto_window_min_points", 2)
        self.master_seed = _require_int(self.master_seed, "master_seed", 0)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {d!r}")
        _require_known(d, {f.name for f in fields(cls)}, "config")
        return cls(**d)

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
    # finite points far apart can overflow the centroid or the area
    with np.errstate(over="ignore", invalid="ignore"):
        cx, cy = pts.mean(axis=0).tolist()
        cheb = np.maximum(np.abs(pts[:, 0] - cx), np.abs(pts[:, 1] - cy))
    half = float(np.partition(cheb, min_points - 1)[min_points - 1])
    half *= 1.0 + 1e-9
    if half <= 0.0:
        raise DegeneratePatternError(
            "the nearest points to the centroid are all coincident; "
            "cannot build a window")
    try:
        return Rectangle(cx - half, cx + half, cy - half, cy + half)
    except ValueError as exc:
        raise DataError(f"auto window around the centroid: {exc}") from exc


def write_points_csv(path, points) -> None:
    """Planar points as two-column CSV (x, y in metres)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    write_csv(path, ["x", "y"], [[pts[:, 0], pts[:, 1]]])


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Plain JSON types only; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    return obj.item() if isinstance(obj, np.generic) else obj


def json_text(obj, one_line: bool = False) -> str:
    """``obj`` as strict JSON text: ``_jsonable`` types, sorted keys,
    no NaN or Infinity; indented by 2, or on one line."""
    return json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False,
                      indent=None if one_line else 2)


def write_rejects_jsonl(path, rejects) -> None:
    """The rejected input rows, one JSON object a line; the extra fields
    of an overlong row (``csv``'s key None) appear under "None"."""
    with open(path, "w") as fh:
        for row in rejects:
            fh.write(json_text(row, one_line=True) + "\n")


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
        return json_text(self.to_dict()) + "\n"


@contextlib.contextmanager
def _stage(name: str):
    """Tag a CellppError raised in the block with the stage name."""
    try:
        yield
    except CellppError as exc:
        exc.stage = name
        raise


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def load_points(config: PipelineConfig):
    """Stages 1-2: the input file to planar points.

    A registry is read, filtered and projected; a local-tangent
    projection with no origin centres on the mean lon/lat of the kept
    records.  Returns (points, info) where info holds counts and the
    reject rows for the audit file.
    """
    if config.input is None:
        raise ConfigError("config has no input path")
    cols = config.columns
    with _stage("ingest"):
        if config.planar:
            points, rejects = read_points_csv(
                config.input, x_column=cols.get("x", "x"),
                y_column=cols.get("y", "y"))
        else:
            ids, lonlat, rejects = ingest(
                config.input,
                id_column=cols.get("id", "id"),
                lon_column=cols.get("lon", "lon"),
                lat_column=cols.get("lat", "lat"),
                operator_column=cols.get("operator"),
                technology_column=cols.get("technology"),
                operator=config.filters.get("operator"),
                technology=config.filters.get("technology"))
            if not ids:
                raise DataError(f"{config.input}: no records left after "
                                f"filtering")
    with _stage("project"):
        if not config.planar:
            # only a tangent plane reads the origin.  np.mean of a column
            # sums pairwise; lonlat.mean(axis=0) adds row by row and can
            # move the last bit
            pspec = projection_from_dict(config.projection, origin=(
                float(np.mean(lonlat[:, 0])), float(np.mean(lonlat[:, 1]))))
            points = project(lonlat, pspec, record_ids=ids)
    # project keeps every record or raises: a row read is a point or a reject
    return points, {"n_read": points.shape[0] + len(rejects),
                    "n_projected": points.shape[0], "rejects": rejects}


def load_pattern(config: PipelineConfig):
    """Stages 1-3: records to a clipped planar pattern; returns
    (pattern, info), with the clipped count added to ``load_points``'s
    info."""
    points, info = load_points(config)
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
    return pattern, {**info, "n_clipped": pattern.n}


def describe(pattern: PointPattern) -> dict:
    """Stage 4: the pattern's count, intensity and Clark-Evans index,
    and under ``stationarity`` the quadrat screen for gross
    inhomogeneity, which warns when it rejects."""
    lam = intensity_estimate(pattern)
    with _stage("stationarity"):
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
    return {"n_points": int(pattern.n), "intensity": lam.value,
            "intensity_se": lam.se, "clark_evans": clark_evans_index(pattern),
            "stationarity": stationarity}


def data_curves(config: PipelineConfig, pattern: PointPattern,
                kinds=CURVE_KINDS) -> dict:
    """Stage 5: the pattern's curves ``kinds`` (J brings F and G) on
    the configured grid; the F test locations come from the master
    seed's test-point stream, as many as ``envelope_test`` gives each
    replicate."""
    with _stage("curves"):
        grid = RadiusGrid.default(pattern.window, config.grid_points,
                                  intensity=pattern.n / pattern.window.area())
        seed = RngStreamSpec(config.master_seed).substream(_STREAM_TEST_POINTS)
        return empirical_curves(pattern, grid, seed=seed,
                                n_test=default_test_point_count(pattern.n),
                                kinds=kinds)


def fit_family(config: PipelineConfig, pattern: PointPattern, family: str,
               curves: dict) -> FitResult:
    """Stage 6, one family: minimum-contrast fit to the data curves."""
    with _stage(f"fit:{family}"):
        return fit(pattern, family, config.cspec, curves=curves)


def envelope_test(config: PipelineConfig, pattern: PointPattern, model,
                  curves: dict, *, model_curves=None, kinds=CURVE_KINDS,
                  r_max: float | None = None):
    """Stage 7, one model: ``gof.gof``'s ``(record, bands)`` for the
    data ``curves`` and replicates drawn on the family's stream, with
    the data's F test-point count; ``model_curves`` are computed when
    not given.  ``r_max`` defaults to the fit range: beyond it the
    model was never asked to match and the border-corrected curves get
    noisy."""
    grid = curves[kinds[0]].grid
    with _stage(f"gof:{model.name}"):
        if r_max is None:
            r_max = config.cspec.resolved(grid, pattern.window).r_max
        reps = replicate_curves(
            model, pattern.window, config.envelope["replicates"], grid,
            stream=RngStreamSpec(config.master_seed).substream(
                _STREAM_GOF[model.name]),
            n_test=default_test_point_count(pattern.n), kinds=kinds)
        if model_curves is None:
            model_curves = {kind: theoretical_curve(kind, model, grid)
                            for kind in reps}
        return gof(reps, curves, model_curves, r_max=r_max)


def analyze_pattern(config: PipelineConfig, pattern: PointPattern,
                    info: dict | None = None) -> Report:
    """Stages 4-8 on an already-built pattern."""
    info = info or {}
    summary = describe(pattern)
    stationarity = summary.pop("stationarity")
    # every family's envelopes draw at the pattern's intensity, whatever
    # the fit, so an unsamplable window fails before the first fit
    for family in config.families:
        with _stage(f"gof:{family}"):
            check_samplable(family, summary["intensity"], pattern.window)
    curves = data_curves(config, pattern)
    grid = curves["F"].grid

    families, fit_results, bands = {}, {}, {}
    for family in config.families:
        res = fit_results[family] = fit_family(config, pattern, family,
                                               curves)
        record, bands[family] = envelope_test(
            config, pattern, res.model, curves, model_curves=res.model_curves)
        families[family] = {"fit": res.to_dict(), **record}

    with _stage("report"):
        candidates = [
            (fit_results[f].cross_distances["F"], f)
            for f in config.families
            if families[f]["all_pass"]
            and math.isfinite(fit_results[f].cross_distances["F"])
        ]
        winner = min(candidates)[1] if candidates else None
        repulsive = [f for f in config.families if f != "poisson"]
        near_poisson = bool(repulsive) and all(
            fit_results[f].diagnostics["near_poisson"] for f in repulsive)

        dataset = {
            **summary,
            "n_read": info.get("n_read"),
            "n_rejected": len(info.get("rejects", [])),
            "window": pattern.window.to_dict(),
            "grid_points": int(grid.size),
            "grid_r_max": float(grid.r[-1]),
            "test_points": default_test_point_count(pattern.n),
        }
        # the input's file name only, so that the same data read from
        # another directory gives the same report bytes
        echo = config.to_dict()
        if config.input is not None:
            echo["input"] = Path(config.input).name
        report = Report(config=echo, dataset=dataset,
                        stationarity=stationarity, families=families,
                        winner=winner, near_poisson=near_poisson,
                        curves=curves, fit_results=fit_results,
                        bands=bands)
    return report


def write_outputs(report: Report, out_dir, rejects=None) -> None:
    """Write report.json, curve and band CSVs, the reject audit file,
    and the wall-clock sidecar."""
    out = Path(out_dir)
    (out / "curves").mkdir(parents=True, exist_ok=True)

    (out / "report.json").write_text(report.to_json())

    if report.curves:
        write_curves_csv(out / "curves" / "empirical.csv",
                         [report.curves[k] for k in CURVE_KINDS])
    for name, res in (report.fit_results or {}).items():
        if res.model_curves:
            write_curves_csv(out / "curves" / f"model_{name}.csv",
                             [res.model_curves[k] for k in CURVE_KINDS])
    for name, bands in (report.bands or {}).items():
        write_bands(out / "bands", name, bands)

    write_rejects_jsonl(out / "rejects.jsonl", rejects or [])

    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "version": __version__}
    (out / "run_meta.json").write_text(json_text(meta) + "\n")


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

def retention_row(report: dict) -> tuple:
    """(place, technology, fitted beta or None) of a loaded report.json;
    a missing or mistyped field raises DataError naming it."""
    if not isinstance(report, dict):
        raise DataError("its top level is not an object")
    name = "config"
    try:
        config = report.get("config", {})
        place = str(config.get("place") or "?")
        tech = str(config.get("technology") or "?")
        name = "families"
        entry = report["families"].get("beta-ginibre")
        name = "families.beta-ginibre.fit.params.beta"
        beta = None if entry is None else entry["fit"]["params"].get("beta")
        # adding 0.0 refuses a string or container with TypeError
        return place, tech, None if beta is None else float(beta + 0.0)
    except (AttributeError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"field {name!r} is missing or has the wrong type: "
                        f"{exc!r}") from exc


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
            report = report.to_dict()
        place, tech, fitted = retention_row(report)
        ref = REFERENCE_RETENTION.get((place, tech))
        fitted_s = "/" if fitted is None else f"{fitted:.2f}"
        ref_s = "/" if ref is None else f"{ref:.2f}"
        diff_s = ("" if fitted is None or ref is None
                  else f"{abs(fitted - ref):.2f}")
        lines.append(f"{place:<20} {tech:<12} {fitted_s:>8} "
                     f"{ref_s:>10} {diff_s:>9}")
    return "\n".join(lines) + "\n"
