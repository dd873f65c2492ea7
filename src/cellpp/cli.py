"""Command-line front end.

Subcommands mirror the pipeline stages so each step can be run and
inspected on its own; ``pipeline`` chains them all.  Exit codes: 0
success, 2 configuration problem, 3 data problem, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import CellppError, ConfigError, DataError, NumericalError
from .estimators import (
    CURVE_KINDS,
    RadiusGrid,
    clark_evans_index,
    empirical_curves,
    write_curves_csv,
)
from .fitting import FAMILY_NAMES, ContrastSpec, fit
from .geom import (
    Disk,
    ProjectionSpec,
    Rectangle,
    clip,
    ingest,
    intensity_estimate,
    project,
    quadrat_stationarity,
)
from .gof import (
    global_envelope,
    pointwise_envelope,
    replicate_curves,
    verdict,
    write_band_csv,
)
from .models import model_from_dict, model_to_dict, theoretical_curve
from .pipeline import (
    PipelineConfig,
    auto_window,
    emit_table_one_regression,
    projection_from_dict,
    read_points_csv,
    run_pipeline,
    write_points_csv,
)
from .rng import RngStreamSpec
from .samplers import sample


def _parse_window(text: str):
    """``x0,x1,y0,y1`` for a rectangle or ``disk:cx,cy,r``."""
    try:
        if text.startswith("disk:"):
            cx, cy, r = (float(v) for v in text[5:].split(","))
            return Disk(center_x=cx, center_y=cy, radius=r)
        x0, x1, y0, y1 = (float(v) for v in text.split(","))
        return Rectangle(x_min=x0, x_max=x1, y_min=y0, y_max=y1)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse window {text!r}: expected "
                          f"'x0,x1,y0,y1' or 'disk:cx,cy,r'") from exc


def _load_json_arg(text: str) -> dict:
    """A JSON object given inline or as ``@path``."""
    try:
        if text.startswith("@"):
            return json.loads(Path(text[1:]).read_text())
        return json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON argument {text!r}: {exc}")


def _model_from_args(args) -> object:
    if args.model is not None:
        return model_from_dict(_load_json_arg(args.model))
    if args.family is None or args.intensity is None:
        raise ConfigError("give either --model JSON or --family with "
                          "--intensity (plus shape flags)")
    params = {"intensity": args.intensity}
    if args.beta is not None:
        params["beta"] = args.beta
    if args.scale is not None:
        params["scale"] = args.scale
    if args.shape is not None:
        params["shape"] = args.shape
    return model_from_dict({"model": args.family, "params": params})


def _pattern_from_args(args):
    """Planar CSV plus window flags -> clipped pattern."""
    points, rejects = read_points_csv(args.input, x_column=args.x_column,
                                      y_column=args.y_column)
    if args.window is not None:
        window = _parse_window(args.window)
    else:
        window = auto_window(points, args.min_points)
    pattern = clip(points, window, on_duplicates=args.duplicates)
    return pattern, rejects


def _grid_from_args(args, window) -> RadiusGrid:
    try:
        return RadiusGrid.default(window, args.grid_points)
    except ValueError as exc:
        raise ConfigError(f"--grid-points {args.grid_points}: {exc}") from exc


def _add_pattern_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="planar points CSV")
    p.add_argument("--x-column", default="x")
    p.add_argument("--y-column", default="y")
    p.add_argument("--window", default=None,
                   help="'x0,x1,y0,y1' or 'disk:cx,cy,r'; default: "
                        "auto square around the centroid")
    p.add_argument("--min-points", type=int, default=80,
                   help="auto-window point target")
    p.add_argument("--duplicates", choices=("reject", "jitter"),
                   default="reject")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default=None,
                   help="model JSON (inline or @file)")
    p.add_argument("--family", choices=FAMILY_NAMES, default=None)
    p.add_argument("--intensity", type=float, default=None,
                   help="points per square metre")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--shape", type=float, default=None)


def _add_contrast_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--statistic", choices=("K", "F", "G", "J"), default="F")
    p.add_argument("--exponent-p", type=float, default=1.0, dest="p")
    p.add_argument("--exponent-q", type=float, default=2.0, dest="q")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--raw-sum", action="store_true",
                   help="index-sum contrast instead of step-weighted")


def _cspec_from_args(args) -> ContrastSpec:
    return ContrastSpec(statistic=args.statistic, p=args.p, q=args.q,
                        r_min=args.r_min, r_max=args.r_max,
                        step_weighted=not args.raw_sum)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    result = ingest(args.input, id_column=args.id_column,
                    lon_column=args.lon_column, lat_column=args.lat_column,
                    operator_column=args.operator_column,
                    technology_column=args.technology_column,
                    operator=args.operator, technology=args.technology)
    if not result.records:
        raise DataError(f"{args.input}: no records left after filtering")
    if args.projection == "local-tangent":
        lons = [r.coordinate.lon_deg for r in result.records]
        lats = [r.coordinate.lat_deg for r in result.records]
        spec = ProjectionSpec.local_tangent(
            args.origin_lon if args.origin_lon is not None
            else float(np.mean(lons)),
            args.origin_lat if args.origin_lat is not None
            else float(np.mean(lats)))
    else:
        spec = ProjectionSpec.lambert_93()
    points = project([r.coordinate for r in result.records], spec,
                     record_ids=[r.record_id for r in result.records])
    write_points_csv(args.output, points)
    if args.rejects is not None:
        with open(args.rejects, "w") as fh:
            for row in result.rejects:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{len(result.records)} records projected to {args.output}; "
          f"{len(result.rejects)} rejected")
    return 0


def _cmd_simulate(args) -> int:
    spec = _model_from_args(args)
    window = _parse_window(args.window)
    pattern = sample(spec, window, RngStreamSpec(args.seed))
    write_points_csv(args.output, pattern.points)
    sidecar = {"model": model_to_dict(spec), "seed": args.seed,
               "window": window.to_dict(), "n_points": pattern.n}
    Path(args.output).with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"{pattern.n} points from {spec.name} written to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    pattern, _ = _pattern_from_args(args)
    grid = _grid_from_args(args, pattern.window)
    curves = empirical_curves(pattern, grid,
                              seed=RngStreamSpec(args.seed))
    write_curves_csv(args.output, [curves[k] for k in ("K", "F", "G", "J")])
    lam = intensity_estimate(pattern)
    summary = {"n_points": pattern.n,
               "intensity": lam.value, "intensity_se": lam.se,
               "clark_evans": clark_evans_index(pattern)}
    try:
        screen = quadrat_stationarity(pattern)
        summary["quadrat_p_value"] = screen.p_value
    except CellppError as exc:
        summary["quadrat_p_value"] = None
        summary["quadrat_skipped"] = str(exc)
    print(json.dumps(summary, sort_keys=True, indent=2))
    print(f"curves written to {args.output}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    pattern, _ = _pattern_from_args(args)
    result = fit(pattern, args.family, _cspec_from_args(args),
                 max_evaluations=args.max_evaluations,
                 estimator_seed=RngStreamSpec(args.seed))
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    if args.output is not None:
        Path(args.output).write_text(text + "\n")
    print(text)
    return 0


def _cmd_gof(args) -> int:
    kinds = [kind.strip() for kind in args.statistics.split(",")]
    if not set(kinds) <= set(CURVE_KINDS):
        raise ConfigError(f"--statistics {args.statistics!r}: expected a "
                          f"comma-separated subset of {','.join(CURVE_KINDS)}")
    pattern, _ = _pattern_from_args(args)
    spec = _model_from_args(args)
    grid = _grid_from_args(args, pattern.window)
    curves = empirical_curves(pattern, grid, seed=RngStreamSpec(args.seed))
    reps = replicate_curves(spec, pattern.window, args.replicates, grid,
                            stream=RngStreamSpec(args.seed, 1),
                            n_test=curves["F"].meta["n_test"])
    out = {}
    for kind in kinds:
        if args.mode == "global":
            band = global_envelope(reps[kind],
                                   theoretical_curve(kind, spec, grid))
        else:
            band = pointwise_envelope(reps[kind], grid, kind)
        v = verdict(band, curves[kind], r_max=args.r_max)
        out[kind] = v.to_dict()
        out[kind]["significance"] = band.significance
        if args.bands_dir is not None:
            band_dir = Path(args.bands_dir)
            band_dir.mkdir(parents=True, exist_ok=True)
            write_band_csv(band_dir / f"{spec.name}_{kind}_{args.mode}.csv",
                           band)
    print(json.dumps({"model": model_to_dict(spec), "verdicts": out},
                     sort_keys=True, indent=2))
    return 0


def _cmd_report(args) -> int:
    reports = [json.loads(Path(p).read_text()) for p in args.reports]
    sys.stdout.write(emit_table_one_regression(reports))
    return 0


def _cmd_pipeline(args) -> int:
    config_dict = _load_json_arg(args.config) if args.config else {}
    overrides = {
        "input": args.input,
        "planar": True if args.planar else None,
        "master_seed": args.seed,
        "place": args.place,
        "technology": args.technology,
    }
    if args.families is not None:
        overrides["families"] = [f.strip() for f in args.families.split(",")]
    for key, value in overrides.items():
        if value is not None:
            config_dict[key] = value
    config = PipelineConfig.from_dict(config_dict)
    report = run_pipeline(config, out_dir=args.out)
    for family, entry in report.families.items():
        marks = " ".join(f"{k}:{'ok' if v['passed'] else 'FAIL'}"
                         for k, v in sorted(entry["verdicts"].items()))
        print(f"{family:<14} contrast={entry['fit']['contrast_value']:.4g} "
              f"{marks}")
    print(f"winner: {report.winner or 'none'}"
          + (" (near-Poisson data)" if report.near_poisson else ""))
    if args.out:
        print(f"outputs in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellpp",
        description="Point-process analysis of antenna deployments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="registry CSV -> planar points CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--id-column", default="id")
    p.add_argument("--lon-column", default="lon")
    p.add_argument("--lat-column", default="lat")
    p.add_argument("--operator-column", default=None)
    p.add_argument("--technology-column", default=None)
    p.add_argument("--operator", default=None, help="keep this operator")
    p.add_argument("--technology", default=None, help="keep this technology")
    p.add_argument("--projection", choices=("lambert-93", "local-tangent"),
                   default="lambert-93")
    p.add_argument("--origin-lon", type=float, default=None)
    p.add_argument("--origin-lat", type=float, default=None)
    p.add_argument("--rejects", default=None, help="rejects JSONL path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("simulate", help="sample a model into a points CSV")
    _add_model_args(p)
    p.add_argument("--window", required=True, help="'x0,x1,y0,y1' or "
                                                   "'disk:cx,cy,r'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stats", help="empirical summary curves of a CSV")
    _add_pattern_args(p)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="curves CSV path")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fit", help="minimum-contrast fit of one family")
    _add_pattern_args(p)
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    _add_contrast_args(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the F test locations")
    p.add_argument("--max-evaluations", type=int, default=500)
    p.add_argument("--output", default=None, help="also write JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("gof", help="envelope test of a model on a CSV")
    _add_pattern_args(p)
    _add_model_args(p)
    p.add_argument("--statistics", default="K,F,G,J",
                   help="comma-separated subset of K,F,G,J")
    p.add_argument("--mode", choices=("pointwise", "global"),
                   default="pointwise")
    p.add_argument("--replicates", type=int, default=39)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-max", type=float, default=None,
                   help="test radii up to this only")
    p.add_argument("--bands-dir", default=None)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("report", help="compare fitted retentions against "
                                      "published reference values")
    p.add_argument("reports", nargs="*", help="report.json paths")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="run every stage from a config")
    p.add_argument("--config", default=None, help="JSON config (inline "
                                                  "or @file)")
    p.add_argument("--input", default=None)
    p.add_argument("--planar", action="store_true",
                   help="input is already planar x,y metres")
    p.add_argument("--families", default=None,
                   help="comma-separated family names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--place", default=None)
    p.add_argument("--technology", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CellppError as exc:
        stage = getattr(exc, "stage", None)
        where = f" [{stage}]" if stage else ""
        if isinstance(exc, NumericalError):
            label, code = "numerical failure", 4
        elif isinstance(exc, DataError):
            label, code = "data error", 3
        else:
            label, code = "config error", 2
        print(f"{label}{where}: {exc}", file=sys.stderr)
        return code
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
