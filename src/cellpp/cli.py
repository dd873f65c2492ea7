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

from .errors import CellppError, ConfigError, DataError, NumericalError
from .estimators import CURVE_KINDS, write_curves_csv
from .fitting import FAMILY_NAMES
from .geom import Disk, Rectangle
from .gof import write_band_csv
from .models import model_from_dict, model_to_dict
from .pipeline import (
    PipelineConfig,
    data_curves,
    describe,
    emit_table_one_regression,
    envelope_test,
    fit_family,
    json_text,
    load_pattern,
    load_points,
    retention_row,
    run_pipeline,
    write_points_csv,
    write_rejects_jsonl,
)
from .rng import RngStreamSpec
from .samplers import sample


def _parse_window(text: str):
    """``x0,x1,y0,y1`` for a rectangle or ``disk:cx,cy,r``.  Text that
    does not parse gets the format; values the window refuses, its
    reason."""
    disk = text.startswith("disk:")
    try:
        values = [float(v) for v in text[5 if disk else 0:].split(",")]
    except ValueError:
        values = []
    if len(values) != (3 if disk else 4):
        raise ConfigError(f"cannot parse window {text!r}: expected "
                          f"'x0,x1,y0,y1' or 'disk:cx,cy,r'")
    try:
        return Disk(*values) if disk else Rectangle(*values)
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from exc


def _load_json_arg(text: str) -> dict:
    """A JSON object given inline or as ``@path``."""
    try:
        value = json.loads(Path(text[1:]).read_text()
                           if text.startswith("@") else text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON argument {text!r}: {exc}")
    if not isinstance(value, dict):
        raise ConfigError(f"JSON argument {text!r} is not an object")
    return value


def _model_from_args(args) -> object:
    if args.model is not None:
        return model_from_dict(_load_json_arg(args.model))
    if args.family is None or args.intensity is None:
        raise ConfigError("give either --model JSON or --family with "
                          "--intensity (plus shape flags)")
    shape = {"beta": args.beta, "scale": args.scale, "shape": args.shape}
    params = {"intensity": args.intensity,
              **{k: v for k, v in shape.items() if v is not None}}
    return model_from_dict({"model": args.family, "params": params})


def _load_data(args, kinds=CURVE_KINDS, **settings):
    """Planar CSV plus window flags -> (config, clipped pattern, data
    curves ``kinds``); the config also carries the command's other
    ``settings``."""
    window = (None if args.window is None
              else _parse_window(args.window).to_dict())
    config = PipelineConfig(
        input=args.input, planar=True, window=window,
        columns={"x": args.x_column, "y": args.y_column},
        auto_window_min_points=args.min_points,
        duplicates=args.duplicates, master_seed=args.seed, **settings)
    pattern = load_pattern(config)[0]
    return config, pattern, data_curves(config, pattern, kinds)


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    origin = {"origin_lon": args.origin_lon, "origin_lat": args.origin_lat}
    points, info = load_points(PipelineConfig(
        input=args.input,
        columns={"id": args.id_column, "lon": args.lon_column,
                 "lat": args.lat_column, "operator": args.operator_column,
                 "technology": args.technology_column},
        filters={"operator": args.operator, "technology": args.technology},
        projection={"kind": args.projection,
                    **{k: v for k, v in origin.items() if v is not None}}))
    write_points_csv(args.output, points)
    if args.rejects is not None:
        write_rejects_jsonl(args.rejects, info["rejects"])
    print(f"{info['n_projected']} records projected to {args.output}; "
          f"{len(info['rejects'])} rejected")
    return 0


def _cmd_simulate(args) -> int:
    sidecar_path = Path(args.output).with_suffix(".json")
    if sidecar_path == Path(args.output):
        raise ConfigError(f"--output {args.output}: the .json sidecar "
                          f"would overwrite the points")
    spec = _model_from_args(args)
    window = _parse_window(args.window)
    pattern = sample(spec, window, RngStreamSpec(args.seed))
    write_points_csv(args.output, pattern.points)
    sidecar = {"model": model_to_dict(spec), "seed": args.seed,
               "window": window.to_dict(), "n_points": pattern.n}
    sidecar_path.write_text(json_text(sidecar) + "\n")
    print(f"{pattern.n} points from {spec.name} written to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    _, pattern, curves = _load_data(args, grid_points=args.grid_points)
    write_curves_csv(args.output, [curves[k] for k in CURVE_KINDS])
    print(json_text(describe(pattern)))
    print(f"curves written to {args.output}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    config, pattern, curves = _load_data(args, contrast={
        "statistic": args.statistic, "p": args.p, "q": args.q,
        "r_min": args.r_min, "r_max": args.r_max,
        "step_weighted": not args.raw_sum})
    result = fit_family(config, pattern, args.family, curves)
    text = json_text(result.to_dict())
    if args.output is not None:
        Path(args.output).write_text(text + "\n")
    print(text)
    return 0


def _cmd_gof(args) -> int:
    kinds = [kind.strip() for kind in args.statistics.split(",")]
    if not set(kinds) <= set(CURVE_KINDS):
        raise ConfigError(f"--statistics {args.statistics!r}: expected a "
                          f"comma-separated subset of {','.join(CURVE_KINDS)}")
    spec = _model_from_args(args)
    config, pattern, curves = _load_data(
        args, kinds, grid_points=args.grid_points,
        envelope={"replicates": args.replicates, "mode": args.mode})
    tests = envelope_test(config, pattern, spec, curves, kinds=kinds,
                          r_max=args.r_max)
    out = {}
    for (_, kind), (band, v) in tests.items():
        out[kind] = {**v.to_dict(), "significance": band.significance}
        if args.bands_dir is not None:
            band_dir = Path(args.bands_dir)
            band_dir.mkdir(parents=True, exist_ok=True)
            write_band_csv(band_dir / f"{spec.name}_{kind}_{args.mode}.csv",
                           band)
    print(json_text({"model": model_to_dict(spec), "verdicts": out}))
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(json.loads(Path(path).read_text()))
            retention_row(reports[-1])
        except (ValueError, DataError) as exc:  # JSON, text and fields
            raise DataError(f"{path}: not a JSON report: {exc}") from exc
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
        "families": (None if args.families is None
                     else [f.strip() for f in args.families.split(",")]),
    }
    config_dict.update({k: v for k, v in overrides.items() if v is not None})
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
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
