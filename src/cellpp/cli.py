"""Command-line front end.

Subcommands mirror the pipeline stages so each step can be run and
inspected on its own; ``pipeline`` chains them all.  Exit codes: 0
success, 2 configuration problem, 3 data problem, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import CellppError, ConfigError, DataError, NumericalError
from .estimators import CURVE_KINDS, write_curves_csv
from .fitting import FAMILY_NAMES
from .geom import Disk, Rectangle
from .gof import write_bands
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


def _given(**values) -> dict:
    """The ``values`` whose flag was given; a flag left out passes
    nothing, so the config's own default applies."""
    return {k: v for k, v in values.items() if v is not None}


def _load_data(args, kinds=CURVE_KINDS, **settings):
    """Planar CSV plus window flags -> (config, clipped pattern, data
    curves ``kinds``); the config also carries the command's other
    ``settings``, those given."""
    window = (None if args.window is None
              else _parse_window(args.window).to_dict())
    config = PipelineConfig(
        input=args.input, planar=True, window=window,
        columns=_given(x=args.x_column, y=args.y_column),
        **_given(auto_window_min_points=args.min_points,
                 duplicates=args.duplicates, master_seed=args.seed,
                 **settings))
    pattern = load_pattern(config)[0]
    return config, pattern, data_curves(config, pattern, kinds)


def _add_pattern_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="planar points CSV")
    p.add_argument("--x-column")
    p.add_argument("--y-column")
    p.add_argument("--window", default=None,
                   help="'x0,x1,y0,y1' or 'disk:cx,cy,r'; default: "
                        "auto square around the centroid")
    p.add_argument("--min-points", type=int,
                   help="auto-window point target")
    p.add_argument("--duplicates", choices=("reject", "jitter"))


def _add_contrast_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--statistic", choices=CURVE_KINDS)
    p.add_argument("--exponent-p", type=float, dest="p")
    p.add_argument("--exponent-q", type=float, dest="q")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--raw-sum", action="store_false", dest="step_weighted",
                   default=None,
                   help="index-sum contrast instead of step-weighted")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    points, info = load_points(PipelineConfig(
        input=args.input,
        columns=_given(id=args.id_column, lon=args.lon_column,
                       lat=args.lat_column, operator=args.operator_column,
                       technology=args.technology_column),
        filters=_given(operator=args.operator, technology=args.technology),
        projection=_given(kind=args.projection, origin_lon=args.origin_lon,
                          origin_lat=args.origin_lat)))
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
    spec = model_from_dict(_load_json_arg(args.model))
    window = _parse_window(args.window)
    pattern = sample(spec, window, RngStreamSpec(args.seed))
    write_points_csv(args.output, pattern.points)
    sidecar = {**model_to_dict(spec), "seed": args.seed,
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
    config, pattern, curves = _load_data(args, contrast=_given(
        statistic=args.statistic, p=args.p, q=args.q, r_min=args.r_min,
        r_max=args.r_max, step_weighted=args.step_weighted))
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
    model = _load_json_arg(args.model)
    spec = model_from_dict(model)
    # a fit's record carries its range, the verdicts' default r_max
    config, pattern, curves = _load_data(
        args, kinds, grid_points=args.grid_points,
        contrast=model.get("contrast"),
        envelope=_given(replicates=args.replicates))
    record, bands = envelope_test(config, pattern, spec, curves,
                                  kinds=kinds, r_max=args.r_max)
    if args.bands_dir is not None:
        write_bands(args.bands_dir, spec.name, bands)
    print(json_text({"model": model_to_dict(spec), **record}))
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
    config_dict.update(_given(
        input=args.input, planar=args.planar or None,
        master_seed=args.seed, place=args.place, technology=args.technology,
        families=(None if args.families is None
                  else [f.strip() for f in args.families.split(",")])))
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
        description="Point-process analysis of antenna deployments",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations, so a dropped flag (--mode) cannot read as --model
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("ingest", help="registry CSV -> planar points CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--id-column")
    p.add_argument("--lon-column")
    p.add_argument("--lat-column")
    p.add_argument("--operator-column", default=None)
    p.add_argument("--technology-column", default=None)
    p.add_argument("--operator", default=None, help="keep this operator")
    p.add_argument("--technology", default=None, help="keep this technology")
    p.add_argument("--projection", choices=("lambert-93", "local-tangent"))
    p.add_argument("--origin-lon", type=float, default=None)
    p.add_argument("--origin-lat", type=float, default=None)
    p.add_argument("--rejects", default=None, help="rejects JSONL path")
    p.set_defaults(func=_cmd_ingest)

    p = command("simulate", help="sample a model into a points CSV")
    p.add_argument("--model", required=True,
                   help="model JSON (inline or @file)")
    p.add_argument("--window", required=True, help="'x0,x1,y0,y1' or "
                                                   "'disk:cx,cy,r'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = command("stats", help="empirical summary curves of a CSV")
    _add_pattern_args(p)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True, help="curves CSV path")
    p.set_defaults(func=_cmd_stats)

    p = command("fit", help="minimum-contrast fit of one family")
    _add_pattern_args(p)
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    _add_contrast_args(p)
    p.add_argument("--seed", type=int, help="seed of the F test locations")
    p.add_argument("--output", default=None, help="also write JSON here")
    p.set_defaults(func=_cmd_fit)

    p = command("gof", help="envelope test of a model on a CSV")
    _add_pattern_args(p)
    p.add_argument("--model", required=True,
                   help="model JSON (inline or @file)")
    p.add_argument("--statistics", default="K,F,G,J",
                   help="comma-separated subset of K,F,G,J")
    p.add_argument("--replicates", type=int)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--r-max", type=float,
                   help="test radii up to this only (default: fit range)")
    p.add_argument("--bands-dir", help="write both bands here")
    p.set_defaults(func=_cmd_gof)

    p = command("report", help="compare fitted retentions against "
                               "published reference values")
    p.add_argument("reports", nargs="*", help="report.json paths")
    p.set_defaults(func=_cmd_report)

    p = command("pipeline", help="run every stage from a config")
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
