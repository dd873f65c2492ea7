"""Benchmark inputs, generated from the workload seed with numpy only.

Nothing here imports ``cellpp``: a change to the program's samplers or
random streams cannot change what the benchmark feeds it.  Every
generator draws from its own ``numpy.random.default_rng([seed, k])``
stream, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The project's reference synthetic pattern: intensity 0.7e-6 per m^2
# on a 13 km square, ~120 points.
PATTERN_SIDE_M = 13_000.0
PATTERN_INTENSITY = 0.7e-6
# Hard-core distance of the sequential-inhibition pattern: about half
# the mean spacing, so the pattern is clearly repulsive but far from
# jammed (area fraction ~0.2).
HARD_CORE_M = 600.0

# Registry shape: a national lon/lat export with operator and
# technology columns; the benchmark keeps one technology.
REGISTRY_ROWS = 300_000
REGISTRY_TARGET_ROWS = 10_400
REGISTRY_MIN_POINTS = 10_000
TARGET_TECHNOLOGY = "LTE-800"
TECHNOLOGIES = ("GSM-900", "GSM-1800", "UMTS-900", "UMTS-2100", "LTE-700",
                "LTE-1800", "LTE-2100", "LTE-2600", "NR-700", "NR-3500")
OPERATORS = ("ORANGE", "SFR", "BOUYGUES", "FREE")
# Metropolitan France, inside the Lambert-93 validity box.
LON_RANGE = (-4.5, 8.0)
LAT_RANGE = (42.6, 50.9)
BLANK_SHARE = 0.008        # empty or "n/a" coordinates: ingest rejects them
COMMA_SHARE = 0.010        # decimal commas: ingest accepts them


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``TINY`` keeps the self-test fast."""

    pattern_side_m: float
    registry_rows: int
    registry_target_rows: int
    registry_min_points: int
    # Pipeline config overrides (empty: the CLI defaults).
    pipeline_overrides: dict


FULL = Sizes(PATTERN_SIDE_M, REGISTRY_ROWS, REGISTRY_TARGET_ROWS,
             REGISTRY_MIN_POINTS, {})
TINY = Sizes(8_000.0, 4_000, 700, 500,
             {"grid_points": 128, "fit_replicates": 10,
              "model_test_points": 500, "envelope": {"replicates": 19}})


def repulsive_pattern(seed: int, side: float) -> np.ndarray:
    """``round(intensity * side^2)`` points in ``[0, side]^2`` by simple
    sequential inhibition: uniform proposals, kept when no kept point
    lies within ``HARD_CORE_M``."""
    rng = np.random.default_rng([seed, 1])
    n = round(PATTERN_INTENSITY * side * side)
    pts = np.empty((n, 2))
    k = 0
    for _ in range(1000 * n):
        p = rng.uniform(0.0, side, 2)
        if k == 0 or np.min(np.hypot(*(pts[:k] - p).T)) >= HARD_CORE_M:
            pts[k] = p
            k += 1
            if k == n:
                return pts
    raise RuntimeError(f"sequential inhibition placed only {k} of {n} points")


def write_pattern_inputs(directory: Path, seed: int, sizes: Sizes,
                         families: tuple, statistic: str) -> dict:
    """Planar points CSV plus the pipeline config for one workload."""
    side = sizes.pattern_side_m
    pts = repulsive_pattern(seed, side)
    points = directory / "points.csv"
    points.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                         for x, y in pts))
    config = {
        "families": list(families),
        "window": {"kind": "rectangle", "x_min": 0.0, "x_max": side,
                   "y_min": 0.0, "y_max": side},
        "contrast": {"statistic": statistic},
        "master_seed": seed,
    }
    config.update(sizes.pipeline_overrides)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"points": points, "config": config_path}


def _site_coordinates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lon/lat of ``n`` sites: 40% spread over the country, the rest
    around 40 towns of random size."""
    towns = np.column_stack([rng.uniform(*LON_RANGE, 40),
                             rng.uniform(*LAT_RANGE, 40)])
    spread = rng.uniform(0.03, 0.3, 40)
    town = rng.integers(0, 40, n)
    coords = towns[town] + rng.normal(size=(n, 2)) * spread[town, None]
    rural = rng.uniform(size=n) < 0.4
    coords[rural] = np.column_stack([rng.uniform(*LON_RANGE, rural.sum()),
                                     rng.uniform(*LAT_RANGE, rural.sum())])
    coords[:, 0] = np.clip(coords[:, 0], *LON_RANGE)
    coords[:, 1] = np.clip(coords[:, 1], *LAT_RANGE)
    return np.round(coords, 6)


def write_registry(directory: Path, seed: int, sizes: Sizes) -> dict:
    """Semicolon-separated registry export with ``id``, ``operator``,
    ``technology``, ``lon`` and ``lat`` columns.

    Exactly ``registry_target_rows`` rows carry the target technology.
    A share of all rows has a blank or non-numeric coordinate (ingest
    rejects those) and another share writes decimal commas (ingest
    accepts those).  Kept sites are distinct to the sixth decimal, so
    no two project onto the same planar point.
    """
    rng = np.random.default_rng([seed, 2])
    rows, target_rows = sizes.registry_rows, sizes.registry_target_rows
    tech = rng.choice(TECHNOLOGIES, size=rows)
    tech[rng.choice(rows, size=target_rows, replace=False)] = TARGET_TECHNOLOGY
    operator = rng.choice(OPERATORS, size=rows)
    coords = _site_coordinates(rng, rows)
    blank = rng.uniform(size=rows) < BLANK_SHARE
    comma = ~blank & (rng.uniform(size=rows) < COMMA_SHARE)

    # Redraw duplicate kept target sites until none is left.
    kept = np.flatnonzero((tech == TARGET_TECHNOLOGY) & ~blank)
    for _ in range(100):
        _, first = np.unique(coords[kept], axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(kept.size), first)
        if dup.size == 0:
            break
        coords[kept[dup]] = _site_coordinates(rng, dup.size)
    else:
        raise RuntimeError("could not make the target sites distinct")

    lines = ["id;operator;technology;lon;lat"]
    for i in range(rows):
        lon, lat = f"{coords[i, 0]:.6f}", f"{coords[i, 1]:.6f}"
        if blank[i]:
            if i % 2:
                lon = ""
            else:
                lat = "n/a"
        elif comma[i]:
            lon, lat = lon.replace(".", ","), lat.replace(".", ",")
        lines.append(f"S{i:07d};{operator[i]};{tech[i]};{lon};{lat}")
    registry = directory / "registry.csv"
    registry.write_text("\n".join(lines) + "\n")
    return {"registry": registry,
            "expected_records": int(kept.size),
            "expected_rejects": int(blank.sum()),
            "min_points": sizes.registry_min_points}
