"""Output checks for the benchmark workloads.

Each check returns a list of problems (empty when the output is
correct).  The checks read only the files and standard output a run
produced; they import nothing from ``cellpp``, so the existence bounds
of the model families are restated here from the family definitions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

CURVE_KINDS = ("K", "F", "G", "J")
# Relative slack on the determinantal existence bounds, for parameters
# that sit exactly on the bound and went through a JSON round trip.
_BOUND_SLACK = 1e-9
# The border-corrected (reduced-sample) F and G divide by the number of
# locations at least r from the edge, which shrinks as r grows, so the
# curves can step down by up to about one over that number (~4e-4 at
# the largest radius of a 10^4-point pattern).  Larger drops are errors.
_STEP_DOWN_TOLERANCE = 1e-3


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def admissibility_problems(family: str, params: dict) -> list[str]:
    """Problems with fitted parameters: positive finite intensity, beta
    in (0, 1], and the Gauss/Cauchy existence bounds."""
    def value(key):
        v = params.get(key)
        return v if isinstance(v, (int, float)) and math.isfinite(v) else None

    lam = value("intensity")
    if lam is None or lam <= 0:
        return [f"{family}: intensity {params.get('intensity')!r} is not "
                f"a positive number"]
    if family == "poisson":
        return []
    if family == "beta-ginibre":
        beta = value("beta")
        ok = beta is not None and 0.0 < beta <= 1.0
        return [] if ok else [f"{family}: beta {params.get('beta')!r} "
                              f"outside (0, 1]"]
    scale = value("scale")
    if scale is None or scale <= 0:
        return [f"{family}: scale {params.get('scale')!r} is not positive"]
    load = lam * math.pi * scale * scale
    if family == "cauchy-dpp":
        shape = value("shape")
        if shape is None or shape <= 0:
            return [f"{family}: shape {params.get('shape')!r} is not "
                    f"positive"]
        load /= shape
    elif family != "gauss-dpp":
        return [f"unknown family {family!r}"]
    if load > 1.0 + _BOUND_SLACK:
        return [f"{family}: parameters violate the existence bound "
                f"(load {load:.6g} > 1)"]
    return []


def pipeline_problems(out: Path, families: tuple) -> list[str]:
    """``cellpp pipeline`` outputs: every file written, every family
    reported with admissible parameters and one verdict per statistic."""
    expected = ["report.json", "run_meta.json", "rejects.jsonl",
                "curves/empirical.csv"]
    for fam in families:
        expected.append(f"curves/model_{fam}.csv")
        expected += [f"bands/{fam}_{kind}_{mode}.csv" for kind in CURVE_KINDS
                     for mode in ("pointwise", "global")]
    problems = [f"missing output {name}" for name in expected
                if not (out / name).is_file()]
    if problems:
        return problems
    report = json.loads((out / "report.json").read_text())
    reported = report.get("families", {})
    if sorted(reported) != sorted(families):
        problems.append(f"report families {sorted(reported)} != requested "
                        f"{sorted(families)}")
    for fam in families:
        entry = reported.get(fam)
        if entry is None:
            continue
        problems += admissibility_problems(fam, entry["fit"]["params"])
        verdicts = entry.get("verdicts", {})
        for kind in CURVE_KINDS:
            if not isinstance(verdicts.get(kind, {}).get("passed"), bool):
                problems.append(f"{fam}: no verdict for {kind}")
    return problems


def _curve_values(path: Path) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            text = row["value"]
            values.setdefault(row["kind"], []).append(
                math.nan if text == "" else float(text))
    return values


def registry_problems(inputs: dict, out: Path,
                      stdouts: list[str]) -> list[str]:
    """``cellpp ingest`` then ``cellpp stats`` outputs: the record and
    reject counts the generator planted, a clipped pattern of at least
    the requested size, and F and G curves in [0, 1] that do not
    decrease beyond ``_STEP_DOWN_TOLERANCE``."""
    problems = []
    match = re.search(r"(\d+) records projected to .*; (\d+) rejected",
                      stdouts[0])
    if match is None:
        return [f"ingest printed no record count: {stdouts[0][-200:]!r}"]
    records, rejects = int(match.group(1)), int(match.group(2))
    if records != inputs["expected_records"]:
        problems.append(f"ingest kept {records} records, expected "
                        f"{inputs['expected_records']}")
    if rejects != inputs["expected_rejects"]:
        problems.append(f"ingest rejected {rejects} rows, expected "
                        f"{inputs['expected_rejects']}")
    with open(out / "points.csv") as fh:
        projected = sum(1 for _ in fh) - 1
    if projected != records:
        problems.append(f"points.csv holds {projected} points, ingest "
                        f"reported {records}")

    summary = json.loads(stdouts[1])
    n = summary.get("n_points")
    if not (isinstance(n, int) and inputs["min_points"] <= n <= records):
        problems.append(f"stats pattern has {n!r} points, expected between "
                        f"{inputs['min_points']} and {records}")

    curves = _curve_values(out / "curves.csv")
    if sorted(curves) != sorted(CURVE_KINDS):
        problems.append(f"curves.csv kinds {sorted(curves)}")
    for kind in ("F", "G"):
        finite = [v for v in curves.get(kind, []) if not math.isnan(v)]
        if not finite:
            problems.append(f"{kind} curve has no values")
        elif not all(0.0 <= v <= 1.0 for v in finite):
            problems.append(f"{kind} curve leaves [0, 1]")
        elif any(b < a - _STEP_DOWN_TOLERANCE
                 for a, b in zip(finite, finite[1:])):
            problems.append(f"{kind} curve decreases")
    return problems
