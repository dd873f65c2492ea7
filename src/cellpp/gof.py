"""Simulated-envelope goodness-of-fit tests.

A fitted model is probed by sampling M realizations in the data's
window, computing each realization's summary statistic with exactly
the estimator settings used on the data, and asking whether the data
curve stays between the replicate extremes (pointwise band) or within
the maximum deviation around the model curve (global band).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePatternError,
    GridMismatchError,
)
from .estimators import (
    CURVE_KINDS,
    RadiusGrid,
    SummaryCurve,
    empirical_curves,
)
from .geom import Window, write_csv
from .models import ModelSpec
from .rng import as_stream

MIN_REPLICATES = 19
RECOMMENDED_REPLICATES = 39

# Substream layout per replicate index i: 10*i for the sampler,
# 10*i + 1 for the F test locations.  Keeping the layout sparse means
# replicate sets for smaller M are prefixes of larger ones, so bands
# can only widen as M grows on a shared stream.
_REPLICATE_STRIDE = 10


@dataclass
class EnvelopeBand:
    """Lower/upper test band for one statistic.

    ``mode`` is ``pointwise`` (replicate min/max, significance
    2/(M+1)) or ``global`` (model curve plus/minus the largest
    replicate deviation, significance 1/(M+1)).  NaN marks radii where
    the band is undefined.
    """

    grid: RadiusGrid
    lower: np.ndarray
    upper: np.ndarray
    kind: str
    mode: str
    replicates: int
    significance: float
    reference: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ConfigError(f"kind must be one of {CURVE_KINDS}")
        if self.mode not in ("pointwise", "global"):
            raise ConfigError("mode must be 'pointwise' or 'global'")
        self.lower = np.asarray(self.lower, dtype=float).reshape(-1)
        self.upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if (self.lower.size != self.grid.size
                or self.upper.size != self.grid.size):
            raise GridMismatchError("band and grid have different lengths")
        both = np.isfinite(self.lower) & np.isfinite(self.upper)
        if np.any(self.lower[both] > self.upper[both]):
            raise ConfigError("band has lower > upper")


@dataclass
class GofVerdict:
    """Containment verdict of one empirical curve against one band.

    A whole-curve pass demands containment at every tested radius.
    That is exactly calibrated for global bands; for pointwise bands
    the per-radius guarantee is 2/(M+1) but scanning many radii
    rejects more often, so read ``exceedance_fraction`` (share of
    tested radii outside) rather than ``passed`` alone there.
    """

    kind: str
    passed: bool
    first_exit_radius: float | None
    exceedance_fraction: float
    n_defined: int
    r_max: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def replicate_curves(spec: ModelSpec, window: Window, replicates: int,
                     grid: RadiusGrid, *, stream, n_test: int,
                     kinds=CURVE_KINDS) -> dict:
    """Empirical statistics ``kinds`` of ``replicates`` realizations of
    ``spec``.

    Returns a dict of kind -> (replicates, grid size) arrays, the input
    of both band functions.  Only the requested kinds are estimated (J
    needs F and G), and a kind's values do not depend on which others
    are requested.  ``n_test`` is the data's F test-point count, so
    replicate curves carry the same estimator bias as the data curve
    they calibrate.  Fewer than ``MIN_REPLICATES`` replicates raise
    ConfigError before the first draw.
    """
    from .samplers import sample

    _require_replicates(replicates)
    base = as_stream(stream)
    out = {kind: np.empty((replicates, grid.size)) for kind in kinds}
    for i in range(int(replicates)):
        pattern = sample(spec, window, base.substream(_REPLICATE_STRIDE * i))
        if pattern.n < 2:
            raise DegeneratePatternError(
                f"envelope replicate {i} of {spec.name} drew "
                f"{pattern.n} points; window too small for this model")
        curves = empirical_curves(
            pattern, grid, n_test=n_test,
            seed=base.substream(_REPLICATE_STRIDE * i + 1), kinds=kinds)
        for kind in kinds:
            out[kind][i] = curves[kind].values
    return out


def _require_replicates(m: int) -> None:
    if m < MIN_REPLICATES:
        raise ConfigError(f"envelope needs at least {MIN_REPLICATES} "
                          f"replicates, got {m}")


def _replicate_array(values, grid: RadiusGrid) -> np.ndarray:
    """``values`` as an (M, grid size) float array, M checked against
    the replicate minimum."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.size:
        raise GridMismatchError(
            f"replicate values have shape {values.shape}, expected "
            f"(replicates, {grid.size})")
    m = values.shape[0]
    _require_replicates(m)
    if m < RECOMMENDED_REPLICATES:
        warnings.warn(f"{m} replicates gives a weak test; "
                      f"{RECOMMENDED_REPLICATES} is the usual choice",
                      stacklevel=3)
    return values


def pointwise_envelope(values, grid: RadiusGrid, kind: str) -> EnvelopeBand:
    """Min/max band over the rows of ``values``, the (M, grid size)
    replicate curves of statistic ``kind``.

    A data curve escaping this band anywhere rejects the model at
    significance 2/(M+1).
    """
    values = _replicate_array(values, grid)
    m = values.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lower = np.nanmin(values, axis=0)
        upper = np.nanmax(values, axis=0)
    return EnvelopeBand(grid=grid, lower=lower, upper=upper, kind=kind,
                        mode="pointwise", replicates=m,
                        significance=2.0 / (m + 1))


def global_envelope(values, reference: SummaryCurve) -> EnvelopeBand:
    """Model curve plus/minus the largest replicate deviation.

    ``values`` holds the (M, grid size) replicate curves of the
    statistic of ``reference``, the model curve, whose grid and kind the
    band takes.  The band has half-width D = max over replicates and
    radii of the absolute deviation; significance 1/(M+1).
    """
    values = _replicate_array(values, reference.grid)
    m = values.shape[0]
    ref = reference.values
    deviations = np.abs(values - ref[None, :])
    if not np.any(np.isfinite(deviations)):
        raise ConfigError("no radius has both replicate and reference "
                          "values; cannot build a global band")
    d_max = float(np.nanmax(deviations))
    return EnvelopeBand(grid=reference.grid, lower=ref - d_max,
                        upper=ref + d_max, kind=reference.kind,
                        mode="global", replicates=m,
                        significance=1.0 / (m + 1), reference=ref)


def verdict(band: EnvelopeBand, empirical: SummaryCurve,
            r_max: float | None = None) -> GofVerdict:
    """Strict containment check of a data curve against a band.

    Radii where the band or the curve is undefined are excluded; the
    curve must lie inside [lower, upper] at every remaining radius.
    ``r_max`` limits the test to small radii, typically the fitted
    contrast range, so the verdict covers the scales the fit claims
    to describe.  A verdict with no radius left to test would pass
    vacuously, so it raises ``ConfigError`` instead.
    """
    if not band.grid.matches(empirical.grid):
        raise GridMismatchError("band and curve are on different grids")
    if band.kind != empirical.kind:
        raise ConfigError(f"band is for {band.kind}, curve is "
                          f"{empirical.kind}")
    values = empirical.values
    defined = (np.isfinite(band.lower) & np.isfinite(band.upper)
               & np.isfinite(values))
    if r_max is not None:
        defined &= band.grid.r <= r_max
    n_defined = int(defined.sum())
    if n_defined == 0:
        limit = "" if r_max is None else f" up to r_max={r_max}"
        raise ConfigError(f"no {band.kind} radius{limit} has both a band "
                          f"and a curve value; nothing to test")
    inside = np.zeros_like(defined)
    inside[defined] = ((values[defined] >= band.lower[defined])
                       & (values[defined] <= band.upper[defined]))
    exits = defined & ~inside
    passed = not exits.any()
    return GofVerdict(
        kind=band.kind, passed=passed,
        first_exit_radius=(None if passed
                           else float(band.grid.r[int(np.argmax(exits))])),
        exceedance_fraction=float(exits.sum() / n_defined),
        n_defined=n_defined, r_max=r_max)


def gof(replicates: dict, curves: dict, model_curves: dict,
        r_max: float | None = None):
    """``(record, bands)``: both bands of each kind of ``replicates``
    (from ``replicate_curves``), by (kind, mode), global ones centred on
    ``model_curves``, and ``record``, a family's ``report.json`` entry
    less its fit, with the verdicts of the data ``curves`` up to
    ``r_max``.  The global band, the whole-curve test with exact size,
    is the gate; a pointwise band over-rejects across radii
    (``GofVerdict``), so its verdicts are a per-radius diagnostic."""
    bands, verdicts = {}, {"pointwise": {}, "global": {}}
    for kind, values in replicates.items():
        bands[(kind, "pointwise")] = pointwise_envelope(
            values, curves[kind].grid, kind)
        bands[(kind, "global")] = global_envelope(values, model_curves[kind])
    for (kind, mode), band in bands.items():
        verdicts[mode][kind] = verdict(band, curves[kind], r_max).to_dict()
    gate = verdicts["global"]
    return {"gate": "global", "verdicts": gate,
            "diagnostic_verdicts": {"pointwise": verdicts["pointwise"]},
            "all_pass": all(v["passed"] for v in gate.values())}, bands


def write_band_csv(path, band: EnvelopeBand) -> None:
    """One band as CSV: r, lower, upper, and the model curve when the
    band has one (global mode)."""
    header = ["r", "lower", "upper"]
    columns = [band.grid.r, band.lower, band.upper]
    if band.reference is not None:
        header.append("theoretical")
        columns.append(band.reference)
    write_csv(path, header, [columns])


def write_bands(directory, name: str, bands: dict) -> None:
    """``bands`` (from ``gof``) of the model ``name`` as
    ``<name>_<kind>_<mode>.csv`` files in ``directory``, made if missing."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    for (kind, mode), band in bands.items():
        write_band_csv(Path(directory, f"{name}_{kind}_{mode}.csv"), band)
