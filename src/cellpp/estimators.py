"""Empirical summary statistics with minus-sampling border correction.

The second-order statistic K, the empty-space function F, the
nearest-neighbour function G, and their ratio J, all on a shared radius
grid.  Border effects are handled by the reduced-sample rule: at radius
``r`` only reference points (or test locations) at least ``r`` from the
window edge contribute, reweighted by the surviving fraction.  Radii
where no reference point survives produce NaN, never an error, and NaN
propagates through downstream arithmetic.

All estimators count closed balls: a neighbour at distance exactly
``r`` is in.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegeneratePatternError, GridMismatchError
from .geom import PointPattern, Window
from .rng import as_stream

CURVE_KINDS = ("K", "F", "G", "J")
CURVE_ORIGINS = ("empirical", "theoretical")

#: below this many points the border-corrected curves get noisy
SMALL_PATTERN_WARN = 80


@dataclass(frozen=True, eq=False)
class RadiusGrid:
    """Strictly increasing evaluation radii starting at zero."""

    r: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.r, dtype=float).reshape(-1)
        if arr.size < 2:
            raise ValueError("radius grid needs at least two radii")
        if arr[0] != 0.0:
            raise ValueError("radius grid must start at 0")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("radius grid must be strictly increasing")
        object.__setattr__(self, "r", arr)

    @staticmethod
    def default(window: Window, n: int = 512) -> "RadiusGrid":
        """Equally spaced grid up to a quarter of the shorter side."""
        return RadiusGrid(np.linspace(0.0, window.min_extent() / 4.0, n))

    @property
    def size(self) -> int:
        return self.r.size

    def matches(self, other: "RadiusGrid") -> bool:
        return (self.r.size == other.r.size
                and bool(np.array_equal(self.r, other.r)))

    def spacing(self) -> np.ndarray:
        """Local grid step (central differences, one-sided at ends)."""
        return np.gradient(self.r)


def require_same_grid(*curves) -> RadiusGrid:
    grid = curves[0].grid
    for c in curves[1:]:
        if not grid.matches(c.grid):
            raise GridMismatchError("curves live on different radius grids")
    return grid


@dataclass
class SummaryCurve:
    """Values of one summary statistic on a radius grid.

    ``kind`` is one of K/F/G/J, ``origin`` records whether the values
    are empirical estimates or exact model values.  NaN marks
    radii where the estimator is undefined.
    """

    grid: RadiusGrid
    values: np.ndarray
    kind: str
    origin: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")
        if self.origin not in CURVE_ORIGINS:
            raise ValueError(f"origin must be one of {CURVE_ORIGINS}")
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != self.grid.size:
            raise GridMismatchError("values and grid have different lengths")


def write_curves_csv(path, curves) -> None:
    """Write curves as rows of ``r,value,kind,origin`` (NaN -> empty)."""
    if isinstance(curves, SummaryCurve):
        curves = [curves]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["r", "value", "kind", "origin"])
        for c in curves:
            for r, v in zip(c.grid.r, c.values):
                out.writerow([repr(float(r)),
                              "" if math.isnan(v) else repr(float(v)),
                              c.kind, c.origin])


def read_curves_csv(path) -> list[SummaryCurve]:
    """Inverse of :func:`write_curves_csv`."""
    groups: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["kind"], row["origin"])
            rs, vs = groups.setdefault(key, ([], []))
            rs.append(float(row["r"]))
            vs.append(float(row["value"]) if row["value"] != "" else math.nan)
    return [SummaryCurve(grid=RadiusGrid(np.array(rs)), values=np.array(vs),
                         kind=kind, origin=origin)
            for (kind, origin), (rs, vs) in groups.items()]


# ---------------------------------------------------------------------------
# Border bookkeeping
# ---------------------------------------------------------------------------

def _retained(bdist: np.ndarray, radii: np.ndarray) -> np.ndarray:
    # (n_points, n_radii) mask: point counts at radius r iff its
    # boundary distance is at least r
    return bdist[:, None] >= radii[None, :]


def _check_size(pattern: PointPattern, minimum: int, what: str) -> None:
    if pattern.n < minimum:
        raise DegeneratePatternError(
            f"{what} needs at least {minimum} points, pattern has "
            f"{pattern.n}")
    if pattern.n < SMALL_PATTERN_WARN:
        warnings.warn(
            f"pattern has {pattern.n} points; border-corrected summaries "
            f"are unreliable below about {SMALL_PATTERN_WARN}",
            stacklevel=3)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def estimate_K(pattern: PointPattern, grid: RadiusGrid | None = None,
               correction: str = "border") -> SummaryCurve:
    """Reduced-sample estimate of the second-order statistic K.

    ``K(r)`` is the mean number of further points within distance
    ``r`` of a typical point, scaled by the inverse intensity; for a
    homogeneous Poisson process it equals ``pi r^2``.

    Parameters
    ----------
    pattern : PointPattern
    grid : RadiusGrid, optional
        Defaults to 512 radii up to a quarter of the shorter window
        side.
    correction : {"border", "none"}
    """
    _check_size(pattern, 2, "K estimate")
    if grid is None:
        grid = RadiusGrid.default(pattern.window)
    pts, radii = pattern.points, grid.r
    n = pattern.n
    area = pattern.window.area()

    dmat = cdist(pts, pts)
    np.fill_diagonal(dmat, np.inf)
    dmat.sort(axis=1)
    # closed-ball neighbour counts for every point at every radius
    counts = np.empty((n, radii.size))
    for i in range(n):
        counts[i] = np.searchsorted(dmat[i], radii, side="right")

    if correction == "border":
        keep = _retained(pattern.window.boundary_distance(pts), radii)
        m = keep.sum(axis=0).astype(float)
        num = (counts * keep).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(m > 0, area / (n - 1) * num / m, np.nan)
    elif correction == "none":
        values = area / ((n - 1) * n) * counts.sum(axis=0)
    else:
        raise ValueError("correction must be 'border' or 'none'")
    return SummaryCurve(grid=grid, values=values, kind="K",
                        origin="empirical",
                        meta={"n": n, "correction": correction})


def default_test_point_count(n: int) -> int:
    """Test-location count for F: well above the pattern size."""
    return max(10 * n + 1, 10000)


def estimate_F(pattern: PointPattern, grid: RadiusGrid | None = None,
               n_test: int | None = None, seed=0,
               test_points: np.ndarray | None = None,
               correction: str = "border") -> SummaryCurve:
    """Empty-space function: distance from test locations to the pattern.

    ``F(r)`` is the probability that a uniformly placed location has a
    pattern point within distance ``r``.  Test locations are drawn
    uniformly in the window from the given stream unless supplied
    explicitly.
    """
    _check_size(pattern, 1, "F estimate")
    if grid is None:
        grid = RadiusGrid.default(pattern.window)
    if test_points is None:
        if n_test is None:
            n_test = default_test_point_count(pattern.n)
        rng = as_stream(seed).generator()
        test_points = pattern.window.sample_uniform(int(n_test), rng)
    else:
        test_points = np.asarray(test_points, dtype=float).reshape(-1, 2)
        n_test = test_points.shape[0]
    radii = grid.r

    dmin = cKDTree(pattern.points).query(test_points)[0]
    hits = dmin[:, None] <= radii[None, :]

    if correction == "border":
        keep = _retained(pattern.window.boundary_distance(test_points), radii)
        m = keep.sum(axis=0).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(m > 0, (hits & keep).sum(axis=0) / m, np.nan)
    elif correction == "none":
        values = hits.mean(axis=0)
    else:
        raise ValueError("correction must be 'border' or 'none'")
    return SummaryCurve(grid=grid, values=values, kind="F",
                        origin="empirical",
                        meta={"n": pattern.n, "n_test": int(n_test),
                              "correction": correction})


def estimate_G(pattern: PointPattern, grid: RadiusGrid | None = None,
               correction: str = "border") -> SummaryCurve:
    """Nearest-neighbour function: distance from a point to its nearest
    other point."""
    _check_size(pattern, 2, "G estimate")
    if grid is None:
        grid = RadiusGrid.default(pattern.window)
    radii = grid.r

    nn = cKDTree(pattern.points).query(pattern.points, k=2)[0][:, 1]
    hits = nn[:, None] <= radii[None, :]

    if correction == "border":
        keep = _retained(pattern.window.boundary_distance(pattern.points),
                         radii)
        m = keep.sum(axis=0).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(m > 0, (hits & keep).sum(axis=0) / m, np.nan)
    elif correction == "none":
        values = hits.mean(axis=0)
    else:
        raise ValueError("correction must be 'border' or 'none'")
    return SummaryCurve(grid=grid, values=values, kind="G",
                        origin="empirical",
                        meta={"n": pattern.n, "correction": correction})


def estimate_J(f_curve: SummaryCurve, g_curve: SummaryCurve,
               f_saturation: float = 1e-6) -> SummaryCurve:
    """Interaction ratio ``J = (1 - G) / (1 - F)``.

    Radii where F saturates (``F >= 1 - f_saturation``) give NaN, as do
    radii where either input is NaN.  Values above 1 indicate
    regularity, below 1 clustering, 1 is the Poisson reference.
    """
    if f_curve.kind != "F" or g_curve.kind != "G":
        raise ValueError("estimate_J expects an F curve and a G curve")
    grid = require_same_grid(f_curve, g_curve)
    f, g = f_curve.values, g_curve.values
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(f < 1.0 - f_saturation, (1.0 - g) / (1.0 - f),
                          np.nan)
    origin = (f_curve.origin if f_curve.origin == g_curve.origin
              else "empirical")
    return SummaryCurve(grid=grid, values=values, kind="J", origin=origin,
                        meta={"f_saturation": f_saturation})


def j_second_order_approx(k_curve: SummaryCurve,
                          intensity: float) -> SummaryCurve:
    """Second-order approximation ``J(r) ~ 1 - intensity*(K(r) - pi r^2)``.

    Useful as a cross-check: for weakly interacting processes it tracks
    the exact J closely.
    """
    if k_curve.kind != "K":
        raise ValueError("j_second_order_approx expects a K curve")
    r = k_curve.grid.r
    values = 1.0 - float(intensity) * (k_curve.values - np.pi * r * r)
    return SummaryCurve(grid=k_curve.grid, values=values, kind="J",
                        origin=k_curve.origin,
                        meta={"approx": "second-order",
                              "intensity": float(intensity)})


def clark_evans_index(pattern: PointPattern) -> float:
    """Ratio of the mean nearest-neighbour distance to its Poisson
    expectation ``0.5 / sqrt(intensity)``.

    Above 1 indicates regularity, below 1 clustering.  No edge
    correction is applied, which biases the index upward in small
    windows; treat it as a screen, not a test.
    """
    if pattern.n < 2:
        raise DegeneratePatternError("Clark-Evans index needs >= 2 points")
    nn = cKDTree(pattern.points).query(pattern.points, k=2)[0][:, 1]
    lam = pattern.n / pattern.window.area()
    return float(nn.mean() * 2.0 * math.sqrt(lam))
