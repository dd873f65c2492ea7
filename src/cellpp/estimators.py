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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegeneratePatternError, GridMismatchError
from .geom import PointPattern, Window, write_csv
from .rng import as_stream

CURVE_KINDS = ("K", "F", "G", "J")
CURVE_ORIGINS = ("empirical", "theoretical")

#: below this many points the border-corrected curves get noisy
SMALL_PATTERN_WARN = 80

#: J is undefined (NaN) where F is within this of 1, for the empirical
#: ratio and the exact model curves alike
J_F_SATURATION = 1e-6


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
    def default(window: Window, n: int = 512,
                intensity: float | None = None) -> "RadiusGrid":
        """``n`` equally spaced radii up to a quarter of the shorter
        window side.

        Given the pattern's ``intensity``, the grid ends at
        ``sqrt(1000 / (pi * intensity))`` where that is shorter, the
        r_max rule for K of Baddeley, Rubak & Turner (2015, sec. 7.3):
        there a typical point has about 1000 neighbours.  It binds
        above ``16000 / pi``, about 5,093 points in a square window.
        """
        r_max = window.min_extent() / 4.0
        if intensity is not None:
            r_max = min(r_max, math.sqrt(1000.0 / (math.pi * intensity)))
        return RadiusGrid(np.linspace(0.0, r_max, n))

    @property
    def size(self) -> int:
        return self.r.size

    def matches(self, other: "RadiusGrid") -> bool:
        return (self.r.size == other.r.size
                and bool(np.array_equal(self.r, other.r)))

    def spacing(self) -> np.ndarray:
        """Local grid step (central differences, one-sided at ends)."""
        return np.gradient(self.r)


def _default_grid(pattern: PointPattern) -> RadiusGrid:
    return RadiusGrid.default(pattern.window,
                              intensity=pattern.n / pattern.window.area())


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
    radii where the estimator is undefined.  ``meta`` holds F's
    ``n_test``, the test-location count it used, and is empty otherwise.
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
    """Write curves as rows of ``r,value,kind,origin`` (NaN, +-inf ->
    empty), one curve's rows after another."""
    if isinstance(curves, SummaryCurve):
        curves = [curves]
    write_csv(path, ["r", "value", "kind", "origin"], (
        [c.grid.r, c.values, [c.kind] * c.grid.size,
         [c.origin] * c.grid.size] for c in curves))


# ---------------------------------------------------------------------------
# Reduced-sample counting
# ---------------------------------------------------------------------------

# Rows of the pattern whose pairs estimate_K holds at once: its peak
# memory is about this many rows times the neighbours within the
# largest radius.
_K_BLOCK_ROWS = 256


def _retention_stop(window: Window, locations: np.ndarray,
                    radii: np.ndarray) -> np.ndarray:
    """Per unit, the number of radii at which it is retained: a unit
    counts at radius ``r`` iff its boundary distance is at least ``r``.
    """
    return _radius_index(radii, window.boundary_distance(locations),
                         "right")


def _event_index(radii: np.ndarray, distances: np.ndarray) -> np.ndarray:
    # first radius whose closed ball reaches the distance
    return _radius_index(radii, distances, "left")


def _radius_index(radii: np.ndarray, values: np.ndarray,
                  side: str) -> np.ndarray:
    """``np.searchsorted(radii, values, side)``, bit for bit.

    On a uniform grid, every radius within a quarter step of
    ``i * step``, the quotient ``values / step`` lands within one of
    the answer, and one comparison with each neighbouring radius
    settles it; that replaces a binary search per value.  Other grids
    use ``np.searchsorted``.
    """
    n = radii.size
    step = radii[-1] / (n - 1)
    if not np.abs(radii - step * np.arange(n)).max() <= step / 4.0:
        return np.searchsorted(radii, values, side=side)
    q = values / step
    if side == "left":
        np.ceil(q, out=q)
    else:
        np.floor(q, out=q)
        q += 1.0
    # maximum keeps NaN and fmin maps it to n, where searchsorted sorts it
    np.maximum(q, 0.0, out=q)
    np.fmin(q, n, out=q)
    idx = q.astype(np.intp)
    # padded[idx] is radii[idx - 1], padded[idx + 1] is radii[idx]; the
    # NaN ends compare false, so no index steps past 0 or n
    padded = np.concatenate(([np.nan], radii, [np.nan]))
    below, above = padded[idx], padded[idx + 1]
    if side == "left":
        idx += above < values
        idx -= below >= values
    else:
        idx += above <= values
        idx -= below > values
    return idx


def _live_counts(first: np.ndarray, stop: np.ndarray,
                 size: int) -> np.ndarray:
    """Number of units live at each of ``size`` radius indices, unit
    ``u`` being live on the index interval ``[first[u], stop[u])``.

    With ``first`` from :func:`_event_index` and ``stop`` from
    :func:`_retention_stop` this counts the units whose event distance
    is at most ``r`` and that are retained at ``r``; with ``first`` all
    zero it counts the retained units.  Exact integer counts.
    """
    ends = np.maximum(first, stop)
    edges = (np.bincount(first, minlength=size + 1)
             - np.bincount(ends, minlength=size + 1))
    return np.cumsum(edges[:size])


def _reduced_sample_fraction(event: np.ndarray, stop: np.ndarray,
                             radii: np.ndarray) -> np.ndarray:
    """Share of the retained units whose event distance is at most r;
    NaN where no unit is retained."""
    num = _live_counts(_event_index(radii, event), stop, radii.size)
    m = _live_counts(np.zeros_like(stop), stop, radii.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(m > 0, num / m, np.nan)


def _close_pairs(points: np.ndarray, reach: float):
    """Unordered pairs within ``reach`` of each other, as ``(i, j,
    distance)`` arrays, ``_K_BLOCK_ROWS`` rows of ``i`` at a time; the
    distances are the tree's own.

    The points are sorted by x once; each block of rows is paired only
    with the later points in its x band, those at most ``reach`` past
    its last x.
    """
    order = np.argsort(points[:, 0], kind="stable")
    by_x = points[order]
    xs = by_x[:, 0]
    # the tree compares rounded squared distances: a relative margin
    # keeps every partner it can accept inside the band
    band = reach * (1.0 + 1e-9)
    for start in range(0, len(points), _K_BLOCK_ROWS):
        stop = min(start + _K_BLOCK_ROWS, len(points))
        end = np.searchsorted(xs, xs[stop - 1] + band, side="right")
        rows = cKDTree(by_x[start:stop])
        pairs = rows.sparse_distance_matrix(cKDTree(by_x[start:end]), reach,
                                            output_type="ndarray")
        later = pairs["j"] > pairs["i"]
        i = order[pairs["i"][later] + start]
        j = order[pairs["j"][later] + start]
        d = pairs["v"][later]
        del pairs, later
        yield i, j, d


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

def estimate_K(pattern: PointPattern,
               grid: RadiusGrid | None = None) -> SummaryCurve:
    """Reduced-sample estimate of the second-order statistic K.

    ``K(r)`` is the mean number of further points within distance
    ``r`` of a typical point, scaled by the inverse intensity; for a
    homogeneous Poisson process it equals ``pi r^2``.  Only pairs
    within the largest radius are visited, a fixed block of points at
    a time; no n x n distance matrix is built.

    Parameters
    ----------
    pattern : PointPattern
    grid : RadiusGrid, optional
        Defaults to ``RadiusGrid.default`` with the pattern's
        intensity.
    """
    _check_size(pattern, 2, "K estimate")
    if grid is None:
        grid = _default_grid(pattern)
    pts, radii = pattern.points, grid.r
    n = pattern.n
    area = pattern.window.area()

    stop = _retention_stop(pattern.window, pts, radii)
    # ordered pairs (i, j), i retained, within each radius: every
    # unordered pair counts once from each end
    num = np.zeros(radii.size, dtype=np.int64)
    # one ulp past the last radius: the tree compares squared distances,
    # which must not drop a pair whose distance is exactly radii[-1]
    for i, j, d in _close_pairs(pts, np.nextafter(radii[-1], np.inf)):
        first = _event_index(radii, d)
        num += _live_counts(first, stop[i], radii.size)
        num += _live_counts(first, stop[j], radii.size)

    m = _live_counts(np.zeros_like(stop), stop, radii.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(m > 0, area / (n - 1) * num / m, np.nan)
    return SummaryCurve(grid=grid, values=values, kind="K",
                        origin="empirical")


def default_test_point_count(n: int) -> int:
    """Test-location count for F: well above the pattern size."""
    return max(10 * n + 1, 10000)


def estimate_F(pattern: PointPattern, grid: RadiusGrid | None = None,
               n_test: int | None = None, seed=0,
               test_points: np.ndarray | None = None) -> SummaryCurve:
    """Reduced-sample estimate of the empty-space function F.

    ``F(r)`` is the probability that a uniformly placed location has a
    pattern point within distance ``r``; at ``r`` only the test
    locations at least ``r`` from the window edge count.  Test
    locations are drawn uniformly in the window from the given stream
    unless supplied explicitly.
    """
    _check_size(pattern, 1, "F estimate")
    if grid is None:
        grid = _default_grid(pattern)
    if test_points is None:
        if n_test is None:
            n_test = default_test_point_count(pattern.n)
        rng = as_stream(seed).generator()
        test_points = pattern.window.sample_uniform(int(n_test), rng)
    else:
        test_points = np.asarray(test_points, dtype=float).reshape(-1, 2)
        n_test = test_points.shape[0]

    stop = _retention_stop(pattern.window, test_points, grid.r)
    dmin = cKDTree(pattern.points).query(test_points)[0]
    values = _reduced_sample_fraction(dmin, stop, grid.r)
    return SummaryCurve(grid=grid, values=values, kind="F",
                        origin="empirical", meta={"n_test": int(n_test)})


def estimate_G(pattern: PointPattern,
               grid: RadiusGrid | None = None) -> SummaryCurve:
    """Reduced-sample estimate of the nearest-neighbour function G: at
    ``r``, the share of the points at least ``r`` from the window edge
    whose nearest other point is within ``r``."""
    _check_size(pattern, 2, "G estimate")
    if grid is None:
        grid = _default_grid(pattern)
    stop = _retention_stop(pattern.window, pattern.points, grid.r)
    values = _reduced_sample_fraction(pattern.nn_distances, stop, grid.r)
    return SummaryCurve(grid=grid, values=values, kind="G",
                        origin="empirical")


def estimate_J(f_curve: SummaryCurve, g_curve: SummaryCurve) -> SummaryCurve:
    """Interaction ratio ``J = (1 - G) / (1 - F)``.

    Radii where F saturates (``F >= 1 - J_F_SATURATION``) give NaN, as do
    radii where either input is NaN.  Values above 1 indicate
    regularity, below 1 clustering, 1 is the Poisson reference.
    """
    if f_curve.kind != "F" or g_curve.kind != "G":
        raise ValueError("estimate_J expects an F curve and a G curve")
    grid = require_same_grid(f_curve, g_curve)
    f, g = f_curve.values, g_curve.values
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(f < 1.0 - J_F_SATURATION, (1.0 - g) / (1.0 - f),
                          np.nan)
    origin = (f_curve.origin if f_curve.origin == g_curve.origin
              else "empirical")
    return SummaryCurve(grid=grid, values=values, kind="J", origin=origin)


def empirical_curves(pattern: PointPattern, grid: RadiusGrid | None = None,
                     seed=0, n_test: int | None = None,
                     kinds=CURVE_KINDS) -> dict:
    """The empirical statistics ``kinds`` of one pattern on a shared
    grid, as a dict of kind -> curve; J brings F and G along."""
    if grid is None:
        grid = _default_grid(pattern)
    need = set(kinds) | ({"F", "G"} if "J" in kinds else set())
    out = {}
    if "K" in need:
        out["K"] = estimate_K(pattern, grid)
    if "F" in need:
        out["F"] = estimate_F(pattern, grid, n_test=n_test, seed=seed)
    if "G" in need:
        out["G"] = estimate_G(pattern, grid)
    if "J" in need:
        out["J"] = estimate_J(out["F"], out["G"])
    return out


def clark_evans_index(pattern: PointPattern) -> float:
    """Ratio of the mean nearest-neighbour distance to its Poisson
    expectation ``0.5 / sqrt(intensity)``.

    Above 1 indicates regularity, below 1 clustering.  No edge
    correction is applied, which biases the index upward in small
    windows; treat it as a screen, not a test.
    """
    if pattern.n < 2:
        raise DegeneratePatternError("Clark-Evans index needs >= 2 points")
    lam = pattern.n / pattern.window.area()
    return float(pattern.nn_distances.mean() * 2.0 * math.sqrt(lam))
