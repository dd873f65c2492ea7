"""Geodesy, observation windows, and planar point patterns.

Antenna registries come as delimited text with geographic coordinates.
This module turns them into metric planar patterns: parse rows, project
lon/lat onto a plane (a national conformal grid or a local tangent
plane), clip to an observation window, and run the basic first-order
diagnostics (intensity, quadrat homogeneity screen).

Planar points are handled as ``(n, 2)`` float arrays of metre
coordinates throughout.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import chdtrc

from .errors import (
    DataError,
    DegeneratePatternError,
    EmptyInputError,
    InsufficientDataError,
    OutsideWindowError,
    SchemaError,
    ZoneError,
)

# GRS80 ellipsoid
_A = 6378137.0
_F = 1.0 / 298.257222101
_E2 = _F * (2.0 - _F)
_E = math.sqrt(_E2)


@dataclass(frozen=True)
class GeoCoordinate:
    """Geographic position, degrees, east and north positive."""

    lon_deg: float
    lat_deg: float


@dataclass(frozen=True)
class AntennaRecord:
    """One antenna site from a registry export."""

    record_id: str
    coordinate: GeoCoordinate
    operator: str = ""
    technology: str = ""
    attributes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSpec:
    """Planar projection description.

    ``kind`` is ``"lambert-conformal-conic"`` (two standard parallels,
    ellipsoidal formulas) or ``"local-tangent"`` (equirectangular on
    the tangent plane at the origin, exactly invertible).  The validity
    box guards against applying the projection far outside the region
    it was configured for.
    """

    kind: str
    origin_lon_deg: float
    origin_lat_deg: float
    std_parallel_1_deg: float = 0.0
    std_parallel_2_deg: float = 0.0
    false_easting_m: float = 0.0
    false_northing_m: float = 0.0
    lon_min_deg: float = -180.0
    lon_max_deg: float = 180.0
    lat_min_deg: float = -89.0
    lat_max_deg: float = 89.0

    def __post_init__(self):
        if self.kind not in ("lambert-conformal-conic", "local-tangent"):
            raise ValueError(f"unknown projection kind: {self.kind!r}")

    @staticmethod
    def lambert_93() -> "ProjectionSpec":
        """The French national conformal grid (RGF93 / Lambert-93).

        Covers metropolitan France and its near surroundings, which is
        the frame used for west-European antenna registries here.
        """
        return ProjectionSpec(
            kind="lambert-conformal-conic",
            origin_lon_deg=3.0,
            origin_lat_deg=46.5,
            std_parallel_1_deg=44.0,
            std_parallel_2_deg=49.0,
            false_easting_m=700000.0,
            false_northing_m=6600000.0,
            lon_min_deg=-9.86,
            lon_max_deg=10.38,
            lat_min_deg=41.15,
            lat_max_deg=51.56,
        )

    @staticmethod
    def local_tangent(origin_lon_deg: float, origin_lat_deg: float,
                      half_span_deg: float = 3.0) -> "ProjectionSpec":
        """Tangent-plane projection centred on (lon, lat)."""
        return ProjectionSpec(
            kind="local-tangent",
            origin_lon_deg=origin_lon_deg,
            origin_lat_deg=origin_lat_deg,
            lon_min_deg=origin_lon_deg - half_span_deg,
            lon_max_deg=origin_lon_deg + half_span_deg,
            lat_min_deg=origin_lat_deg - half_span_deg,
            lat_max_deg=origin_lat_deg + half_span_deg,
        )


def _lcc_m(phi):
    return np.cos(phi) / np.sqrt(1.0 - _E2 * np.sin(phi) ** 2)


def _lcc_t(phi):
    s = np.sin(phi)
    return (np.tan(np.pi / 4.0 - phi / 2.0)
            / ((1.0 - _E * s) / (1.0 + _E * s)) ** (_E / 2.0))


def _lcc_constants(spec: ProjectionSpec):
    phi1 = math.radians(spec.std_parallel_1_deg)
    phi2 = math.radians(spec.std_parallel_2_deg)
    phi0 = math.radians(spec.origin_lat_deg)
    m1, m2 = _lcc_m(phi1), _lcc_m(phi2)
    t0, t1, t2 = _lcc_t(phi0), _lcc_t(phi1), _lcc_t(phi2)
    if abs(phi1 - phi2) > 1e-12:
        n = (math.log(m1) - math.log(m2)) / (math.log(t1) - math.log(t2))
    else:
        n = math.sin(phi1)
    big_f = m1 / (n * t1 ** n)
    rho0 = _A * big_f * t0 ** n
    return n, big_f, rho0


def _local_radii(lat_rad: float):
    # meridional and prime-vertical curvature radii on GRS80
    s2 = math.sin(lat_rad) ** 2
    nu = _A / math.sqrt(1.0 - _E2 * s2)
    mr = _A * (1.0 - _E2) / (1.0 - _E2 * s2) ** 1.5
    return mr, nu


def _coerce_lonlat(coords):
    if isinstance(coords, GeoCoordinate):
        coords = [coords]
    if len(coords) and isinstance(coords[0], GeoCoordinate):
        arr = np.array([[c.lon_deg, c.lat_deg] for c in coords], dtype=float)
    else:
        arr = np.atleast_2d(np.asarray(coords, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("coordinates must be (n, 2) lon/lat pairs")
    return arr


def project(coords, spec: ProjectionSpec, record_ids=None) -> np.ndarray:
    """Project lon/lat coordinates to planar metres.

    Parameters
    ----------
    coords : (n, 2) array-like or sequence of GeoCoordinate
        Longitude, latitude in degrees.
    spec : ProjectionSpec
    record_ids : sequence, optional
        Identifiers used in error messages when a coordinate falls
        outside the projection validity zone.

    Returns
    -------
    (n, 2) ndarray of x, y in metres.

    Raises
    ------
    ZoneError
        If any coordinate lies outside the validity box of ``spec``.
    """
    lonlat = _coerce_lonlat(coords)
    lon, lat = lonlat[:, 0], lonlat[:, 1]
    bad = ((lon < spec.lon_min_deg) | (lon > spec.lon_max_deg)
           | (lat < spec.lat_min_deg) | (lat > spec.lat_max_deg))
    if np.any(bad):
        i = int(np.argmax(bad))
        rid = record_ids[i] if record_ids is not None else None
        raise ZoneError(
            f"coordinate ({lon[i]:.5f}, {lat[i]:.5f}) outside projection "
            f"zone [{spec.lon_min_deg}, {spec.lon_max_deg}] x "
            f"[{spec.lat_min_deg}, {spec.lat_max_deg}]"
            + (f" (record {rid})" if rid is not None else f" (row {i})"),
            record_id=rid, index=i)

    lam = np.radians(lon)
    phi = np.radians(lat)
    lam0 = math.radians(spec.origin_lon_deg)

    if spec.kind == "lambert-conformal-conic":
        n, big_f, rho0 = _lcc_constants(spec)
        t = _lcc_t(phi)
        rho = _A * big_f * t ** n
        theta = n * (lam - lam0)
        x = spec.false_easting_m + rho * np.sin(theta)
        y = spec.false_northing_m + rho0 - rho * np.cos(theta)
    else:
        phi0 = math.radians(spec.origin_lat_deg)
        mr, nu = _local_radii(phi0)
        x = spec.false_easting_m + nu * math.cos(phi0) * (lam - lam0)
        y = spec.false_northing_m + mr * (phi - phi0)
    return np.column_stack([x, y])


# ---------------------------------------------------------------------------
# Registry ingest
# ---------------------------------------------------------------------------

@dataclass
class IngestResult:
    """Parsed antenna records plus the rows that could not be used.

    Each reject is ``{"line": int, "reason": str, "row": dict}`` so a
    run can be audited; bad rows are collected, never silently dropped.
    """

    records: list
    rejects: list


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        # French registry exports use a decimal comma
        return float(text.replace(",", "."))


@contextlib.contextmanager
def utf8_errors(path):
    """Raise a decoding error in reading ``path`` as DataError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


class DelimitedTable:
    """Delimited text read with ``csv.reader``: the header, the
    positions of the named columns, and the records as lists.

    ``positions`` holds the position of each name in ``columns``: its
    last occurrence, whose value ``csv.DictReader`` keeps.  Iterating
    ``reader`` gives the records after the header; a blank line is an
    empty list.  Only the rows a caller keeps or rejects are turned
    into dicts, by ``row`` and ``reject``.

    Raises
    ------
    SchemaError
        If a name in ``columns`` is not in the header.
    """

    def __init__(self, fh, path, columns, delimiter: str = ","):
        self.reader = csv.reader(fh, delimiter=delimiter)
        self.header = next(self.reader, [])
        self.positions = []
        for col in columns:
            if col not in self.header:
                raise SchemaError(f"{path}: missing column {col!r}; "
                                  f"header has {self.header}")
            self.positions.append(
                len(self.header) - 1 - self.header[::-1].index(col))

    def row(self, fields) -> dict:
        """``fields`` keyed as ``csv.DictReader`` keys them: the last
        of duplicate header names wins, missing trailing fields are
        None and the extras of an overlong row are a list under key
        None."""
        header = self.header
        row = dict(zip(header, fields))
        if len(header) < len(fields):
            row[None] = fields[len(header):]
        else:
            for key in header[len(fields):]:
                row[key] = None
        return row

    def reject(self, fields, reason: str) -> dict:
        """The reject entry of the record just read: the physical line
        it starts on (the reader's line count less the line breaks in
        its quoted fields), ``reason`` and its row."""
        breaks = sum(f.count("\n") + f.count("\r") - f.count("\r\n")
                     for f in fields)
        return {"line": self.reader.line_num - breaks, "reason": reason,
                "row": self.row(fields)}


# Rows formatted and written at a time, so that a long table holds one
# block's cell strings, not all of them; the bytes do not depend on it.
_CSV_BLOCK_ROWS = 1 << 14


def write_csv(path, header, columns) -> None:
    """``columns`` as CSV rows under ``header``.  A float array column
    writes each finite value as its ``repr`` and NaN or +-inf as an
    empty cell; any other column is written as its values are."""
    rows = min(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            cells = []
            for column in columns:
                column = column[start:start + _CSV_BLOCK_ROWS]
                if isinstance(column, np.ndarray):
                    column = [repr(v) if ok else "" for v, ok in zip(
                        column.tolist(), np.isfinite(column).tolist())]
                cells.append(column)
            writer.writerows(zip(*cells))


def ingest(path, *, id_column: str = "id", lon_column: str = "lon",
           lat_column: str = "lat", operator_column: str | None = None,
           technology_column: str | None = None,
           operator: str | None = None,
           technology: str | None = None) -> IngestResult:
    """Read a registry export: header row, comma or semicolon delimited.

    Rows with an unparsable or out-of-range coordinate, or too short to
    hold the id, operator or technology field, are rejects; the others
    that pass the filters are records.

    Parameters
    ----------
    path : str or Path
    id_column, lon_column, lat_column : str
        Header names of the mandatory columns.
    operator_column, technology_column : str, optional
        When given, the values are attached to the records and the
        ``operator`` / ``technology`` filters apply to them.

    Raises
    ------
    SchemaError
        If a mandatory column is missing.
    EmptyInputError
        If the file holds no data rows.
    DataError
        If the file is not UTF-8 text.
    """
    with open(path, newline="", encoding="utf-8") as fh, utf8_errors(path):
        head = fh.readline()
        if not head.strip():
            raise EmptyInputError(f"{path}: empty input")
        delimiter = ";" if head.count(";") > head.count(",") else ","
        fh.seek(0)
        names = [id_column, lon_column, lat_column]
        names += [c for c in (operator_column, technology_column) if c]
        table = DelimitedTable(fh, path, names, delimiter)
        id_i, lon_i, lat_i = table.positions[:3]
        op_i = table.positions[3] if operator_column else None
        tech_i = table.positions[-1] if technology_column else None
        # the fields a record needs besides its coordinates
        named = [(i, col) for i, col in ((id_i, id_column),
                                         (op_i, operator_column),
                                         (tech_i, technology_column))
                 if i is not None]
        width = 1 + max(i for i, _ in named)

        records, rejects = [], []
        for fields in table.reader:
            try:
                lon = _parse_float(fields[lon_i])
                lat = _parse_float(fields[lat_i])
            except (ValueError, IndexError):
                if fields:
                    rejects.append(table.reject(fields,
                                                "unparsable coordinate"))
                continue
            if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                rejects.append(table.reject(fields,
                                            "coordinate out of range"))
                continue
            if len(fields) < width:
                missing = next(col for i, col in named if i >= len(fields))
                rejects.append(table.reject(fields, f"no {missing!r} field"))
                continue
            tech = fields[tech_i].strip() if tech_i is not None else ""
            if technology is not None and tech != technology:
                continue
            op = fields[op_i].strip() if op_i is not None else ""
            if operator is not None and op != operator:
                continue
            records.append(AntennaRecord(
                record_id=fields[id_i],
                coordinate=GeoCoordinate(lon_deg=lon, lat_deg=lat),
                operator=op, technology=tech, attributes=table.row(fields)))

    if not records and not rejects:
        raise EmptyInputError(f"{path}: no data rows")
    return IngestResult(records=records, rejects=rejects)


# ---------------------------------------------------------------------------
# Observation windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle, metre coordinates."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    kind = "rectangle"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max,
                                       self.y_min, self.y_max))):
            raise ValueError("rectangle bounds must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("rectangle must have positive extent")
        if not math.isfinite(self.area()):
            raise ValueError("rectangle area must be finite")

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return ((p[:, 0] >= self.x_min) & (p[:, 0] <= self.x_max)
                & (p[:, 1] >= self.y_min) & (p[:, 1] <= self.y_max))

    def boundary_distance(self, points) -> np.ndarray:
        """Distance to the window edge; negative outside the window."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.minimum.reduce([p[:, 0] - self.x_min,
                                  self.x_max - p[:, 0],
                                  p[:, 1] - self.y_min,
                                  self.y_max - p[:, 1]])

    def center(self):
        return (0.5 * (self.x_min + self.x_max),
                0.5 * (self.y_min + self.y_max))

    def circumradius(self) -> float:
        return 0.5 * math.hypot(self.x_max - self.x_min,
                                self.y_max - self.y_min)

    def bounding_box(self) -> "Rectangle":
        return self

    def min_extent(self) -> float:
        return min(self.x_max - self.x_min, self.y_max - self.y_min)

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(self.x_min, self.x_max, size=n)
        y = rng.uniform(self.y_min, self.y_max, size=n)
        return np.column_stack([x, y])

    def to_dict(self):
        return {"kind": "rectangle", "x_min": self.x_min, "x_max": self.x_max,
                "y_min": self.y_min, "y_max": self.y_max}


@dataclass(frozen=True)
class Disk:
    """Circular window, metre coordinates."""

    center_x: float
    center_y: float
    radius: float

    kind = "disk"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center_x, self.center_y,
                                       self.radius))):
            raise ValueError("disk centre and radius must be finite")
        if not self.radius > 0:
            raise ValueError("disk must have positive radius")
        if not math.isfinite(4.0 * self.radius * self.radius):
            raise ValueError("disk area must be finite, and so must its "
                             "bounding square's")

    def area(self) -> float:
        return math.pi * self.radius ** 2

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.hypot(p[:, 0] - self.center_x, p[:, 1] - self.center_y)
        return d <= self.radius

    def boundary_distance(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.hypot(p[:, 0] - self.center_x, p[:, 1] - self.center_y)
        return self.radius - d

    def center(self):
        return (self.center_x, self.center_y)

    def circumradius(self) -> float:
        return self.radius

    def bounding_box(self) -> Rectangle:
        return Rectangle(self.center_x - self.radius,
                         self.center_x + self.radius,
                         self.center_y - self.radius,
                         self.center_y + self.radius)

    def min_extent(self) -> float:
        return 2.0 * self.radius

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        r = self.radius * np.sqrt(rng.uniform(size=n))
        a = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([self.center_x + r * np.cos(a),
                                self.center_y + r * np.sin(a)])

    def to_dict(self):
        return {"kind": "disk", "center_x": self.center_x,
                "center_y": self.center_y, "radius": self.radius}


def window_from_dict(d) -> "Window":
    if d["kind"] == "rectangle":
        return Rectangle(d["x_min"], d["x_max"], d["y_min"], d["y_max"])
    if d["kind"] == "disk":
        return Disk(d["center_x"], d["center_y"], d["radius"])
    raise ValueError(f"unknown window kind: {d['kind']!r}")


Window = Rectangle | Disk


# ---------------------------------------------------------------------------
# Point patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointPattern:
    """A finite planar point set observed in a window."""

    points: np.ndarray
    window: Window

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.asarray(self.points, dtype=float).reshape(-1, 2))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def nn_distances(self) -> np.ndarray:
        """Distance from each point to its nearest other point, computed
        once per pattern; inf for a lone point."""
        nn = cKDTree(self.points).query(self.points, k=2)[0][:, 1]
        nn.setflags(write=False)
        return nn


# How far "jitter" moves each repeat of a duplicate point, in metres.
_JITTER_M = 1e-3


def build_pattern(points, window: Window, *,
                  on_duplicates: str = "reject") -> PointPattern:
    """Validate points against a window and construct a pattern.

    Parameters
    ----------
    points : (n, 2) array-like
    window : Window
    on_duplicates : {"reject", "jitter"}
        Coincident points usually indicate a data problem (one mast
        reported once per carrier), so the default refuses them.  With
        ``"jitter"`` every repeat is displaced by ``_JITTER_M`` metres
        in a deterministic direction and a warning is emitted.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise DegeneratePatternError("pattern has no points")
    inside = window.contains(pts)
    if not np.all(inside):
        i = int(np.argmax(~inside))
        raise OutsideWindowError(
            f"point {i} at ({pts[i, 0]:.3f}, {pts[i, 1]:.3f}) "
            f"lies outside the window")

    _, first_idx, counts = np.unique(pts, axis=0, return_index=True,
                                     return_counts=True)
    n_dup = pts.shape[0] - first_idx.shape[0]
    if n_dup > 0:
        if on_duplicates == "reject":
            raise DataError(
                f"{n_dup} duplicate point(s); pass on_duplicates='jitter' "
                f"to keep them with a {_JITTER_M:g} m displacement")
        if on_duplicates != "jitter":
            raise ValueError("on_duplicates must be 'reject' or 'jitter'")
        pts = pts.copy()
        seen: dict = {}
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        moved = 0
        for i in range(pts.shape[0]):
            key = (pts[i, 0], pts[i, 1])
            k = seen.get(key, 0)
            seen[key] = k + 1
            if k > 0:
                ang = 2.0 * math.pi * ((moved + 1) * golden % 1.0)
                pts[i, 0] += _JITTER_M * math.cos(ang)
                pts[i, 1] += _JITTER_M * math.sin(ang)
                moved += 1
        warnings.warn(f"displaced {moved} duplicate point(s) by "
                      f"{_JITTER_M:g} m", stacklevel=2)
        pts = pts[window.contains(pts)]
    return PointPattern(points=pts, window=window)


def clip(points, window: Window, *,
         on_duplicates: str = "reject") -> PointPattern:
    """Keep the points inside ``window`` (boundary inclusive).

    Raises
    ------
    DegeneratePatternError
        If fewer than two points survive.
    """
    pts = np.asarray(getattr(points, "points", points),
                     dtype=float).reshape(-1, 2)
    kept = pts[window.contains(pts)]
    if kept.shape[0] < 2:
        raise DegeneratePatternError(
            f"only {kept.shape[0]} point(s) inside the window; "
            f"need at least 2")
    return build_pattern(kept, window, on_duplicates=on_duplicates)


class IntensityEstimate(NamedTuple):
    """(value, se): points per square metre with its standard error."""

    value: float
    se: float


def intensity_estimate(pattern: PointPattern) -> IntensityEstimate:
    """Stationary intensity estimate: count over window area.

    The standard error is ``sqrt(value / area)``, the Poisson-count
    approximation.
    """
    if pattern.n == 0:
        raise DegeneratePatternError("cannot estimate intensity of an "
                                     "empty pattern")
    area = pattern.window.area()
    lam = float(pattern.n / area)
    return IntensityEstimate(lam, math.sqrt(lam / area))


# ---------------------------------------------------------------------------
# Quadrat homogeneity screen
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratTestResult:
    statistic: float
    dof: int
    p_value: float
    counts: np.ndarray
    expected: np.ndarray
    grid_size: int


def _disk_cell_area(disk: Disk, x0, x1, y0, y1) -> float:
    # area of [x0,x1]x[y0,y1] inside the disk, by integrating the
    # clipped vertical chord; exact up to quadrature tolerance
    from scipy import integrate

    r = disk.radius
    x0, x1 = x0 - disk.center_x, x1 - disk.center_x
    y0, y1 = y0 - disk.center_y, y1 - disk.center_y
    lo, hi = max(x0, -r), min(x1, r)
    if lo >= hi:
        return 0.0

    def chord(x):
        h = math.sqrt(max(r * r - x * x, 0.0))
        return max(min(y1, h) - max(y0, -h), 0.0)

    breaks = sorted({lo, hi}
                    | {b for y in (y0, y1) if abs(y) < r
                       for s in (-1.0, 1.0)
                       for b in (s * math.sqrt(r * r - y * y),)
                       if lo < b < hi})
    val = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        val += integrate.quad(chord, a, b, limit=200)[0]
    return val


def quadrat_stationarity(pattern: PointPattern,
                         grid_size: int | None = None) -> QuadratTestResult:
    """Chi-square screen for first-order homogeneity.

    Counts points in a ``grid_size x grid_size`` partition of the
    window's bounding box and compares against the uniform expectation
    with a Pearson chi-square statistic.  Cells outside a disk window
    are dropped; the degrees of freedom are the number of contributing
    cells minus one.

    This screens for gross intensity trends only; a small p-value
    says the homogeneous model is doubtful, not which alternative
    holds.
    """
    if grid_size is None:
        grid_size = max(2, int(math.floor(math.sqrt(pattern.n / 5.0))))
    m = int(grid_size)
    if m < 2:
        raise ValueError("grid_size must be at least 2")
    if pattern.n < m * m:
        raise InsufficientDataError(
            f"{pattern.n} points cannot fill a {m}x{m} quadrat grid")

    w = pattern.window
    box = w.bounding_box()
    x_edges = np.linspace(box.x_min, box.x_max, m + 1)
    y_edges = np.linspace(box.y_min, box.y_max, m + 1)
    if isinstance(w, Rectangle):
        areas = np.full((m, m), w.area() / (m * m))
    else:
        areas = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                areas[i, j] = _disk_cell_area(w, x_edges[i], x_edges[i + 1],
                                              y_edges[j], y_edges[j + 1])

    counts, _, _ = np.histogram2d(pattern.points[:, 0], pattern.points[:, 1],
                                  bins=[x_edges, y_edges])
    keep = areas > 1e-9 * w.area()
    expected = pattern.n * areas / areas[keep].sum()
    if expected[keep].min() < 5.0:
        warnings.warn("quadrat expectation below 5 in some cells; the "
                      "chi-square approximation is rough", stacklevel=2)
    stat = float(((counts[keep] - expected[keep]) ** 2
                  / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    p = float(chdtrc(dof, stat))
    return QuadratTestResult(statistic=stat, dof=dof, p_value=p,
                             counts=counts, expected=expected, grid_size=m)
