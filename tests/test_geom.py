import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cellpp.errors import (
    DataError,
    DegeneratePatternError,
    EmptyInputError,
    InsufficientDataError,
    SchemaError,
    ZoneError,
)
from cellpp.geom import (
    Disk,
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
)

from cellpp.estimators import RadiusGrid, SummaryCurve, write_curves_csv
from cellpp.gof import EnvelopeBand, write_band_csv
from cellpp.pipeline import write_points_csv

from oracles import dictreader_ingest, unproject

# GRS80, restated here independently of the implementation
A_GRS80 = 6378137.0
F_GRS80 = 1.0 / 298.257222101
E2_GRS80 = F_GRS80 * (2.0 - F_GRS80)


def meridian_radius(lat_deg):
    s = math.sin(math.radians(lat_deg))
    return A_GRS80 * (1.0 - E2_GRS80) / (1.0 - E2_GRS80 * s * s) ** 1.5


def parallel_radius(lat_deg):
    s = math.sin(math.radians(lat_deg))
    lat = math.radians(lat_deg)
    return A_GRS80 / math.sqrt(1.0 - E2_GRS80 * s * s) * math.cos(lat)


def conic_scale(spec, lon, lat, dlon=1e-6, dlat=1e-6):
    """Point scale factors along meridian and parallel by finite
    differences against hand-computed ellipsoidal arcs."""
    p0 = project([[lon, lat]], spec)[0]
    pn = project([[lon, lat + dlat]], spec)[0]
    pe = project([[lon + dlon, lat]], spec)[0]
    arc_n = meridian_radius(lat) * math.radians(dlat)
    arc_e = parallel_radius(lat) * math.radians(dlon)
    return (np.hypot(*(pn - p0)) / arc_n, np.hypot(*(pe - p0)) / arc_e)


class TestLambert93:
    spec = ProjectionSpec.lambert_93()

    def test_false_origin(self):
        xy = project([[3.0, 46.5]], self.spec)
        assert np.allclose(xy, [[700000.0, 6600000.0]], atol=1e-3)

    def test_unit_scale_on_standard_parallels(self):
        for lat in (44.0, 49.0):
            k_n, k_e = conic_scale(self.spec, 3.0, lat)
            assert abs(k_n - 1.0) < 1e-6
            assert abs(k_e - 1.0) < 1e-6

    def test_scale_below_one_between_parallels_above_outside(self):
        k_mid = conic_scale(self.spec, 3.0, 46.5)[0]
        assert k_mid < 1.0 - 1e-5
        for lat in (43.0, 50.0):
            assert conic_scale(self.spec, 3.0, lat)[0] > 1.0 + 1e-5

    def test_conformal_everywhere_sampled(self):
        for lon, lat in [(-1.0, 43.2), (3.0, 46.5), (7.4, 48.9),
                         (5.0, 50.5)]:
            k_n, k_e = conic_scale(self.spec, lon, lat)
            assert abs(k_n - k_e) < 1e-6 * k_n

    def test_round_trip(self, rng):
        lon = rng.uniform(-4.5, 8.0, size=100)
        lat = rng.uniform(42.0, 51.0, size=100)
        coords = np.column_stack([lon, lat])
        back = unproject(project(coords, self.spec), self.spec)
        assert np.max(np.abs(back - coords)) < 1e-9

    def test_zone_error(self):
        with pytest.raises(ZoneError) as err:
            project([[3.0, 46.5], [12.0, 46.5]], self.spec,
                    record_ids=["a", "b"])
        assert err.value.record_id == "b"
        assert err.value.index == 1

    def test_paris_position(self):
        xy = project([[3.0, 46.5], [2.35, 48.85]], self.spec)
        assert xy.shape == (2, 2)
        # Paris is roughly 100 km west, 250 km north of the false origin
        assert 550000 < xy[1, 0] < 700000
        assert 6840000 < xy[1, 1] < 6900000


class TestLocalTangent:
    def test_origin_maps_to_zero(self):
        spec = ProjectionSpec.local_tangent(5.5, 50.6)
        assert np.allclose(project([[5.5, 50.6]], spec), 0.0, atol=1e-12)

    def test_equator_degree_arcs(self):
        spec = ProjectionSpec.local_tangent(0.0, 0.0)
        xy = project([[1.0, 0.0], [0.0, 1.0]], spec)
        assert abs(xy[0, 0] - 111319.4908) < 0.5
        assert abs(xy[0, 1]) < 1e-9
        assert abs(xy[1, 1] - 110574.2758) < 0.5
        assert abs(xy[1, 0]) < 1e-9

    def test_mid_latitude_degree_arcs(self):
        spec = ProjectionSpec.local_tangent(10.0, 45.0)
        xy = project([[10.01, 45.0], [10.0, 45.01]], spec)
        assert abs(xy[0, 0] - 78846.835 * 0.01) < 0.01
        assert abs(xy[1, 1] - 6367381.816 * math.radians(0.01)) < 0.01

    def test_round_trip_exact(self, rng):
        spec = ProjectionSpec.local_tangent(5.5, 50.6, half_span=2.0)
        coords = np.column_stack([rng.uniform(4.0, 7.0, 50),
                                  rng.uniform(49.0, 52.0, 50)])
        back = unproject(project(coords, spec), spec)
        assert np.max(np.abs(back - coords)) < 1e-12

    def test_validity_box(self):
        spec = ProjectionSpec.local_tangent(5.5, 50.6)
        with pytest.raises(ZoneError):
            project([[9.0, 50.6]], spec)


class TestWindows:
    def test_rectangle_basics(self):
        w = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        assert w.area() == pytest.approx(1.69e8)
        assert w.min_extent() == 13000.0
        assert w.circumradius() == pytest.approx(13000.0 * math.sqrt(2) / 2)
        assert w.center() == (6500.0, 6500.0)

    def test_rectangle_contains_boundary_inclusive(self, unit_square):
        pts = [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0 + 1e-12, 0.5]]
        assert list(unit_square.contains(pts)) == [True, True, True, False]

    def test_rectangle_boundary_distance(self, unit_square):
        d = unit_square.boundary_distance(
            [[0.5, 0.5], [0.0, 0.3], [0.2, 0.4], [-0.1, 0.5]])
        assert np.allclose(d, [0.5, 0.0, 0.2, -0.1])

    def test_disk_basics(self):
        w = Disk(1.0, -2.0, 3.0)
        assert w.area() == pytest.approx(math.pi * 9.0)
        assert w.min_extent() == 6.0
        assert w.circumradius() == 3.0
        d = w.boundary_distance([[1.0, -2.0], [3.0, -2.0], [5.0, -2.0]])
        assert np.allclose(d, [3.0, 1.0, -1.0])
        assert list(w.contains([[4.0, -2.0], [4.0 + 1e-9, -2.0]])) \
            == [True, False]

    def test_bounding_boxes(self):
        rect = Rectangle(-1.0, 4.0, 2.0, 3.0)
        assert rect.bounding_box() is rect
        assert Disk(1.0, -2.0, 0.5).bounding_box() \
            == Rectangle(0.5, 1.5, -2.5, -1.5)

    @pytest.mark.parametrize("window", [Rectangle(0.0, 2.0, 0.0, 1.0),
                                        Disk(0.5, 0.5, 1.5)])
    def test_boundary_distance_is_lipschitz(self, window, rng):
        p = window.sample_uniform(200, rng)
        q = window.sample_uniform(200, rng)
        bp = window.boundary_distance(p)
        bq = window.boundary_distance(q)
        gap = np.abs(bp - bq) - np.hypot(*(p - q).T)
        assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("window", [Rectangle(-1.0, 4.0, 2.0, 3.0),
                                        Disk(7.0, -1.0, 2.5)])
    def test_dict_round_trip(self, window):
        assert window_from_dict(window.to_dict()) == window

    def test_window_from_dict_unknown_kind(self):
        with pytest.raises(ValueError):
            window_from_dict({"kind": "hexagon"})

    def test_sample_uniform_inside(self, rng):
        w = Disk(0.0, 0.0, 2.0)
        pts = w.sample_uniform(500, rng)
        assert bool(np.all(w.contains(pts)))

    def test_degenerate_windows_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Disk(0.0, 0.0, 0.0)
        # an infinite side would give a zero intensity
        for bad in (math.inf, -math.inf, math.nan):
            for window in ((Rectangle, 0.0, bad, 0.0, 1.0),
                           (Rectangle, bad, 1.0, 0.0, 1.0),
                           (Disk, bad, 0.0, 1.0), (Disk, 0.0, 0.0, bad)):
                with pytest.raises(ValueError, match="finite"):
                    window[0](*window[1:])
        # finite bounds, but an area that overflows
        for window in ((Rectangle, 0.0, 1e300, 0.0, 1e300),
                       (Rectangle, -1.7e308, 1.7e308, 0.0, 1.0),
                       (Disk, 0.0, 0.0, 1e300), (Disk, 0.0, 0.0, 7e153)):
            with pytest.raises(ValueError, match="area must be finite"):
                window[0](*window[1:])


class TestBuildPattern:
    def test_clip_keeps_inside(self, unit_square):
        pts = [[0.5, 0.5], [1.5, 0.5], [0.2, 0.9], [-1.0, 0.0], [1.0, 1.0]]
        pat = clip(pts, unit_square)
        assert pat.n == 3
        assert bool(np.all(unit_square.contains(pat.points)))

    def test_clip_idempotent(self, unit_square, rng):
        pts = rng.uniform(-0.5, 1.5, size=(60, 2))
        pat = clip(pts, unit_square)
        again = clip(pat, unit_square)
        assert np.array_equal(pat.points, again.points)

    def test_clip_too_few_survivors(self, unit_square):
        with pytest.raises(DegeneratePatternError):
            clip([[2.0, 2.0], [3.0, 3.0], [0.5, 0.5]], unit_square)

    def test_empty_pattern_rejected(self, unit_square):
        with pytest.raises(DegeneratePatternError):
            clip(np.empty((0, 2)), unit_square)

    def test_duplicates_rejected_by_default(self, unit_square):
        pts = [[0.5, 0.5], [0.2, 0.2], [0.5, 0.5]]
        with pytest.raises(DataError):
            clip(pts, unit_square)

    def test_duplicates_jittered_on_request(self):
        w = Rectangle(0.0, 100.0, 0.0, 100.0)
        pts = [[50.0, 50.0], [20.0, 20.0], [50.0, 50.0], [50.0, 50.0]]
        with pytest.warns(UserWarning, match="duplicate"):
            pat = clip(pts, w, on_duplicates="jitter")
        assert pat.n == 4
        assert np.unique(pat.points, axis=0).shape[0] == 4
        moved = np.hypot(pat.points[:, 0] - np.array(pts)[:, 0],
                         pat.points[:, 1] - np.array(pts)[:, 1])
        assert np.max(moved) <= 1e-3 + 1e-12

    def test_jittered_repeats_that_leave_the_window_are_counted(self):
        # at a corner the repeats moved out of the window are dropped,
        # before the two-point minimum is applied
        w = Rectangle(0.0, 100.0, 0.0, 100.0)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DegeneratePatternError, match="only 1 point"):
            warnings.simplefilter("always")
            clip([[0.0, 0.0], [0.0, 0.0]], w, on_duplicates="jitter")
        assert [str(c.message) for c in caught] == [
            "displaced 1 duplicate point(s) by 0.001 m; dropped 1 that "
            "left the window"]
        with pytest.warns(UserWarning, match="displaced 3 .*; dropped 2 "):
            pat = clip([[0.0, 0.0]] * 4 + [[50.0, 50.0]], w,
                       on_duplicates="jitter")
        assert pat.n == 3
        assert bool(np.all(w.contains(pat.points)))


class TestIntensity:
    def test_unit_square_count(self, unit_square, rng):
        pat = PointPattern(rng.uniform(size=(100, 2)), unit_square)
        est = intensity_estimate(pat)
        assert est.value == pytest.approx(100.0)
        assert est.se == pytest.approx(10.0)

    def test_two_square_metres(self, rng):
        w = Rectangle(0.0, 2.0, 0.0, 1.0)
        pts = np.column_stack([rng.uniform(0, 2, 50), rng.uniform(0, 1, 50)])
        est = intensity_estimate(PointPattern(pts, w))
        assert est.value == pytest.approx(25.0)
        assert est.se == pytest.approx(math.sqrt(12.5))

    def test_deployment_scale(self, rng):
        w = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        pts = w.sample_uniform(119, rng)
        est = intensity_estimate(PointPattern(pts, w))
        assert est.value == pytest.approx(119.0 / 1.69e8)

    def test_window_growth_dilutes(self, rng):
        pts = rng.uniform(size=(80, 2))
        small = intensity_estimate(PointPattern(pts, Rectangle(0, 1, 0, 1)))
        big = intensity_estimate(PointPattern(pts, Rectangle(0, 2, 0, 2)))
        assert big.value == pytest.approx(small.value / 4.0)

    def test_empty_pattern(self, unit_square):
        with pytest.raises(DegeneratePatternError):
            intensity_estimate(PointPattern(np.empty((0, 2)), unit_square))


def _cell_centers(m, jitter=0.0):
    # m x m grid of cell centres in the unit square
    c = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(c, c)
    return np.column_stack([xx.ravel(), yy.ravel()]) + jitter


class TestQuadratScreen:
    def test_perfectly_uniform_counts(self, unit_square):
        base = _cell_centers(3)
        offs = np.array([[0.0, 0.0], [0.01, 0.0], [-0.01, 0.0],
                         [0.0, 0.01], [0.0, -0.01]])
        pts = np.concatenate([base + o for o in offs])
        res = quadrat_stationarity(PointPattern(pts, unit_square))
        assert res.grid_size == 3
        assert res.dof == 8
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_single_hot_cell(self, unit_square, rng):
        pts = np.column_stack([rng.uniform(0.0, 0.45, 40),
                               rng.uniform(0.0, 0.45, 40)])
        res = quadrat_stationarity(PointPattern(pts, unit_square),
                                   grid_size=2)
        # counts (40, 0, 0, 0) against expectation 10 per cell
        assert res.dof == 3
        assert res.statistic == pytest.approx(120.0)
        assert res.p_value < 1e-20

    def test_low_expectation_warns(self, unit_square, rng):
        pts = np.column_stack([rng.uniform(0.0, 1.0, 16),
                               rng.uniform(0.0, 1.0, 16)])
        with pytest.warns(UserWarning, match="quadrat expectation"):
            quadrat_stationarity(PointPattern(pts, unit_square),
                                 grid_size=2)

    def test_exact_expectation_of_5_does_not_warn(self, rng):
        # 45 points on the default 3x3 grid expect exactly 5 per cell,
        # which n * area / total area rounds to 4.999999999999999
        w = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        pat = PointPattern(w.sample_uniform(45, rng), w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = quadrat_stationarity(pat)
        assert res.grid_size == 3

    def test_disk_cells_have_equal_expectation(self, rng):
        # every one of the 20 x 20 cells expects 5 points, so no warning
        w = Disk(0.0, 0.0, 1.0)
        pat = PointPattern(w.sample_uniform(2000, rng), w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = quadrat_stationarity(pat)
        assert res.grid_size == 20
        assert res.dof == 399
        assert res.expected.min() == pytest.approx(5.0)
        assert res.counts.sum() == 2000

    def test_disk_counts_centre_and_circle(self, rng):
        # the centre and points on the circle that the window keeps; by
        # dx^2 + dy^2 about a tenth of these lie past the outer ring
        w = Disk(6500.0, 6500.0, 6500.0)
        a = rng.uniform(-np.pi, np.pi, 200)
        circle = np.column_stack([6500.0 + 6500.0 * np.cos(a),
                                  6500.0 + 6500.0 * np.sin(a)])
        pts = np.concatenate([[[6500.0, 6500.0]], circle[w.contains(circle)]])
        res = quadrat_stationarity(PointPattern(pts, w), grid_size=2)
        assert res.counts.sum() == len(pts)

    def test_disk_quadrants_hand_value(self):
        w = Disk(0.0, 0.0, 1.0)
        quadrant = np.array([[0.3, 0.3], [0.5, 0.2], [0.2, 0.5],
                             [0.6, 0.4], [0.35, 0.55], [0.15, 0.2],
                             [0.45, 0.45], [0.25, 0.65]])
        signs = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        counts = [16, 8, 8, 8]
        blocks = []
        for (sx, sy), c in zip(signs, counts):
            reps = quadrant[np.arange(c) % 8] * [sx, sy]
            shift = (np.arange(c) // 8)[:, None] * [0.011 * sx, 0.013 * sy]
            blocks.append(reps + shift)
        pat = PointPattern(np.concatenate(blocks), w)
        res = quadrat_stationarity(pat, grid_size=2)
        # cells: rings split at r/sqrt(2), half-disks split at theta = 0,
        # expectation 10 per cell.  Outside r/sqrt(2) lie (0.6, 0.4) in
        # every quadrant (rho^2 = 0.52) and the shifted (0.261, 0.663)
        # (rho^2 = 0.5077): upper half 20 inner + 4 outer, lower half
        # 14 + 2.  chi2 = (10^2 + 4^2 + 8^2 + 6^2)/10 = 21.6,
        # P(chi2_3 > 21.6) = 7.9004617e-5
        assert res.counts.tolist() == [[14, 20], [2, 4]]
        assert res.dof == 3
        assert res.statistic == pytest.approx(21.6)
        assert res.p_value == pytest.approx(7.9004617e-5, abs=1e-9)

    @pytest.mark.parametrize("window", [Rectangle(0.0, 1.0, 0.0, 1.0),
                                        Disk(0.0, 0.0, 1.0)],
                             ids=["square", "disk"])
    def test_poisson_rejection_rate_near_nominal(self, window):
        from conftest import ppp
        lows = 0
        n_trials = 300
        for seed in range(n_trials):
            pat = ppp(120.0, window, seed=700 + seed)
            res = quadrat_stationarity(pat, grid_size=3)
            lows += res.p_value < 0.01
        assert lows / n_trials <= 0.03

    def test_too_few_points(self, unit_square, rng):
        pat = PointPattern(rng.uniform(size=(8, 2)), unit_square)
        with pytest.raises(InsufficientDataError):
            quadrat_stationarity(pat, grid_size=3)

    def test_default_grid_size(self, unit_square, rng):
        pat = PointPattern(rng.uniform(size=(180, 2)), unit_square)
        res = quadrat_stationarity(pat)
        assert res.grid_size == 6


REGISTRY = """id,lon,lat,operator,tech
s1,5.5740,50.6450,alpha,lte-1800
s2,5.5810,50.6391,alpha,gsm-900
s3,5.5695,50.6512,beta,lte-1800
"""


class TestIngest:
    def test_basic(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(REGISTRY)
        ids, lonlat, rejects = ingest(path, operator_column="operator",
                                      technology_column="tech")
        assert ids == ["s1", "s2", "s3"]
        assert rejects == []
        assert lonlat.dtype == np.float64
        assert lonlat.tolist() == [[5.5740, 50.6450], [5.5810, 50.6391],
                                   [5.5695, 50.6512]]

    def test_malformed_rows_become_rejects(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("id,lon,lat\n"
                        "a,5.57,50.64\n"
                        "b,not-a-number,50.64\n"
                        "c,5.58,95.0\n")
        ids, lonlat, rejects = ingest(path)
        assert ids == ["a"]
        assert lonlat.tolist() == [[5.57, 50.64]]
        reasons = {r["line"]: r["reason"] for r in rejects}
        assert reasons == {3: "unparsable coordinate",
                           4: "coordinate out of range"}

    def test_semicolon_and_decimal_comma(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("id;lon;lat\nx1;5,6405;50,6412\nx2;5,61;50,63\n")
        ids, lonlat, _ = ingest(path)
        assert ids == ["x1", "x2"]
        assert lonlat.tolist() == [[5.6405, 50.6412], [5.61, 50.63]]

    def test_operator_and_technology_filters(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(REGISTRY)
        ids, lonlat, _ = ingest(path, operator_column="operator",
                                technology_column="tech", operator="alpha")
        assert ids == ["s1", "s2"]
        assert lonlat.shape == (2, 2)
        ids, lonlat, _ = ingest(path, operator_column="operator",
                                technology_column="tech", operator="alpha",
                                technology="lte-1800")
        assert ids == ["s1"]
        assert lonlat.tolist() == [[5.5740, 50.6450]]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("id,x,y\na,1,2\n")
        with pytest.raises(SchemaError):
            ingest(path)

    def test_empty_inputs(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyInputError):
            ingest(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("id,lon,lat\n")
        with pytest.raises(EmptyInputError):
            ingest(header_only)
        blank_rows = tmp_path / "blank.csv"
        blank_rows.write_text("id,lon,lat\n\n\r\n\n")
        with pytest.raises(EmptyInputError):
            ingest(blank_rows)

    def test_rows_the_filters_drop_are_data_rows(self, tmp_path):
        # a registry the filters empty has rows: it returns no ids, and
        # the caller says that nothing is left after filtering
        path = tmp_path / "reg.csv"
        path.write_text("id,lon,lat,technology\n"
                        "a,5.57,50.64,LTE\n\n"
                        "b,5.58,50.65,LTE\n")
        ids, lonlat, rejects = ingest(path, technology_column="technology",
                                      technology="GSM")
        assert (ids, lonlat.shape, rejects) == ([], (0, 2), [])

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("site;longitude;latitude\nq7;5.6;50.6\n")
        ids, lonlat, _ = ingest(path, id_column="site",
                                lon_column="longitude", lat_column="latitude")
        assert ids == ["q7"]
        assert lonlat.tolist() == [[5.6, 50.6]]


# A duplicate "lon" header (the last one is read), quoted ids broken by
# LF, CRLF and CR, blank lines, overlong rows, short rows with and
# without their coordinates, decimal commas and bad coordinates.
MESSY_REGISTRY = (
    "id;lon;lat;lon;operator;tech\n"
    "m1;9,9;50,1;5,5;alpha;lte-1800\n"
    "\n"
    "m2;1;50.2;5.6;beta;gsm-900;extra;more\n"
    '"m3\nsecond line";0;50.3;5.7;alpha;lte-1800\n'
    '"m3b\r\nthird\rfourth";0;50.3;5.7;alpha;lte-1800\n'
    '"m4\r\nbad";0;50.4;n/a;alpha;lte-1800\n'
    "m5;0;50.5\n"
    "\n"
    "\n"
    "m6;5.8;50.6;5.8;alpha;lte-1800\n"
    "m7;0;95;5.9;beta;gsm-900\n"
    "m8;0;50.8;5.9;gamma\n"
    "m9;0;50,9;5,95\n"
    "m10;5,95;50,95;5,95;gamma;gsm-900;\n"
)


@pytest.mark.parametrize("options", [
    {},
    {"operator_column": "operator"},
    {"operator_column": "operator", "technology_column": "tech"},
    {"technology_column": "tech", "technology": "lte-1800"},
    {"operator_column": "operator", "operator": "alpha"},
    {"lon_column": "lat", "lat_column": "lat", "id_column": "tech"},
], ids=["plain", "operator", "both", "technology-filter", "operator-filter",
        "other-columns"])
def test_ingest_matches_the_dictreader_loop(tmp_path, options):
    path = tmp_path / "messy.csv"
    path.write_text(MESSY_REGISTRY)
    (ids, lonlat, rejects), (want_ids, want_lonlat, want_rejects) = (
        ingest(path, **options), dictreader_ingest(path, **options))
    assert ids == want_ids
    assert np.array_equal(lonlat, want_lonlat)
    assert lonlat.shape == (len(ids), 2)
    assert rejects == want_rejects


def test_reject_lines_are_physical_lines(tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text(MESSY_REGISTRY)
    ids, lonlat, rejects = ingest(path, operator_column="operator",
                                  technology_column="tech")
    assert {r["row"]["id"]: (r["line"], r["reason"])
            for r in rejects} == {
        "m4\r\nbad": (10, "unparsable coordinate"),
        "m5": (12, "unparsable coordinate"),
        "m7": (16, "coordinate out of range"),
        "m8": (17, "no 'tech' field"),
        "m9": (18, "no 'operator' field"),
    }
    assert ids == [
        "m1", "m2", "m3\nsecond line", "m3b\r\nthird\rfourth", "m6",
        "m10"]
    # the last "lon" column is read, with or without a decimal comma
    assert lonlat.tolist() == [[5.5, 50.1], [5.6, 50.2], [5.7, 50.3],
                               [5.7, 50.3], [5.8, 50.6], [5.95, 50.95]]


@pytest.mark.parametrize("text", [
    MESSY_REGISTRY, "x;y\n1,5;2\n\noops;3\nnan;4\n5;6\n"],
    ids=["registry", "planar"])
def test_byte_order_mark_is_skipped(tmp_path, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    if text is MESSY_REGISTRY:
        options = {"operator_column": "operator", "technology_column": "tech"}
        (ids, lonlat, rejects), (want_ids, want_lonlat, want_rejects) = (
            ingest(marked, **options), ingest(plain, **options))
        assert ids == want_ids
        assert np.array_equal(lonlat, want_lonlat)
        assert rejects == want_rejects
        assert ids[0] == "m1"
    else:
        (got, got_rejects), (want, want_rejects) = map(read_points_csv,
                                                       (marked, plain))
        assert np.array_equal(got, want)
        assert got_rejects == want_rejects
        assert got.tolist() == [[1.5, 2.0], [5.0, 6.0]]


def test_ingest_project_clip_chain(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text(REGISTRY)
    ids, lonlat, _ = ingest(path)
    assert ids == ["s1", "s2", "s3"]
    spec = ProjectionSpec.local_tangent(5.575, 50.645)
    xy = project(lonlat, spec, record_ids=ids)
    w = Rectangle(-1500.0, 1500.0, -1500.0, 1500.0)
    pat = clip(xy, w)
    assert pat.n == 3
    # a degree of longitude at 50.6N is about 70.8 km, so 7 mdeg ~ 500 m
    assert np.max(np.abs(pat.points)) < 1200.0


def test_ingest_memory_stays_per_array_not_per_record(tmp_path):
    # 20,000 kept rows: their ids, a (n, 2) array and the reader's
    # buffers fit in 8 MB; an object and a dict of all fields per row
    # would take about 14 MB
    path = tmp_path / "reg.csv"
    with open(path, "w") as fh:
        fh.write("id,lon,lat,operator,tech\n")
        for i in range(20_000):
            fh.write(f"site{i:05d},{5 + i * 1e-5:.6f},{50 + i * 2e-5:.6f},"
                     f"alpha,lte-1800\n")
    tracemalloc.start()
    try:
        ids, lonlat, rejects = ingest(path, operator_column="operator",
                                      technology_column="tech",
                                      operator="alpha")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == 20_000 and lonlat.shape == (20_000, 2)
    assert rejects == []
    assert peak < 8 * 2**20


# Finite values whose shortest repr is long or signed, and the three
# non-finite ones.
CELL_VALUES = np.array([0.1 + 0.2, 1.0 / 3.0, -0.0, 5e-324,
                        1.7976931348623157e308, -2.5e-7,
                        math.nan, math.inf, -math.inf])


def _write_curve(path, v):
    grid = RadiusGrid(np.arange(v.size, dtype=float))
    write_curves_csv(path, SummaryCurve(grid=grid, values=v, kind="K",
                                        origin="empirical"))
    return ["value"]


def _write_band(path, v):
    grid = RadiusGrid(np.arange(v.size, dtype=float))
    write_band_csv(path, EnvelopeBand(
        grid=grid, lower=v, upper=v, kind="K", mode="global",
        replicates=39, significance=0.025, reference=v))
    return ["lower", "upper", "theoretical"]


def _write_points(path, v):
    write_points_csv(path, np.column_stack([v, v[::-1]]))
    return ["x", "y"]


@pytest.mark.parametrize("write", [_write_curve, _write_band, _write_points],
                         ids=["curves", "bands", "points"])
def test_csv_cells_round_trip_bit_for_bit(tmp_path, write):
    # every table goes through geom.write_csv: a finite cell parses
    # back to the same bits, a NaN or infinite one is empty
    path = tmp_path / "table.csv"
    columns = write(path, CELL_VALUES)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == CELL_VALUES.size
    for name in columns:
        values = CELL_VALUES[::-1] if name == "y" else CELL_VALUES
        for row, want in zip(rows, values):
            if math.isfinite(want):
                assert np.float64(row[name]).tobytes() == want.tobytes()
            else:
                assert row[name] == ""


def test_long_table_is_formatted_block_by_block(tmp_path):
    # the 400,000 rows of `stats --grid-points 100000`: with every cell
    # formatted before the first row, the peak was 88 MB; curve by curve
    # and block by block it is one curve's label lists plus one block's
    # cells (4.9 MB)
    import tracemalloc

    grid = RadiusGrid(np.linspace(0.0, 1000.0, 100_000))
    curves = [SummaryCurve(grid=grid, values=np.sqrt(grid.r), kind=kind,
                           origin="empirical") for kind in "KFGJ"]
    tracemalloc.start()
    try:
        write_curves_csv(tmp_path / "curves.csv", curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
