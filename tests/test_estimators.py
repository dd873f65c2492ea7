import math
import tracemalloc

import numpy as np
import pytest
from naive_estimators import naive_F, naive_G, naive_K

from cellpp import estimators
from cellpp.errors import DegeneratePatternError, GridMismatchError
from cellpp.estimators import (
    RadiusGrid,
    SummaryCurve,
    clark_evans_index,
    default_test_point_count,
    estimate_F,
    estimate_G,
    estimate_J,
    estimate_K,
    require_same_grid,
    write_curves_csv,
)
from cellpp.estimators import _close_pairs, _radius_index
from cellpp.geom import Disk, PointPattern, Rectangle
from scipy.spatial import cKDTree
from conftest import UNIT_SQUARE, ppp
from oracles import j_second_order_approx, read_curves_csv

# empty-space probability of a unit-rate-100 Poisson process at r=0.05,
# 1 - exp(-100 pi 0.05^2), evaluated at 50 digits and frozen
F_POIS_005 = 0.54406187223400376323


def curve(values, kind, r=None, origin="theoretical"):
    r = np.linspace(0.0, 1.0, len(values)) if r is None else np.asarray(r)
    return SummaryCurve(grid=RadiusGrid(r), values=np.asarray(values,
                                                              dtype=float),
                        kind=kind, origin=origin)


class TestRadiusGrid:
    def test_default_quarter_extent(self):
        g = RadiusGrid.default(Rectangle(0.0, 13000.0, 0.0, 26000.0))
        assert g.size == 512
        assert g.r[0] == 0.0
        assert g.r[-1] == pytest.approx(3250.0)

    def test_default_cap_at_a_thousand_neighbours(self):
        square = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        # the 13 km reference intensity: the cap, ~21 km, does not bind
        assert RadiusGrid.default(square, intensity=0.7e-6).matches(
            RadiusGrid.default(square))
        lam = 10000 / square.area()
        g = RadiusGrid.default(square, 64, intensity=lam)
        assert g.size == 64
        assert g.r[-1] == pytest.approx(math.sqrt(1000.0 / (math.pi * lam)))
        assert lam * math.pi * g.r[-1] ** 2 == pytest.approx(1000.0)
        # it binds from 16000 / pi points in a square on
        for n, binds in ((5092, False), (5094, True)):
            capped = RadiusGrid.default(square, intensity=n / square.area())
            assert (capped.r[-1] < 3250.0) == binds

    def test_validation(self):
        with pytest.raises(ValueError):
            RadiusGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            RadiusGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError):
            RadiusGrid(np.array([0.0]))

    def test_matches_and_spacing(self):
        g = RadiusGrid(np.array([0.0, 1.0, 3.0]))
        assert g.matches(RadiusGrid(np.array([0.0, 1.0, 3.0])))
        assert not g.matches(RadiusGrid(np.array([0.0, 1.0, 3.5])))
        assert np.allclose(g.spacing(), [1.0, 1.5, 2.0])

    def test_require_same_grid(self):
        a = curve([0.0, 0.1, 0.2], "F")
        b = curve([0.0, 0.1, 0.2, 0.3], "G")
        with pytest.raises(GridMismatchError):
            require_same_grid(a, b)


class TestHandValues:
    def test_K_two_point_pattern(self):
        w = Rectangle(0.0, 10.0, 0.0, 10.0)
        pat = PointPattern([[5.0, 5.0], [5.1, 5.0]], w)
        grid = RadiusGrid(np.array([0.0, 0.05, 0.2]))
        with pytest.warns(UserWarning, match="pattern has"):
            k = estimate_K(pat, grid)
        # no pair within 0.05; at 0.2 each point sees the other,
        # so the estimate equals the window area exactly
        assert np.allclose(k.values, [0.0, 0.0, 100.0])
        assert k.origin == "empirical"

    def test_F_saturates_with_interior_test_points(self):
        # pattern point off the test lattice so r=0 scores no hit; the
        # lattice in the unit square is at least 1.1 from the window's
        # edge, so every test location is kept at r=0.75
        pat = PointPattern([[0.51, 0.5]], Rectangle(-1.0, 2.0, -1.0, 2.0))
        grid = RadiusGrid(np.array([0.0, 0.75]))
        c = (np.arange(5) + 0.5) / 5.0
        tp = np.column_stack([np.repeat(c, 5), np.tile(c, 5)])
        with pytest.warns(UserWarning, match="pattern has"):
            f = estimate_F(pat, grid, test_points=tp)
        # every location in the unit square is within 0.72 of the point
        assert np.allclose(f.values, [0.0, 1.0])
        assert f.meta["n_test"] == 25

    def test_G_two_point_pattern(self):
        pat = PointPattern([[0.45, 0.5], [0.55, 0.5]], UNIT_SQUARE)
        grid = RadiusGrid(np.array([0.0, 0.05, 0.15]))
        with pytest.warns(UserWarning, match="pattern has"):
            g = estimate_G(pat, grid)
        assert np.allclose(g.values, [0.0, 0.0, 1.0])

    def test_zero_radius_is_zero(self, ppp100):
        grid = RadiusGrid(np.array([0.0, 0.01]))
        assert estimate_K(ppp100, grid).values[0] == 0.0
        assert estimate_F(ppp100, grid, n_test=500).values[0] == 0.0
        assert estimate_G(ppp100, grid).values[0] == 0.0


class TestJ:
    def test_equal_curves_give_one(self):
        f = curve([0.0, 0.3, 0.6], "F", origin="empirical")
        g = curve([0.0, 0.3, 0.6], "G", origin="empirical")
        assert np.allclose(estimate_J(f, g).values, 1.0)

    def test_hand_ratio(self):
        f = curve([0.0, 0.6], "F")
        g = curve([0.0, 0.2], "G")
        assert estimate_J(f, g).values[1] == pytest.approx(2.0)

    def test_saturated_F_masked(self):
        f = curve([0.0, 0.5, 1.0], "F")
        g = curve([0.0, 0.5, 0.9], "G")
        j = estimate_J(f, g)
        assert np.isnan(j.values[2])
        assert not np.isnan(j.values[1])

    def test_nan_propagates(self):
        f = curve([0.0, math.nan], "F")
        g = curve([0.0, 0.2], "G")
        assert np.isnan(estimate_J(f, g).values[1])

    def test_kind_and_grid_checks(self):
        f = curve([0.0, 0.5], "F")
        g = curve([0.0, 0.2, 0.4], "G")
        with pytest.raises(GridMismatchError):
            estimate_J(f, g)
        with pytest.raises(ValueError):
            estimate_J(curve([0.0, 0.5], "K"), curve([0.0, 0.2], "G"))

    def test_second_order_approx_poisson_is_one(self):
        r = np.linspace(0.0, 0.25, 64)
        k = curve(math.pi * r * r, "K", r=r)
        assert np.allclose(j_second_order_approx(k, 123.0).values, 1.0)
        k2 = curve(math.pi * r * r + 0.01, "K", r=r)
        assert np.allclose(j_second_order_approx(k2, 0.0).values, 1.0)
        with pytest.raises(ValueError):
            j_second_order_approx(curve([0.0, 0.1], "F"), 1.0)


@pytest.mark.parametrize("window", [UNIT_SQUARE,
                                    Rectangle(2.0, 5.0, -1.0, 1.0),
                                    Disk(0.5, 0.5, 1.2)])
@pytest.mark.parametrize("n", [7, 18, 30])
def test_estimators_match_naive_loops(window, n, rng):
    pts = window.sample_uniform(n, rng)
    pat = PointPattern(pts, window)
    grid = RadiusGrid.default(window, 64)
    tp = window.sample_uniform(150, rng)
    with pytest.warns(UserWarning, match="pattern has"):
        k = estimate_K(pat, grid).values
        want = naive_K(pts, window, grid.r)
        np.testing.assert_allclose(k, want, atol=1e-12, rtol=0.0)
        f = estimate_F(pat, grid, test_points=tp).values
        want = naive_F(pts, window, grid.r, tp)
        np.testing.assert_allclose(f, want, atol=1e-12, rtol=0.0)
        g = estimate_G(pat, grid).values
        want = naive_G(pts, window, grid.r)
        np.testing.assert_allclose(g, want, atol=1e-12, rtol=0.0)


# Integer points in a 3-4-5 layout: nearest-neighbour distances 1, 2
# and 5, and the pair (10, 10)-(4, 2) at exactly the last radius, 10.
# Boundary distances are integers in both windows, and so are many
# distances from the integer test locations.
TIE_POINTS = np.array([[10.0, 10.0], [13.0, 14.0], [14.0, 14.0],
                       [16.0, 14.0], [4.0, 2.0], [7.0, 6.0], [7.0, 7.0]])


@pytest.mark.parametrize("window", [Rectangle(0.0, 20.0, 0.0, 20.0),
                                    Disk(10.0, 10.0, 10.0)])
def test_closed_ball_ties_on_grid_radii(window):
    grid = RadiusGrid(np.arange(11.0))
    pat = PointPattern(TIE_POINTS, window)
    lattice = np.stack(np.meshgrid(np.arange(21.0), np.arange(21.0)),
                       axis=-1).reshape(-1, 2)
    tp = lattice[window.boundary_distance(lattice) >= 0]
    diff = TIE_POINTS[:, None, :] - TIE_POINTS[None, :, :]
    pair_d = np.hypot(diff[..., 0], diff[..., 1])
    assert np.all(np.isin([1.0, 2.0, 5.0, grid.r[-1]], pair_d))
    with pytest.warns(UserWarning, match="pattern has"):
        np.testing.assert_array_equal(estimate_K(pat, grid).values,
                                      naive_K(TIE_POINTS, window, grid.r))
        np.testing.assert_array_equal(
            estimate_F(pat, grid, test_points=tp).values,
            naive_F(TIE_POINTS, window, grid.r, tp))
        np.testing.assert_array_equal(estimate_G(pat, grid).values,
                                      naive_G(TIE_POINTS, window, grid.r))


UNIFORM_GRIDS = {
    "linspace-512": np.linspace(0.0, 3250.0, 512),
    "linspace-7": np.linspace(0.0, 0.3, 7),
    "arange-int": np.arange(11.0),
    "arange-0.01": np.arange(0.0, 1.0, 0.01),
    "arange-0.1": np.arange(0.0, 2.05, 0.1),
}


def _index_probes(radii, rng):
    """Random values over and past the grid, every radius and its two
    neighbouring floats, zero of both signs, infinities and NaN."""
    top = radii[-1]
    return np.concatenate([
        rng.uniform(-0.1 * top, 1.2 * top, 20000),
        radii, np.nextafter(radii, np.inf), np.nextafter(radii, -np.inf),
        [0.0, -0.0, top, 1e300, -1e300, np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("radii", UNIFORM_GRIDS.values(), ids=UNIFORM_GRIDS)
def test_radius_index_is_searchsorted_on_uniform_grids(radii, side, rng,
                                                       monkeypatch):
    values = _index_probes(radii, rng)
    want = np.searchsorted(radii, values, side=side)
    calls = []
    monkeypatch.setattr(estimators.np, "searchsorted",
                        lambda *a, **k: calls.append(1))
    got = _radius_index(radii, values, side)
    assert calls == []
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("radii", [
    np.sqrt(np.linspace(0.0, 1.0, 50)),
    np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 40)]),
    # uniform but for one radius moved by more than a quarter step
    np.linspace(0.0, 1.0, 11) + np.eye(11)[4] * 0.03,
], ids=["sqrt", "geometric", "one-moved"])
def test_radius_index_falls_back_on_other_grids(radii, side, rng,
                                                monkeypatch):
    values = _index_probes(radii, rng)
    want = np.searchsorted(radii, values, side=side)
    calls = []
    searchsorted = np.searchsorted

    def spy(*args, **kwargs):
        calls.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(estimators.np, "searchsorted", spy)
    np.testing.assert_array_equal(_radius_index(radii, values, side), want)
    assert calls == [1]


@pytest.mark.parametrize("points", [
    # integer lattice: many equal x, pairs at exactly the reach
    np.stack(np.meshgrid(np.arange(40.0), np.arange(30.0)),
             axis=-1).reshape(-1, 2),
    np.random.default_rng(5).uniform(0.0, 100.0, (3000, 2)),
], ids=["lattice", "uniform"])
def test_close_pairs_are_the_tree_pairs(points):
    reach = np.nextafter(3.0, np.inf)
    i, j, d = (np.concatenate(parts)
               for parts in zip(*_close_pairs(points, reach)))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    got = np.unique(lo * len(points) + hi)
    assert got.size == i.size
    want = cKDTree(points).query_pairs(reach, output_type="ndarray")
    np.testing.assert_array_equal(
        got, np.sort(want[:, 0] * len(points) + want[:, 1]))
    dx, dy = (points[i] - points[j]).T
    np.testing.assert_array_equal(d, np.sqrt(dx * dx + dy * dy))


def test_K_memory_stays_linear(rng):
    window = Rectangle(0.0, 13000.0, 0.0, 13000.0)
    pat = PointPattern(window.sample_uniform(5000, rng), window)
    tracemalloc.start()
    try:
        estimate_K(pat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 5000 x 5000 float64 distance matrix alone is 200 MB
    assert peak < 64e6


def test_K_memory_on_the_capped_default_grid(rng):
    window = Rectangle(0.0, 13000.0, 0.0, 13000.0)
    pat = PointPattern(window.sample_uniform(30000, rng), window)
    tracemalloc.start()
    try:
        k = estimate_K(pat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1000 neighbours per point within the last radius
    assert k.grid.r[-1] == pytest.approx(
        math.sqrt(1000.0 / (math.pi * pat.n / window.area())))
    assert peak < 64e6


class TestPoissonMonteCarlo:
    def test_F_matches_closed_form(self):
        grid = RadiusGrid(np.array([0.0, 0.05]))
        vals = [estimate_F(ppp(100.0, seed=s), grid, n_test=4000,
                           seed=s + 1).values[1] for s in range(30)]
        assert abs(np.mean(vals) - F_POIS_005) < 0.03

    def test_K_matches_pi_r_squared(self):
        grid = RadiusGrid(np.array([0.0, 0.1]))
        vals = [estimate_K(ppp(100.0, seed=s), grid).values[1]
                for s in range(10)]
        assert abs(np.mean(vals) - math.pi * 0.01) < 0.1 * math.pi * 0.01

    def test_G_matches_F_for_poisson(self):
        grid = RadiusGrid(np.array([0.0, 0.05]))
        vals = [estimate_G(ppp(100.0, seed=s), grid).values[1]
                for s in range(30)]
        assert abs(np.mean(vals) - F_POIS_005) < 0.05

    def test_F_test_point_noise_shrinks(self, ppp100):
        grid = RadiusGrid.default(UNIT_SQUARE, 128)
        a = estimate_F(ppp100, grid, n_test=20000, seed=10).values
        b = estimate_F(ppp100, grid, n_test=20000, seed=11).values
        assert np.nanmax(np.abs(a - b)) < 0.025

    def test_default_test_point_count(self):
        assert default_test_point_count(118) == 10000
        assert default_test_point_count(5000) == 50001


class TestShapeInvariants:
    def test_probability_range(self, ppp100):
        grid = RadiusGrid.default(UNIT_SQUARE, 128)
        f = estimate_F(ppp100, grid, n_test=3000).values
        g = estimate_G(ppp100, grid).values
        for v in (f, g):
            ok = ~np.isnan(v)
            assert np.all((v[ok] >= 0.0) & (v[ok] <= 1.0))

    def test_meta_records_inputs(self, ppp100):
        # F records the test-location count it drew; no other curve
        # carries meta
        assert estimate_F(ppp100).meta == {
            "n_test": default_test_point_count(ppp100.n)}
        assert estimate_F(ppp100, n_test=500).meta == {"n_test": 500}
        assert estimate_K(ppp100).meta == {}


def thomas_cluster(seed, parents=25.0, mean_kids=8.0, sigma=0.03):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(rng.poisson(parents)):
        center = rng.uniform(size=2)
        kids = rng.poisson(mean_kids)
        pts.append(center + rng.normal(scale=sigma, size=(kids, 2)))
    pts = np.concatenate(pts)
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    return PointPattern(pts[inside], UNIT_SQUARE)


@pytest.fixture(scope="module")
def trio():
    from cellpp.rng import RngStreamSpec
    from cellpp.models import BetaGinibre
    from cellpp.samplers import sample

    regular = sample(BetaGinibre(200.0, 1.0), UNIT_SQUARE, RngStreamSpec(5))
    independent = ppp(200.0, seed=5)
    clustered = thomas_cluster(5)
    grid = RadiusGrid.default(UNIT_SQUARE, 128)
    stats = {}
    for name, pat in [("reg", regular), ("pois", independent),
                      ("clu", clustered)]:
        f = estimate_F(pat, grid, n_test=4000, seed=9)
        g = estimate_G(pat, grid)
        stats[name] = {"K": estimate_K(pat, grid).values,
                       "F": f.values, "G": g.values,
                       "J": estimate_J(f, g).values,
                       "pattern": pat}
    return grid, stats


class TestTrichotomy:
    """Regular, independent and clustered patterns of matched intensity
    must order every summary statistic in the expected direction."""

    @staticmethod
    def fraction_ordered(grid, lo_curve, hi_curve, r_lo, r_hi):
        sel = (grid.r >= r_lo) & (grid.r <= r_hi)
        a, b = lo_curve[sel], hi_curve[sel]
        ok = ~(np.isnan(a) | np.isnan(b))
        return np.mean(a[ok] < b[ok])

    def test_K_ordering(self, trio):
        grid, s = trio
        assert self.fraction_ordered(grid, s["reg"]["K"], s["pois"]["K"],
                                     0.03, 0.12) >= 0.9
        assert self.fraction_ordered(grid, s["pois"]["K"], s["clu"]["K"],
                                     0.03, 0.12) >= 0.9

    def test_G_ordering(self, trio):
        # compare on the rising part; past saturation all curves tie
        grid, s = trio
        assert self.fraction_ordered(grid, s["reg"]["G"], s["pois"]["G"],
                                     0.01, 0.05) >= 0.9
        assert self.fraction_ordered(grid, s["pois"]["G"], s["clu"]["G"],
                                     0.01, 0.05) >= 0.9

    def test_F_ordering_reversed(self, trio):
        grid, s = trio
        assert self.fraction_ordered(grid, s["pois"]["F"], s["reg"]["F"],
                                     0.02, 0.07) >= 0.9
        assert self.fraction_ordered(grid, s["clu"]["F"], s["pois"]["F"],
                                     0.02, 0.07) >= 0.9

    def test_J_sides_of_one(self, trio):
        grid, s = trio
        sel = (grid.r >= 0.03) & (grid.r <= 0.1)
        j_reg = s["reg"]["J"][sel]
        j_clu = s["clu"]["J"][sel]
        assert np.mean(j_reg[~np.isnan(j_reg)] > 1.0) >= 0.9
        assert np.mean(j_clu[~np.isnan(j_clu)] < 1.0) >= 0.9

    def test_clark_evans_directions(self, trio):
        _, s = trio
        assert clark_evans_index(s["reg"]["pattern"]) > 1.1
        assert clark_evans_index(s["clu"]["pattern"]) < 0.75
        assert 0.9 < clark_evans_index(s["pois"]["pattern"]) < 1.15

    def test_clark_evans_poisson_mean(self):
        # no edge correction, so the index sits a few percent above 1
        vals = [clark_evans_index(ppp(100.0, seed=s)) for s in range(100)]
        assert 1.0 < np.mean(vals) < 1.09


class TestCsvRoundTrip:
    def test_round_trip_with_nan(self, tmp_path):
        r = np.array([0.0, 0.1, 0.2, 0.3])
        k = SummaryCurve(grid=RadiusGrid(r),
                         values=[0.0, 0.03, math.nan, 0.28],
                         kind="K", origin="empirical")
        f = SummaryCurve(grid=RadiusGrid(r),
                         values=[0.0, 0.4, 0.8, 0.95],
                         kind="F", origin="theoretical")
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [k, f])
        text = path.read_text()
        assert ",,K,empirical" in text.replace("0.2,", "", 1) or \
            "0.2,,K,empirical" in text
        back = {(c.kind, c.origin): c for c in read_curves_csv(path)}
        got = back[("K", "empirical")]
        assert got.grid.matches(k.grid)
        np.testing.assert_array_equal(np.isnan(got.values),
                                      np.isnan(np.asarray(k.values)))
        np.testing.assert_allclose(got.values[~np.isnan(got.values)],
                                   [0.0, 0.03, 0.28])
        np.testing.assert_allclose(back[("F", "theoretical")].values,
                                   f.values)

    def test_single_curve_accepted(self, tmp_path):
        c = curve([0.0, 0.5], "G", r=[0.0, 1.0], origin="empirical")
        write_curves_csv(tmp_path / "g.csv", c)
        assert read_curves_csv(tmp_path / "g.csv")[0].kind == "G"


class TestDegenerateInputs:
    def test_K_needs_two_points(self):
        pat = PointPattern([[0.5, 0.5]], UNIT_SQUARE)
        with pytest.raises(DegeneratePatternError):
            estimate_K(pat)
        with pytest.raises(DegeneratePatternError):
            estimate_G(pat)

    def test_F_works_with_one_point(self):
        pat = PointPattern([[0.5, 0.5]], UNIT_SQUARE)
        grid = RadiusGrid(np.array([0.0, 0.1]))
        with pytest.warns(UserWarning, match="pattern has"):
            f = estimate_F(pat, grid, n_test=100)
        assert f.values.shape == (2,)

    def test_small_pattern_warns(self):
        pat = ppp(40.0, seed=3)
        with pytest.warns(UserWarning, match="pattern has"):
            estimate_K(pat)

    def test_clark_evans_needs_two(self):
        with pytest.raises(DegeneratePatternError):
            clark_evans_index(PointPattern([[0.1, 0.1]], UNIT_SQUARE))
