"""Minimum-contrast machinery: the discrepancy functional, its range
handling, and parameter recovery on synthetic data with frozen streams.
"""

import json
import math

import numpy as np
import pytest

from cellpp.errors import (ConfigError, ConvergenceError,
                           InsufficientDataError, InsufficientRangeError)
from cellpp.estimators import RadiusGrid, SummaryCurve
from cellpp.fitting import (CAUCHY_SHAPE_BOUNDS, DEFAULT_RANGE_FRACTION,
                            SCALE_FRACTION_MIN, ContrastSpec, FitResult,
                            contrast, fit)
from cellpp.geom import Disk, PointPattern, Rectangle
from cellpp.models import BetaGinibre, CauchyDpp, GaussDpp, Poisson
from cellpp.pipeline import json_text
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

from conftest import UNIT_SQUARE, ppp

KM13 = Rectangle(0.0, 13000.0, 0.0, 13000.0)


def curve(values, grid, kind="F"):
    return SummaryCurve(grid=grid, values=np.asarray(values, dtype=float),
                        kind=kind, origin="empirical")


@pytest.fixture(scope="module")
def grid21():
    return RadiusGrid(np.linspace(0.0, 1.0, 21))


class TestContrast:
    def test_identical_curves_give_zero(self, grid21):
        a = curve(np.linspace(0.0, 0.9, 21), grid21)
        assert contrast(a, a, ContrastSpec()) == 0.0

    def test_constant_offset_raw_form(self, grid21):
        # |(S+c) - S|^2 summed over the n grid points, divided by the
        # span: n c^2 / L for the index-sum variant
        base = np.linspace(0.0, 0.8, 21)
        c = 0.07
        a = curve(base + c, grid21)
        b = curve(base, grid21)
        spec = ContrastSpec(step_weighted=False)
        expected = 21 * c ** 2 / 1.0
        assert contrast(a, b, spec) == pytest.approx(expected, rel=1e-12)

    def test_constant_offset_step_weighted(self, grid21):
        # each term carries the local grid step h, and np.gradient uses
        # one-sided steps at the ends, so the total weight is L + h
        base = np.linspace(0.0, 0.8, 21)
        c = 0.07
        a = curve(base + c, grid21)
        b = curve(base, grid21)
        h = 0.05
        expected = c ** 2 * (1.0 + h) / 1.0
        assert contrast(a, b, ContrastSpec()) == pytest.approx(
            expected, rel=1e-12)

    def test_exponents(self, grid21):
        base = np.full(21, 2.0)
        a = curve(base + 1.0, grid21, kind="K")
        b = curve(base, grid21, kind="K")
        # p=2: |3^2 - 2^2| = 5 per radius; q=1 keeps it linear
        spec = ContrastSpec(statistic="K", p=2.0, q=1.0, step_weighted=False)
        assert contrast(a, b, spec) == pytest.approx(21 * 5.0, rel=1e-12)

    def test_symmetry_and_positivity(self, grid21):
        rng = np.random.default_rng(3)
        a = curve(rng.uniform(0.0, 1.0, 21), grid21)
        b = curve(rng.uniform(0.0, 1.0, 21), grid21)
        spec = ContrastSpec()
        assert contrast(a, b, spec) == contrast(b, a, spec)
        assert contrast(a, b, spec) > 0.0

    def test_nan_radii_dropped_pairwise(self, grid21):
        base = np.linspace(0.0, 0.8, 21)
        a_vals = base.copy()
        b_vals = base.copy()
        a_vals[3] = np.nan
        b_vals[17] = np.nan
        a, b = curve(a_vals, grid21), curve(b_vals, grid21)
        assert contrast(a, b, ContrastSpec()) == 0.0

    def test_too_few_usable_radii(self, grid21):
        vals = np.full(21, np.nan)
        vals[:9] = 0.5
        a = curve(vals, grid21)
        b = curve(np.full(21, 0.5), grid21)
        with pytest.raises(InsufficientRangeError):
            contrast(a, b, ContrastSpec())

    def test_narrow_range_rejected(self, grid21):
        a = curve(np.linspace(0.0, 0.8, 21), grid21)
        with pytest.raises(InsufficientRangeError):
            contrast(a, a, ContrastSpec(r_min=0.38, r_max=0.62))

    def test_kind_mismatches(self, grid21):
        f = curve(np.linspace(0.0, 0.9, 21), grid21, kind="F")
        g = curve(np.linspace(0.0, 0.9, 21), grid21, kind="G")
        with pytest.raises(ConfigError):
            contrast(f, g, ContrastSpec())
        with pytest.raises(ConfigError):
            contrast(f, f, ContrastSpec(statistic="K"))

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            ContrastSpec(statistic="X")
        with pytest.raises(ConfigError):
            ContrastSpec(p=0.0)
        with pytest.raises(ConfigError):
            ContrastSpec(q=-1.0)
        for p, q in ((math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(ConfigError, match="finite"):
                ContrastSpec(p=p, q=q)
        # an infinite fit range stays: it is clipped to the grid
        assert ContrastSpec(r_max=math.inf).r_max == math.inf
        with pytest.raises(ConfigError):
            ContrastSpec(r_min=-0.1)
        with pytest.raises(ConfigError):
            ContrastSpec(r_min=0.5, r_max=0.5)


class TestResolvedRange:
    def test_default_follows_window_fraction(self):
        grid = RadiusGrid(np.linspace(0.0, 3250.0, 512))
        spec = ContrastSpec().resolved(grid, KM13)
        assert spec.r_max == pytest.approx(13000.0 * DEFAULT_RANGE_FRACTION)

    def test_without_window_uses_grid_end(self, grid21):
        assert ContrastSpec().resolved(grid21).r_max == 1.0

    def test_explicit_r_max_clipped_to_grid(self, grid21):
        assert ContrastSpec(r_max=50.0).resolved(grid21).r_max == 1.0

    def test_empty_range_after_clipping(self, grid21):
        with pytest.raises(ConfigError):
            ContrastSpec(r_min=2.0, r_max=3.0).resolved(grid21)


class TestFitBetaGinibre:
    def test_round_trip_beta_09(self):
        fitted = []
        for i in range(20):
            pat = sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(90, i))
            fitted.append(fit(pat, "beta-ginibre").model.beta)
        assert abs(float(np.median(fitted)) - 0.9) <= 0.15

    def test_poisson_input_is_flagged(self):
        pat = sample(Poisson(0.7e-6), KM13, RngStreamSpec(91, 0))
        res = fit(pat, "beta-ginibre")
        assert res.diagnostics["pinned_lower_bound"]
        assert res.diagnostics["near_poisson"]

    def test_monotone_in_true_beta(self):
        medians = []
        for true_beta in (0.2, 0.5, 0.8):
            vals = []
            for i in range(20):
                pat = sample(BetaGinibre(0.7e-6, true_beta), KM13,
                             RngStreamSpec(93, i))
                vals.append(fit(pat, "beta-ginibre").model.beta)
            medians.append(float(np.median(vals)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_determinism(self):
        pat = sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(90, 3))
        r1 = fit(pat, "beta-ginibre")
        r2 = fit(pat, "beta-ginibre")
        assert r1.model == r2.model
        assert r1.contrast_value == r2.contrast_value

    def test_scale_equivariance(self):
        pat = sample(BetaGinibre(0.7e-6, 0.6), KM13, RngStreamSpec(92, 0))
        scaled = PointPattern(points=pat.points / 1000.0,
                              window=Rectangle(0.0, 13.0, 0.0, 13.0))
        b1 = fit(pat, "beta-ginibre").model.beta
        b2 = fit(scaled, "beta-ginibre").model.beta
        assert abs(b1 - b2) < 1e-6


@pytest.fixture(scope="module")
def bg_pattern():
    return sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(90, 3))


class TestFitSpectralFamilies:
    # K-contrast fits: the search runs on closed forms, the cross
    # distances on the exact F/G/J

    def test_gauss_fit_is_admissible(self, bg_pattern):
        res = fit(bg_pattern, "gauss-dpp", ContrastSpec(statistic="K"))
        lam = res.diagnostics["intensity"]
        assert res.model.scale <= 1.0 / math.sqrt(math.pi * lam) + 1e-12
        assert res.diagnostics["converged"]
        # strongly repulsive input: the gauss fit runs to max repulsion
        assert not res.diagnostics["near_poisson"]
        assert sorted(res.cross_distances) == ["F", "G", "J", "K"]

    def test_cauchy_fit_is_admissible(self, bg_pattern):
        res = fit(bg_pattern, "cauchy-dpp", ContrastSpec(statistic="K"))
        lam = res.diagnostics["intensity"]
        bound = math.sqrt(res.model.shape / (math.pi * lam))
        assert 0.0 < res.model.scale <= bound + 1e-9
        assert res.diagnostics["converged"]

    @pytest.mark.parametrize("side", [13000.0, 30000.0, 60000.0])
    def test_search_boxes_do_not_depend_on_the_window(self, side,
                                                      monkeypatch):
        # about 150 Poisson points on each square: the Gauss scan spans
        # [SCALE_FRACTION_MIN, 1] of the existence bound, and so does
        # the Cauchy scale fraction, with no floor between it and the
        # model, whatever the window
        from scipy import optimize

        import cellpp.fitting as fitting

        window = Rectangle(0.0, side, 0.0, side)
        pat = sample(Poisson(150.0 / window.area()), window,
                     RngStreamSpec(95, int(side)))
        lam = pat.n / window.area()
        seen, boxes = [], []
        curve_of = fitting.theoretical_curve

        def record(kind, model, grid):
            seen.append(model)
            return curve_of(kind, model, grid)

        def minimize(fun, x0, **kwargs):
            boxes.append(kwargs["bounds"])
            fun(np.array([SCALE_FRACTION_MIN, 0.0]))
            return minimize_of(fun, x0, **kwargs)

        minimize_of = optimize.minimize
        monkeypatch.setattr(fitting, "theoretical_curve", record)
        monkeypatch.setattr(optimize, "minimize", minimize)
        kc = ContrastSpec(statistic="K")
        fit(pat, "gauss-dpp", kc)
        gauss = [m.scale * math.sqrt(math.pi * lam) for m in seen
                 if isinstance(m, GaussDpp)]
        assert min(gauss) == pytest.approx(SCALE_FRACTION_MIN, rel=1e-12)
        assert max(gauss) == pytest.approx(1.0, rel=1e-12)
        seen.clear()
        fit(pat, "cauchy-dpp", kc)
        assert boxes[0][0] == (SCALE_FRACTION_MIN, 1.0)
        cauchy = [m.scale * math.sqrt(math.pi * lam / m.shape)
                  for m in seen if isinstance(m, CauchyDpp)]
        assert min(cauchy) == pytest.approx(SCALE_FRACTION_MIN, rel=1e-12)

    def test_gauss_fit_on_60km_draws_its_envelopes(self):
        # Poisson data pin the scale at the bottom of the box, 2.8 m,
        # a kernel 4e-5 as wide as the 75 km torus
        from cellpp.gof import replicate_curves

        window = Rectangle(0.0, 60000.0, 0.0, 60000.0)
        pat = sample(Poisson(150.0 / window.area()), window, RngStreamSpec(96))
        res = fit(pat, "gauss-dpp", ContrastSpec(statistic="K"))
        assert res.diagnostics["pinned_lower_bound"]
        assert res.model.scale < 3.0
        grid = RadiusGrid.default(window, 64)
        reps = replicate_curves(res.model, window, 19, grid,
                                stream=RngStreamSpec(96, 1), n_test=400,
                                kinds=("K",))
        assert reps["K"].shape == (19, 64)
        assert np.isfinite(reps["K"][:, 1:]).all()

    def test_gauss_fit_on_a_disk_is_samplable_there(self):
        disk = Disk(7000.0, 7000.0, 7000.0)
        pat = sample(BetaGinibre(0.7e-6, 0.9), disk, RngStreamSpec(3))
        res = fit(pat, "gauss-dpp", ContrastSpec(statistic="K"))
        assert res.diagnostics["converged"]
        drawn = sample(res.model, disk, RngStreamSpec(5))
        assert drawn.n > 0
        assert np.all(disk.contains(drawn.points))

    def test_fits_pinned_at_either_bound_are_flagged(self, bg_pattern):
        # strong repulsion drives Gauss to its existence-bound scale and
        # Cauchy to its largest shape; a plain Ginibre draw drives beta
        # to 1; Poisson data drive the shape to its near-Poisson end
        kc = ContrastSpec(statistic="K")
        pinned = {
            "gauss-dpp": fit(bg_pattern, "gauss-dpp", kc),
            "cauchy-dpp": fit(bg_pattern, "cauchy-dpp", kc),
            "beta-ginibre": fit(sample(BetaGinibre(0.7e-6, 1.0), KM13,
                                       RngStreamSpec(94, 0)), "beta-ginibre"),
        }
        lam = pinned["gauss-dpp"].diagnostics["intensity"]
        assert pinned["gauss-dpp"].model.scale == pytest.approx(
            1.0 / math.sqrt(math.pi * lam), rel=1e-5)
        assert pinned["cauchy-dpp"].model.shape == pytest.approx(
            CAUCHY_SHAPE_BOUNDS[1], rel=1e-5)
        assert pinned["beta-ginibre"].model.beta == pytest.approx(1.0,
                                                                  rel=1e-5)
        for res in pinned.values():
            assert res.diagnostics["pinned_upper_bound"]
            assert not res.diagnostics["pinned_lower_bound"]
        low = fit(sample(Poisson(0.7e-6), KM13, RngStreamSpec(91, 0)),
                  "beta-ginibre")
        assert low.diagnostics["pinned_lower_bound"]
        assert not low.diagnostics["pinned_upper_bound"]

    def test_gauss_scale_equivariance(self):
        pat = sample(BetaGinibre(0.7e-6, 0.6), KM13, RngStreamSpec(92, 0))
        scaled = PointPattern(points=pat.points / 1000.0,
                              window=Rectangle(0.0, 13.0, 0.0, 13.0))
        kc = ContrastSpec(statistic="K")
        s1 = fit(pat, "gauss-dpp", kc).model.scale
        s2 = fit(scaled, "gauss-dpp", kc).model.scale
        assert s1 / s2 == pytest.approx(1000.0, rel=1e-9)


class TestFitContract:
    def test_poisson_family_passthrough(self):
        pat = sample(Poisson(0.7e-6), KM13, RngStreamSpec(91, 1))
        res = fit(pat, "poisson")
        assert res.model.name == "poisson"
        assert res.model.intensity == pytest.approx(
            pat.n / KM13.area(), rel=1e-12)
        assert res.diagnostics["near_poisson"]

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            fit(ppp(seed=4), "thomas")

    def test_too_few_points(self):
        pat = ppp(intensity=12.0, seed=8)
        assert pat.n < 20
        with pytest.raises(InsufficientDataError):
            fit(pat, "beta-ginibre")

    def test_small_pattern_warns(self):
        pat = ppp(intensity=40.0, seed=11)
        assert 20 <= pat.n < 80
        with pytest.warns(UserWarning, match="fitting on"):
            fit(pat, "beta-ginibre")

    def test_convergence_error_carries_trace(self):
        pat = sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(90, 3))
        with pytest.raises(ConvergenceError) as err:
            fit(pat, "beta-ginibre", max_evaluations=5)
        assert len(err.value.trace) > 0

    def test_result_serialization(self, tmp_path):
        grid = RadiusGrid(np.linspace(0.0, 1.0, 21))
        spec = ContrastSpec().resolved(grid)
        res = FitResult(model=BetaGinibre(intensity=2.0, beta=0.5),
                        contrast_value=1.5e-3,
                        cross_distances={"F": 1.5e-3, "G": 2e-3,
                                         "J": float("nan"), "K": 4.0},
                        cspec=spec,
                        diagnostics={"evaluations": 40, "converged": True})
        d = json.loads(json_text(res.to_dict()))
        assert d["model"] == "beta-ginibre"
        assert d["params"]["beta"] == 0.5
        assert d["distances"]["J"] is None
        assert d["distances"]["K"] == 4.0
        assert d["contrast"]["statistic"] == "F"
