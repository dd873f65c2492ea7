"""Sampler contracts: moments, closed-form K matching, determinism,
construction equivalences, and truncation guards.

Statistical assertions run on frozen streams; tolerances were sized
from pilot runs so the binding margins sit well inside the Monte-Carlo
spread of the frozen seeds.
"""

import math

import numpy as np
import pytest

from cellpp.errors import (ConfigError, ExistenceViolation,
                           NumericalError, SamplerStallError,
                           TruncationError)
from cellpp.estimators import RadiusGrid, estimate_G, estimate_K
from cellpp.geom import Disk, PointPattern, Rectangle
from cellpp.models import BetaGinibre, CauchyDpp, GaussDpp, theoretical_K
from cellpp.rng import RngStreamSpec
from cellpp.samplers import (_projection_sample, sample_beta_ginibre,
                             sample_dpp_spectral, sample_poisson,
                             spectral_mode_count)

from conftest import UNIT_SQUARE


def mean_k(sampler, n_seeds: int, grid: RadiusGrid) -> np.ndarray:
    acc = np.zeros(grid.size)
    for i in range(n_seeds):
        acc += estimate_K(sampler(i), grid).values
    return acc / n_seeds


class TestPoisson:
    def test_count_moments(self):
        counts = np.array([
            sample_poisson(100.0, UNIT_SQUARE, RngStreamSpec(7, i)).n
            for i in range(2000)])
        mean = counts.mean()
        assert 97.0 < mean < 103.0
        assert 0.9 < counts.var(ddof=1) / mean < 1.1

    def test_disjoint_counts_uncorrelated(self):
        left = np.empty(2000)
        right = np.empty(2000)
        for i in range(2000):
            pts = sample_poisson(100.0, UNIT_SQUARE, RngStreamSpec(8, i)).points
            left[i] = np.sum(pts[:, 0] < 0.5)
            right[i] = np.sum(pts[:, 0] >= 0.5)
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.05

    def test_mostly_empty_at_tiny_mean(self):
        pats = [sample_poisson(0.001, UNIT_SQUARE, RngStreamSpec(70, i))
                for i in range(200)]
        empties = sum(p.n == 0 for p in pats)
        assert empties >= 190
        for p in pats:
            assert p.points.shape == (p.n, 2)
            assert p.window is UNIT_SQUARE

    def test_points_inside_window(self):
        pat = sample_poisson(200.0, Rectangle(2.0, 5.0, -1.0, 1.0),
                             RngStreamSpec(71))
        assert pat.window.contains(pat.points).all()

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ExistenceViolation):
            sample_poisson(-3.0, UNIT_SQUARE, RngStreamSpec(0))


class TestBetaGinibre:
    def test_near_zero_beta_is_poisson_like(self):
        # beta -> 0 at fixed intensity degenerates to a Poisson process
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        mk = mean_k(
            lambda i: sample_beta_ginibre(100.0, 1e-4, UNIT_SQUARE,
                                          RngStreamSpec(21, i),
                                          k_budget=3_000_000),
            50, grid)
        sel = grid.r >= 0.05
        rel = np.abs(mk[sel] - math.pi * grid.r[sel] ** 2) / (
            math.pi * grid.r[sel] ** 2)
        assert rel.max() < 0.05

    @pytest.mark.filterwarnings("ignore:pattern has")
    def test_plain_ginibre_matches_closed_form_k(self):
        # lam=1 on a radius-5 disk holds ~78 points, so the empirical
        # K under about r=0.6 rests on less than one close pair per
        # seed and its Monte-Carlo error exceeds the 5% band by itself.
        # Below that radius the check is against the per-radius spread.
        disk = Disk(0.0, 0.0, 5.0)
        grid = RadiusGrid(np.linspace(0.0, 1.5, 16))
        theory = theoretical_K(BetaGinibre(1.0, 1.0), grid).values
        curves = np.empty((100, grid.size))
        for i in range(100):
            curves[i] = estimate_K(
                sample_beta_ginibre(1.0, 1.0, disk, RngStreamSpec(22, i)),
                grid).values
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / 10.0

        tight = grid.r >= 0.6
        rel = np.abs(mean[tight] - theory[tight]) / theory[tight]
        assert rel.max() < 0.05

        noisy = grid.r >= 0.2
        z = np.abs(mean[noisy] - theory[noisy]) / se[noisy]
        assert z.max() < 5.0

    def test_intensity_preserved_under_thinning(self):
        window = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        counts = np.array([
            sample_beta_ginibre(0.7e-6, 0.5, window, RngStreamSpec(23, i)).n
            for i in range(200)])
        target = 0.7e-6 * window.area()
        assert abs(counts.mean() - target) < 0.02 * target

    def test_matches_thinned_rescaled_construction(self):
        # independent route: plain Ginibre on the enlarged covering
        # disk, Bernoulli thinning, sqrt(beta) shrink, clip.  Same
        # distribution as the direct kernel-restriction sampler.
        window = Rectangle(-2.0, 2.0, -2.0, 2.0)
        beta, lam = 0.5, 4.0
        grid = RadiusGrid(np.linspace(0.0, 1.2, 13))
        base_disk = Disk(0.0, 0.0, window.circumradius() / math.sqrt(beta))

        def construction(i):
            base = sample_beta_ginibre(lam, 1.0, base_disk,
                                       RngStreamSpec(31, i))
            rng = RngStreamSpec(32, i).generator()
            kept = base.points[rng.uniform(size=base.n) < beta]
            kept = kept * math.sqrt(beta)
            return PointPattern(points=kept[window.contains(kept)],
                                window=window)

        n_a = np.empty(40)
        n_b = np.empty(40)
        k_a = np.zeros(grid.size)
        k_b = np.zeros(grid.size)
        for i in range(40):
            pat_a = construction(i)
            pat_b = sample_beta_ginibre(lam, beta, window, RngStreamSpec(33, i))
            n_a[i], n_b[i] = pat_a.n, pat_b.n
            k_a += estimate_K(pat_a, grid).values
            k_b += estimate_K(pat_b, grid).values
        k_a /= 40
        k_b /= 40

        assert abs(n_a.mean() - n_b.mean()) < 4.0
        sel = grid.r >= 0.3
        assert (np.abs(k_a[sel] - k_b[sel]) / k_b[sel]).max() < 0.10
        theory = theoretical_K(BetaGinibre(lam, beta), grid).values
        assert (np.abs(k_a[sel] - theory[sel]) / theory[sel]).max() < 0.08
        assert (np.abs(k_b[sel] - theory[sel]) / theory[sel]).max() < 0.08

    def test_beta_one_equals_unthinned_path(self):
        # at beta=1 thinning keeps everything and the rescaling is the
        # identity, so sampling on the rectangle must reproduce the
        # plain Ginibre draw on its covering disk point for point
        rect = Rectangle(1.0, 3.0, -1.0, 2.0)
        stream = RngStreamSpec(40, 0)
        direct = sample_beta_ginibre(2.0, 1.0, rect, stream)
        cx, cy = rect.center()
        cover = Disk(cx, cy, rect.circumradius())
        unthinned = sample_beta_ginibre(2.0, 1.0, cover, stream)
        inside = unthinned.points[rect.contains(unthinned.points)]
        assert np.array_equal(direct.points, inside)

    def test_truncation_budget(self):
        with pytest.raises(TruncationError) as err:
            sample_beta_ginibre(100.0, 1e-4, UNIT_SQUARE, RngStreamSpec(0),
                                k_budget=100)
        assert err.value.budget == 100
        assert err.value.required > 100

    def test_invalid_beta_rejected(self):
        with pytest.raises(ExistenceViolation):
            sample_beta_ginibre(1.0, 1.5, UNIT_SQUARE, RngStreamSpec(0))

    def test_empty_return_is_valid(self):
        pat = sample_beta_ginibre(1e-6, 0.9, UNIT_SQUARE, RngStreamSpec(72))
        assert pat.n == 0
        assert pat.points.shape == (0, 2)


class TestSpectral:
    def test_weak_repulsion_is_poisson_like(self):
        # lam * pi * alpha^2 = 0.01: interaction mass is 1% and K
        # should sit on the Poisson parabola out to 5*alpha
        lam = 100.0
        alpha = math.sqrt(0.01 / (lam * math.pi))
        spec = GaussDpp(intensity=lam, scale=alpha)
        grid = RadiusGrid(np.array([0.0, 0.018, 0.02, 0.022, 0.024,
                                    0.026, 0.028]))
        assert grid.r[-1] <= 5.0 * alpha
        mk = mean_k(
            lambda i: sample_dpp_spectral(spec, UNIT_SQUARE,
                                          RngStreamSpec(41, i)),
            400, grid)
        sel = grid.r > 0
        rel = np.abs(mk[sel] - math.pi * grid.r[sel] ** 2) / (
            math.pi * grid.r[sel] ** 2)
        assert rel.max() < 0.05

    def test_gauss_at_existence_boundary(self):
        alpha = 0.06
        lam = 1.0 / (math.pi * alpha ** 2)
        spec = GaussDpp(intensity=lam, scale=alpha)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        theory = theoretical_K(spec, grid).values
        mk = mean_k(
            lambda i: sample_dpp_spectral(spec, UNIT_SQUARE,
                                          RngStreamSpec(42, i)),
            100, grid)
        sel = grid.r >= 0.08
        assert (np.abs(mk[sel] - theory[sel]) / theory[sel]).max() < 0.05

    def test_cauchy_at_half_bound(self):
        alpha, nu = 0.03, 0.5
        lam = nu / (2.0 * math.pi * alpha ** 2)
        spec = CauchyDpp(intensity=lam, scale=alpha, shape=nu)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        theory = theoretical_K(spec, grid).values
        mk = mean_k(
            lambda i: sample_dpp_spectral(spec, UNIT_SQUARE,
                                          RngStreamSpec(43, i)),
            100, grid)
        sel = grid.r >= 0.08
        assert (np.abs(mk[sel] - theory[sel]) / theory[sel]).max() < 0.05

    def test_rejects_non_spectral_families(self):
        from cellpp.models import Poisson
        with pytest.raises(ConfigError):
            sample_dpp_spectral(Poisson(100.0), UNIT_SQUARE, RngStreamSpec(0))
        with pytest.raises(ConfigError):
            sample_dpp_spectral(BetaGinibre(1.0, 0.5), UNIT_SQUARE,
                                RngStreamSpec(0))

    def test_rejects_disk_window(self):
        spec = GaussDpp(intensity=50.0, scale=0.05)
        with pytest.raises(ConfigError):
            sample_dpp_spectral(spec, Disk(0.0, 0.0, 1.0), RngStreamSpec(0))

    def test_mode_budget_guard(self):
        spec = GaussDpp(intensity=50.0, scale=0.05)
        need = spectral_mode_count(spec, UNIT_SQUARE)
        with pytest.raises(TruncationError) as err:
            sample_dpp_spectral(spec, UNIT_SQUARE, RngStreamSpec(0),
                                mode_budget=need - 1)
        assert err.value.required == need
        assert err.value.budget == need - 1
        # exactly at the budget the draw goes through
        pat = sample_dpp_spectral(spec, UNIT_SQUARE, RngStreamSpec(1),
                                  mode_budget=need)
        assert pat.n >= 0

    def test_mode_count_shrinks_with_scale(self):
        coarse = spectral_mode_count(GaussDpp(intensity=1.0, scale=0.2),
                                     UNIT_SQUARE)
        fine = spectral_mode_count(GaussDpp(intensity=1.0, scale=0.02),
                                   UNIT_SQUARE)
        assert coarse < fine
        with pytest.raises(ConfigError):
            spectral_mode_count(BetaGinibre(1.0, 0.5), UNIT_SQUARE)

    def test_empty_return_is_valid(self):
        spec = GaussDpp(intensity=1e-4, scale=0.1)
        pat = sample_dpp_spectral(spec, UNIT_SQUARE, RngStreamSpec(73))
        assert pat.n == 0
        assert pat.points.shape == (0, 2)


SAMPLER_CASES = {
    "poisson": (100.0,
                lambda i: sample_poisson(100.0, UNIT_SQUARE,
                                         RngStreamSpec(50, i))),
    "beta-ginibre": (49.0,
                     lambda i: sample_beta_ginibre(
                         1.0, 0.8, Rectangle(-3.5, 3.5, -3.5, 3.5),
                         RngStreamSpec(51, i))),
    "gauss-dpp": (50.0,
                  lambda i: sample_dpp_spectral(
                      GaussDpp(intensity=50.0,
                               scale=math.sqrt(0.5 / (math.pi * 50.0))),
                      UNIT_SQUARE, RngStreamSpec(52, i))),
    "cauchy-dpp": (50.0,
                   lambda i: sample_dpp_spectral(
                       CauchyDpp(intensity=50.0,
                                 scale=math.sqrt(1.0 / (2 * math.pi * 50.0)),
                                 shape=1.0),
                       UNIT_SQUARE, RngStreamSpec(53, i))),
}


class TestSharedInvariants:
    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_first_moment(self, name):
        expected, draw = SAMPLER_CASES[name]
        counts = np.array([draw(i).n for i in range(500)])
        tol = 3.0 * math.sqrt(expected) / math.sqrt(500)
        assert abs(counts.mean() - expected) < tol

    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_determinism(self, name):
        _, draw = SAMPLER_CASES[name]
        assert np.array_equal(draw(11).points, draw(11).points)

    def test_repulsive_families_have_sub_poisson_spacings(self):
        # mean nearest-neighbor distance of the matched Poisson process
        # is 1/(2 sqrt(lam)); below it every repulsive family must show
        # fewer close spacings than Poisson
        lam = 100.0
        grid = RadiusGrid(np.linspace(0.0, 0.06, 13))
        g_pois = 1.0 - np.exp(-lam * math.pi * grid.r ** 2)
        mean_nn = 1.0 / (2.0 * math.sqrt(lam))
        half_gauss = math.sqrt(0.5 / (math.pi * lam))
        half_cauchy = math.sqrt(1.0 / (2.0 * math.pi * lam))
        draws = {
            "beta-ginibre": lambda i: sample_beta_ginibre(
                lam, 0.9, UNIT_SQUARE, RngStreamSpec(60, i)),
            "gauss-dpp": lambda i: sample_dpp_spectral(
                GaussDpp(intensity=lam, scale=half_gauss), UNIT_SQUARE,
                RngStreamSpec(61, i)),
            "cauchy-dpp": lambda i: sample_dpp_spectral(
                CauchyDpp(intensity=lam, scale=half_cauchy, shape=1.0),
                UNIT_SQUARE, RngStreamSpec(62, i)),
        }
        sel = (grid.r > 0) & (grid.r < mean_nn)
        for name, draw in draws.items():
            acc = np.zeros(grid.size)
            for i in range(30):
                acc += estimate_G(draw(i), grid, correction="none").values
            mean_g = acc / 30
            assert (mean_g[sel] < g_pois[sel]).all(), name


class TestProjectionSampler:
    @pytest.mark.parametrize("degenerate", ["zero", "in_span"])
    def test_degenerate_features_raise_instead_of_hanging(self, degenerate):
        # every proposal after the first point carries the accepted
        # point's feature vector (or none at all): nothing is ever
        # accepted again, and the step budget ends the loop
        calls = []

        def propose(m):
            calls.append(m)
            feats = np.zeros((m, 3), dtype=complex)
            if degenerate == "in_span":
                feats[:, 0] = 1.0
            return np.zeros((m, 2)), feats

        rng = np.random.default_rng(0)
        with pytest.raises(SamplerStallError) as err:
            _projection_sample(propose, 3, rng)
        assert isinstance(err.value, NumericalError)
        step = 0 if degenerate == "zero" else 1
        assert f"stalled at point {step}:" in str(err.value)
        # the bound is 1000 proposals per point, checked per batch
        assert 3 * 1000 <= sum(calls) <= 3 * 1000 + 512 + 8
