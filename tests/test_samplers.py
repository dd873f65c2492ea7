"""Sampler contracts: moments, closed-form K matching, determinism,
construction equivalences, and truncation guards.

Statistical assertions run on frozen streams; tolerances were sized
from pilot runs so the binding margins sit well inside the Monte-Carlo
spread of the frozen seeds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cellpp.errors import (ExistenceViolation, NumericalError,
                           SamplerStallError, TruncationError)
from cellpp.estimators import RadiusGrid, estimate_G, estimate_K
from cellpp.geom import Disk, PointPattern, Rectangle
from cellpp import samplers
from cellpp.models import (BetaGinibre, CauchyDpp, GaussDpp, Poisson,
                           theoretical_curve)
from cellpp.rng import RngStreamSpec
from cellpp.samplers import _projection_sample, expected_points, sample

from conftest import UNIT_SQUARE
from oracles import full_basis_projection_sample


def mean_k(sampler, n_seeds: int, grid: RadiusGrid) -> np.ndarray:
    acc = np.zeros(grid.size)
    for i in range(n_seeds):
        acc += estimate_K(sampler(i), grid).values
    return acc / n_seeds


class TestPoisson:
    def test_count_moments(self):
        counts = np.array([
            sample(Poisson(100.0), UNIT_SQUARE, RngStreamSpec(7, i)).n
            for i in range(2000)])
        mean = counts.mean()
        assert 97.0 < mean < 103.0
        assert 0.9 < counts.var(ddof=1) / mean < 1.1

    def test_disjoint_counts_uncorrelated(self):
        left = np.empty(2000)
        right = np.empty(2000)
        for i in range(2000):
            pts = sample(Poisson(100.0), UNIT_SQUARE,
                         RngStreamSpec(8, i)).points
            left[i] = np.sum(pts[:, 0] < 0.5)
            right[i] = np.sum(pts[:, 0] >= 0.5)
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.05

    def test_mostly_empty_at_tiny_mean(self):
        pats = [sample(Poisson(0.001), UNIT_SQUARE, RngStreamSpec(70, i))
                for i in range(200)]
        empties = sum(p.n == 0 for p in pats)
        assert empties >= 190
        for p in pats:
            assert p.points.shape == (p.n, 2)
            assert p.window is UNIT_SQUARE

    def test_points_inside_window(self):
        pat = sample(Poisson(200.0), Rectangle(2.0, 5.0, -1.0, 1.0),
                     RngStreamSpec(71))
        assert pat.window.contains(pat.points).all()

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ExistenceViolation):
            sample(Poisson(-3.0), UNIT_SQUARE, RngStreamSpec(0))


class TestBetaGinibre:
    def test_near_zero_beta_is_poisson_like(self):
        # beta -> 0 at fixed intensity degenerates to a Poisson process;
        # this spec spans 1,585,867 rotational modes
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        mk = mean_k(
            lambda i: sample(BetaGinibre(100.0, 1e-4), UNIT_SQUARE,
                             RngStreamSpec(21, i)),
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
        theory = theoretical_curve("K", BetaGinibre(1.0, 1.0), grid).values
        curves = np.empty((100, grid.size))
        for i in range(100):
            curves[i] = estimate_K(
                sample(BetaGinibre(1.0, 1.0), disk, RngStreamSpec(22, i)),
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
            sample(BetaGinibre(0.7e-6, 0.5), window, RngStreamSpec(23, i)).n
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
            base = sample(BetaGinibre(lam, 1.0), base_disk,
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
            pat_b = sample(BetaGinibre(lam, beta), window,
                           RngStreamSpec(33, i))
            n_a[i], n_b[i] = pat_a.n, pat_b.n
            k_a += estimate_K(pat_a, grid).values
            k_b += estimate_K(pat_b, grid).values
        k_a /= 40
        k_b /= 40

        assert abs(n_a.mean() - n_b.mean()) < 4.0
        sel = grid.r >= 0.3
        assert (np.abs(k_a[sel] - k_b[sel]) / k_b[sel]).max() < 0.10
        theory = theoretical_curve("K", BetaGinibre(lam, beta), grid).values
        assert (np.abs(k_a[sel] - theory[sel]) / theory[sel]).max() < 0.08
        assert (np.abs(k_b[sel] - theory[sel]) / theory[sel]).max() < 0.08

    def test_beta_one_equals_unthinned_path(self):
        # at beta=1 thinning keeps everything and the rescaling is the
        # identity, so sampling on the rectangle must reproduce the
        # plain Ginibre draw on its covering disk point for point
        rect = Rectangle(1.0, 3.0, -1.0, 2.0)
        stream = RngStreamSpec(40, 0)
        direct = sample(BetaGinibre(2.0, 1.0), rect, stream)
        cx, cy = rect.center()
        cover = Disk(cx, cy, rect.circumradius())
        unthinned = sample(BetaGinibre(2.0, 1.0), cover, stream)
        inside = unthinned.points[rect.contains(unthinned.points)]
        assert np.array_equal(direct.points, inside)

    def test_truncation_budget(self, monkeypatch):
        # past 2^52 rotational modes the indices stop being exact
        with pytest.raises(TruncationError, match="past 2\\^52"):
            sample(BetaGinibre(100.0, 1e-300), UNIT_SQUARE, RngStreamSpec(0))
        # the covering disk of the unit square expects 50 pi points,
        # whatever beta
        monkeypatch.setattr(samplers, "DPP_POINT_BUDGET", 100)
        for beta in (1e-4, 1.0):
            with pytest.raises(TruncationError) as err:
                sample(BetaGinibre(100.0, beta), UNIT_SQUARE, RngStreamSpec(0))
            assert err.value.budget == 100
            assert err.value.required == pytest.approx(50.0 * math.pi)
        assert "expects 157.08 points on this window, bound is 100" \
            in str(err.value)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ExistenceViolation):
            sample(BetaGinibre(1.0, 1.5), UNIT_SQUARE, RngStreamSpec(0))

    def test_empty_return_is_valid(self):
        pat = sample(BetaGinibre(1e-6, 0.9), UNIT_SQUARE, RngStreamSpec(72))
        assert pat.n == 0
        assert pat.points.shape == (0, 2)


class TestSpectral:
    def test_weak_repulsion_is_poisson_like(self):
        # lam * pi * alpha^2 = 0.01: interaction mass is 1% and K
        # should sit on the Poisson parabola out to 5*alpha.  The exact
        # K does, within 5%; at r = 0.018 it is 4.9% below pi r^2, so a
        # faithful sampler's 400-draw mean (standard error 2.5% there)
        # leaves that band on about half of all seeds.  The draws are
        # therefore held to the exact K with the same half-width,
        # 5% of pi r^2, pooled over two independent 400-draw trials.
        lam = 100.0
        alpha = math.sqrt(0.01 / (lam * math.pi))
        spec = GaussDpp(intensity=lam, scale=alpha)
        grid = RadiusGrid(np.array([0.0, 0.018, 0.02, 0.022, 0.024,
                                    0.026, 0.028]))
        assert grid.r[-1] <= 5.0 * alpha
        sel = grid.r > 0
        pois = math.pi * grid.r[sel] ** 2
        theory = theoretical_curve("K", spec, grid).values[sel]
        assert (np.abs(theory - pois) / pois).max() < 0.05
        trials = [
            mean_k(lambda i, seed=seed: sample(
                spec, UNIT_SQUARE, RngStreamSpec(seed, i)), 400, grid)
            for seed in (41, 1041)]
        mk = np.mean(trials, axis=0)[sel]
        assert (np.abs(mk - theory) / pois).max() < 0.05

    def test_gauss_at_existence_boundary(self):
        alpha = 0.06
        lam = 1.0 / (math.pi * alpha ** 2)
        spec = GaussDpp(intensity=lam, scale=alpha)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        theory = theoretical_curve("K", spec, grid).values
        mk = mean_k(
            lambda i: sample(spec, UNIT_SQUARE, RngStreamSpec(42, i)),
            100, grid)
        sel = grid.r >= 0.08
        assert (np.abs(mk[sel] - theory[sel]) / theory[sel]).max() < 0.05

    def test_cauchy_at_half_bound(self):
        alpha, nu = 0.03, 0.5
        lam = nu / (2.0 * math.pi * alpha ** 2)
        spec = CauchyDpp(intensity=lam, scale=alpha, shape=nu)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 26))
        theory = theoretical_curve("K", spec, grid).values
        mk = mean_k(
            lambda i: sample(spec, UNIT_SQUARE, RngStreamSpec(43, i)),
            100, grid)
        sel = grid.r >= 0.08
        assert (np.abs(mk[sel] - theory[sel]) / theory[sel]).max() < 0.05

    @pytest.mark.parametrize("spec", [
        GaussDpp(intensity=50.0, scale=0.05),
        CauchyDpp(intensity=50.0, scale=0.05, shape=1.0),
    ], ids=["gauss", "cauchy"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_disk_draw_is_the_bounding_box_draw_clipped(self, spec, seed):
        # a DPP restricted to a sub-window is the DPP with the restricted
        # kernel, so the disk draw is the box draw clipped, exactly
        disk = Disk(0.3, -0.2, 0.5)
        on_disk = sample(spec, disk, RngStreamSpec(seed))
        on_box = sample(spec, disk.bounding_box(), RngStreamSpec(seed))
        assert on_disk.window is disk
        assert 0 < on_disk.n < on_box.n
        assert np.array_equal(on_disk.points,
                              on_box.points[disk.contains(on_box.points)])
        assert expected_points(spec.name, spec.intensity, disk) \
            == expected_points(spec.name, spec.intensity,
                               disk.bounding_box())

    @pytest.mark.parametrize("spec", [
        GaussDpp(intensity=50.0, scale=0.05),
        CauchyDpp(intensity=50.0, scale=0.05, shape=1.0),
    ], ids=["gauss", "cauchy"])
    def test_point_budget_guard(self, spec, monkeypatch):
        # the 1.25 x 1.25 torus expects 78.125 points, whatever the scale
        need = expected_points(spec.name, 50.0, UNIT_SQUARE)
        assert need == pytest.approx(78.125)
        monkeypatch.setattr(samplers, "DPP_POINT_BUDGET", 78)
        for scale in (0.05, 1e-6):
            with pytest.raises(TruncationError) as err:
                sample(replace(spec, scale=scale), UNIT_SQUARE,
                       RngStreamSpec(0))
            assert err.value.required == need
            assert err.value.budget == 78
        # at or above the expected count the draw goes through
        monkeypatch.setattr(samplers, "DPP_POINT_BUDGET", 79)
        assert sample(spec, UNIT_SQUARE, RngStreamSpec(1)).n > 0

    def test_unresolvable_spectra_are_refused(self):
        # width 2^-22 of the torus is the finest the lattice indexes
        with pytest.raises(TruncationError, match="narrower than 2"):
            sample(GaussDpp(intensity=50.0, scale=1e-7), UNIT_SQUARE,
                   RngStreamSpec(0))
        with pytest.raises(TruncationError, match="shape=1e\\+300"):
            sample(CauchyDpp(50.0, 0.05, 1e300), UNIT_SQUARE, RngStreamSpec(0))
        # at shape 1e12 the log-space density is NaN past frequency 0
        lam, shape = 7e-7, 1e12
        spec = CauchyDpp(lam, 0.9 * math.sqrt(shape / (math.pi * lam)), shape)
        with pytest.raises(TruncationError, match="does not fall off"):
            sample(spec, SQUARE_13KM, RngStreamSpec(0))

    def test_large_cauchy_shape_samples(self):
        # (z/2)^150 K_150(z) overflows below z ~ 1, at the torus's lowest
        # frequencies; in log space the draw keeps the expected count
        spec = CauchyDpp(0.7e-6, 1000.0, 150.0)
        counts = [sample(spec, SQUARE_13KM, RngStreamSpec(74, i)).n
                  for i in range(20)]
        assert abs(np.mean(counts) - 0.7e-6 * SQUARE_13KM.area()) < 8.0

    def test_empty_return_is_valid(self):
        spec = GaussDpp(intensity=1e-4, scale=0.1)
        pat = sample(spec, UNIT_SQUARE, RngStreamSpec(73))
        assert pat.n == 0
        assert pat.points.shape == (0, 2)


SAMPLER_CASES = {
    "poisson": (100.0,
                lambda i: sample(Poisson(100.0), UNIT_SQUARE,
                                 RngStreamSpec(50, i))),
    "beta-ginibre": (49.0,
                     lambda i: sample(
                         BetaGinibre(1.0, 0.8),
                         Rectangle(-3.5, 3.5, -3.5, 3.5),
                         RngStreamSpec(51, i))),
    "gauss-dpp": (50.0,
                  lambda i: sample(
                      GaussDpp(intensity=50.0,
                               scale=math.sqrt(0.5 / (math.pi * 50.0))),
                      UNIT_SQUARE, RngStreamSpec(52, i))),
    "cauchy-dpp": (50.0,
                   lambda i: sample(
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
            "beta-ginibre": lambda i: sample(
                BetaGinibre(lam, 0.9), UNIT_SQUARE, RngStreamSpec(60, i)),
            "gauss-dpp": lambda i: sample(
                GaussDpp(intensity=lam, scale=half_gauss), UNIT_SQUARE,
                RngStreamSpec(61, i)),
            "cauchy-dpp": lambda i: sample(
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

    def test_downdate_with_a_subnormal_head(self):
        # an accepted vector whose first complement coordinate is
        # subnormal, as with near-disjoint Ginibre modes: dividing by
        # its modulus overflows, so it must reflect like a zero one
        import warnings

        init = np.random.default_rng(4)
        q, _ = np.linalg.qr(init.normal(size=(4, 3))
                            + 1j * init.normal(size=(4, 3)))
        live = np.ascontiguousarray(q.T.conj())
        a = np.array([2e-320 - 2e-321j, 3.0, 4.0j])
        f = live.T.conj() @ a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samplers._householder_downdate(live, a)
        np.testing.assert_allclose(live @ live.T.conj(), np.eye(3),
                                   atol=1e-14)
        assert abs(live[0] @ f) == pytest.approx(5.0)
        np.testing.assert_allclose(live[1:] @ f, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n_items, n", [(7, 3), (9, 6)])
    def test_exact_law_on_a_finite_ground_set(self, n_items, n):
        # Projection DPP on N items with an orthonormal N x n feature
        # matrix V: the law of the n-subset S is |det V_S|^2.  Proposals
        # pick item i with probability |V_i|^2 / n, the mixture density.
        # At n = 6 three steps run on the basis and three (two of them
        # with a Householder downdate) on the complement.
        from itertools import combinations

        from scipy.stats import chi2

        draws = 20_000
        init = np.random.default_rng(5)
        v, _ = np.linalg.qr(init.normal(size=(n_items, n))
                            + 1j * init.normal(size=(n_items, n)))
        mix = np.sum(np.abs(v) ** 2, axis=1) / n
        rows = []
        rng = np.random.default_rng(6)

        def propose(m):
            rows.append(m)
            items = rng.choice(n_items, size=m, p=mix)
            return items[:, None].astype(float), v[items]

        subsets = list(combinations(range(n_items), n))
        index = {s: i for i, s in enumerate(subsets)}
        counts = np.zeros(len(subsets))
        for _ in range(draws):
            items = _projection_sample(propose, n, rng, dim=1)[:, 0]
            key = tuple(sorted(int(i) for i in items))
            assert len(set(key)) == n, key
            counts[index[key]] += 1
        law = np.array([abs(np.linalg.det(v[list(s)])) ** 2
                        for s in subsets])
        assert law.sum() == pytest.approx(1.0)
        expected = draws * law
        stat = np.sum((counts - expected) ** 2 / expected)
        assert chi2.sf(stat, len(subsets) - 1) > 1e-3
        # blocks carried across steps: near the n * H_n ideal
        h_n = sum(1.0 / k for k in range(1, n + 1))
        assert sum(rows) / (draws * n) < 1.5 * h_n


def inclusion_p_value(counts, p, draws):
    """Chi-square p-value of mode inclusion counts against independent
    Bernoulli(p) trials: one cell per mode whose count has a variance
    of 5 or more, the other modes pooled in one cell."""
    from scipy.stats import chi2

    assert np.all(counts[p == 1.0] == draws)
    assert np.all(counts[p == 0.0] == 0)
    var = draws * p * (1.0 - p)
    big = var >= 5.0
    stat = np.sum((counts[big] - draws * p[big]) ** 2 / var[big])
    pooled = var[~big].sum()
    if pooled > 0.0:
        stat += (counts[~big].sum() - draws * p[~big].sum()) ** 2 / pooled
    return chi2.sf(stat, big.sum() + (pooled > 0.0) - 1)


class TestModeSelection:
    """Geometric skips at a dominating rate, then thinning, keep each
    mode independently with probability its eigenvalue."""

    draws = 20_000

    @pytest.mark.parametrize("beta", [0.7, 1.0])
    def test_ginibre_modes_follow_the_exact_law(self, beta):
        # one run at rate beta over modes k = 0, 1, ..., as on a disk
        # with c R^2 = 5; at beta = 1 the first modes are kept surely
        from scipy.special import gammainc

        from cellpp.models import _bg_term_count

        t_cap = 5.0
        k_hi = _bg_term_count(t_cap)
        p = beta * gammainc(np.arange(k_hi) + 1.0, t_cap)
        rng = np.random.default_rng(8)
        counts = np.zeros(k_hi)
        for _ in range(self.draws):
            kept = samplers._bernoulli_modes(
                np.zeros(1, dtype=np.int64), np.array([k_hi]),
                np.array([beta]), lambda k: beta * gammainc(k + 1.0, t_cap),
                rng)
            assert np.all(np.diff(kept) > 0)
            counts[kept] += 1
        assert inclusion_p_value(counts, p, self.draws) > 1e-3

    @pytest.mark.parametrize("spec", [
        GaussDpp(intensity=7.0, scale=0.2),
        GaussDpp(intensity=1.0 / (math.pi * 0.04), scale=0.2),
        CauchyDpp(intensity=5.0, scale=0.2, shape=0.5),
    ], ids=["gauss", "gauss-at-bound", "cauchy"])
    def test_fourier_modes_follow_the_exact_law(self, spec):
        # a 1.25 x 0.75 torus, so the rings are not circles of constant
        # frequency; at the existence bound the constant mode is sure
        from cellpp.models import _spectral_density

        t1, t2, j = 1.25, 0.75, 64
        kx, ky = np.meshgrid(np.arange(-j, j + 1), np.arange(-j, j + 1),
                             indexing="ij")
        p = np.clip(_spectral_density(
            spec, np.hypot(kx / t1, ky / t2).ravel()), 0.0, 1.0)
        rng = np.random.default_rng(9)
        counts = np.zeros(p.size)
        for _ in range(self.draws):
            mx, my = samplers._fourier_modes(spec, t1, t2, rng)
            assert np.abs(mx).max(initial=0) <= j
            assert np.abs(my).max(initial=0) <= j
            np.add.at(counts, (mx + j) * (2 * j + 1) + my + j, 1)
        assert counts.max() <= self.draws
        assert inclusion_p_value(counts, p, self.draws) > 1e-3


# Fitted-looking specs on the 13 km square, about 185 points a draw.
SQUARE_13KM = Rectangle(0.0, 13000.0, 0.0, 13000.0)
ORACLE_SPECS = {
    "beta-ginibre": BetaGinibre(0.7e-6, 0.9),
    "gauss-dpp": GaussDpp(0.7e-6, 664.0),
    "cauchy-dpp": CauchyDpp(0.7e-6, 4695.0, 50.0),
}


def projection_draw(spec, window, stream, projection, monkeypatch):
    """The unclipped points of one draw, sampled by ``projection``."""
    drawn = []

    def record(*args, **kwargs):
        drawn.append(projection(*args, **kwargs))
        return drawn[-1]

    with monkeypatch.context() as patch:
        patch.setattr(samplers, "_projection_sample", record)
        sample(spec, window, stream)
    (points,) = drawn
    return points


class TestAgainstFullBasis:
    """The complement half of the production sampler changes only its
    linear algebra: for every draw it must accept the same proposals,
    in the same order, as the full-basis sampler of ``oracles``."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_same_points_at_13km(self, name, monkeypatch):
        spec = ORACLE_SPECS[name]
        for seed in range(3):
            stream = RngStreamSpec(97, seed)
            got = projection_draw(spec, SQUARE_13KM, stream,
                                  _projection_sample, monkeypatch)
            want = projection_draw(spec, SQUARE_13KM, stream,
                                   full_basis_projection_sample,
                                   monkeypatch)
            assert len(got) > 150
            np.testing.assert_array_equal(got, want)

    def test_same_points_on_a_600_point_draw(self, monkeypatch):
        # a 23.4 km square's covering disk holds ~600 Ginibre points
        window = Rectangle(0.0, 23400.0, 0.0, 23400.0)
        spec = ORACLE_SPECS["beta-ginibre"]
        stream = RngStreamSpec(98)
        got = projection_draw(spec, window, stream, _projection_sample,
                              monkeypatch)
        want = projection_draw(spec, window, stream,
                               full_basis_projection_sample, monkeypatch)
        assert 550 < len(got) < 650
        np.testing.assert_array_equal(got, want)
