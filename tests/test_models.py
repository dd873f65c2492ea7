import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc as scipy_gammainc

from cellpp.errors import ConfigError, ExistenceViolation
from cellpp.estimators import (J_F_SATURATION, RadiusGrid, estimate_F,
                               estimate_G, estimate_J)
from cellpp.geom import Rectangle
from cellpp.models import (
    BetaGinibre,
    CauchyDpp,
    GaussDpp,
    Poisson,
    check_valid,
    model_from_dict,
    model_to_dict,
    theoretical_curve,
    validate,
)
from cellpp.models import (_RESOLVED_WIDTHS, _bg_survival, _disk_log_void,
                           _dpp_log_void, _kernel_profile,
                           _weak_kernel_log_void)
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample
from oracles import dpp_determinant_check

# deployment-scale reference spec: 0.7 points per km^2, strong repulsion
LAM_13KM = 0.7e-6
BG_REF = BetaGinibre(intensity=LAM_13KM, beta=0.91)
GRID_13KM = RadiusGrid.default(Rectangle(0.0, 13000.0, 0.0, 13000.0))

# frozen 50-digit evaluations of the closed forms at r = 1000 m
BG_K_1000 = 1957583.3297467968239
BG_J_1000 = 5.8413441860003200951
# pi r^2 - (pi 300^2 / 4) (1 - (1 + (500/300)^2)^-4)
CAUCHY_K_500 = 715059.37446572323124
# K(alpha) / (pi alpha^2) for the Gaussian kernel: 1 - (1 - e^-2)/2
GAUSS_K_AT_SCALE = 0.56766764161830634595


class TestExistence:
    def test_poisson(self):
        assert validate(Poisson(1.0)) is None
        bad = validate(Poisson(0.0))
        assert isinstance(bad, ExistenceViolation)
        assert "intensity" in bad.constraint

    def test_gauss_boundary_admissible(self):
        scale = 250.0
        lam = 1.0 / (math.pi * scale ** 2)
        assert validate(GaussDpp(intensity=lam, scale=scale)) is None
        bad = validate(GaussDpp(intensity=1.01 * lam, scale=scale))
        assert isinstance(bad, ExistenceViolation)
        assert bad.margin == pytest.approx(0.01, rel=1e-6)

    def test_cauchy_boundary_admissible(self):
        lam, shape = 2.0e-6, 1.5
        scale = math.sqrt(shape / (math.pi * lam))
        assert validate(CauchyDpp(lam, scale, shape)) is None
        assert isinstance(validate(CauchyDpp(lam, 1.05 * scale, shape)),
                          ExistenceViolation)
        assert isinstance(validate(CauchyDpp(lam, scale, -1.0)),
                          ExistenceViolation)
        assert isinstance(validate(CauchyDpp(lam, 0.0, shape)),
                          ExistenceViolation)

    def test_beta_range(self):
        assert validate(BetaGinibre(1.0, 1.0)) is None
        assert validate(BetaGinibre(1.0, 1e-4)) is None
        assert isinstance(validate(BetaGinibre(1.0, 0.0)),
                          ExistenceViolation)
        assert isinstance(validate(BetaGinibre(1.0, 1.0000001)),
                          ExistenceViolation)

    def test_check_valid_raises(self):
        with pytest.raises(ExistenceViolation):
            check_valid(GaussDpp(intensity=1.0, scale=1.0))
        check_valid(BG_REF)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        Poisson(0.7e-6),
        BetaGinibre(0.7e-6, 0.91),
        GaussDpp(1e-6, 200.0),
        CauchyDpp(1e-6, 150.0, 2.0),
    ])
    def test_round_trip(self, spec):
        assert model_from_dict(model_to_dict(spec)) == spec

    def test_bad_dicts(self):
        with pytest.raises(ConfigError):
            model_from_dict({"model": "hard-core", "params": {}})
        with pytest.raises(ConfigError):
            model_from_dict({"params": {"intensity": 1.0}})
        with pytest.raises(ConfigError):
            model_from_dict({"model": "gauss-dpp",
                             "params": {"intensity": 1.0, "nu": 2.0}})


class TestClosedFormK:
    def test_poisson_is_pi_r_squared(self):
        k = theoretical_curve("K", Poisson(5.0), GRID_13KM)
        assert np.allclose(k.values, math.pi * GRID_13KM.r ** 2, rtol=1e-14)

    def test_beta_ginibre_frozen_value(self):
        k = theoretical_curve("K", BG_REF, GRID_13KM)
        i = np.searchsorted(GRID_13KM.r, 1000.0)
        grid = RadiusGrid(np.array([0.0, 1000.0]))
        k2 = theoretical_curve("K", BG_REF, grid)
        assert k2.values[1] == pytest.approx(BG_K_1000, rel=1e-9)
        # same formula on the default grid brackets the frozen point
        assert k.values[i - 1] < BG_K_1000 < k.values[i + 1]

    def test_cauchy_frozen_value(self):
        spec = CauchyDpp(intensity=1e-6, scale=300.0, shape=1.5)
        grid = RadiusGrid(np.array([0.0, 500.0]))
        assert theoretical_curve("K", spec, grid).values[1] \
            == pytest.approx(CAUCHY_K_500, rel=1e-12)

    def test_gauss_frozen_ratio(self):
        scale = 2.0
        spec = GaussDpp(intensity=1.0 / (math.pi * scale ** 2), scale=scale)
        grid = RadiusGrid(np.array([0.0, scale]))
        got = (theoretical_curve("K", spec, grid).values[1]
               / (math.pi * scale ** 2))
        assert got == pytest.approx(GAUSS_K_AT_SCALE, rel=1e-12)

    def test_zero_radius(self):
        for spec in (Poisson(1.0), BG_REF, GaussDpp(1e-6, 200.0),
                     CauchyDpp(1e-6, 150.0, 2.0)):
            assert theoretical_curve("K", spec, GRID_13KM).values[0] == 0.0

    @pytest.mark.parametrize("spec", [
        BG_REF,
        BetaGinibre(0.7e-6, 0.25),
        GaussDpp(LAM_13KM, 0.5 / math.sqrt(math.pi * LAM_13KM)),
        CauchyDpp(LAM_13KM, 300.0, 1.0),
    ])
    def test_repulsive_K_below_poisson_and_nondecreasing(self, spec):
        k = theoretical_curve("K", spec, GRID_13KM).values
        r = GRID_13KM.r
        assert np.all(k[1:] < math.pi * r[1:] ** 2)
        assert np.all(np.diff(k) >= 0.0)

    def test_small_scale_limit_is_poisson(self):
        # shrinking the kernel scale removes the repulsion: at
        # alpha = 1e-6 r_max the K deficit is O((alpha/r)^2)
        r_max = GRID_13KM.r[-1]
        scale = 1e-6 * r_max
        base = math.pi * GRID_13KM.r[1:] ** 2
        for spec in (GaussDpp(LAM_13KM, scale),
                     CauchyDpp(LAM_13KM, scale, 1.0)):
            k = theoretical_curve("K", spec, GRID_13KM).values[1:]
            assert np.max(np.abs(k - base) / base) < 1e-6

    def test_validation_happens_first(self):
        with pytest.raises(ExistenceViolation):
            theoretical_curve("K", GaussDpp(1.0, 1.0), GRID_13KM)


def product_F_reference(lam, beta, r, k_hi=400, first_k=1):
    """Independent route to the Ginibre-family F/G product using
    scipy's regularized gamma directly."""
    x = lam * math.pi * r * r / beta
    ks = np.arange(first_k, k_hi + 1, dtype=float)
    return 1.0 - np.prod(1.0 - beta * scipy_gammainc(ks, x))


class TestGinibreFamilyCurves:
    def test_F_matches_independent_product(self):
        for r in (400.0, 1000.0, 2000.0):
            grid = RadiusGrid(np.array([0.0, r]))
            got = theoretical_curve("F", BG_REF, grid).values[1]
            want = product_F_reference(BG_REF.intensity, BG_REF.beta, r)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_G_matches_independent_product(self):
        for r in (400.0, 1000.0, 2000.0):
            grid = RadiusGrid(np.array([0.0, r]))
            got = theoretical_curve("G", BG_REF, grid).values[1]
            want = product_F_reference(BG_REF.intensity, BG_REF.beta, r,
                                       first_k=2)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_J_frozen_value_and_closed_form(self):
        grid = RadiusGrid(np.array([0.0, 1000.0]))
        j = theoretical_curve("J", BG_REF, grid).values[1]
        assert j == pytest.approx(BG_J_1000, rel=1e-9)
        x = BG_REF.intensity * math.pi * 1e6 / BG_REF.beta
        assert j == pytest.approx(
            1.0 / ((1.0 - BG_REF.beta) + BG_REF.beta * math.exp(-x)),
            rel=1e-12)

    def test_J_equals_product_ratio(self):
        # closed-form J against the ratio of the two product curves:
        # two independent code paths through the same distribution
        f = theoretical_curve("F", BG_REF, GRID_13KM).values
        g = theoretical_curve("G", BG_REF, GRID_13KM).values
        j = theoretical_curve("J", BG_REF, GRID_13KM).values
        ok = f < 1.0 - 1e-6
        ratio = (1.0 - g[ok]) / (1.0 - f[ok])
        np.testing.assert_allclose(j[ok], ratio, rtol=1e-10)

    def test_J_limit_at_large_radius(self):
        # J nears 1 / (1 - beta) while F is still below saturation, and
        # is undefined past it
        spec = BetaGinibre(intensity=100.0, beta=0.5)
        grid = RadiusGrid(np.array([0.0, 0.15, 10.0]))
        j = theoretical_curve("J", spec, grid).values
        assert j[1] == pytest.approx(2.0, rel=1e-5)
        assert math.isnan(j[2])

    def test_truncation_converged(self):
        grid = RadiusGrid(np.linspace(0.0, 3250.0, 9))
        auto = theoretical_curve("F", BG_REF, grid).values
        x = BG_REF.intensity * np.pi * grid.r * grid.r / BG_REF.beta
        long = np.array([1.0 - _bg_survival(xi, BG_REF.beta, 1, 900)
                         for xi in x])
        np.testing.assert_allclose(auto, long, atol=1e-10, rtol=0.0)

    def test_beta_limit_reaches_poisson(self):
        # the deviation from the Poisson curve peaks at lam pi r^2 = 1
        # with height ~ beta / (2e); at beta = 1e-4 that is 1.8e-5,
        # and the 1e-6 band is reached around beta = 1e-6
        lam = 100.0
        grid = RadiusGrid.default(Rectangle(0.0, 1.0, 0.0, 1.0), 128)
        pois = theoretical_curve("F", Poisson(lam), grid).values
        f4 = theoretical_curve("F", BetaGinibre(lam, 1e-4), grid).values
        sup4 = np.max(np.abs(f4 - pois))
        assert 1e-5 < sup4 < 3e-5
        peak = RadiusGrid(np.array([0.0, 0.9, 1.0, 1.1])
                          / math.sqrt(lam * math.pi))
        pois_peak = theoretical_curve("F", Poisson(lam), peak).values
        f6 = theoretical_curve("F", BetaGinibre(lam, 1e-6), peak).values
        assert np.max(np.abs(f6 - pois_peak)) < 1e-6

    def test_dense_window_product_stays_bounded(self):
        # lam pi r^2 / beta reaches 4.7e9 (3.3e11 at beta 0.01) at the
        # last radius: the product length follows x, the underflow does
        # not, and at small beta it takes ~746 / beta factors
        import time

        for kind, beta in (("F", 0.7), ("G", 0.01)):
            start = time.perf_counter()
            curve = theoretical_curve(kind, BetaGinibre(100.0, beta),
                                      GRID_13KM)
            assert time.perf_counter() - start < 2.0, (kind, beta)
            assert curve.values[-1] == 1.0

    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("first_k", [1, 2])
    def test_underflow_shortcut_matches_full_product(self, beta, first_k):
        # the shortcut returns 0.0 exactly where the full product does,
        # and the full product otherwise
        from cellpp.models import _bg_log_factors, _bg_term_count

        for x in np.geomspace(10.0, 1e5, 60):
            k_hi = max(_bg_term_count(x), first_k)
            full = np.exp(_bg_log_factors(x, beta, k_hi)[first_k - 1:].sum())
            assert _bg_survival(x, beta, first_k) == float(full)

    def test_poisson_F_G_Jraw(self):
        grid = RadiusGrid(np.array([0.0, 0.05]))
        f = theoretical_curve("F", Poisson(100.0), grid).values[1]
        assert f == pytest.approx(0.54406187223400376, rel=1e-12)
        g = theoretical_curve("G", Poisson(100.0), grid).values[1]
        assert g == f
        j = theoretical_curve("J", Poisson(100.0), grid).values
        assert np.allclose(j, 1.0)


class TestSimulatedCurves:
    """The Gaussian and Cauchy families, whose F/G/J used to be
    Monte-Carlo means, now have exact curves like the other two."""

    WINDOW = Rectangle(0.0, 1.0, 0.0, 1.0)
    SPEC = GaussDpp(intensity=50.0, scale=0.5 / math.sqrt(math.pi * 50.0))

    def test_simulated_F_G_behave(self):
        grid = RadiusGrid.default(self.WINDOW, 64)
        f = theoretical_curve("F", self.SPEC, grid)
        g = theoretical_curve("G", self.SPEC, grid)
        for c in (f, g):
            assert c.origin == "theoretical"
            ok = ~np.isnan(c.values)
            assert np.all((c.values[ok] >= 0.0) & (c.values[ok] <= 1.0))
        assert f.values[0] == 0.0

    def test_simulated_J_ratio(self):
        grid = RadiusGrid.default(self.WINDOW, 32)
        j = theoretical_curve("J", self.SPEC, grid)
        assert j.origin == "theoretical"
        mid = (grid.r > 0.02) & (grid.r < 0.1)
        vals = j.values[mid]
        assert np.all(vals[~np.isnan(vals)] > 0.5)

    def test_curve_dispatch(self):
        grid = RadiusGrid(np.array([0.0, 500.0]))
        k = theoretical_curve("K", BG_REF, grid)
        assert k.kind == "K" and k.origin == "theoretical"
        f = theoretical_curve("F", BG_REF, grid)
        assert f.kind == "F"
        with pytest.raises(KeyError):
            theoretical_curve("L", BG_REF, grid)


def ginibre_kernel(spec):
    """The thinned-rescaled Ginibre kernel between rho_a e^{i theta}
    and rho_b, in the form the disk determinant takes."""
    lam = spec.intensity
    c = lam * math.pi / spec.beta

    def kernel(rho_a, rho_b, theta):
        return lam * np.exp(-0.5 * c * (rho_a * rho_a + rho_b * rho_b)
                            + c * rho_a * rho_b * np.exp(1j * theta))
    return kernel


GAUSS_HALF = GaussDpp(LAM_13KM, math.sqrt(0.5 / (math.pi * LAM_13KM)))
CAUCHY_SHAPES = {nu: CauchyDpp(LAM_13KM,
                               math.sqrt(0.5 * nu / (math.pi * LAM_13KM)), nu)
                 for nu in (0.5, 50.0)}


@pytest.mark.parametrize("spec", [
    Poisson(LAM_13KM), BetaGinibre(LAM_13KM, 1.0), BetaGinibre(LAM_13KM, 0.5),
    GaussDpp(LAM_13KM, 664.0), CauchyDpp(LAM_13KM, 4695.0, 50.0)],
    ids=["poisson", "ginibre", "beta-ginibre-0.5", "gauss", "cauchy"])
def test_J_undefined_exactly_where_F_saturates(spec):
    # one rule for every family, as for the empirical J, and the full
    # Ginibre repulsion (beta = 1) gets there without a RuntimeWarning
    f = theoretical_curve("F", spec, GRID_13KM).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = theoretical_curve("J", spec, GRID_13KM).values
    saturated = f >= 1.0 - J_F_SATURATION
    assert saturated.any() and not saturated.all()
    np.testing.assert_array_equal(np.isnan(j), saturated)


class TestFredholmCurves:
    @pytest.mark.parametrize("beta", [0.3, 0.91, 1.0])
    def test_ginibre_kernel_reproduces_product(self, beta):
        # the Ginibre kernel has one rotational eigenfunction per
        # frequency: the block determinants must rebuild the closed
        # products, F with k >= 1 and, with the Palm correction on the
        # frequency-0 block, G with k >= 2
        spec = BetaGinibre(LAM_13KM, beta)
        r = GRID_13KM.r[1::8]
        x = LAM_13KM * math.pi * r * r / beta
        for palm, first_k in ((None, 1), (LAM_13KM, 2)):
            got = np.exp([_disk_log_void(ginibre_kernel(spec), ri, 32, 48,
                                         palm) for ri in r])
            want = np.array([_bg_survival(xi, beta, first_k) for xi in x])
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("spec", [GAUSS_HALF, CAUCHY_SHAPES[0.5],
                                      CAUCHY_SHAPES[50.0],
                                      GaussDpp(LAM_13KM, 200.0)],
                             ids=["gauss", "cauchy-0.5", "cauchy-50",
                                  "gauss-narrow"])
    def test_node_doubling_converged(self, spec):
        r = GRID_13KM.r[::8]
        for palm in (False, True):
            base = -np.expm1(_dpp_log_void(spec, r, palm))
            fine = -np.expm1(_dpp_log_void(spec, r, palm, refine=2))
            np.testing.assert_allclose(base, fine, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("scale_fraction", [1e-4, 1e-3])
    def test_tiny_scale_is_poisson(self, scale_fraction):
        # repulsion vanishes with the kernel scale: the F deficit is
        # about P * lambda|B| * lambda pi a^2 / 4, below 1e-6 here
        bound = 1.0 / math.sqrt(math.pi * LAM_13KM)
        spec = GaussDpp(LAM_13KM, scale_fraction * bound)
        pois = theoretical_curve("F", Poisson(LAM_13KM), GRID_13KM).values
        for curve in (theoretical_curve("F", spec, GRID_13KM),
                      theoretical_curve("G", spec, GRID_13KM)):
            np.testing.assert_allclose(curve.values, pois, atol=1e-6,
                                       rtol=0.0)

    @pytest.mark.parametrize("spec", [GAUSS_HALF, CAUCHY_SHAPES[0.5]],
                             ids=["gauss", "cauchy"])
    def test_repulsive_ordering_and_J_ratio(self, spec):
        # a determinantal void probability never exceeds the Poisson
        # one, and repulsion makes G <= F (J >= 1)
        f = theoretical_curve("F", spec, GRID_13KM).values
        g = theoretical_curve("G", spec, GRID_13KM).values
        j = theoretical_curve("J", spec, GRID_13KM).values
        pois = theoretical_curve("F", Poisson(LAM_13KM), GRID_13KM).values
        assert f[0] == 0.0 and g[0] == 0.0
        assert np.all(f >= pois - 1e-15)
        assert np.all(g <= f + 1e-15)
        assert np.all(np.diff(f) >= 0.0) and np.all(np.diff(g) >= 0.0)
        ok = f < 1.0 - 1e-6
        assert np.all(np.isnan(j[~ok]))
        # J comes from the log void probabilities; the ratio of the
        # rounded curves carries an absolute error of ~1e-16 / (1 - F)
        np.testing.assert_allclose(j[ok] * (1.0 - f[ok]), 1.0 - g[ok],
                                   rtol=1e-12, atol=1e-15)
        assert np.all(j[ok] >= 1.0 - 1e-12)

    @pytest.mark.parametrize("spec", [GaussDpp(LAM_13KM, 664.0),
                                      CAUCHY_SHAPES[50.0]],
                             ids=["gauss", "cauchy"])
    def test_one_J_saturation_rule(self, spec):
        # the empirical ratio applied to the exact F and G is undefined
        # at exactly the radii where the exact J is, and agrees with
        # the log-form J everywhere else
        f = theoretical_curve("F", spec, GRID_13KM)
        g = theoretical_curve("G", spec, GRID_13KM)
        exact = theoretical_curve("J", spec, GRID_13KM).values
        ratio = estimate_J(f, g).values
        undefined = np.isnan(exact)
        # F saturates inside the grid, which ends at 3.25 km
        assert undefined.any() and not undefined[:2].any()
        np.testing.assert_array_equal(np.isnan(ratio), undefined)
        np.testing.assert_allclose(ratio[~undefined], exact[~undefined],
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.filterwarnings("ignore:pattern has")
    @pytest.mark.parametrize("spec, base, f_tol, g_tol", [
        (GaussDpp(50.0, 0.5 / math.sqrt(math.pi * 50.0)), 61, 0.015, 0.05),
        (CauchyDpp(50.0, math.sqrt(0.5 / (math.pi * 50.0)), 0.5), 62,
         0.015, 0.05),
    ], ids=["gauss", "cauchy"])
    def test_monte_carlo_mean_agrees(self, spec, base, f_tol, g_tol):
        # an independent route through the spectral sampler and the
        # border-corrected estimators: 100 replicates on the unit
        # square (measured max deviations F 0.003 / 0.009, G 0.033 /
        # 0.009, against standard errors ~0.007 and ~0.012)
        window = Rectangle(0.0, 1.0, 0.0, 1.0)
        grid = RadiusGrid(np.linspace(0.0, 0.12, 13))
        fs, gs = [], []
        for i in range(100):
            pat = sample(spec, window, RngStreamSpec(base, 2 * i))
            fs.append(estimate_F(pat, grid, n_test=1000,
                                 seed=RngStreamSpec(base, 2 * i + 1)).values)
            gs.append(estimate_G(pat, grid).values)
        f = theoretical_curve("F", spec, grid).values
        g = theoretical_curve("G", spec, grid).values
        assert np.max(np.abs(np.nanmean(fs, axis=0) - f)) < f_tol
        assert np.max(np.abs(np.nanmean(gs, axis=0) - g)) < g_tol

    @pytest.mark.parametrize("spec, tol", [
        (GaussDpp(LAM_13KM, 36.0), 3e-8),
        (CauchyDpp(LAM_13KM, 60.0, 0.5), 1e-6),
    ], ids=["gauss", "cauchy"])
    def test_weak_kernel_expansion_matches_determinant(self, spec, tol):
        # where the Nystrom rule hands over to the trace expansion, both
        # routes agree within the expansion's stated accuracy
        width = _kernel_profile(spec)[1]
        r = _RESOLVED_WIDTHS * width
        for palm in (False, True):
            resolved = _dpp_log_void(spec, np.array([0.0, r]), palm)[1]
            expanded = _weak_kernel_log_void(spec, r, palm)
            assert abs(math.exp(resolved) - math.exp(expanded)) < tol


class TestCauchySpectralDensity:
    @pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 5.0, 20.0, 33.0, 50.0,
                                    100.0, 150.0, 170.0])
    def test_log_space_form_matches_the_direct_one(self, nu):
        # lambda alpha^2 2 pi (z/2)^nu K_nu(z) / Gamma(nu + 1) formed
        # directly, compared wherever that product is finite and normal
        from scipy.special import gamma, kv

        from cellpp.models import _spectral_density

        lam, alpha = 1e-6, 800.0
        z = np.logspace(-8, 3.2, 500)
        with np.errstate(all="ignore"):
            direct = (lam * alpha ** 2 * 2.0 * math.pi * (0.5 * z) ** nu
                      * kv(nu, z) / gamma(nu + 1.0))
        ok = np.isfinite(direct) & (direct > 1e-300)
        assert ok.sum() > 50
        got = _spectral_density(CauchyDpp(lam, alpha, nu), np.concatenate(
            [[0.0], z / (2.0 * math.pi * alpha)]))
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        np.testing.assert_allclose(got[1:][ok], direct[ok], rtol=1e-12,
                                   atol=0)
        # monotone in the frequency, to the ~1e-10 of Debye's expansion
        # where K_nu overflows, and at zero the kernel's integral
        assert np.all(np.diff(got) <= 1e-9 * got[:-1])
        assert got[0] == pytest.approx(lam * math.pi * alpha ** 2 / nu,
                                       rel=1e-9)


class TestDeterminantCheck:
    GAUSS = GaussDpp(intensity=0.5, scale=0.7)
    CAUCHY = CauchyDpp(intensity=0.4, scale=0.9, shape=1.2)
    BG = BetaGinibre(intensity=2.5, beta=0.8)

    def test_single_point_is_intensity(self):
        for spec in (self.GAUSS, self.CAUCHY, self.BG):
            assert dpp_determinant_check(spec, [[0.3, -0.2]]) \
                == pytest.approx(spec.intensity, rel=1e-12)

    def test_coincident_pair_vanishes(self):
        for spec in (self.GAUSS, self.CAUCHY, self.BG):
            det = dpp_determinant_check(spec, [[0.1, 0.4], [0.1, 0.4]])
            assert abs(det) < 1e-9 * spec.intensity ** 2

    def test_pair_closed_forms(self):
        s = 0.6
        pair = [[0.0, 0.0], [s, 0.0]]
        lam = self.GAUSS.intensity
        want = lam ** 2 * (1.0 - math.exp(-2.0 * s * s
                                          / self.GAUSS.scale ** 2))
        assert dpp_determinant_check(self.GAUSS, pair) \
            == pytest.approx(want, rel=1e-12)
        lam = self.CAUCHY.intensity
        want = lam ** 2 * (
            1.0 - (1.0 + s * s / self.CAUCHY.scale ** 2)
            ** (-2.0 * (self.CAUCHY.shape + 1.0)))
        assert dpp_determinant_check(self.CAUCHY, pair) \
            == pytest.approx(want, rel=1e-12)
        lam, beta = self.BG.intensity, self.BG.beta
        want = lam ** 2 * (1.0 - math.exp(-lam * math.pi * s * s / beta))
        assert dpp_determinant_check(self.BG, pair) \
            == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", [GAUSS, CAUCHY, BG])
    def test_pair_density_matches_K_derivative(self, spec):
        # d/dr of the closed-form K equals 2 pi r g(r); the pair
        # determinant equals lam^2 g(r).  Two independent routes to the
        # second moment that must agree.
        lam = spec.intensity
        for r in (0.3, 0.8, 1.5):
            h = 1e-5 * r
            grid = RadiusGrid(np.array([0.0, r - h, r + h]))
            k = theoretical_curve("K", spec, grid).values
            g_from_K = (k[2] - k[1]) / (2.0 * h) / (2.0 * math.pi * r)
            det = dpp_determinant_check(spec, [[0.0, 0.0], [r, 0.0]])
            assert det / lam ** 2 == pytest.approx(g_from_K, rel=1e-6)

    def test_nonnegative_random_configs(self, rng):
        for spec in (self.GAUSS, self.CAUCHY, self.BG):
            for n in (2, 4, 6):
                pts = rng.uniform(-1.0, 1.0, size=(n, 2))
                det = dpp_determinant_check(spec, pts)
                assert det >= -1e-9

    def test_rejects_poisson_and_large_configs(self, rng):
        with pytest.raises(ConfigError):
            dpp_determinant_check(Poisson(1.0), [[0.0, 0.0]])
        with pytest.raises(ValueError):
            dpp_determinant_check(self.GAUSS, rng.uniform(size=(7, 2)))
