"""Envelope band construction, verdict semantics, and serialization."""

import csv

import numpy as np
import pytest

from cellpp.errors import (ConfigError, DegeneratePatternError,
                           GridMismatchError)
from cellpp.estimators import RadiusGrid, SummaryCurve, empirical_curves
from cellpp.gof import (EnvelopeBand, GofVerdict, global_envelope,
                        pointwise_envelope, replicate_curves, verdict,
                        write_band_csv)
from cellpp.models import BetaGinibre, Poisson, theoretical_curve
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

from conftest import UNIT_SQUARE

GRID = RadiusGrid(np.linspace(0.0, 1.0, 21))


def curve(values, kind="K", grid=GRID):
    return SummaryCurve(grid=grid, values=np.asarray(values, dtype=float),
                        kind=kind, origin="empirical")


def band(lower, upper, kind="K", mode="pointwise", grid=GRID,
         replicates=39, reference=None):
    sig = 2.0 / (replicates + 1) if mode == "pointwise" else \
        1.0 / (replicates + 1)
    return EnvelopeBand(grid=grid, lower=np.asarray(lower, dtype=float),
                        upper=np.asarray(upper, dtype=float), kind=kind,
                        mode=mode, replicates=replicates, significance=sig,
                        reference=reference)


class TestSignificance:
    def test_pointwise_39(self):
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (39, 1))
        b = pointwise_envelope(reps, GRID, "K")
        assert b.significance == 2.0 / 40.0
        assert b.mode == "pointwise"

    def test_pointwise_19_warns(self):
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (19, 1))
        with pytest.warns(UserWarning, match="weak test"):
            b = pointwise_envelope(reps, GRID, "K")
        assert b.significance == pytest.approx(0.10)

    def test_global_39(self):
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (39, 1))
        ref = theoretical_curve("K", Poisson(100.0), GRID)
        b = global_envelope(reps, ref)
        assert b.significance == 1.0 / 40.0

    def test_below_minimum_rejected(self):
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (18, 1))
        with pytest.raises(ConfigError, match="at least 19"):
            pointwise_envelope(reps, GRID, "K")


class TestBandConstruction:
    def test_pointwise_band_is_replicate_extremes(self):
        rng = np.random.default_rng(8)
        reps = rng.uniform(0.0, 1.0, size=(39, GRID.size))
        b = pointwise_envelope(reps, GRID, "K")
        assert np.array_equal(b.lower, reps.min(axis=0))
        assert np.array_equal(b.upper, reps.max(axis=0))

    def test_global_band_width_is_max_deviation(self):
        ref = theoretical_curve("K", Poisson(100.0), GRID)
        reps = np.tile(ref.values, (39, 1))
        reps[3] = ref.values + 0.1
        reps[7] = ref.values - 0.2
        b = global_envelope(reps, ref)
        assert np.allclose(b.upper, ref.values + 0.2, atol=1e-15)
        assert np.allclose(b.lower, ref.values - 0.2, atol=1e-15)

    def test_global_band_collapses_on_exact_replicates(self):
        ref = theoretical_curve("F", Poisson(100.0), GRID)
        reps = np.tile(ref.values, (39, 1))
        b = global_envelope(reps, ref)
        assert np.array_equal(b.lower, b.upper)
        v = verdict(b, ref)
        assert v.passed and v.exceedance_fraction == 0.0

    def test_nested_replicate_sets_widen_bands(self):
        spec = BetaGinibre(100.0, 0.9)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 64))
        reps = {m: replicate_curves(spec, UNIT_SQUARE, m, grid,
                                    stream=RngStreamSpec(500),
                                    n_test=2000)["F"]
                for m in (19, 39)}
        with pytest.warns(UserWarning, match="weak test"):
            b19 = pointwise_envelope(reps[19], grid, "F")
        b39 = pointwise_envelope(reps[39], grid, "F")
        ok = np.isfinite(b19.lower) & np.isfinite(b39.lower)
        assert ok.any()
        assert (b39.lower[ok] <= b19.lower[ok]).all()
        assert (b39.upper[ok] >= b19.upper[ok]).all()

    def test_wrong_replicate_shape(self):
        reps = np.zeros((39, GRID.size - 1))
        with pytest.raises(GridMismatchError):
            pointwise_envelope(reps, GRID, "K")

    def test_reference_grid_mismatch(self):
        # replicates drawn on GRID cannot be centred on a reference
        # curve of another grid size
        other = RadiusGrid(np.linspace(0.0, 2.0, 33))
        ref = theoretical_curve("K", Poisson(100.0), other)
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (39, 1))
        with pytest.raises(GridMismatchError):
            global_envelope(reps, ref)

    def test_band_validation(self):
        with pytest.raises(ConfigError):
            band(np.ones(GRID.size), np.zeros(GRID.size))
        with pytest.raises(GridMismatchError):
            band(np.zeros(GRID.size - 1), np.ones(GRID.size - 1))
        with pytest.raises(ConfigError):
            EnvelopeBand(grid=GRID, lower=np.zeros(GRID.size),
                         upper=np.ones(GRID.size), kind="K",
                         mode="diagonal", replicates=39, significance=0.05)


class TestVerdict:
    def test_inclusive_containment_passes(self):
        b = band(np.zeros(GRID.size), np.full(GRID.size, 0.5))
        v = verdict(b, curve(np.full(GRID.size, 0.5)))
        assert v.passed
        assert v.first_exit_radius is None
        assert v.exceedance_fraction == 0.0
        assert v.n_defined == GRID.size

    def test_hairline_exit_fails(self):
        vals = np.full(GRID.size, 0.25)
        vals[13] = 0.5 + 1e-9
        b = band(np.zeros(GRID.size), np.full(GRID.size, 0.5))
        v = verdict(b, curve(vals))
        assert not v.passed
        assert v.first_exit_radius == pytest.approx(GRID.r[13])
        assert v.exceedance_fraction == pytest.approx(1.0 / GRID.size)

    def test_nan_radii_excluded(self):
        lower = np.zeros(GRID.size)
        upper = np.full(GRID.size, 0.5)
        lower[4] = upper[4] = np.nan
        vals = np.full(GRID.size, 0.3)
        vals[4] = 99.0   # outside, but the band is undefined there
        vals[9] = np.nan  # curve undefined
        v = verdict(band(lower, upper), curve(vals))
        assert v.passed
        assert v.n_defined == GRID.size - 2

    def test_r_max_restriction_can_flip(self):
        vals = np.full(GRID.size, 0.25)
        vals[-1] = 0.9
        b = band(np.zeros(GRID.size), np.full(GRID.size, 0.5))
        assert not verdict(b, curve(vals)).passed
        restricted = verdict(b, curve(vals), r_max=0.5)
        assert restricted.passed
        assert restricted.r_max == 0.5
        assert restricted.n_defined == int((GRID.r <= 0.5).sum())
        # no radius left to test: no vacuous pass
        with pytest.raises(ConfigError, match="nothing to test"):
            verdict(b, curve(vals), r_max=-1.0)

    def test_regridding_invariance(self):
        rng = np.random.default_rng(5)
        lower = rng.uniform(0.0, 0.2, GRID.size)
        upper = lower + 0.3
        vals = lower + rng.uniform(0.0, 0.4, GRID.size)
        v1 = verdict(band(lower, upper), curve(vals))
        warped = RadiusGrid(GRID.r ** 2)
        v2 = verdict(band(lower, upper, grid=warped),
                     curve(vals, grid=warped))
        assert v1.passed == v2.passed
        assert v1.exceedance_fraction == v2.exceedance_fraction
        assert v1.n_defined == v2.n_defined
        if not v1.passed:
            assert v2.first_exit_radius == pytest.approx(
                v1.first_exit_radius ** 2)

    def test_grid_and_kind_mismatch(self):
        b = band(np.zeros(GRID.size), np.ones(GRID.size))
        other = RadiusGrid(np.linspace(0.0, 2.0, 21))
        with pytest.raises(GridMismatchError):
            verdict(b, curve(np.zeros(21), grid=other))
        with pytest.raises(ConfigError):
            verdict(b, curve(np.zeros(GRID.size), kind="F"))

    def test_to_dict(self):
        v = GofVerdict(kind="K", passed=False, first_exit_radius=0.3,
                       exceedance_fraction=0.1, n_defined=20, r_max=0.5)
        d = v.to_dict()
        assert d == {"kind": "K", "passed": False,
                     "first_exit_radius": 0.3,
                     "exceedance_fraction": 0.1,
                     "n_defined": 20, "r_max": 0.5}


class TestReplicateCurves:
    def test_shapes_and_kinds(self):
        grid = RadiusGrid(np.linspace(0.0, 0.25, 32))
        out = replicate_curves(Poisson(100.0), UNIT_SQUARE, 19, grid,
                               stream=RngStreamSpec(77), n_test=500)
        assert sorted(out) == ["F", "G", "J", "K"]
        for arr in out.values():
            assert arr.shape == (19, 32)

    def test_requested_kinds_only_and_unchanged(self):
        grid = RadiusGrid(np.linspace(0.0, 0.25, 32))
        args = (Poisson(100.0), UNIT_SQUARE, 19, grid)
        full = replicate_curves(*args, stream=RngStreamSpec(78), n_test=500)
        for kinds in (("K",), ("J",), ("G", "F")):
            some = replicate_curves(*args, stream=RngStreamSpec(78),
                                    n_test=500, kinds=kinds)
            assert sorted(some) == sorted(kinds)
            for kind in kinds:
                assert np.array_equal(some[kind], full[kind], equal_nan=True)

    def test_degenerate_replicate_reports_index(self):
        grid = RadiusGrid(np.linspace(0.0, 0.25, 32))
        with pytest.raises(DegeneratePatternError, match="replicate 0"):
            replicate_curves(Poisson(1e-6), UNIT_SQUARE, 19, grid, stream=0,
                             n_test=500)


class TestEndToEnd:
    def test_same_model_data_passes_both_modes(self):
        spec = BetaGinibre(100.0, 0.9)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 64))
        reps = replicate_curves(spec, UNIT_SQUARE, 39, grid,
                                stream=RngStreamSpec(500), n_test=2000)
        pw = pointwise_envelope(reps["K"], grid, "K")
        gl = global_envelope(reps["K"], theoretical_curve("K", spec, grid))
        pat = sample(BetaGinibre(100.0, 0.9), UNIT_SQUARE,
                     RngStreamSpec(600, 1))
        emp = empirical_curves(pat, grid, seed=RngStreamSpec(601, 1),
                               n_test=2000)
        assert verdict(pw, emp["K"]).passed
        assert verdict(gl, emp["K"]).passed

    def test_wrong_model_fails(self):
        # strongly repulsive model bands cannot contain Poisson data
        spec = BetaGinibre(100.0, 0.95)
        grid = RadiusGrid(np.linspace(0.0, 0.25, 64))
        reps = replicate_curves(spec, UNIT_SQUARE, 39, grid,
                                stream=RngStreamSpec(500), n_test=2000)
        pw_k = pointwise_envelope(reps["K"], grid, "K")
        gl_f = global_envelope(reps["F"], theoretical_curve("F", spec, grid))
        pat = sample(Poisson(100.0), UNIT_SQUARE, RngStreamSpec(602))
        emp = empirical_curves(pat, grid, seed=RngStreamSpec(603),
                               n_test=2000)
        v_k = verdict(pw_k, emp["K"])
        assert not v_k.passed
        assert v_k.first_exit_radius is not None
        v_f = verdict(gl_f, emp["F"])
        assert not v_f.passed


class TestBandCsv:
    def test_round_trip_with_nan_and_reference(self, tmp_path):
        ref = theoretical_curve("K", Poisson(100.0), GRID)
        reps = np.tile(ref.values, (39, 1))
        reps[0, 5] = np.nan
        b = global_envelope(reps, ref)
        b.lower[2] = np.nan
        path = tmp_path / "band.csv"
        write_band_csv(path, b)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "lower", "upper", "theoretical"]
        assert len(rows) == GRID.size + 1
        assert rows[3][1] == ""  # NaN cell written empty
        assert float(rows[1][0]) == GRID.r[0]
        k = 7
        assert float(rows[k + 1][1]) == b.lower[k]
        assert float(rows[k + 1][2]) == b.upper[k]
        assert float(rows[k + 1][3]) == ref.values[k]

    def test_pointwise_band_has_no_reference_column(self, tmp_path):
        reps = np.tile(np.linspace(0.0, 3.0, GRID.size), (39, 1))
        b = pointwise_envelope(reps, GRID, "K")
        path = tmp_path / "band.csv"
        write_band_csv(path, b)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "lower", "upper"]
