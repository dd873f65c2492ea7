"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS`` line with its
runtime (visible under ``pytest -s`` or in the captured-output block of
a failure).  Monte-Carlo criteria use frozen seed streams; the margins
behind every tolerance were measured before the values were locked in.
"""

import filecmp
import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cellpp.errors import ConfigError
from cellpp.estimators import (RadiusGrid, default_test_point_count,
                               estimate_F, estimate_G, estimate_K)
from cellpp.fitting import ContrastSpec, fit
from cellpp.geom import Disk, PointPattern, Rectangle
from cellpp.gof import global_envelope, pointwise_envelope, replicate_curves
from cellpp.models import (BetaGinibre, CauchyDpp, GaussDpp, Poisson,
                           _bg_survival, theoretical_curve)
from cellpp.pipeline import (PipelineConfig, load_pattern, run_pipeline,
                             write_points_csv)
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

from naive_estimators import naive_F, naive_G, naive_K
from oracles import j_second_order_approx

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)
KM13 = Rectangle(0.0, 13000.0, 0.0, 13000.0)


def _report(name: str, t0: float, budget: float | None = None) -> float:
    elapsed = time.perf_counter() - t0
    extra = "" if budget is None else f" (budget {budget:.0f}s)"
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s{extra}")
    return elapsed


@pytest.mark.filterwarnings("ignore:pattern has")
def test_poisson_baseline_curves():
    """Mean empirical K/F/G over 50 Poisson seeds track the closed
    forms: K within 5% relative on [0.02, 0.2], F within 0.02 and G
    within 0.03 absolute up to r = 0.1; all inside 30 s."""
    t0 = time.perf_counter()
    lam = 100.0
    grid = RadiusGrid(np.linspace(0.0, 0.2, 11))
    ks, fs, gs = [], [], []
    for i in range(50):
        pat = sample(Poisson(lam), UNIT, RngStreamSpec(88, i))
        ks.append(estimate_K(pat, grid).values)
        fs.append(estimate_F(pat, grid, n_test=2000,
                             seed=RngStreamSpec(88, 1000 + i)).values)
        gs.append(estimate_G(pat, grid).values)
    r = grid.r
    k_true = np.pi * r ** 2
    fg_true = 1.0 - np.exp(-lam * np.pi * r ** 2)
    k_rel = np.abs(np.mean(ks, axis=0)[1:] - k_true[1:]) / k_true[1:]
    assert np.max(k_rel) < 0.05          # measured 0.0197
    near = r <= 0.1
    assert np.max(np.abs(np.mean(fs, axis=0)[near] - fg_true[near])) < 0.02
    assert np.max(np.abs(np.mean(gs, axis=0)[near] - fg_true[near])) < 0.03
    assert _report("poisson baseline", t0, 30.0) < 30.0


def test_ginibre_family_curve_identities():
    """The closed-form J of the thinned-Ginibre family equals the
    (1-G)/(1-F) ratio of the product formulas to 1e-10 on a 512-point
    grid, and the products are stable to 1e-10 when the truncation
    order doubles; all inside 1 s."""
    t0 = time.perf_counter()
    spec = BetaGinibre(intensity=100.0, beta=0.7)
    grid = RadiusGrid(np.linspace(0.0, 0.14, 512))
    f = theoretical_curve("F", spec, grid).values
    g = theoretical_curve("G", spec, grid).values
    j = theoretical_curve("J", spec, grid).values
    assert np.all(f < 1.0 - 1e-6)        # ratio well defined everywhere
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 - g) / (1.0 - f)
    np.testing.assert_allclose(j, ratio, rtol=1e-10, atol=0.0)
    x = spec.intensity * np.pi * grid.r * grid.r / spec.beta

    def product(first_k, k_hi):
        return np.array([1.0 - _bg_survival(xi, spec.beta, first_k, k_hi)
                         for xi in x])

    f_400, f_800 = product(1, 400), product(1, 800)
    g_400, g_800 = product(2, 400), product(2, 800)
    np.testing.assert_allclose(f_400, f_800, atol=1e-10, rtol=0.0)
    np.testing.assert_allclose(g_400, g_800, atol=1e-10, rtol=0.0)
    np.testing.assert_allclose(f, f_800, atol=1e-10, rtol=0.0)
    np.testing.assert_allclose(g, g_800, atol=1e-10, rtol=0.0)
    assert _report("curve identities", t0, 1.0) < 1.0


def test_sampler_fidelity_all_families():
    """Mean empirical K over 100 seeds stays within 5% of the closed
    form for the plain Ginibre sampler and for the two spectral
    samplers at half their existence bound; all inside 5 minutes."""
    t0 = time.perf_counter()
    cases = [
        (BetaGinibre(intensity=1.0, beta=1.0), Disk(0.0, 0.0, 7.0),
         np.array([0.0, 0.6, 0.9, 1.2, 1.5]), 81),       # measured 0.009
        (GaussDpp(intensity=0.5 / (np.pi * 0.04 ** 2), scale=0.04), UNIT,
         np.array([0.0, 0.06, 0.1, 0.15, 0.2]), 82),     # measured 0.026
        (CauchyDpp(intensity=0.25 / (np.pi * 0.03 ** 2), scale=0.03,
                   shape=0.5), UNIT,
         np.array([0.0, 0.08, 0.12, 0.18, 0.25]), 83),   # measured 0.013
    ]
    for spec, window, radii, base in cases:
        grid = RadiusGrid(radii)
        vals = [estimate_K(sample(spec, window, RngStreamSpec(base, i)),
                           grid).values for i in range(100)]
        k_true = theoretical_curve("K", spec, grid).values[1:]
        rel = np.abs(np.mean(vals, axis=0)[1:] - k_true) / k_true
        assert np.max(rel) < 0.05, spec.name
    assert _report("sampler fidelity", t0, 300.0) < 300.0


def test_fit_round_trip_recovers_thinning():
    """Median fitted retention over 20 seeds lands within 0.15 of each
    truth in {0.2, 0.5, 0.9} and is monotone across them; inside 10
    minutes."""
    t0 = time.perf_counter()
    medians = []
    for true_beta in (0.2, 0.5, 0.9):
        vals = []
        for i in range(20):
            pat = sample(BetaGinibre(0.7e-6, true_beta), KM13,
                         RngStreamSpec(94, i))
            vals.append(fit(pat, "beta-ginibre").model.beta)
        medians.append(float(np.median(vals)))
    # measured medians 0.214 / 0.450 / 0.884
    for med, truth in zip(medians, (0.2, 0.5, 0.9)):
        assert abs(med - truth) <= 0.15
    assert medians[0] < medians[1] < medians[2]
    assert _report("fit round trip", t0, 600.0) < 600.0


@pytest.mark.filterwarnings("ignore:pattern has")
def test_envelope_calibration():
    """Pointwise envelopes at M=39 on self-simulated Poisson data keep
    the data curve inside at >= 90% of radii on average over 100 trials
    (nominal 95%), and the significance constants are exactly 2/(M+1)
    pointwise and 1/(M+1) global."""
    t0 = time.perf_counter()
    pois = Poisson(100.0)
    grid = RadiusGrid(np.linspace(0.0, 0.25, 32))
    # the F test-point count of every pattern below 1,000 points
    n_test = default_test_point_count(100)
    rates = []
    for trial in range(100):
        data = sample(Poisson(100.0), UNIT, RngStreamSpec(86, 2 * trial))
        reps = replicate_curves(pois, UNIT, 39, grid,
                                stream=RngStreamSpec(86, 2 * trial + 1),
                                n_test=n_test)
        band = pointwise_envelope(reps["K"], grid, "K")
        emp = estimate_K(data, grid).values
        ok = (np.isfinite(emp) & np.isfinite(band.lower)
              & np.isfinite(band.upper))
        inside = (band.lower[ok] <= emp[ok]) & (emp[ok] <= band.upper[ok])
        rates.append(float(np.mean(inside)))
    assert np.mean(rates) >= 0.90        # measured 0.943
    reps = replicate_curves(pois, UNIT, 39, grid, stream=RngStreamSpec(86, 1),
                            n_test=n_test)
    band = pointwise_envelope(reps["K"], grid, "K")
    gband = global_envelope(reps["K"], theoretical_curve("K", pois, grid))
    assert band.significance == 2.0 / 40.0
    assert gband.significance == 1.0 / 40.0
    _report("envelope calibration", t0)


def test_second_order_j_identity():
    """For weak thinning (beta=0.1) the second-order approximation
    1 - intensity*(K - pi r^2) tracks the exact J within 0.02 sup-norm
    over r in [0, 3/sqrt(intensity*pi)]."""
    t0 = time.perf_counter()
    spec = BetaGinibre(intensity=1.0, beta=0.1)
    grid = RadiusGrid(np.linspace(0.0, 3.0 / math.sqrt(math.pi), 257))
    k = theoretical_curve("K", spec, grid)
    approx = j_second_order_approx(k, 1.0).values
    exact = theoretical_curve("J", spec, grid).values
    sup = float(np.max(np.abs(approx - exact)))
    assert sup <= 0.02                   # true sup is 1/90 ~ 0.0111
    _report("second-order identity", t0)


@pytest.mark.filterwarnings("ignore:pattern has")
def test_estimators_match_bruteforce_oracle():
    """Vectorized estimators agree with independent plain-loop
    implementations to 1e-12 on small patterns (N <= 30)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for window in (UNIT, Disk(0.5, -0.5, 1.3)):
        for n in (5, 17, 30):
            pts = window.sample_uniform(n, rng)
            pat = PointPattern(pts, window)
            grid = RadiusGrid.default(window, 64)
            tp = window.sample_uniform(123, rng)
            for corr in ("border", "none"):
                np.testing.assert_allclose(
                    estimate_K(pat, grid, correction=corr).values,
                    naive_K(pts, window, grid.r, correction=corr),
                    atol=1e-12, rtol=0.0)
                np.testing.assert_allclose(
                    estimate_F(pat, grid, test_points=tp,
                               correction=corr).values,
                    naive_F(pts, window, grid.r, tp, correction=corr),
                    atol=1e-12, rtol=0.0)
                np.testing.assert_allclose(
                    estimate_G(pat, grid, correction=corr).values,
                    naive_G(pts, window, grid.r, correction=corr),
                    atol=1e-12, rtol=0.0)
    _report("brute-force oracle", t0)


def test_pipeline_determinism(tmp_path):
    """Two pipeline runs from the same config and seed produce byte
    identical outputs (the run_meta timestamp file aside)."""
    t0 = time.perf_counter()
    data = tmp_path / "synthetic.csv"
    pat = sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(11))
    write_points_csv(data, pat.points)
    config = PipelineConfig(
        input=str(data), planar=True,
        window={"kind": "rectangle", "x_min": 0.0, "x_max": 13000.0,
                "y_min": 0.0, "y_max": 13000.0},
        families=("poisson", "beta-ginibre"), grid_points=128,
        envelope={"replicates": 39}, master_seed=11)
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    run_pipeline(config, out_dir=out_a)
    run_pipeline(config, out_dir=out_b)
    files = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                   if p.is_file() and p.name != "run_meta.json")
    assert Path("report.json") in files
    assert len(files) > 10
    for rel in files:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    _report("pipeline determinism", t0)


def test_default_four_family_pipeline(tmp_path):
    """The CLI-default pipeline (F contrast, all four families, 512
    radii, 39 envelope replicates) on the 13 km thinned-Ginibre pattern
    finishes inside 45 s with exact model curves for every family."""
    t0 = time.perf_counter()
    data = tmp_path / "synthetic.csv"
    pat = sample(BetaGinibre(0.7e-6, 0.9), KM13, RngStreamSpec(11))
    write_points_csv(data, pat.points)
    config = PipelineConfig(
        input=str(data), planar=True,
        window={"kind": "rectangle", "x_min": 0.0, "x_max": 13000.0,
                "y_min": 0.0, "y_max": 13000.0},
        master_seed=11)
    report = run_pipeline(config, out_dir=tmp_path / "out")
    assert list(report.families) == ["poisson", "beta-ginibre",
                                     "gauss-dpp", "cauchy-dpp"]
    assert report.dataset["grid_points"] == 512
    for res in report.fit_results.values():
        assert res.cspec.statistic == "F"
        assert res.diagnostics["converged"]
        assert all(c.origin == "theoretical"
                   for c in res.model_curves.values())
    assert report.winner is not None
    assert _report("default four-family pipeline", t0, 45.0) < 45.0


@pytest.mark.skipif(not os.environ.get("CELLPP_LIEGE_CSV"),
                    reason="set CELLPP_LIEGE_CSV to a registry export of "
                           "the Liege GSM-900 sites to run the published "
                           "regression")
def test_liege_gsm900_regression():
    """Regression against the published Liege GSM-900 analysis: the
    thinned-Ginibre family wins with retention 0.91 +- 0.05 and the raw
    index-sum contrast lands within 20% of 9.36e-3."""
    config = PipelineConfig(input=os.environ["CELLPP_LIEGE_CSV"],
                            place="liege", technology="gsm-900",
                            master_seed=0)
    report = run_pipeline(config)
    assert report.winner == "beta-ginibre"
    beta = report.families["beta-ginibre"]["fit"]["params"]["beta"]
    assert abs(beta - 0.91) <= 0.05
    pattern, _ = load_pattern(config)
    raw = fit(pattern, "beta-ginibre",
              ContrastSpec(statistic="F", step_weighted=False))
    assert abs(raw.contrast_value - 9.36e-3) <= 0.2 * 9.36e-3
