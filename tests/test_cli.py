"""End-to-end tests of the command line interface.

Every test drives ``cellpp.cli.main`` in process with an argv list, so
stdout/stderr are captured by pytest and exit codes are the returned ints.
"""

import json
import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import cellpp
from cellpp import estimators, fitting, geom, pipeline, samplers
from cellpp.cli import main
from cellpp.estimators import default_test_point_count, estimate_F
from cellpp.geom import Rectangle
from cellpp.fitting import FAMILY_NAMES
from cellpp.geom import window_from_dict
from cellpp.models import BetaGinibre, Poisson
from cellpp.pipeline import (PipelineConfig, load_pattern, read_points_csv,
                             write_points_csv)
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

WINDOW_FLAG = "0,1000,0,1000"
AREA = 1000.0 * 1000.0


def model_json(family, **params):
    """The ``--model`` JSON of ``family`` with ``params``."""
    return json.dumps({"model": family, "params": params})


POISSON = model_json("poisson", intensity=1e-4)


@pytest.fixture(scope="module")
def pp_csv(tmp_path_factory):
    """A Poisson pattern of ~150 points in a 1 km square."""
    window = Rectangle(0.0, 1000.0, 0.0, 1000.0)
    pat = sample(Poisson(1.5e-4), window, RngStreamSpec(200))
    path = tmp_path_factory.mktemp("cli_data") / "pp.csv"
    write_points_csv(path, pat.points)
    return str(path), pat


@pytest.fixture(scope="module")
def registry_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_reg") / "registry.csv"
    rows = ["id,lon,lat",
            "a1,5.570,50.630",
            "a2,5.575,50.632",
            "a3,5.580,50.628",
            "bad,91.0,200.0"]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestSimulate:

    def test_writes_points_and_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--model", POISSON, "--window", WINDOW_FLAG,
                   "--seed", "5", "--output", str(out)])
        assert rc == 0
        points, rejects = read_points_csv(out)
        assert rejects == []
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["model"] == "poisson"
        assert sidecar["params"] == {"intensity": 1e-4}
        assert sidecar["seed"] == 5
        assert sidecar["window"]["kind"] == "rectangle"
        assert sidecar["n_points"] == len(points)
        # same seed through the API gives the identical pattern
        direct = sample(Poisson(intensity=1e-4),
                        Rectangle(0, 1000, 0, 1000), RngStreamSpec(5))
        assert np.array_equal(np.asarray(points), direct.points)

    def test_disk_window_and_model_file(self, tmp_path):
        model = {"model": "beta-ginibre",
                 "params": {"intensity": 5e-5, "beta": 0.8}}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        out = tmp_path / "disk.csv"
        rc = main(["simulate", "--model", "@" + str(model_path),
                   "--window", "disk:0,0,500", "--seed", "2",
                   "--output", str(out)])
        assert rc == 0
        points, _ = read_points_csv(out)
        pts = np.asarray(points)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 500.0)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["window"]["kind"] == "disk"
        assert {k: sidecar[k] for k in model} == model

    def test_gauss_on_disk_window(self, tmp_path):
        out = tmp_path / "gauss.csv"
        rc = main(["simulate", "--model", model_json(
                       "gauss-dpp", intensity=5e-5, scale=40.0),
                   "--window", "disk:100,-50,500",
                   "--seed", "4", "--output", str(out)])
        assert rc == 0
        pts = np.asarray(read_points_csv(out)[0])
        assert len(pts) > 0
        assert np.all(np.hypot(pts[:, 0] - 100.0, pts[:, 1] + 50.0) <= 500.0)

    def test_inline_model_matches_file_model(self, tmp_path):
        model = '{"model": "poisson", "params": {"intensity": 1e-4}}'
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--model", model, "--window", WINDOW_FLAG,
                     "--seed", "9", "--output", str(out_a)]) == 0
        model_path = tmp_path / "m.json"
        model_path.write_text(model)
        assert main(["simulate", "--model", "@" + str(model_path),
                     "--window", WINDOW_FLAG, "--seed", "9",
                     "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("window, reason", [
        ("nonsense", "expected 'x0,x1,y0,y1' or 'disk:cx,cy,r'"),
        ("0,1e300,0,1e300", "area must be finite"),
        ("disk:0,0,-1", "positive radius"),
    ], ids=["nonsense", "area-overflow", "negative-radius"])
    def test_bad_window_exits_2(self, tmp_path, capsys, window, reason):
        rc = main(["simulate", "--model", POISSON,
                   "--window", window, "--output",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert reason in capsys.readouterr().err

    def test_existence_violation_exits_2(self, tmp_path, capsys):
        # 1/(pi*0.1^2) ~ 31.8 caps the gauss intensity, so 1000 is invalid
        rc = main(["simulate", "--model", model_json(
                       "gauss-dpp", intensity=1000.0, scale=0.1),
                   "--window", "0,1,0,1", "--output",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_truncation_exits_4(self, tmp_path, capsys):
        # the 16.25 km torus expects 26,406 points: refused at once,
        # before any mode or matrix is drawn
        start = time.perf_counter()
        rc = main(["simulate", "--model", model_json(
                       "gauss-dpp", intensity=1e-4, scale=50.0),
                   "--window", "0,13000,0,13000", "--output",
                   str(tmp_path / "x.csv")])
        assert time.perf_counter() - start < 5.0
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert (f"expects 26406.2 points on this window, bound is "
                f"{samplers.DPP_POINT_BUDGET}") in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, code, parameter", [
        (["simulate", "--model", model_json("poisson", intensity=math.inf),
          "--output", "{out}"], 2, "intensity"),
        (["simulate", "--model", model_json("poisson", intensity=1e300),
          "--output", "{out}"], 4, "intensity"),
        (["simulate", "--model", model_json(
            "cauchy-dpp", intensity=1e-4, scale=50.0, shape=math.inf),
          "--output", "{out}"], 2, "shape"),
        (["simulate", "--model", model_json(
            "cauchy-dpp", intensity=1e-4, scale=50.0, shape=1e300),
          "--output", "{out}"], 4, "shape"),
        (["simulate", "--model", '{"model": "poisson", "params": '
          '{"intensity": "7e-7"}}', "--output", "{out}"], 2, "intensity"),
        (["simulate", "--model", '{"model": "poisson", "params": '
          '{"intensity": null}}', "--output", "{out}"], 2, "intensity"),
        # the model is refused before the (missing) input is read
        (["gof", "--input", "{out}", "--model", '{"model": "poisson", '
          '"params": {"intensity": [1e-6]}}'], 2, "intensity"),
        (["simulate", "--model", '{"model": "cauchy-dpp", "params": '
          '{"intensity": 1e-6, "scale": true, "shape": 1.0}}',
          "--output", "{out}"], 2, "scale"),
        # integers past the double range
        (["simulate", "--model", '{"model": "poisson", "params": '
          '{"intensity": 1' + "0" * 400 + '}}', "--output", "{out}"], 2,
         "intensity"),
        (["simulate", "--model", '{"model": "cauchy-dpp", "params": '
          '{"intensity": 1e-6, "scale": 50.0, "shape": 1' + "0" * 400
          + '}}', "--output", "{out}"], 2, "shape"),
        # finite scales whose square passes the double range
        (["simulate", "--model", model_json(
            "gauss-dpp", intensity=1e-4, scale=1e200),
          "--output", "{out}"], 2, "scale"),
        (["simulate", "--model", '{"model": "cauchy-dpp", "params": '
          '{"intensity": 1e-6, "scale": 1' + "0" * 200 + ', "shape": 1.0}}',
          "--output", "{out}"], 2, "scale"),
    ], ids=["intensity-inf", "intensity-1e300", "shape-inf", "shape-1e300",
            "intensity-string", "intensity-null", "gof-intensity-list",
            "scale-bool", "intensity-huge-int", "shape-huge-int",
            "scale-1e200", "scale-huge-int"])
    def test_unusable_parameters_are_refused(self, tmp_path, capsys, argv,
                                             code, parameter):
        # each is refused before any point is drawn, naming the parameter
        out = tmp_path / "x.csv"
        rc = main([a.replace("{out}", str(out)) for a in argv]
                  + ["--window", WINDOW_FLAG])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith(("config error", "numerical failure"))
        assert parameter in err
        assert not out.exists()

    def test_fit_simulate_gof_round_trip(self, pp_csv, tmp_path, capsys):
        # the fit's record names the model to simulate, and the sidecar
        # the model to test
        fit, points = tmp_path / "fit.json", tmp_path / "sim.csv"
        sidecar = points.with_suffix(".json")
        for argv in (["fit", "--input", pp_csv[0], "--family", "poisson",
                      "--output", str(fit)],
                     ["simulate", "--model", f"@{fit}", "--seed", "3",
                      "--output", str(points)],
                     ["gof", "--input", str(points), "--model",
                      f"@{sidecar}", "--statistics", "K", "--replicates",
                      "19", "--grid-points", "32"]):
            assert main(argv + ["--window", WINDOW_FLAG]) == 0, argv[0]
        fitted, simulated = (json.loads(p.read_text()) for p in (fit, sidecar))
        for key in ("model", "params"):
            assert simulated[key] == fitted[key]

    def test_output_that_is_its_own_sidecar_exits_2(self, tmp_path, capsys):
        # the sidecar goes to <output>.json: a .json output would lose
        # the points to it
        out = tmp_path / "s.json"
        rc = main(["simulate", "--model", POISSON,
                   "--window", WINDOW_FLAG, "--output", str(out)])
        assert rc == 2
        assert "sidecar would overwrite" in capsys.readouterr().err
        assert not out.exists()


class TestStats:

    def test_summary_json_and_curves_csv(self, pp_csv, tmp_path, capsys):
        path, pat = pp_csv
        out = tmp_path / "curves.csv"
        rc = main(["stats", "--input", path, "--window", WINDOW_FLAG,
                   "--grid-points", "64", "--output", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["n_points"] == pat.n
        assert summary["intensity"] == pytest.approx(pat.n / AREA)
        assert summary["intensity_se"] > 0
        assert 0.8 < summary["clark_evans"] < 1.2
        assert 0.0 <= summary["stationarity"]["p_value"] <= 1.0
        assert "curves written" in captured.err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "value", "kind", "origin"]
        assert {row[2] for row in rows[1:]} == {"K", "F", "G", "J"}

    def test_nearest_neighbours_queried_once(self, pp_csv, tmp_path,
                                             monkeypatch, capsys):
        # the Clark-Evans index and the G estimate share one query
        path, pat = pp_csv
        queries = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                if k == 2:
                    queries.append(len(x))
                return super().query(x, k=k, **kwargs)

        for module in (geom, estimators):
            monkeypatch.setattr(module, "cKDTree", CountingTree,
                                raising=False)
        assert main(["stats", "--input", path, "--window", WINDOW_FLAG,
                     "--grid-points", "64",
                     "--output", str(tmp_path / "c.csv")]) == 0
        assert queries == [pat.n]

    def test_auto_window_when_flag_omitted(self, pp_csv, capsys, tmp_path):
        path, pat = pp_csv
        rc = main(["stats", "--input", path,
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert 80 <= summary["n_points"] <= pat.n

    def test_non_finite_row_is_a_reject(self, pp_csv, tmp_path, capsys):
        # it neither reaches the auto window nor vanishes in the clip
        path, _ = pp_csv
        with_nan = tmp_path / "nan.csv"
        with_nan.write_text(Path(path).read_text() + "nan,5\n")
        summaries = []
        for source in (path, with_nan):
            assert main(["stats", "--input", str(source), "--grid-points",
                         "64", "--output", str(tmp_path / "c.csv")]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        assert summaries[0]["n_points"] == summaries[1]["n_points"]
        assert main(["pipeline", "--input", str(with_nan), "--planar",
                     "--config", PIPELINE_CONFIG,
                     "--out", str(tmp_path / "out")]) == 0
        rejects = (tmp_path / "out" / "rejects.jsonl").read_text()
        assert [json.loads(line) for line in rejects.splitlines()] == [
            {"line": Path(path).read_text().count("\n") + 1,
             "reason": "coordinate not finite",
             "row": {"x": "nan", "y": "5"}}]

    def test_too_few_grid_points_exits_2(self, pp_csv, tmp_path, capsys):
        path, _ = pp_csv
        rc = main(["stats", "--input", path, "--window", WINDOW_FLAG,
                   "--grid-points", "1", "--output",
                   str(tmp_path / "curves.csv")])
        assert rc == 2
        assert ("config error: grid_points must be at least 2, got 1"
                in capsys.readouterr().err)

    def test_missing_input_exits_3(self, tmp_path, capsys):
        rc = main(["stats", "--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("min_points", ["-5", "1"])
    def test_min_points_below_two_exits_2(self, pp_csv, tmp_path, capsys,
                                          min_points):
        path, _ = pp_csv
        rc = main(["stats", "--input", path, "--min-points", min_points,
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


class TestFit:

    def test_poisson_fit_stdout_and_file(self, pp_csv, tmp_path, capsys):
        path, pat = pp_csv
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "poisson", "--output", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["model"] == "poisson"
        assert printed["params"]["intensity"] == pytest.approx(pat.n / AREA)
        assert json.loads(out.read_text()) == printed

    @pytest.mark.filterwarnings("ignore:fitting on")
    def test_beta_ginibre_k_contrast(self, pp_csv, capsys):
        path, _ = pp_csv
        rc = main(["fit", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "beta-ginibre", "--statistic", "K",
                   "--seed", "3"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["model"] == "beta-ginibre"
        assert 0.0 < printed["params"]["beta"] <= 1.0
        assert printed["contrast"]["statistic"] == "K"
        assert printed["contrast_value"] >= 0.0

    def test_too_few_points_exits_3(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        write_points_csv(path, rng.uniform(0, 1000, size=(10, 2)))
        rc = main(["fit", "--input", str(path), "--window", WINDOW_FLAG,
                   "--family", "beta-ginibre"])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    def test_exhausted_budget_exits_4(self, pp_csv, tmp_path, capsys,
                                      monkeypatch):
        path, _ = pp_csv
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 5)
        # and a contrast that overflows is no fit either
        for argv in (["--family", "beta-ginibre", "--statistic", "K"],
                     ["--family", "poisson", "--statistic", "K",
                      "--exponent-q", "1e300"]):
            rc = main(["fit", "--input", path, "--window", WINDOW_FLAG]
                      + argv)
            assert rc == 4
            assert "numerical failure" in capsys.readouterr().err


class TestGof:

    def test_global_verdicts_and_bands_dir(self, pp_csv, tmp_path, capsys):
        path, pat = pp_csv
        bands = tmp_path / "bands"
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--model", model_json("poisson", intensity=pat.n / AREA),
                   "--statistics", "K,F",
                   "--replicates", "39", "--grid-points", "64",
                   "--seed", "1", "--bands-dir", str(bands)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["model"] == "poisson"
        assert out["gate"] == "global"
        assert set(out["verdicts"]) == {"K", "F"}
        assert set(out["diagnostic_verdicts"]) == {"pointwise"}
        assert set(out["diagnostic_verdicts"]["pointwise"]) == {"K", "F"}
        for kind in ("K", "F"):
            assert isinstance(out["verdicts"][kind]["passed"], bool)
        # correct model at the frozen seed stays inside the global bands
        assert out["verdicts"]["K"]["passed"]
        assert out["verdicts"]["F"]["passed"]
        assert out["all_pass"] is True
        # both bands of each statistic are written
        assert sorted(f.name for f in bands.iterdir()) == [
            f"poisson_{kind}_{mode}.csv" for kind in ("F", "K")
            for mode in ("global", "pointwise")]

    def test_pointwise_single_statistic(self, pp_csv, capsys):
        path, pat = pp_csv
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--model", model_json("poisson", intensity=pat.n / AREA),
                   "--statistics", "J",
                   "--replicates", "39", "--grid-points", "64",
                   "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out["verdicts"]) == ["J"]
        assert list(out["diagnostic_verdicts"]["pointwise"]) == ["J"]

    def test_verdicts_cover_the_fit_range_unless_r_max_is_inf(self, pp_csv,
                                                              capsys):
        path, pat = pp_csv
        window = Rectangle(0.0, 1000.0, 0.0, 1000.0)
        grid = estimators.RadiusGrid.default(window, 64,
                                             intensity=pat.n / AREA)
        fit_range = fitting.ContrastSpec().resolved(grid, window).r_max
        assert fit_range < grid.r[-1]
        printed = []
        for flags in ([], ["--r-max", "inf"]):
            assert main(["gof", "--input", path, "--window", WINDOW_FLAG,
                         "--model", model_json("poisson",
                                               intensity=pat.n / AREA),
                         "--statistics", "K", "--replicates", "19",
                         "--grid-points", "64", "--seed", "1"] + flags) == 0
            printed.append(json.loads(capsys.readouterr().out))
        for out, r_max in zip(printed, (fit_range, None)):
            for v in (out["verdicts"]["K"],
                      out["diagnostic_verdicts"]["pointwise"]["K"]):
                assert v["r_max"] == r_max
        # K is defined at every radius, so n_defined counts the radii
        assert printed[0]["verdicts"]["K"]["n_defined"] == int(
            np.sum(grid.r <= fit_range))
        assert printed[1]["verdicts"]["K"]["n_defined"] == grid.size

    def test_replicates_use_the_data_test_point_count(self, tmp_path,
                                                      monkeypatch, capsys):
        # above 1,000 points the default count grows with the pattern, so
        # each replicate would pick its own unless given the data's
        window = Rectangle(0.0, 1000.0, 0.0, 1000.0)
        pat = sample(Poisson(1.2e-3), window, RngStreamSpec(201))
        path = tmp_path / "dense.csv"
        write_points_csv(path, pat.points)
        counts = []

        def spy(pattern, *args, n_test=None, **kwargs):
            # the count estimate_F draws: the one given, else its default
            counts.append(default_test_point_count(pattern.n)
                          if n_test is None else n_test)
            return estimate_F(pattern, *args, n_test=n_test, **kwargs)

        monkeypatch.setattr(estimators, "estimate_F", spy)
        with pytest.warns(UserWarning, match="weak test"):
            rc = main(["gof", "--input", str(path), "--window", WINDOW_FLAG,
                       "--model", model_json("poisson", intensity=1.2e-3),
                       "--statistics", "F", "--replicates", "19",
                       "--grid-points", "32", "--seed", "3"])
        assert rc == 0
        assert len(counts) == 20
        assert set(counts) == {default_test_point_count(pat.n)}

    def test_replicates_estimate_only_the_requested_statistics(
            self, pp_csv, monkeypatch, capsys):
        # K alone needs no F, for the data or for the replicates
        path, pat = pp_csv
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return estimate_F(*args, **kwargs)

        monkeypatch.setattr(estimators, "estimate_F", spy)
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--model", model_json("poisson", intensity=pat.n / AREA),
                   "--statistics", "K", "--replicates", "39",
                   "--grid-points", "32", "--seed", "1"])
        assert rc == 0
        assert list(json.loads(capsys.readouterr().out)["verdicts"]) == ["K"]
        assert len(calls) == 0

    @pytest.mark.parametrize("flags, message", [
        (["--grid-points", "1"],
         "config error: grid_points must be at least 2, got 1"),
        (["--statistics", "K,L"], "config error: --statistics 'K,L'"),
        (["--r-max", "-1"], "config error [gof:poisson]: no K radius up "
                            "to r_max=-1.0 has"),
    ], ids=["grid-points", "statistics", "r-max"])
    def test_bad_flags_exit_2(self, pp_csv, capsys, flags, message):
        path, pat = pp_csv
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--model", model_json("poisson", intensity=pat.n / AREA)]
                  + flags)
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_model_flags_required_exits_2(self, pp_csv, capsys):
        path, _ = pp_csv
        with pytest.raises(SystemExit) as exc:
            main(["gof", "--input", path, "--window", WINDOW_FLAG,
                  "--statistics", "K"])
        assert exc.value.code == 2
        assert ("the following arguments are required: --model"
                in capsys.readouterr().err)


class TestIngest:

    def test_registry_the_filters_empty_says_so(self, tmp_path, capsys):
        path = tmp_path / "lte.csv"
        path.write_text("id,lon,lat,technology\n"
                        "a,5.57,50.63,LTE\nb,5.58,50.64,LTE\n")
        rc = main(["ingest", "--input", str(path), "--output",
                   str(tmp_path / "p.csv"), "--technology-column",
                   "technology", "--technology", "GSM"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error [ingest]: {path}: no records left after "
            f"filtering\n")

    def test_filter_without_its_column_exits_2(self, tmp_path, capsys):
        # every row would read as technology "" and be dropped
        path = tmp_path / "gsm.csv"
        path.write_text("id,lon,lat,technology\n"
                        "a,5.57,50.63,GSM\nb,5.58,50.64,GSM\n")
        argv = ["ingest", "--input", str(path), "--output",
                str(tmp_path / "p.csv"), "--technology", "GSM",
                "--projection", "local-tangent"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: filters.technology needs the registry column "
            "that holds it: set columns.technology (--technology-column)\n")
        assert not (tmp_path / "p.csv").exists()
        assert main(argv + ["--technology-column", "technology"]) == 0
        assert "2 records projected" in capsys.readouterr().out

    def test_local_tangent_roundtrip(self, registry_csv, tmp_path, capsys):
        out = tmp_path / "points.csv"
        rejects = tmp_path / "rejects.jsonl"
        rc = main(["ingest", "--input", registry_csv,
                   "--output", str(out),
                   "--projection", "local-tangent",
                   "--origin-lon", "5.575", "--origin-lat", "50.630",
                   "--rejects", str(rejects)])
        assert rc == 0
        assert "3 records projected" in capsys.readouterr().out
        points, _ = read_points_csv(out)
        pts = np.asarray(points)
        assert pts.shape == (3, 2)
        # ~352 m per 0.005 deg lon at 50.63N, ~556 m per 0.005 deg lat
        assert np.all(np.abs(pts) < 1500.0)
        lines = rejects.read_text().strip().splitlines()
        assert len(lines) == 1
        reject = json.loads(lines[0])
        assert reject["reason"] == "coordinate out of range"
        assert reject["row"]["id"] == "bad"

    def test_lambert_default_projection(self, registry_csv, tmp_path):
        out = tmp_path / "points.csv"
        rc = main(["ingest", "--input", registry_csv,
                   "--output", str(out)])
        assert rc == 0
        pts = np.asarray(read_points_csv(out)[0])
        assert pts.shape == (3, 2)
        assert np.all(np.isfinite(pts))
        # pairwise distances survive the conic projection to ~0.1%
        d01 = np.hypot(*(pts[0] - pts[1]))
        assert 300.0 < d01 < 450.0

    def test_overlong_reject_row_is_written(self, tmp_path, capsys):
        # csv files the extra field of the bad row under the key None
        registry = tmp_path / "registry.csv"
        registry.write_text("id,lon,lat\n1,2.35,48.85\n2,n/a,48.9,extra\n")
        rejects = tmp_path / "rejects.jsonl"
        rc = main(["ingest", "--input", str(registry), "--output",
                   str(tmp_path / "p.csv"), "--rejects", str(rejects)])
        assert rc == 0, capsys.readouterr().err
        [line] = rejects.read_text().splitlines()
        reject = json.loads(line)
        assert reject["reason"] == "unparsable coordinate"
        assert reject["row"] == {"id": "2", "lon": "n/a", "lat": "48.9",
                                 "None": ["extra"]}

    def test_short_row_is_a_reject(self, tmp_path, capsys):
        registry = tmp_path / "registry.csv"
        registry.write_text("id,lon,lat,operator,technology\n"
                            "1,2.35,48.85,alpha,lte\n"
                            "2,2.1,48.1\n")
        rejects = tmp_path / "rejects.jsonl"
        rc = main(["ingest", "--input", str(registry), "--output",
                   str(tmp_path / "p.csv"), "--operator-column", "operator",
                   "--rejects", str(rejects)])
        assert rc == 0, capsys.readouterr().err
        assert "1 records projected" in capsys.readouterr().out
        [line] = rejects.read_text().splitlines()
        assert json.loads(line) == {
            "line": 3, "reason": "no 'operator' field",
            "row": {"id": "2", "lon": "2.1", "lat": "48.1",
                    "operator": None, "technology": None}}

    def test_reject_lines_count_blank_and_quoted_lines(self, tmp_path,
                                                       capsys):
        registry = tmp_path / "registry.csv"
        registry.write_text('id,lon,lat\n"a\nb",2.35,48.85\n\n'
                            "c,n/a,48.9\n")
        rejects = tmp_path / "rejects.jsonl"
        rc = main(["ingest", "--input", str(registry), "--output",
                   str(tmp_path / "p.csv"), "--rejects", str(rejects)])
        assert rc == 0, capsys.readouterr().err
        [line] = rejects.read_text().splitlines()
        assert json.loads(line)["line"] == 5

    def test_origin_on_the_named_grid_exits_2(self, registry_csv, tmp_path,
                                              capsys):
        rc = main(["ingest", "--input", registry_csv,
                   "--output", str(tmp_path / "p.csv"),
                   "--origin-lon", "5", "--origin-lat", "50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown lambert-93 projection "
                              "key(s): origin_lat, origin_lon")
        assert not (tmp_path / "p.csv").exists()

    def test_filter_leaves_nothing_exits_3(self, registry_csv, tmp_path,
                                           capsys):
        rc = main(["ingest", "--input", registry_csv,
                   "--output", str(tmp_path / "p.csv"),
                   "--technology-column", "tech",
                   "--technology", "gsm-900"])
        assert rc == 3
        assert "data error [ingest]: " in capsys.readouterr().err

    def test_pipeline_config_without_origin_matches_ingest(self, tmp_path,
                                                           capsys):
        # both front ends centre a local tangent plane with no origin on
        # the mean lon/lat of the kept records
        rng = np.random.default_rng(12)
        rows = ["id,lon,lat"] + [
            f"s{i},{5.57 + rng.uniform(-0.05, 0.05):.6f},"
            f"{50.63 + rng.uniform(-0.05, 0.05):.6f}" for i in range(120)]
        registry = tmp_path / "registry.csv"
        registry.write_text("\n".join(rows) + "\n")
        out = tmp_path / "points.csv"
        assert main(["ingest", "--input", str(registry), "--output",
                     str(out), "--projection", "local-tangent"]) == 0
        ingested = read_points_csv(out)[0]
        assert abs(ingested.mean(axis=0)).max() < 50.0
        (x_min, y_min), (x_max, y_max) = ingested.min(0), ingested.max(0)
        config = {"projection": {"kind": "local-tangent"},
                  "window": {"kind": "rectangle", "x_min": x_min,
                             "x_max": x_max, "y_min": y_min, "y_max": y_max}}
        pattern, _ = load_pattern(PipelineConfig(input=str(registry),
                                                 **config))
        assert np.array_equal(pattern.points, ingested)
        rc = main(["pipeline", "--input", str(registry), "--families",
                   "poisson", "--config", json.dumps(
                       {**config, "grid_points": 64,
                        "envelope": {"replicates": 19}}),
                   "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["dataset"]["n_points"] == 120


@pytest.mark.parametrize("command, flags, message", [
    ("stats", ["--window", "5000,6000,5000,6000"],
     "data error [clip]: only 0 point(s)"),
    ("fit", ["--window", "5000,6000,5000,6000", "--family", "poisson"],
     "data error [clip]: only 0 point(s)"),
    ("gof", ["--window", "5000,6000,5000,6000", "--model", POISSON],
     "data error [clip]: only 0 point(s)"),
    ("gof", ["--min-points", "1000", "--model", POISSON],
     "data error [window]: auto window"),
], ids=["stats", "fit", "gof", "gof-auto-window"])
def test_loading_errors_name_their_stage(pp_csv, tmp_path, capsys, command,
                                         flags, message):
    path, _ = pp_csv
    argv = [command, "--input", path] + flags
    if command == "stats":
        argv += ["--output", str(tmp_path / "c.csv")]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


# The defaults the stage commands' flags used to state themselves.
PATTERN_DEFAULTS = ["--x-column", "x", "--y-column", "y", "--min-points",
                    "80", "--duplicates", "reject", "--seed", "0"]
OLD_DEFAULTS = {
    "ingest": ["--id-column", "id", "--lon-column", "lon", "--lat-column",
               "lat", "--projection", "lambert-93"],
    "stats": [*PATTERN_DEFAULTS, "--grid-points", "512"],
    "fit": [*PATTERN_DEFAULTS, "--statistic", "F", "--exponent-p", "1.0",
            "--exponent-q", "2.0", "--r-min", "0.0"],
    "gof": [*PATTERN_DEFAULTS, "--replicates", "39", "--grid-points", "512"],
}


@pytest.mark.parametrize("command", OLD_DEFAULTS)
def test_left_out_flags_keep_the_config_defaults(pp_csv, registry_csv,
                                                 tmp_path, capsys, command):
    # a flag left out passes nothing, so the config's default applies;
    # it gives the bytes of the old flag defaults spelled out
    required = {"ingest": ["--input", registry_csv],
                "stats": ["--input", pp_csv[0]],
                "fit": ["--input", pp_csv[0], "--family", "poisson"],
                "gof": ["--input", pp_csv[0], "--model",
                        model_json("poisson", intensity=1.5e-4)]}[command]
    runs = []
    for flags in ([], OLD_DEFAULTS[command]):
        out = tmp_path / f"out{len(runs)}.csv"
        argv = [command, *required, *flags]
        if command in ("ingest", "stats"):
            argv += ["--output", str(out)]
        assert main(argv) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((printed, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0]


class TestStagesMatchThePipeline:
    """``stats``, ``fit`` and ``gof`` at seed s reproduce the numbers of
    a one-family ``pipeline --seed s`` run on the same window."""

    SEED = "7"
    FAMILY = "beta-ginibre"

    @staticmethod
    def pipeline(pp_csv, tmp_path_factory, family, seed, **config):
        out = tmp_path_factory.mktemp("stages") / "out"
        config = {"window": {"kind": "rectangle", "x_min": 0.0,
                             "x_max": 1000.0, "y_min": 0.0, "y_max": 1000.0},
                  "envelope": {"replicates": 19}, **config}
        assert main(["pipeline", "--config", json.dumps(config),
                     "--input", pp_csv[0], "--planar", "--families",
                     family, "--seed", seed, "--out", str(out)]) == 0
        return out, json.loads((out / "report.json").read_text())

    @pytest.fixture(scope="class")
    def run(self, pp_csv, tmp_path_factory):
        return self.pipeline(pp_csv, tmp_path_factory, self.FAMILY, self.SEED)

    @pytest.fixture(scope="class")
    def ranged_run(self, pp_csv, tmp_path_factory):
        """A run whose config sets the fit range."""
        return self.pipeline(pp_csv, tmp_path_factory, "poisson", "3",
                             grid_points=64, contrast={"r_max": 50.0})

    def stage(self, pp_csv, argv, seed=SEED):
        return ([argv[0], "--input", pp_csv[0], "--window", WINDOW_FLAG,
                 "--seed", seed] + argv[1:])

    def test_stats_prints_and_writes_the_pipeline_description(
            self, pp_csv, run, tmp_path, capsys):
        out, report = run
        capsys.readouterr()
        curves = tmp_path / "curves.csv"
        assert main(self.stage(pp_csv, ["stats", "--output",
                                        str(curves)])) == 0
        summary = json.loads(capsys.readouterr().out)
        assert curves.read_bytes() == (out / "curves" /
                                       "empirical.csv").read_bytes()
        keys = ("n_points", "intensity", "intensity_se", "clark_evans")
        assert summary == {**{k: report["dataset"][k] for k in keys},
                           "stationarity": report["stationarity"]}

    def test_fit_prints_the_report_fit(self, pp_csv, run, capsys):
        _, report = run
        capsys.readouterr()
        assert main(self.stage(pp_csv, ["fit", "--family",
                                        self.FAMILY])) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == report["families"][self.FAMILY]["fit"]

    def gof(self, pp_csv, run, tmp_path, capsys, *flags, family=FAMILY,
            seed=SEED):
        """What ``gof`` of the run's fitted model at the run's seed
        prints."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps(run[1]["families"][family]["fit"]))
        capsys.readouterr()
        assert main(self.stage(pp_csv, ["gof", "--model", f"@{model}",
                                        "--replicates", "19", *flags],
                               seed)) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("run_name, family, seed, flags", [
        ("run", FAMILY, SEED, []),
        # the fit JSON carries the range, so no flag repeats it
        ("ranged_run", "poisson", "3", ["--grid-points", "64"]),
    ], ids=["fit-range", "contrast-r-max"])
    def test_gof_prints_the_report_entry(self, pp_csv, request, tmp_path,
                                         capsys, run_name, family, seed,
                                         flags):
        run = request.getfixturevalue(run_name)
        entry = dict(run[1]["families"][family])
        fit = entry.pop("fit")
        printed = self.gof(pp_csv, run, tmp_path, capsys, *flags,
                           family=family, seed=seed)
        assert printed.pop("model") == {"model": fit["model"],
                                        "params": fit["params"]}
        assert printed == entry

    @pytest.mark.parametrize("mode", ["pointwise", "global"])
    def test_gof_writes_the_pipeline_bands(self, pp_csv, run, tmp_path,
                                           capsys, mode):
        # one gof run writes both bands of every statistic
        out, _ = run
        bands = tmp_path / "bands"
        self.gof(pp_csv, run, tmp_path, capsys, "--bands-dir", str(bands))
        names = sorted(f.name for f in bands.iterdir())
        assert len(names) == 8
        assert names == sorted(f.name for f in (out / "bands").iterdir())
        for kind in ("K", "F", "G", "J"):
            name = f"{self.FAMILY}_{kind}_{mode}.csv"
            assert ((bands / name).read_bytes()
                    == (out / "bands" / name).read_bytes()), name


@pytest.mark.parametrize("command", ["ingest", "stats", "pipeline"])
def test_non_utf8_input_exits_3(tmp_path, capsys, command):
    # a Latin-1 operator name in a registry or a planar CSV
    path = tmp_path / "latin1.csv"
    if command == "ingest":
        path.write_bytes(b"id,lon,lat,operator\n1,2.35,48.85,Soci\xe9t\xe9\n")
        argv = ["ingest", "--input", str(path), "--output",
                str(tmp_path / "p.csv")]
    else:
        path.write_bytes(b"x,y,operator\n1.0,2.0,Soci\xe9t\xe9\n")
        argv = ([command, "--input", str(path)]
                + (["--output", str(tmp_path / "c.csv")]
                   if command == "stats" else ["--planar"]))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error [ingest]: {path}: not UTF-8 text")


def _planar(rows):
    return "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows)


# command, its input text made from the text of pp_csv's planar points,
# its other flags, and the stage it fails in (None: it succeeds)
DATA_FILES = {
    "planar-empty": ("stats", lambda pts: "", [], "ingest"),
    "planar-header-only": ("stats", lambda pts: "x,y\n", [], "ingest"),
    "planar-bom": ("stats", lambda pts: "\ufeff" + pts, [], None),
    "planar-semicolons": ("stats", lambda pts: pts.replace(",", ";"), [],
                          None),
    "planar-quoted-decimal-comma": (
        "stats", lambda pts: pts + '"500,5",500\n', [], None),
    "planar-nan": ("stats", lambda pts: pts + "nan,5\n", [], None),
    "planar-inf": ("stats", lambda pts: pts + "inf,5\n", [], None),
    "planar-1e300-outlier": ("stats", lambda pts: pts + "1e300,0\n", [],
                             "window"),
    "planar-overflowing-centroid": (
        "stats", lambda pts: _planar([(1.5e308, 1.5e308)] * 50
                                     + [(-1.5e308, -1.5e308)] * 50),
        [], "window"),
    "planar-all-unparsable": ("stats", lambda pts: "x,y\na,b\nc,d\n", [],
                              "ingest"),
    "planar-field-past-csv-limit": (
        "stats", lambda pts: pts + '"' + "1" * 200_000 + '",5\n', [],
        "ingest"),
    "registry-bom": ("ingest", lambda pts: "\ufeffid,lon,lat\n"
                     "a1,5.57,50.63\n", [], None),
    "registry-all-filtered": (
        "ingest", lambda pts: "id,lon,lat,operator\na1,5.57,50.63,alpha\n",
        ["--operator-column", "operator", "--operator", "beta"], "ingest"),
    "registry-nan-lon": ("ingest", lambda pts: "id,lon,lat\na1,nan,50.63\n"
                         "a2,5.57,50.63\n", [], None),
}


@pytest.mark.parametrize("command, make_text, flags, stage",
                         DATA_FILES.values(), ids=DATA_FILES)
def test_data_files_exit_0_or_3_naming_the_stage(pp_csv, tmp_path, capsys,
                                                 command, make_text, flags,
                                                 stage):
    path = tmp_path / "input.csv"
    path.write_bytes(make_text(Path(pp_csv[0]).read_text()).encode())
    rc = main([command, "--input", str(path), "--output",
               str(tmp_path / "out.csv")] + flags)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if stage is None:
        assert rc == 0, err
    else:
        assert rc == 3
        assert err.startswith(f"data error [{stage}]: ")


@pytest.mark.parametrize("argv", [
    ["report", "{dir}"],
    ["stats", "--input", "{dir}", "--output", "{out}"],
    ["stats", "--input", "{input}", "--window", WINDOW_FLAG,
     "--grid-points", "32", "--output", "{dir}"],
], ids=["report", "stats-input", "stats-output"])
def test_unreadable_paths_exit_3(pp_csv, tmp_path, capsys, argv):
    # a directory where a file is expected: the tests run as root, so
    # file permissions would not stop them
    args = [a.replace("{dir}", str(tmp_path)).replace("{input}", pp_csv[0])
            .replace("{out}", str(tmp_path / "c.csv")) for a in argv]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("data error: ")


class TestReport:

    def test_table_from_report_files(self, tmp_path, capsys):
        report = {"config": {"place": "liege", "technology": "gsm-900"},
                  "families": {"beta-ginibre":
                               {"fit": {"params": {"beta": 0.88}}}}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = main(["report", str(path)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "liege" in table
        assert "0.88" in table
        assert "0.91" in table

    @pytest.mark.parametrize("text", ["place,technology\nliege,gsm-900\n",
                                      "[1, 2]"], ids=["csv", "json-list"])
    def test_not_a_json_object_exits_3(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: not a JSON report")


    @pytest.mark.parametrize("report, field", [
        ({"families": {"beta-ginibre": {}}}, "families.beta-ginibre.fit"),
        ({"families": ["x"]}, "'families'"),
        ({"families": {"beta-ginibre": {"fit": {"params": {"beta": "0.9"}}}}},
         "families.beta-ginibre.fit.params.beta"),
        ({"families": {"beta-ginibre": {"fit": {"params": {
            "beta": 10**400}}}}}, "families.beta-ginibre.fit.params.beta"),
        ({"model": "poisson", "params": {"intensity": 1e-4}}, "'families'"),
    ], ids=["no-fit", "families-list", "beta-string", "beta-past-double",
            "fit-record"])
    def test_malformed_field_exits_3(self, tmp_path, capsys, report, field):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: not a JSON report: "
                              f"field ")
        assert field in err


class TestPipeline:

    def test_config_file_with_flag_overrides(self, pp_csv, tmp_path,
                                             capsys):
        path, _ = pp_csv
        config = {"families": ["poisson"], "grid_points": 128,
                  "window": {"kind": "rectangle", "x_min": 0.0,
                             "x_max": 1000.0, "y_min": 0.0,
                             "y_max": 1000.0},
                  "envelope": {"replicates": 39}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        rc = main(["pipeline", "--config", "@" + str(config_path),
                   "--input", path, "--planar", "--seed", "11",
                   "--out", str(out_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "winner:" in text
        assert "outputs in" in text
        family_line = next(l for l in text.splitlines()
                           if l.startswith("poisson"))
        assert "contrast=" in family_line
        assert " K:" in family_line
        report = json.loads((out_dir / "report.json").read_text())
        assert list(report["families"]) == ["poisson"]
        assert report["config"]["master_seed"] == 11

    @pytest.mark.parametrize("family", ["beta-ginibre", "gauss-dpp"])
    def test_oversized_window_exits_4_before_the_first_fit(
            self, tmp_path, capsys, monkeypatch, family):
        # 0.7 of the bound in the window: the covering disk and the
        # torus of the square expect 1.1 times the bound
        n = math.ceil(0.7 * samplers.DPP_POINT_BUDGET)
        path = tmp_path / "dense.csv"
        write_points_csv(path, np.random.default_rng(5).uniform(
            0.0, 13000.0, size=(n, 2)))

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before refusing the window")

        monkeypatch.setattr(pipeline, "fit", no_fit)
        config = {"window": {"kind": "rectangle", "x_min": 0.0,
                             "x_max": 13000.0, "y_min": 0.0,
                             "y_max": 13000.0}}
        start = time.perf_counter()
        rc = main(["pipeline", "--config", json.dumps(config), "--input",
                   str(path), "--planar", "--families", f"poisson,{family}"])
        assert time.perf_counter() - start < 20.0
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure [gof:{family}]: ")
        assert f"a {family} draw at intensity " in err
        assert f"bound is {samplers.DPP_POINT_BUDGET}\n" in err

    def test_numerical_failure_names_stage(self, pp_csv, capsys, monkeypatch):
        path, _ = pp_csv
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 5)
        config = {"families": ["beta-ginibre"], "grid_points": 128,
                  "window": {"kind": "rectangle", "x_min": 0.0,
                             "x_max": 1000.0, "y_min": 0.0,
                             "y_max": 1000.0}}
        rc = main(["pipeline", "--config", json.dumps(config),
                   "--input", path, "--planar"])
        assert rc == 4
        assert ("numerical failure [fit:beta-ginibre]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("window", [
        {"x_min": 0.0, "x_max": 1000.0, "y_min": 0.0, "y_max": 1000.0},
        {"kind": "hexagon"},
        {"kind": "rectangle", "x_min": 0.0, "x_max": 1000.0, "y_min": 0.0},
        {"kind": "rectangle", "x_min": 0.0, "x_max": 0.0, "y_min": 0.0,
         "y_max": 1000.0},
        {"kind": "disk", "center_x": 0.0, "center_y": 0.0, "radius": -1.0},
        {"kind": "rectangle", "x_min": 0.0, "x_max": float("inf"),
         "y_min": 0.0, "y_max": 1000.0},
        {"kind": "rectangle", "x_min": 0.0, "x_max": 10**400,
         "y_min": 0.0, "y_max": 1000.0},
        {"kind": "disk", "center_x": 0.0, "center_y": 0.0,
         "radius": 10**400},
    ], ids=["no-kind", "unknown-kind", "missing-key", "flat-rectangle",
            "negative-radius", "infinite-bound", "int-past-double-bound",
            "int-past-double-radius"])
    def test_bad_window_exits_2(self, pp_csv, capsys, window):
        path, _ = pp_csv
        config = {"families": ["poisson"], "window": window}
        rc = main(["pipeline", "--config", json.dumps(config),
                   "--input", path, "--planar"])
        assert rc == 2
        assert "config error [window]: bad window" in capsys.readouterr().err

    def test_all_planar_rows_rejected_exits_3(self, tmp_path, capsys):
        # numpy reprs in place of numbers: every row fails to parse
        path = tmp_path / "reprs.csv"
        path.write_text("x,y\n" + "".join(
            f"np.float64({i}.5),np.float64({2 * i}.5)\n"
            for i in range(150)))
        rc = main(["pipeline", "--families", "poisson", "--input",
                   str(path), "--planar"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error [ingest]: " in err
        assert "all 150 rows rejected; first at line 2" in err
        assert "np.float64(0.5)" in err

    def test_missing_input_exits_2(self, capsys):
        rc = main(["pipeline", "--families", "poisson"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_family_choice_raises_argparse_exit(self, pp_csv):
        path, _ = pp_csv
        with pytest.raises(SystemExit) as err:
            main(["fit", "--input", path, "--family", "bogus"])
        assert err.value.code == 2


def test_pipeline_on_disk_window_tests_all_four_families(tmp_path,
                                                        capsys):
    # 108 thinned-Ginibre points in a 7 km disk, CLI defaults otherwise:
    # every family is fitted and envelope-tested on the disk itself
    disk = {"kind": "disk", "center_x": 7000.0, "center_y": 7000.0,
            "radius": 7000.0}
    pat = sample(BetaGinibre(0.7e-6, 0.9), window_from_dict(disk),
                 RngStreamSpec(3))
    assert pat.n == 108
    data = tmp_path / "disk.csv"
    write_points_csv(data, pat.points)
    rc = main(["pipeline", "--config", json.dumps({"window": disk}),
               "--input", str(data), "--planar", "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["families"]) == sorted(FAMILY_NAMES)
    for entry in report["families"].values():
        assert sorted(entry["verdicts"]) == ["F", "G", "J", "K"]


BAD_NUMBERS = {
    "simulate-seed": ["simulate", "--model", POISSON, "--window",
                      WINDOW_FLAG, "--seed", "-1", "--output", "{out}"],
    "stats-seed": ["stats", "--input", "{input}", "--window", WINDOW_FLAG,
                   "--seed", "-1", "--output", "{out}"],
    "pipeline-seed": ["pipeline", "--families", "poisson", "--input",
                      "{input}", "--planar", "--seed", "-1"],
    "gof-replicates": ["gof", "--input", "{input}", "--window", WINDOW_FLAG,
                       "--model", model_json("poisson", intensity=1.5e-4),
                       "--replicates", "-1"],
    "pipeline-replicates": ["pipeline", "--input", "{input}", "--planar",
                            "--config", '{"envelope": {"replicates": -1}}'],
    "pipeline-grid-points": ["pipeline", "--input", "{input}", "--planar",
                             "--config", '{"grid_points": "x"}'],
    "pipeline-few-replicates": ["pipeline", "--input", "{input}", "--planar",
                                "--config",
                                '{"envelope": {"replicates": 5}}'],
    "stats-window-inf": ["stats", "--input", "{input}", "--window",
                         "0,inf,0,13000", "--output", "{out}"],
    "fit-exponent-inf": ["fit", "--input", "{input}", "--window",
                         WINDOW_FLAG, "--family", "gauss-dpp",
                         "--exponent-p", "inf"],
    "stats-window-area": ["stats", "--input", "{input}", "--window",
                          "0,1e300,0,1e300", "--output", "{out}"],
    "stats-disk-area": ["stats", "--input", "{input}", "--window",
                        "disk:0,0,1e300", "--output", "{out}"],
    "stats-grid-points": ["stats", "--input", "{input}", "--window",
                          WINDOW_FLAG, "--grid-points", "2000000000",
                          "--output", "{out}"],
    "gof-replicates-memory": ["gof", "--input", "{input}", "--window",
                              WINDOW_FLAG, "--model",
                              model_json("poisson", intensity=1.5e-4),
                              "--replicates", "1000000000"],
    "ingest-origin-nan": ["ingest", "--input", "{registry}", "--output",
                          "{out}", "--projection", "local-tangent",
                          "--origin-lon", "nan", "--origin-lat", "50.5"],
}


@pytest.mark.parametrize("argv", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_bad_numbers_exit_2(pp_csv, registry_csv, tmp_path, capsys,
                           monkeypatch, argv):
    # envelope replicates draw through samplers.sample and a registry
    # is read by pipeline.ingest; neither may start
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or ingested before refusing the "
                             "numbers")

    monkeypatch.setattr(samplers, "sample", no_work)
    monkeypatch.setattr(pipeline, "ingest", no_work)
    path, _ = pp_csv
    args = [a.replace("{input}", path).replace("{registry}", registry_csv)
            .replace("{out}", str(tmp_path / "out.csv")) for a in argv]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err


BAD_CONFIGS = {
    "not-an-object": "[1]",
    "contrast-exponent": '{"contrast": {"p": "x"}}',
    "contrast-r-max": '{"contrast": {"r_max": "5"}}',
    "columns-list": '{"columns": ["x"]}',
    "families-string": '{"families": "poisson"}',
    "planar-filters": '{"filters": {"technology": "LTE-800"}}',
    "projection-origin": '{"projection": {"kind": "local-tangent", '
                         '"origin_lon": "x", "origin_lat": 1}}',
    "contrast-step-weighted": '{"contrast": {"step_weighted": "false"}}',
    "projection-origin-nan": '{"projection": {"kind": "local-tangent", '
                             '"origin_lon": NaN, "origin_lat": 50.5}}',
    "projection-half-span-nan": '{"projection": {"kind": "local-tangent", '
                                '"half_span": NaN}}',
    "envelope-mode": '{"envelope": {"mode": "pointwise"}}',
    "families-repeated": '{"families": ["poisson", "poisson", '
                         '"beta-ginibre"]}',
    "filter-without-column": '{"projection": {"kind": "lambert-93"}, '
                             '"filters": {"technology": "GSM"}}',
    "projection-parallel-inf": '{"projection": {"kind": '
                               '"lambert-conformal-conic", "origin_lon": 3, '
                               '"origin_lat": 46.5, "std_parallel_1": '
                               'Infinity, "std_parallel_2": 49}}',
}


@pytest.mark.parametrize("config", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_pipeline_configs_exit_2(pp_csv, registry_csv, capsys, config):
    # a registry input for the projection, planar points otherwise
    data = (["--input", registry_csv] if "projection" in config
            else ["--input", pp_csv[0], "--planar"])
    assert main(["pipeline", "--config", config] + data) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "unknown family" not in err


@pytest.mark.parametrize("argv, unknown", [
    (["gof", "--input", "{input}", "--model",
      model_json("poisson", intensity=1.5e-4), "--mode", "global"],
     "--mode global"),
    (["stats", "--input", "{input}", "--output", "{out}", "--out", "x"],
     "--out x"),
], ids=["gof-mode", "stats-out"])
def test_flag_abbreviations_are_refused(pp_csv, tmp_path, capsys, argv,
                                        unknown):
    # a prefix of a flag is an unknown flag, not that flag: a stale
    # --mode does not read as --model
    args = [a.replace("{input}", pp_csv[0])
            .replace("{out}", str(tmp_path / "c.csv")) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_bad_projection_exits_2_before_ingest(registry_csv, capsys,
                                              monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "ingest",
                        lambda *args, **kwargs: calls.append(args))
    config = {"projection": {"kind": "local-tangent", "origin_lon": "x",
                             "origin_lat": 1}}
    assert main(["pipeline", "--config", json.dumps(config),
                 "--input", registry_csv]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert calls == []


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


PIPELINE_CONFIG = json.dumps({
    "families": ["poisson"], "grid_points": 64,
    "window": {"kind": "rectangle", "x_min": 0.0, "x_max": 1000.0,
               "y_min": 0.0, "y_max": 1000.0},
    "envelope": {"replicates": 19}})
# argv, the JSON files it writes, and whether its stdout is JSON
JSON_RUNS = {
    "simulate": (["simulate", "--model", POISSON,
                  "--window", WINDOW_FLAG, "--output", "{dir}/s.csv"],
                 ["s.json"], False),
    "stats": (["stats", "--input", "{input}", "--window", WINDOW_FLAG,
               "--grid-points", "64", "--output", "{dir}/c.csv"], [], True),
    "fit": (["fit", "--input", "{input}", "--window", WINDOW_FLAG,
             "--family", "poisson", "--output", "{dir}/fit.json"],
            ["fit.json"], True),
    "gof-r-max-inf": (["gof", "--input", "{input}", "--window", WINDOW_FLAG,
                       "--model", model_json("poisson", intensity=1.5e-4),
                       "--statistics", "K", "--replicates", "19",
                       "--grid-points", "64", "--r-max", "inf"], [], True),
    "ingest": (["ingest", "--input", "{registry}", "--output", "{dir}/p.csv",
                "--rejects", "{dir}/rejects.jsonl"], ["rejects.jsonl"],
               False),
    "pipeline": (["pipeline", "--input", "{input}", "--planar", "--config",
                  PIPELINE_CONFIG, "--out", "{dir}/out"],
                 ["out/report.json", "out/run_meta.json",
                  "out/rejects.jsonl"], False),
}


@pytest.mark.parametrize("argv, files, prints_json", JSON_RUNS.values(),
                         ids=JSON_RUNS)
def test_json_output_is_strict(pp_csv, registry_csv, tmp_path, capsys, argv,
                               files, prints_json):
    # no NaN or Infinity in anything printed or written, --r-max inf
    # included
    args = [a.replace("{dir}", str(tmp_path)).replace("{input}", pp_csv[0])
            .replace("{registry}", registry_csv) for a in argv]
    assert main(args) == 0
    if prints_json:
        _strict_json(capsys.readouterr().out)
    for name in files:
        text = (tmp_path / name).read_text()
        for doc in (text.splitlines() if name.endswith(".jsonl")
                    else [text]):
            _strict_json(doc)


def _child_env(**variables) -> dict:
    """The environment plus ``variables``, with the imported cellpp's
    source directory first on PYTHONPATH."""
    src = str(Path(cellpp.__file__).resolve().parents[1])
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # every command pays the import; scipy.stats, scipy.integrate and
    # scipy.optimize are loaded only by the code paths that call them
    code = ("import sys, cellpp.cli; print(sorted(m for m in "
            "('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_outputs_do_not_depend_on_the_blas_thread_count(pp_csv, tmp_path):
    # only the sampler pins BLAS to one thread; the Fredholm model
    # curves of the Gauss fit run at the default count, so one run at 1
    # and one at 2 threads must write the same bytes
    config = json.dumps({"families": ["poisson", "gauss-dpp"],
                         "contrast": {"statistic": "K"}, "grid_points": 64,
                         "envelope": {"replicates": 19}})
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "cellpp.cli", "pipeline", "--config",
             config, "--input", pp_csv[0], "--planar", "--out", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads),
            capture_output=True, check=True, timeout=300)
        outputs.append({str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "run_meta.json"})
    assert "curves/model_gauss-dpp.csv" in outputs[0]
    assert outputs[0] == outputs[1]
