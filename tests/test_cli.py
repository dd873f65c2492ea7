"""End-to-end tests of the command line interface.

Every test drives ``cellpp.cli.main`` in process with an argv list, so
stdout/stderr are captured by pytest and exit codes are the returned ints.
"""

import json
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellpp
from cellpp import estimators
from cellpp.cli import main
from cellpp.estimators import default_test_point_count, estimate_F
from cellpp.geom import Rectangle
from cellpp.models import Poisson
from cellpp.pipeline import read_points_csv, write_points_csv
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample, sample_poisson

WINDOW_FLAG = "0,1000,0,1000"
AREA = 1000.0 * 1000.0


@pytest.fixture(scope="module")
def pp_csv(tmp_path_factory):
    """A Poisson pattern of ~150 points in a 1 km square."""
    window = Rectangle(0.0, 1000.0, 0.0, 1000.0)
    pat = sample_poisson(1.5e-4, window, RngStreamSpec(200))
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
        rc = main(["simulate", "--family", "poisson",
                   "--intensity", "1e-4", "--window", WINDOW_FLAG,
                   "--seed", "5", "--output", str(out)])
        assert rc == 0
        points, rejects = read_points_csv(out)
        assert rejects == []
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["model"] == {"model": "poisson",
                                    "params": {"intensity": 1e-4}}
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
        assert sidecar["model"] == model

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

    def test_bad_window_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--family", "poisson", "--intensity", "1e-4",
                   "--window", "nonsense", "--output",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "cannot parse window" in capsys.readouterr().err

    def test_existence_violation_exits_2(self, tmp_path, capsys):
        # 1/(pi*0.1^2) ~ 31.8 caps the gauss intensity, so 1000 is invalid
        rc = main(["simulate", "--family", "gauss-dpp",
                   "--intensity", "1000", "--scale", "0.1",
                   "--window", "0,1,0,1", "--output",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_truncation_exits_4(self, tmp_path, capsys):
        # tiny scale needs far more spectral modes than the default budget
        rc = main(["simulate", "--family", "gauss-dpp",
                   "--intensity", "1000", "--scale", "0.0005",
                   "--window", "0,1,0,1", "--output",
                   str(tmp_path / "x.csv")])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err


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
        assert 0.0 <= summary["quadrat_p_value"] <= 1.0
        assert "curves written" in captured.err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "value", "kind", "origin"]
        assert {row[2] for row in rows[1:]} == {"K", "F", "G", "J"}

    def test_auto_window_when_flag_omitted(self, pp_csv, capsys, tmp_path):
        path, pat = pp_csv
        rc = main(["stats", "--input", path,
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert 80 <= summary["n_points"] <= pat.n

    def test_too_few_grid_points_exits_2(self, pp_csv, tmp_path, capsys):
        path, _ = pp_csv
        rc = main(["stats", "--input", path, "--window", WINDOW_FLAG,
                   "--grid-points", "1", "--output",
                   str(tmp_path / "curves.csv")])
        assert rc == 2
        assert "config error: --grid-points 1" in capsys.readouterr().err

    def test_missing_input_exits_3(self, tmp_path, capsys):
        rc = main(["stats", "--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 3
        assert "data error" in capsys.readouterr().err


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

    def test_exhausted_budget_exits_4(self, pp_csv, tmp_path, capsys):
        path, _ = pp_csv
        rc = main(["fit", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "beta-ginibre", "--statistic", "K",
                   "--max-evaluations", "5"])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err


class TestGof:

    def test_global_verdicts_and_bands_dir(self, pp_csv, tmp_path, capsys):
        path, pat = pp_csv
        bands = tmp_path / "bands"
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "poisson",
                   "--intensity", repr(pat.n / AREA),
                   "--statistics", "K,F", "--mode", "global",
                   "--replicates", "39", "--grid-points", "64",
                   "--seed", "1", "--bands-dir", str(bands)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"]["model"] == "poisson"
        assert set(out["verdicts"]) == {"K", "F"}
        for kind in ("K", "F"):
            v = out["verdicts"][kind]
            assert v["significance"] == pytest.approx(1.0 / 40.0)
            assert isinstance(v["passed"], bool)
        # correct model at the frozen seed stays inside both bands
        assert out["verdicts"]["K"]["passed"]
        assert out["verdicts"]["F"]["passed"]
        assert (bands / "poisson_K_global.csv").stat().st_size > 0
        assert (bands / "poisson_F_global.csv").stat().st_size > 0

    def test_pointwise_single_statistic(self, pp_csv, capsys):
        path, pat = pp_csv
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "poisson",
                   "--intensity", repr(pat.n / AREA),
                   "--statistics", "J", "--mode", "pointwise",
                   "--replicates", "39", "--grid-points", "64",
                   "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out["verdicts"]) == ["J"]
        assert out["verdicts"]["J"]["significance"] == pytest.approx(0.05)

    def test_replicates_use_the_data_test_point_count(self, tmp_path,
                                                      monkeypatch, capsys):
        # above 1,000 points the default count grows with the pattern, so
        # each replicate would pick its own unless given the data's
        window = Rectangle(0.0, 1000.0, 0.0, 1000.0)
        pat = sample_poisson(1.2e-3, window, RngStreamSpec(201))
        path = tmp_path / "dense.csv"
        write_points_csv(path, pat.points)
        counts = []

        def spy(*args, **kwargs):
            curve = estimate_F(*args, **kwargs)
            counts.append(curve.meta["n_test"])
            return curve

        monkeypatch.setattr(estimators, "estimate_F", spy)
        with pytest.warns(UserWarning, match="weak test"):
            rc = main(["gof", "--input", str(path), "--window", WINDOW_FLAG,
                       "--family", "poisson", "--intensity", "1.2e-3",
                       "--statistics", "F", "--replicates", "19",
                       "--grid-points", "32", "--seed", "3"])
        assert rc == 0
        assert len(counts) == 20
        assert set(counts) == {default_test_point_count(pat.n)}

    @pytest.mark.parametrize("flags, message", [
        (["--grid-points", "1"], "--grid-points 1"),
        (["--statistics", "K,L"], "--statistics 'K,L'"),
        (["--r-max", "-1"], "no K radius up to r_max=-1.0 has"),
    ], ids=["grid-points", "statistics", "r-max"])
    def test_bad_flags_exit_2(self, pp_csv, capsys, flags, message):
        path, pat = pp_csv
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--family", "poisson",
                   "--intensity", repr(pat.n / AREA)] + flags)
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_model_flags_required_exits_2(self, pp_csv, capsys):
        path, _ = pp_csv
        rc = main(["gof", "--input", path, "--window", WINDOW_FLAG,
                   "--statistics", "K"])
        assert rc == 2
        assert "give either --model" in capsys.readouterr().err


class TestIngest:

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

    def test_filter_leaves_nothing_exits_3(self, registry_csv, tmp_path,
                                           capsys):
        rc = main(["ingest", "--input", registry_csv,
                   "--output", str(tmp_path / "p.csv"),
                   "--technology-column", "tech",
                   "--technology", "gsm-900"])
        assert rc == 3
        assert "data error" in capsys.readouterr().err


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

    def test_numerical_failure_names_stage(self, pp_csv, capsys):
        path, _ = pp_csv
        config = {"families": ["beta-ginibre"], "grid_points": 128,
                  "max_evaluations": 5,
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
    ], ids=["no-kind", "unknown-kind", "missing-key", "flat-rectangle",
            "negative-radius"])
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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # every command pays the import; scipy.stats, scipy.integrate and
    # scipy.optimize are loaded only by the code paths that call them
    src = str(Path(cellpp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, cellpp.cli; print(sorted(m for m in "
            "('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
