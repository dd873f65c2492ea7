"""End-to-end orchestration: config validation, windowing, point IO,
full runs on synthetic data, determinism of the written report."""

import json
import shutil

import numpy as np
import pytest

from cellpp.errors import (ConfigError, DataError, InsufficientDataError,
                           SchemaError)
from cellpp.geom import Rectangle
from cellpp.pipeline import (PipelineConfig, Report, auto_window,
                             emit_table_one_regression, load_pattern,
                             projection_from_dict, read_points_csv,
                             run_pipeline, write_points_csv)
from cellpp.models import BetaGinibre, Poisson
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

KM13_DICT = {"kind": "rectangle", "x_min": 0.0, "x_max": 13000.0,
             "y_min": 0.0, "y_max": 13000.0}


@pytest.fixture(scope="module")
def bg_csv(tmp_path_factory):
    window = Rectangle(0.0, 13000.0, 0.0, 13000.0)
    pat = sample(BetaGinibre(0.7e-6, 0.9), window, RngStreamSpec(11))
    path = tmp_path_factory.mktemp("data") / "bg.csv"
    write_points_csv(path, pat.points)
    return str(path)


@pytest.fixture(scope="module")
def bg_config(bg_csv):
    return dict(input=bg_csv, planar=True, window=KM13_DICT,
                families=("poisson", "beta-ginibre"), grid_points=128,
                envelope={"replicates": 39}, master_seed=11)


@pytest.fixture(scope="module")
def bg_report(bg_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return run_pipeline(PipelineConfig(**bg_config), out_dir=out), out


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_dict({"inputt": "x.csv"})

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            PipelineConfig(families=("poisson", "thomas"))

    def test_empty_families(self):
        with pytest.raises(ConfigError):
            PipelineConfig(families=())

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError):
            PipelineConfig(columns={"latitude": "lat"})
        with pytest.raises(ConfigError):
            PipelineConfig(filters={"vendor": "x"})
        with pytest.raises(ConfigError):
            PipelineConfig(envelope={"m": 39})
        with pytest.raises(ConfigError):
            PipelineConfig(contrast={"stat": "F"})
        # planar points carry no operator or technology to filter on
        with pytest.raises(ConfigError, match="planar filters key"
                                              r"\(s\): technology"):
            PipelineConfig(planar=True, filters={"technology": "LTE-800"})

    def test_envelope_defaults_and_gate(self):
        cfg = PipelineConfig()
        assert cfg.envelope == {"replicates": 39, "mode": "both",
                                "gate": "global"}
        cfg = PipelineConfig(envelope={"mode": "pointwise"})
        assert cfg.envelope["gate"] == "pointwise"

    def test_gate_mode_conflict(self):
        with pytest.raises(ConfigError):
            PipelineConfig(envelope={"mode": "pointwise", "gate": "global"})
        with pytest.raises(ConfigError):
            PipelineConfig(envelope={"mode": "global", "gate": "pointwise"})

    def test_bad_scalars(self):
        with pytest.raises(ConfigError):
            PipelineConfig(duplicates="drop")
        with pytest.raises(ConfigError):
            PipelineConfig(grid_points=1)
        with pytest.raises(ConfigError):
            PipelineConfig(auto_window_min_points=1)
        # constructed only: a config with input=True would open fd 1
        for key, value in (("input", True), ("output_dir", 5),
                           ("place", 1.0), ("technology", ["gsm"]),
                           ("planar", "no")):
            with pytest.raises(ConfigError, match=f"{key} has the wrong"):
                PipelineConfig(**{key: value})

    def test_non_object_config(self):
        with pytest.raises(ConfigError, match="JSON object"):
            PipelineConfig.from_dict([1])

    def test_round_trip_dict(self):
        cfg = PipelineConfig(families=("poisson",), master_seed=7)
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestProjectionConfig:
    def test_default_is_lambert_93(self):
        spec = projection_from_dict(None)
        assert spec.kind == "lambert-conformal-conic"
        assert spec.false_easting_m == 700000.0

    def test_local_tangent_requires_origin(self):
        with pytest.raises(ConfigError):
            projection_from_dict({"kind": "local-tangent"})
        spec = projection_from_dict({"kind": "local-tangent",
                                     "origin_lon": 5.57,
                                     "origin_lat": 50.63})
        assert spec.origin_lat_deg == 50.63

    def test_unknown_kind_and_keys(self):
        with pytest.raises(ConfigError):
            projection_from_dict({"kind": "mercator"})
        with pytest.raises(ConfigError):
            projection_from_dict({"kind": ["lambert-93"]})
        with pytest.raises(ConfigError):
            projection_from_dict({"zone": 31})

    @pytest.mark.parametrize("config", [
        {"origin_lon": 5.0, "origin_lat": 50.0},
        {"kind": "lambert-93", "std_parallel_1": 10.0},
        {"kind": "lambert-93", "false_easting": 0.0},
        {"kind": "local-tangent", "origin_lon": 5.0, "origin_lat": 50.0,
         "std_parallel_2": 49.0},
    ], ids=["origin", "parallel", "easting", "tangent-parallel"])
    def test_keys_the_kind_does_not_read(self, config):
        with pytest.raises(ConfigError, match="projection key"):
            projection_from_dict(config)
        with pytest.raises(ConfigError, match="projection key"):
            PipelineConfig(projection=config)

    def test_conic_missing_parallels(self):
        with pytest.raises(ConfigError):
            projection_from_dict({"kind": "lambert-conformal-conic",
                                  "origin_lon": 3.0, "origin_lat": 46.5})


class TestAutoWindow:
    def test_square_holding_min_points(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 1000.0, size=(150, 2))
        win = auto_window(pts, min_points=80)
        assert win.x_max - win.x_min == pytest.approx(win.y_max - win.y_min)
        assert win.contains(pts).sum() >= 80
        cx = (win.x_min + win.x_max) / 2.0
        assert cx == pytest.approx(pts[:, 0].mean())

    def test_window_is_tight(self):
        # shrinking the square by a hair must drop below min_points
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 100.0, size=(120, 2))
        win = auto_window(pts, min_points=80)
        half = (win.x_max - win.x_min) / 2.0
        cx, cy = (win.x_min + win.x_max) / 2.0, (win.y_min + win.y_max) / 2.0
        shrunk = Rectangle(cx - 0.999 * half, cx + 0.999 * half,
                           cy - 0.999 * half, cy + 0.999 * half)
        assert shrunk.contains(pts).sum() < 80

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            auto_window(np.zeros((10, 2)), min_points=80)


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = np.array([[1.5, -2.25], [1e-7, 3.0]])
        path = tmp_path / "pts.csv"
        write_points_csv(path, pts)
        back, rejects = read_points_csv(path)
        assert np.array_equal(back, pts)
        assert rejects == []

    def test_bad_rows_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1.0,2.0\noops,3.0\n4.0,\n5.0,6.0\n")
        pts, rejects = read_points_csv(path)
        assert pts.shape == (2, 2)
        assert [r["line"] for r in rejects] == [3, 4]

    def test_reject_lines_and_rows_after_blank_lines(self, tmp_path):
        # the last "x" column is read, as csv.DictReader keys it
        path = tmp_path / "pts.csv"
        path.write_text("x,y,x\n\n0,1.0,2.0\n\n\n3.0,oops\n"
                        "0,4.0,5.0,6.0\n")
        pts, rejects = read_points_csv(path)
        assert pts.tolist() == [[2.0, 1.0], [5.0, 4.0]]
        assert rejects == [{"line": 6, "reason": "unparsable coordinate",
                            "row": {"x": None, "y": "oops"}}]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,z\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            read_points_csv(path)

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("east,north\n10.0,20.0\n")
        pts, _ = read_points_csv(path, x_column="east", y_column="north")
        assert pts.tolist() == [[10.0, 20.0]]


class TestLoadPattern:
    def test_planar_with_window(self, bg_config):
        pattern, info = load_pattern(PipelineConfig(**bg_config))
        assert pattern.n == info["n_clipped"] == 122
        assert info["rejects"] == []

    def test_ingest_projection_path(self, tmp_path):
        path = tmp_path / "registry.csv"
        rows = ["id,lon,lat"]
        rng = np.random.default_rng(9)
        for i in range(30):
            lon = 5.57 + rng.uniform(-0.02, 0.02)
            lat = 50.63 + rng.uniform(-0.02, 0.02)
            rows.append(f"s{i},{lon:.6f},{lat:.6f}")
        rows.append("bad,91.0,200.0")
        path.write_text("\n".join(rows) + "\n")
        cfg = PipelineConfig(
            input=str(path),
            projection={"kind": "local-tangent", "origin_lon": 5.57,
                        "origin_lat": 50.63},
            window={"kind": "rectangle", "x_min": -5000.0, "x_max": 5000.0,
                    "y_min": -5000.0, "y_max": 5000.0})
        pattern, info = load_pattern(cfg)
        assert info["n_read"] == 31
        assert len(info["rejects"]) == 1
        assert pattern.n >= 20

    def test_duplicate_points_fail_at_clip_stage(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y\n10.0,10.0\n10.0,10.0\n30.0,40.0\n")
        cfg = PipelineConfig(
            input=str(path), planar=True,
            window={"kind": "rectangle", "x_min": 0.0, "x_max": 100.0,
                    "y_min": 0.0, "y_max": 100.0})
        with pytest.raises(DataError) as err:
            load_pattern(cfg)
        assert err.value.stage == "clip"

    def test_missing_input(self):
        with pytest.raises(ConfigError):
            load_pattern(PipelineConfig())


class TestFullRun:
    def test_winner_and_fitted_beta(self, bg_report):
        report, _ = bg_report
        assert report.winner == "beta-ginibre"
        beta = report.families["beta-ginibre"]["fit"]["params"]["beta"]
        assert 0.75 <= beta <= 1.0
        assert not report.near_poisson

    def test_poisson_rejected_on_repulsive_data(self, bg_report):
        report, _ = bg_report
        assert not report.families["poisson"]["all_pass"]
        assert report.families["beta-ginibre"]["all_pass"]

    def test_report_structure(self, bg_report):
        report, _ = bg_report
        entry = report.families["beta-ginibre"]
        assert entry["gate"] == "global"
        assert sorted(entry["verdicts"]) == ["F", "G", "J", "K"]
        assert sorted(entry["diagnostic_verdicts"]["pointwise"]) == \
            ["F", "G", "J", "K"]
        for v in entry["verdicts"].values():
            assert set(v) == {"kind", "passed", "first_exit_radius",
                              "exceedance_fraction", "n_defined", "r_max"}
        ds = report.dataset
        assert ds["n_points"] == 122
        assert ds["intensity"] == pytest.approx(122 / 13000.0 ** 2)
        assert ds["test_points"] == 10000
        assert report.stationarity["rejected"] is False

    def test_winner_consistent_with_stored_results(self, bg_report):
        report, _ = bg_report
        passing = {f: e for f, e in report.families.items() if e["all_pass"]}
        assert report.winner in passing
        dist = report.families[report.winner]["fit"]["distances"]["F"]
        for entry in passing.values():
            assert dist <= entry["fit"]["distances"]["F"]

    def test_output_inventory(self, bg_report):
        _, out = bg_report
        assert (out / "report.json").is_file()
        assert (out / "run_meta.json").is_file()
        assert (out / "rejects.jsonl").read_text() == ""
        assert (out / "curves" / "empirical.csv").is_file()
        for fam in ("poisson", "beta-ginibre"):
            assert (out / "curves" / f"model_{fam}.csv").is_file()
            for kind in "KFGJ":
                for mode in ("pointwise", "global"):
                    assert (out / "bands" /
                            f"{fam}_{kind}_{mode}.csv").is_file()

    def test_report_json_round_trips(self, bg_report):
        report, out = bg_report
        loaded = json.loads((out / "report.json").read_text())
        assert loaded == report.to_dict()

    def test_rerun_is_byte_identical(self, bg_config, bg_report, tmp_path):
        _, out = bg_report
        run_pipeline(PipelineConfig(**bg_config), out_dir=tmp_path)
        assert (tmp_path / "report.json").read_bytes() == \
            (out / "report.json").read_bytes()

    def test_report_does_not_depend_on_input_directory(self, bg_config,
                                                       tmp_path):
        reports = []
        for sub in ("a", "b"):
            path = tmp_path / sub / "points.csv"
            path.parent.mkdir()
            shutil.copyfile(bg_config["input"], path)
            cfg = dict(bg_config, input=str(path), families=("poisson",))
            run_pipeline(PipelineConfig(**cfg), out_dir=tmp_path / sub)
            reports.append((tmp_path / sub / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["input"] == "points.csv"

    def test_family_order_does_not_matter(self, bg_config, bg_report):
        report, _ = bg_report
        cfg = dict(bg_config)
        cfg["families"] = ("beta-ginibre", "poisson")
        flipped = run_pipeline(PipelineConfig(**cfg))
        assert flipped.families["beta-ginibre"] == \
            report.families["beta-ginibre"]
        assert flipped.families["poisson"] == report.families["poisson"]

    def test_poisson_data_flags_near_poisson(self, bg_config,
                                             tmp_path_factory):
        window = Rectangle(0.0, 13000.0, 0.0, 13000.0)
        pat = sample(Poisson(0.7e-6), window, RngStreamSpec(12))
        path = tmp_path_factory.mktemp("ppp") / "pp.csv"
        write_points_csv(path, pat.points)
        cfg = dict(bg_config)
        cfg["input"] = str(path)
        report = run_pipeline(PipelineConfig(**cfg))
        assert report.near_poisson
        fit_entry = report.families["beta-ginibre"]["fit"]
        assert fit_entry["diagnostics"]["pinned_lower_bound"]

    def test_inhomogeneous_data_warns_but_completes(self, tmp_path):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.0, 1000.0, size=(150, 2))
        blob = rng.uniform(0.0, 120.0, size=(150, 2))
        path = tmp_path / "hot.csv"
        write_points_csv(path, np.vstack([base, blob]))
        cfg = PipelineConfig(
            input=str(path), planar=True,
            window={"kind": "rectangle", "x_min": 0.0, "x_max": 1000.0,
                    "y_min": 0.0, "y_max": 1000.0},
            families=("poisson",), grid_points=128,
            envelope={"replicates": 39}, master_seed=3)
        with pytest.warns(UserWarning, match="interpret with care"):
            report = run_pipeline(cfg)
        assert report.stationarity["rejected"] is True
        assert "poisson" in report.families


class TestComparisonTable:
    def test_empty_list(self):
        table = emit_table_one_regression([])
        lines = table.strip().splitlines()
        assert len(lines) == 2
        assert "fitted" in lines[0] and "reference" in lines[0]

    def test_reference_lookup_from_dict_report(self):
        fake = {"config": {"place": "liege", "technology": "gsm-900"},
                "families": {"beta-ginibre":
                             {"fit": {"params": {"beta": 0.88}}}}}
        table = emit_table_one_regression([fake])
        row = table.strip().splitlines()[-1]
        assert "liege" in row
        assert "0.88" in row
        assert "0.91" in row
        assert "0.03" in row

    def test_unlisted_place_gets_slash(self, bg_report):
        report, _ = bg_report
        row = emit_table_one_regression([report]).strip().splitlines()[-1]
        assert "/" in row

    def test_missing_family_gets_slash(self):
        fake = {"config": {"place": "paris", "technology": "gsm-900"},
                "families": {}}
        row = emit_table_one_regression([fake]).strip().splitlines()[-1]
        assert row.count("/") >= 1
        assert "0.95" in row
