"""End-to-end orchestration: config validation, windowing, point IO,
full runs on synthetic data, determinism of the written report."""

import json
import math
import shutil
from dataclasses import fields

import numpy as np
import pytest

from cellpp.errors import (CellppError, ConfigError, DataError,
                           InsufficientDataError, SchemaError)
from cellpp.estimators import RadiusGrid, SummaryCurve
from cellpp.fitting import ContrastSpec, contrast
from cellpp.geom import Disk, ProjectionSpec, Rectangle, project
from cellpp.pipeline import (_PROJECTION_KEYS, PipelineConfig, Report,
                             auto_window, emit_table_one_regression,
                             load_pattern, load_points, projection_from_dict,
                             read_points_csv, run_pipeline, write_points_csv)
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
        # the gate follows from the mode, so the config holds no gate
        cfg = PipelineConfig()
        assert cfg.envelope == {"replicates": 39, "mode": "both"}
        cfg = PipelineConfig(envelope={"mode": "pointwise"})
        assert cfg.envelope == {"replicates": 39, "mode": "pointwise"}

    def test_gate_mode_conflict(self):
        # an old config's gate key is an unknown envelope key
        for gate, mode in (("global", "pointwise"), ("pointwise", "global"),
                           ("global", "both")):
            with pytest.raises(ConfigError, match="unknown envelope key"):
                PipelineConfig(envelope={"mode": mode, "gate": gate})

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
        # a string is truthy: "false" would turn the weighting on
        for flag in ("false", 0, None):
            with pytest.raises(ConfigError, match="step_weighted must be"):
                PipelineConfig(contrast={"step_weighted": flag})
        # a NaN bound lets every coordinate through the validity box
        for projection in (
                {"kind": "local-tangent", "origin_lon": math.nan,
                 "origin_lat": 50.5},
                {"kind": "local-tangent", "half_span": math.nan},
                {"kind": "lambert-conformal-conic", "origin_lon": 3.0,
                 "origin_lat": 46.5, "std_parallel_1": math.inf,
                 "std_parallel_2": 49.0}):
            with pytest.raises(ConfigError, match="must be finite"):
                PipelineConfig(projection=projection)

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


# Each value replaces one key of a valid planar config at a time.
SWEEP_VALUES = (math.nan, math.inf, -math.inf, 0, -1, 1e300, 10**400, [],
                None, "")


def sweep_configs(base, projections):
    """(label, config dict) for every key of the config, its contrast,
    envelope, window (both kinds) and each projection kind, crossed with
    SWEEP_VALUES; the keys come from the code, so a new key joins."""
    windows = {"window": base["window"],
               "disk window": Disk(500.0, 500.0, 500.0).to_dict()}
    nested = [("contrast", {}, [f.name for f in fields(ContrastSpec)]),
              ("envelope", {}, list(PipelineConfig().envelope))]
    nested += [(name, d, list(d)) for name, d in windows.items()]
    nested += [(f"{kind} projection", projections[kind],
                ["kind", *sorted(keys)])
               for kind, keys in _PROJECTION_KEYS.items()]
    for value in SWEEP_VALUES:
        for f in fields(PipelineConfig):
            yield f"{f.name}={value!r:.12}", {**base, f.name: value}
        for name, d, keys in nested:
            top = name.split()[-1]
            for key in keys:
                yield (f"{name}.{key}={value!r:.12}",
                       {**base, top: {**d, key: value}})


def test_config_sweep_builds_or_raises_cellpp_errors(tmp_path):
    # a pathological value gives a config, a pattern and the resolved
    # contrast of two curves, or a CellppError (or, for an unreadable
    # input path, an OSError: exit 3 on the command line); no case fits
    # or draws
    grid = RadiusGrid(np.linspace(0.0, 1.0, 21))
    path = tmp_path / "pts.csv"
    write_points_csv(path, np.random.default_rng(5).uniform(
        0.0, 1000.0, (150, 2)))
    base = {"input": str(path), "planar": True, "families": ["poisson"],
            "window": Rectangle(0.0, 1000.0, 0.0, 1000.0).to_dict()}
    projections = {
        "lambert-93": {"kind": "lambert-93"},
        "local-tangent": {"kind": "local-tangent", "origin_lon": 5.0,
                          "origin_lat": 50.0},
        "lambert-conformal-conic": {
            "kind": "lambert-conformal-conic", "origin_lon": 3.0,
            "origin_lat": 46.5, "std_parallel_1": 44.0,
            "std_parallel_2": 49.0}}
    assert set(projections) == set(_PROJECTION_KEYS)
    crashes, n = [], 0
    for label, config in sweep_configs(base, projections):
        n += 1
        try:
            config = PipelineConfig.from_dict(config)
            load_pattern(config)
            a, b = (SummaryCurve(grid, np.linspace(0.0, top, 21),
                                 config.cspec.statistic, "empirical")
                    for top in (2.0, 1.5))
            contrast(a, b, config.cspec.resolved(grid))
        except CellppError:
            pass
        except OSError:
            if not label.startswith("input="):
                crashes.append(f"{label}: OSError")
        except Exception as exc:
            crashes.append(f"{label}: {type(exc).__name__}: {exc}"[:120])
    assert n > 400
    assert not crashes, "\n".join(crashes)


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

    def test_overflowing_window_is_a_data_error(self):
        # finite points whose square's area, or centroid, overflows
        outlier = np.vstack([np.random.default_rng(8).uniform(size=(99, 2)),
                             [[1e300, 0.0]]])
        huge = np.repeat([[1.5e308, 1.5e308], [-1.5e308, -1.5e308]], 50,
                         axis=0)
        for pts, reason in ((outlier, "rectangle area must be finite"),
                            (huge, "rectangle bounds must be finite")):
            with pytest.raises(DataError, match=reason):
                auto_window(pts, min_points=80)


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

    def test_read_as_ingest_reads_a_registry(self, tmp_path):
        # semicolons, decimal commas (quoted when the delimiter is a
        # comma), and non-finite coordinates as rejects
        path = tmp_path / "pts.csv"
        path.write_text("x;y\n1,5;2\nnan;3\n4;-inf\n5;6e400\n7;8\n")
        pts, rejects = read_points_csv(path)
        assert pts.tolist() == [[1.5, 2.0], [7.0, 8.0]]
        assert [(r["line"], r["reason"]) for r in rejects] == [
            (3, "coordinate not finite"), (4, "coordinate not finite"),
            (5, "coordinate not finite")]
        path.write_text('x,y\n"1,5",2\n')
        assert read_points_csv(path)[0].tolist() == [[1.5, 2.0]]

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

    def test_originless_tangent_plane_centres_on_the_mean(self, tmp_path):
        # the origin is np.mean of the Python lists of kept lon and lat;
        # summed row by row, as lonlat.mean(axis=0) does, it can differ
        # in the last bit
        rng = np.random.default_rng(23)
        lon_list = (5.57 + rng.uniform(-0.3, 0.3, 500)).tolist()
        lat_list = (50.63 + rng.uniform(-0.3, 0.3, 500)).tolist()
        path = tmp_path / "registry.csv"
        path.write_text("id,lon,lat\n" + "".join(
            f"s{i},{lon!r},{lat!r}\n"
            for i, (lon, lat) in enumerate(zip(lon_list, lat_list))))
        points, info = load_points(PipelineConfig(
            input=str(path), projection={"kind": "local-tangent"}))
        want = project(np.column_stack([lon_list, lat_list]),
                       ProjectionSpec.local_tangent(np.mean(lon_list),
                                                    np.mean(lat_list)))
        assert info["n_projected"] == 500
        assert np.array_equal(points, want)

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
