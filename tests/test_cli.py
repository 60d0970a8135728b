import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from math import comb
from pathlib import Path

import numpy as np
import pytest

import satfd
from satfd import calibration, experiment
from satfd.cli import SUBCOMMANDS, build_parser, main
from satfd.constellation import load_bundled, propagate


def incomplete_models():
    """(model file object, error message): one file that lacks a field, one
    that lacks a field after a mistyped one, and one whose only fault is a
    mistyped field."""
    head = {"format": "satfd-mlp", "version": 1}
    full = calibration.MlpPredictor.initialize(np.random.default_rng(0)).to_dict()
    nan_weight = calibration.MlpPredictor.initialize(np.random.default_rng(0)).to_dict()
    nan_weight["weights"][1][0][0] = math.nan
    zero_std = {**full, "x_std": [0.0] * calibration.FEATURE_DIM}
    return [
        pytest.param(head, "model file has no field 'dims'", id="no-dims"),
        pytest.param({**head, "dims": full["dims"], "weights": 5},
                     "model file has no field 'biases'", id="no-biases"),
        pytest.param({**full, "weights": 5}, "model field 'weights' is not a list of 3 layers",
                     id="weights-not-a-list"),
        # What train-predictor --lr nan wrote: such a model flags nothing.
        pytest.param(nan_weight, "model field 'weights[1]' holds a non-finite value",
                     id="nan-weight"),
        # predict divides by x_std: every threshold would be NaN or infinite.
        pytest.param(zero_std, "model field 'x_std' holds a zero or negative value",
                     id="zero-x-std"),
    ]


# The smallest train-predictor run: 20 geometries, 300 noise draws, 1 epoch.
TINY_TRAINING = ["--n-geometries", "20", "--n-noise", "300", "--epochs", "1"]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestPropagate:
    def test_single_epoch_row_count(self, tmp_path):
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t-start", "0", "--t-end", "0"])
        assert rc == 0
        rows = read_csv(tmp_path / "positions.csv")
        assert rows[0] == ["t", "sat_id", "x_m", "y_m", "z_m"]
        assert len(rows) == 1 + 12
        # the plane-1 satellite sits at perilune radius at t = 0
        x, y, z = (float(v) for v in rows[1][2:])
        assert (x * x + y * y + z * z) ** 0.5 == pytest.approx(2456.96e3)

    def test_step_larger_than_span(self, tmp_path):
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t-start", "0", "--t-end", "100", "--step", "500"])
        assert rc == 0
        assert len(read_csv(tmp_path / "positions.csv")) == 1 + 12

    @pytest.mark.parametrize("option, value", [
        ("--t-end", "inf"), ("--t-start", "nan"), ("--step", "nan"), ("--step", "inf"),
    ])
    def test_non_finite_span_refused(self, tmp_path, capsys, option, value):
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path), option, value])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: need step > 0 and t-end >= t-start, all finite\n")
        assert not (tmp_path / "positions.csv").exists()

    def test_integer_grid_epochs(self, tmp_path):
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t-start", "-120", "--t-end", "600", "--step", "60"])
        assert rc == 0
        rows = read_csv(tmp_path / "positions.csv")[1:]
        assert [float(r[0]) for r in rows[::12]] == [60.0 * k for k in range(-2, 11)]
        config = load_bundled("elfo_moon")
        for t, block in zip(range(-120, 601, 60), range(0, len(rows), 12)):
            want = propagate(config, float(t))
            got = [[float(v) for v in r[2:]] for r in rows[block:block + 12]]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("t_start, t_end, step, message", [
        # At 1e20 a 1 s step is below half an ulp: t + step == t.
        ("1e20", "2e20", "1", "step 1.0 does not advance t at 1e+20"),
        # t-end - t-start overflows to inf, so the epoch count is not finite.
        ("-1e308", "1e308", "1e300", "need step > 0 and t-end >= t-start, all finite"),
    ], ids=["step-below-ulp", "span-overflows"])
    def test_grid_without_end_refused(self, tmp_path, t_start, t_end, step, message):
        # Run in a subprocess with a timeout, so a grid that never ends fails
        # the test instead of stalling the suite.
        src = Path(satfd.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "satfd.cli", "propagate", "--config", "elfo_moon",
             f"--t-start={t_start}", "--t-end", t_end, "--step", step, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "positions.csv").exists()

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        rc = main(["propagate", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path)])
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestGraphAndCliques:
    def test_graph_edges(self, tmp_path):
        rc = main(["graph", "--config", "elfo_moon", "--out", str(tmp_path), "--t", "0"])
        assert rc == 0
        rows = read_csv(tmp_path / "edges.csv")
        assert rows[0] == ["t", "i", "j"]
        assert len(rows) > 1

    def test_clique_outputs(self, tmp_path):
        rc = main(["cliques", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t", "0", "--k", "6"])
        assert rc == 0
        cliques = read_csv(tmp_path / "cliques.csv")
        assert cliques[0] == ["t", "v0", "v1", "v2", "v3", "v4", "v5"]
        assert len(cliques) == 1 + 463
        counts = {int(r[0]): int(r[1]) for r in read_csv(tmp_path / "clique_counts.csv")[1:]}
        # the perilune satellite is nearly unmonitored at t=0
        assert counts[0] == min(counts.values()) == 1

    def test_k_larger_than_n_empty_ok(self, tmp_path):
        rc = main(["cliques", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t", "0", "--k", "13"])
        assert rc == 0
        assert len(read_csv(tmp_path / "cliques.csv")) == 1

    def test_k_below_one_rejected(self, tmp_path, capsys):
        rc = main(["cliques", "--config", "elfo_moon", "--out", str(tmp_path), "--k", "0"])
        assert rc != 0
        assert "error: need k >= 1" in capsys.readouterr().err
        assert not (tmp_path / "cliques.csv").exists()

    def test_synthetic_complete_graph_binomial(self, tmp_path):
        # far cluster: all links visible
        cfg = {
            "body": {"name": "Pebble", "mu_km3_s2": 4902.8, "radius_km": 1.0},
            "satellites": [
                {"a_km": 20000.0 + 10 * k, "e": 0.0, "i_deg": 1.0 * k,
                 "raan_deg": 5.0 * k, "argp_deg": 0.0, "M0_deg": 3.0 * k}
                for k in range(8)
            ],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["cliques", "--config", str(path), "--out", str(tmp_path),
                   "--t", "0", "--k", "6"])
        assert rc == 0
        assert len(read_csv(tmp_path / "cliques.csv")) == 1 + comb(8, 6)


class TestCalibrate:
    def test_noiseless_thresholds_tiny(self, tmp_path):
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--sigma-w", "0", "--duration", "120", "--percentiles", "95,99"])
        assert rc == 0
        records = json.loads((tmp_path / "thresholds.json").read_text(encoding="utf-8"))
        assert len(records) == 2
        assert all(r["value"] <= 1e-10 for r in records)

    def test_missing_config(self, tmp_path):
        rc = main(["calibrate", "--config", "nope.json", "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("step", ["0", "-60", "200"])
    def test_step_out_of_range_rejected(self, tmp_path, capsys, step):
        # 200 s exceeds the 120 s sampling window
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--duration", "120", "--step", step])
        assert rc != 0
        assert "error: need step > 0" in capsys.readouterr().err
        assert not (tmp_path / "thresholds.json").exists()

    def test_percentiles_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the percentile check")

        monkeypatch.setattr(calibration, "sample_statistics", sample)
        out = tmp_path / "out"
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(out),
                   "--percentiles", "99,100"])
        assert rc == 1
        assert capsys.readouterr().err == "error: percentile must be in (0, 100)\n"
        assert not out.exists()


class TestDetect:
    def test_detects_injected_fault(self, tmp_path, capsys):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t0", "3600", "--fault-sats", "5", "--magnitude", "20",
                   "--threshold", "4.6e-7", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["injected"] == [5]
        assert 5 in report["fault_list"]

    def test_requires_threshold_or_model(self, tmp_path):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("option, value, name", [
        ("--dl", "0", "di"),
        ("--delta-nf", "0", "delta_nf"),
        ("--delta-rf", "1", "delta_rf"),
        ("--delta-rf", "0", "delta_rf"),
    ])
    def test_detector_option_out_of_range_rejected(self, tmp_path, capsys, option, value, name):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--threshold", "4.6e-7", option, value])
        assert rc != 0
        captured = capsys.readouterr()
        assert f"error: invalid detector option: {name}" in captured.err
        assert captured.out == ""

    def test_range_dump(self, tmp_path, capsys):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t0", "0", "--threshold", "4.6e-7", "--dump-ranges"])
        assert rc == 0
        rows = read_csv(tmp_path / "ranges.csv")
        assert rows[0] == ["t", "i", "j", "range_m"]
        assert len(rows) > 1
        assert float(rows[1][3]) > 0.0


    def test_missing_model_rejected(self, tmp_path, capsys):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--model", str(tmp_path / "nope.json")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load threshold model: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["[1]", "5", '"x"'], ids=["list", "int", "str"])
    def test_model_not_an_object_rejected(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path / "out"),
                   "--model", str(model), "--dump-ranges"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: not a satfd-mlp v1 model file\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [model]

    @pytest.mark.parametrize("raw, message", incomplete_models())
    def test_incomplete_model_rejected(self, tmp_path, capsys, raw, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw), encoding="utf-8")
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path / "out"),
                   "--model", str(model), "--dump-ranges"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [model]

    @pytest.mark.parametrize("argv", [
        ["detect", "--config", "elfo_moon", "--threshold", "4.6e-7", "--dump-ranges"],
        ["cliques", "--config", "elfo_moon"],
    ], ids=["detect", "cliques"])
    def test_uncreatable_out_rejected(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        rc = main(argv + ["--out", str(blocker / "sub")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot create output directory: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [blocker]


class TestMonteCarloAndReport:
    def experiment_file(self, tmp_path, **overrides):
        raw = {
            "constellation": "elfo_moon",
            "sigma_w_m": 1.0,
            "fault_counts": [1],
            "magnitudes_m": [20.0],
            "thresholds": {"values": [{"label": "p99", "value": 4.6e-7}]},
            "dl_list": [1],
            "n_trials": 5,
            "master_seed": 11,
        }
        raw.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_campaign_and_report(self, tmp_path, capsys):
        exp = self.experiment_file(tmp_path)
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path)])
        assert rc == 0
        results = tmp_path / "results.csv"
        rows = read_csv(results)
        assert len(rows) == 2  # header + one cell
        capsys.readouterr()

        rc = main(["report", "--results", str(results), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tpr" in out and "p99" in out
        series = read_csv(tmp_path / "report_tpr_faults1.csv")
        assert series[0] == ["magnitude_m", "p99_dl1"]
        assert float(series[1][0]) == 20.0

    def test_same_seed_byte_identical(self, tmp_path):
        exp = self.experiment_file(tmp_path)
        main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "a")])
        main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        exp = self.experiment_file(tmp_path)
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path),
                   "--threads", threads])
        assert rc != 0
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_unread_options_not_accepted(self, tmp_path):
        exp = self.experiment_file(tmp_path)
        with pytest.raises(SystemExit):
            main(["montecarlo", "--experiment", str(exp), "--seed", "3"])
        with pytest.raises(SystemExit):
            main(["propagate", "--config", "elfo_moon", "--threads", "2"])

    def test_empty_grid_rejected(self, tmp_path):
        exp = self.experiment_file(tmp_path, magnitudes_m=[])
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("field, value, reason", [
        ("timestep_s", 0, "timestep"),
        ("dl_list", [0], "detection lengths"),
        ("magnitudes_m", [-5], "magnitudes"),
        ("fault_counts", [-1], "fault counts"),
        ("fault_counts", [20], "fault counts"),
        ("delta_nf", 0, "delta_nf"),
        ("n_trials", 2.5, "n_trials must be an integer"),
        ("fault_counts", [1.7], "fault_counts must be an integer"),
        ("dl_list", [2.5], "dl_list must be an integer"),
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("sigma_w_m", -1, "sigma_w must be >= 0"),
        ("n_trials", "5", "n_trials must be an integer"),
        ("fault_counts", 5, "not iterable"),
        ("thresholds", {"values": [{"value": 4.6e-7}]}, "missing field 'label'"),
        ("sigma_w_m", math.nan, "sigma_w must be >= 0 and finite, got nan"),
        ("magnitudes_m", [math.inf], "fault magnitudes must be >= 0 and finite"),
        ("timestep_s", math.nan, "timestep must be > 0 and finite, got nan"),
        ("timestep_s", math.inf, "timestep must be > 0 and finite, got inf"),
        ("thresholds", {"values": [{"label": "p99", "value": math.nan}]},
         "threshold 'p99' must be finite, got nan"),
        ("thresholds", {"values": [{"label": "a", "value": 4.6e-7},
                                   {"label": "b", "value": -math.inf}]},
         "threshold 'b' must be finite, got -inf"),
        ("n_trials", math.inf, "n_trials must be an integer, got inf"),
        ("n_trials", math.nan, "n_trials must be an integer, got nan"),
        ("delta_nf", math.inf, "delta_nf must be an integer, got inf"),
        ("master_seed", -math.inf, "master_seed must be an integer, got -inf"),
        ("fault_counts", [math.inf], "fault_counts must be an integer, got inf"),
        ("dl_list", [math.nan], "dl_list must be an integer, got nan"),
        ("master_seed", -1, "master_seed must be >= 0"),
    ], ids=["timestep_s=0", "dl_list=[0]", "magnitudes_m=[-5]", "fault_counts=[-1]",
            "fault_counts=[20]", "delta_nf=0", "n_trials=2.5", "fault_counts=[1.7]",
            "dl_list=[2.5]", "master_seed=1.5", "sigma_w_m=-1", "n_trials='5'",
            "fault_counts=5", "values-without-label", "sigma_w_m=NaN",
            "magnitudes_m=[Infinity]", "timestep_s=NaN", "timestep_s=Infinity", "values=[NaN]",
            "values=[-Infinity]", "n_trials=Infinity", "n_trials=NaN", "delta_nf=Infinity",
            "master_seed=-Infinity", "fault_counts=[Infinity]", "dl_list=[NaN]",
            "master_seed=-1"])
    def test_out_of_range_experiment_rejected(self, tmp_path, capsys, field, value, reason):
        exp = self.experiment_file(tmp_path, **{field: value})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid experiment config: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("name", [5, None], ids=["int", "null"])
    def test_non_string_constellation_rejected(self, tmp_path, capsys, name):
        exp = self.experiment_file(tmp_path, constellation=name)
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load constellation config: ")
        assert err.count("\n") == 1

    def test_grid_checked_before_calibrating(self, tmp_path, capsys, monkeypatch):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before the range checks")

        monkeypatch.setattr(calibration, "sample_statistics", calibrate)
        exp = self.experiment_file(tmp_path, thresholds={"percentiles": [99]}, dl_list=[0])
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: detection lengths")

    def test_percentiles_checked_before_calibrating(self, tmp_path, capsys, monkeypatch):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before the percentile check")

        monkeypatch.setattr(calibration, "sample_statistics", calibrate)
        exp = self.experiment_file(tmp_path, thresholds={"percentiles": [99, 100]})
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid experiment config: percentile must be in (0, 100)\n")

    def test_calibration_step_checked_before_out(self, tmp_path, capsys, monkeypatch):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before the step check")

        monkeypatch.setattr(calibration, "sample_statistics", calibrate)
        # elfo_moon's period is about 43,200 s, so a 50,000 s step leaves no
        # calibration epoch.
        exp = self.experiment_file(tmp_path, thresholds={"percentiles": [99]}, timestep_s=50000)
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid experiment config: need step > 0 and duration >= step\n")
        assert not out.exists()

    def test_percentile_thresholds_from_calibration(self, tmp_path, monkeypatch):
        sample = calibration.StatisticSample(
            values=np.linspace(0.0, 1e-6, 101), constellation="Moon", sigma_w=1.0)
        monkeypatch.setattr(calibration, "sample_statistics", lambda *a, **kw: sample)
        exp = self.experiment_file(tmp_path, thresholds={"percentiles": [50, 99]})
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "results.csv")[1:]
        assert [(r[2], float(r[3])) for r in rows] == [
            ("p50", calibration.percentile(sample, 50)),
            ("p99", calibration.percentile(sample, 99)),
        ]

    @pytest.mark.parametrize("text", ["[1]", "5", '"x"'], ids=["list", "int", "str"])
    def test_model_not_an_object_rejected(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        exp = self.experiment_file(tmp_path, thresholds={"model": str(model)})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: invalid experiment config: not a satfd-mlp v1 model file\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", incomplete_models())
    def test_incomplete_model_rejected(self, tmp_path, capsys, raw, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw), encoding="utf-8")
        exp = self.experiment_file(tmp_path, thresholds={"model": str(model)})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid experiment config: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unparsable_experiment_rejected(self, tmp_path, capsys):
        exp = tmp_path / "exp.json"
        exp.write_text("{", encoding="utf-8")
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot read experiment config")

    @pytest.mark.parametrize("text, kind", [("5", "int"), ("[1, 2]", "list"), ('"x"', "str")])
    def test_experiment_not_an_object_rejected(self, tmp_path, capsys, text, kind):
        exp = tmp_path / "exp.json"
        exp.write_text(text, encoding="utf-8")
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: invalid experiment config: {exp} must be a JSON object, not {kind}\n")
        assert not (tmp_path / "out").exists()

    def test_report_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        rc = main(["report", "--results", str(bad), "--out", str(tmp_path)])
        assert rc != 0

    def test_report_single_row_echoes(self, tmp_path, capsys):
        exp = self.experiment_file(tmp_path)
        main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path)])
        capsys.readouterr()
        main(["report", "--results", str(tmp_path / "results.csv"), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        row = read_csv(tmp_path / "results.csv")[1]
        tpr = float(row[10])
        assert f"{tpr:.3f}" in out


class TestLibraryValueErrors:
    @pytest.mark.parametrize("argv, message", [
        (["detect", "--threshold", "4.6e-7", "--fault-sats", "x"],
         "--fault-sats takes comma-separated ids, not 'x'"),
        (["detect", "--threshold", "4.6e-7", "--sigma-w", "-1"], "sigma_w must be >= 0"),
        (["calibrate", "--duration", "120", "--sigma-w", "-1"], "sigma_w must be >= 0"),
        (["detect", "--threshold", "4.6e-7", "--magnitude", "-5", "--fault-sats", "1"],
         "fault magnitude must be >= 0"),
        (["train-predictor", "--n-noise", "100"], "n_noise must be >= 300"),
        (["train-predictor", "--n-geometries", "0"], "empty training set"),
        (["calibrate", "--duration", "120", "--percentiles", "100"],
         "percentile must be in (0, 100)"),
        (["detect", "--threshold", "4.6e-7", "--sigma-w", "inf"],
         "sigma_w must be >= 0 and finite, got inf"),
        (["detect", "--threshold", "4.6e-7", "--sigma-w", "nan"],
         "sigma_w must be >= 0 and finite, got nan"),
        (["detect", "--threshold", "4.6e-7", "--magnitude", "inf", "--fault-sats", "1"],
         "fault magnitude must be >= 0 and finite, got inf"),
        (["train-predictor", "--sigma-w", "-1"] + TINY_TRAINING, "sigma_w must be >= 0"),
        (["train-predictor", "--lr", "1e30", "--n-geometries", "20", "--n-noise", "300",
          "--epochs", "3"], "training loss is not finite"),
        (["calibrate", "--duration", "inf"],
         "need step > 0 and duration >= step, both finite; got step=60.0, duration=inf"),
        (["calibrate", "--step", "nan"], "need step > 0 and duration >= step, both finite"),
        (["detect", "--threshold", "nan", "--fault-sats", "1", "--magnitude", "20"],
         "invalid detector option: gamma_threshold must be finite, got nan"),
        (["detect", "--threshold", "inf"],
         "invalid detector option: gamma_threshold must be finite, got inf"),
        (["train-predictor", "--lr", "nan"] + TINY_TRAINING,
         "learning rate must be positive and finite, got nan"),
        (["train-predictor", "--lr", "0"] + TINY_TRAINING,
         "learning rate must be positive and finite, got 0.0"),
        (["train-predictor", "--n-geometries", "20", "--n-noise", "300", "--epochs", "-3"],
         "epochs must be >= 1, got -3"),
    ], ids=["detect-fault-sats-x", "detect-sigma-w", "calibrate-sigma-w", "detect-magnitude",
            "train-n-noise", "train-n-geometries", "calibrate-percentile-100",
            "detect-sigma-w-inf", "detect-sigma-w-nan", "detect-magnitude-inf",
            "train-sigma-w", "train-diverges", "calibrate-duration-inf", "calibrate-step-nan",
            "detect-threshold-nan", "detect-threshold-inf", "train-lr-nan", "train-lr-0",
            "train-epochs-negative"])
    def test_error_line_not_traceback(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = main(argv[:1] + ["--config", "elfo_moon", "--out", str(out)] + argv[1:])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (out.exists() and any(out.iterdir()))


    def test_learning_rate_checked_before_the_training_set(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("build_training_set ran before --lr was checked")

        monkeypatch.setattr(calibration, "build_training_set", never)
        rc = main(["train-predictor", "--config", "elfo_moon", "--lr", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: learning rate must be positive and finite, got -1.0\n")
        assert not (tmp_path / "out").exists()

    def test_epochs_checked_before_the_training_set(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("build_training_set ran before --epochs was checked")

        monkeypatch.setattr(calibration, "build_training_set", never)
        rc = main(["train-predictor", "--config", "elfo_moon", "--epochs", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: epochs must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()


# The subcommands as the top-level usage line lists them.
EVERY_SUBCOMMAND = "{propagate,graph,cliques,calibrate,train-predictor,detect,montecarlo,report}"


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert EVERY_SUBCOMMAND in out
        for name in EVERY_SUBCOMMAND.strip("{}").split(","):
            assert f"\n    {name} " in out

    def test_usage_of_a_bad_option_lists_every_subcommand(self, capsys):
        # Only the detect parser is built, yet the top-level usage names all.
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", "elfo_moon", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: satfd [-h]\n")
        assert EVERY_SUBCOMMAND in err
        assert err.endswith("satfd: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_one_subcommand_parser_prints_what_the_full_parser_prints(self, capsys, name):
        texts = []
        for parser in (build_parser(), build_parser(name)):
            texts.append(parser.format_usage())
            for argv in ([name, "--help"], [name, "--bogus"],
                         [name, "--config", "x", "--experiment", "x", "--results", "x", "-z"]):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                captured = capsys.readouterr()
                texts.append((exc.value.code, captured.out, captured.err))
        half = len(texts) // 2
        assert texts[:half] == texts[half:]


class TestCliqueLessConstellation:
    """A constellation with no 6-cliques gives one error line, not a traceback."""

    @pytest.fixture
    def five_sats(self, tmp_path):
        bundled = resources.files("satfd.configs").joinpath("elfo_moon.json")
        raw = json.loads(bundled.read_text(encoding="utf-8"))
        raw["satellites"] = raw["satellites"][:5]
        path = tmp_path / "five_sats.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    @staticmethod
    def assert_error_line(capsys, rc, message):
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_calibrate(self, tmp_path, capsys, five_sats):
        rc = main(["calibrate", "--config", five_sats, "--duration", "600",
                   "--out", str(tmp_path / "out")])
        self.assert_error_line(capsys, rc, "no cliques over the entire sampling window")

    def test_train_predictor(self, tmp_path, capsys, five_sats):
        rc = main(["train-predictor", "--config", five_sats, "--out", str(tmp_path / "out")]
                  + TINY_TRAINING)
        self.assert_error_line(capsys, rc, "constellation has no 6-cliques on the sampling grid")

    def test_percentile_montecarlo(self, tmp_path, capsys, five_sats):
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "constellation": five_sats, "sigma_w_m": 1.0, "fault_counts": [1],
            "magnitudes_m": [20.0], "thresholds": {"percentiles": [99]},
            "dl_list": [1], "n_trials": 2, "master_seed": 11,
        }), encoding="utf-8")
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        self.assert_error_line(capsys, rc, "no cliques over the entire sampling window")


class TestOutputDirectoryBeforeWork:
    """An --out that cannot be created is reported before the command's work."""

    @pytest.fixture
    def forbid(self, monkeypatch):
        def forbid(module, name):
            def never(*args, **kwargs):
                raise AssertionError(f"{name} ran before the output directory was created")

            monkeypatch.setattr(module, name, never)
        return forbid

    @staticmethod
    def assert_refused(tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        rc = main(argv + ["--out", str(blocker / "sub")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot create output directory: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_calibrate(self, tmp_path, capsys, forbid):
        forbid(calibration, "sample_statistics")
        self.assert_refused(tmp_path, capsys, ["calibrate", "--config", "elfo_moon"])

    def test_train_predictor(self, tmp_path, capsys, forbid):
        forbid(calibration, "build_training_set")
        self.assert_refused(tmp_path, capsys, ["train-predictor", "--config", "elfo_moon"])

    def test_montecarlo(self, tmp_path, capsys, forbid):
        forbid(calibration, "sample_statistics")
        forbid(experiment, "run_campaign")
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "constellation": "elfo_moon", "sigma_w_m": 1.0, "fault_counts": [1],
            "magnitudes_m": [20.0], "thresholds": {"percentiles": [99]},
            "dl_list": [1], "n_trials": 5, "master_seed": 11,
        }), encoding="utf-8")
        self.assert_refused(tmp_path, capsys, ["montecarlo", "--experiment", str(exp)])


class TestConfigRoundTrip:
    def test_loaded_elfo_matches_paper_table(self):
        config = load_bundled("elfo_moon")
        assert config.satellites[0].a == 6142.4e3
        assert config.satellites[0].e == 0.6
