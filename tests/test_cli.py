import contextlib
import csv
import io
import json
import math
import os
import re
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

DATA = Path(__file__).resolve().parent / "data"


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


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """The model.json that train-predictor writes from TINY_TRAINING."""
    out = tmp_path_factory.mktemp("tiny_model")
    # Its "wrote" line is not the output of the test that first asks for it.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-predictor", "--config", "elfo_moon", "--out", str(out)]
                    + TINY_TRAINING) == 0
    calibration.MlpPredictor.load(out / "model.json")
    return out / "model.json"


# elfo_moon's orbital period: the span calibrate and an experiment count by default.
ELFO_PERIOD = load_bundled("elfo_moon").period


def step_refusal(step, span):
    """The one refusal of a step or span, cliques.epoch_count's."""
    return (f"need a finite step > 0 and a finite span of finitely many steps, "
            f"got step={step!r} s, span={span!r} s")


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

    def test_default_start_epochs(self, tmp_path):
        # Eleven epochs from t = 0, one array propagation.
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--t-end", "600"])
        assert rc == 0
        rows = read_csv(tmp_path / "positions.csv")[1:]
        assert len(rows) == 11 * 12
        assert [float(r[0]) for r in rows[::12]] == [60.0 * k for k in range(11)]

    # The span is t-end + 1e-9 - t-start: the grid keeps t <= t-end + 1e-9.
    @pytest.mark.parametrize("option, value, message", [
        ("--t-end", "inf", step_refusal(60.0, math.inf)),
        ("--t-start", "nan", step_refusal(60.0, math.nan)),
        ("--step", "nan", step_refusal(math.nan, 1e-9)),
        ("--step", "inf", step_refusal(math.inf, 1e-9)),
        ("--step", "0", step_refusal(0.0, 1e-9)),
        ("--t-start", "10", "need t-end >= t-start, got t-start=10.0, t-end=0.0"),
    ], ids=["--t-end-inf", "--t-start-nan", "--step-nan", "--step-inf", "--step-0",
            "--t-start-10"])
    def test_non_finite_span_refused(self, tmp_path, capsys, option, value, message):
        rc = main(["propagate", "--config", "elfo_moon", "--out", str(tmp_path), option, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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
        # At 2e20 floats are 32768 s apart, so a 1 s step would repeat epochs.
        ("1e20", "2e20", "1", "step 1.0 s is below the float spacing 32768.0 s at t = 2e+20, "
                              "so epochs would repeat"),
        # t-end - t-start overflows to inf, so the epoch count is not finite.
        ("-1e308", "1e308", "1e300", step_refusal(1e300, math.inf)),
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


    @pytest.mark.parametrize("config, message", [
        ({"body": 5, "satellites": []}, "'int' object is not subscriptable"),
        ({"body": {"name": "Moon", "mu_km3_s2": 4902.8, "radius_km": 1737.4}, "satellites": 5},
         "'int' object is not iterable"),
    ], ids=["body=5", "satellites=5"])
    def test_config_field_of_wrong_type_rejected(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc = main(["graph", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot load constellation config: {message}\n"
        assert not (tmp_path / "out").exists()


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
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"
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

    def test_thresholds_at_the_default_noise(self, tmp_path):
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--duration", "600"])
        assert rc == 0
        records = json.loads((tmp_path / "thresholds.json").read_text(encoding="utf-8"))
        assert records and all(0.0 < r["value"] < math.inf for r in records)

    def test_missing_config(self, tmp_path):
        rc = main(["calibrate", "--config", "nope.json", "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("step, message", [
        ("0", step_refusal(0.0, 120.0)),
        ("-60", step_refusal(-60.0, 120.0)),
        # 200 s exceeds the 120 s sampling window
        ("200", "need duration >= step, got step=200.0 s, duration=120.0 s"),
    ], ids=["0", "-60", "200"])
    def test_step_out_of_range_rejected(self, tmp_path, capsys, step, message):
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--duration", "120", "--step", step])
        assert rc != 0
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "thresholds.json").exists()

    def test_step_too_fine_for_memory_is_one_error_line(self, tmp_path, capsys):
        # A 1e-12 s grid over one period would take 307 PiB; numpy refuses
        # it with a MemoryError before allocating anything.
        rc = main(["calibrate", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--step", "1e-12"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
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

    @pytest.mark.parametrize("threshold, sigma_w", [
        pytest.param(["--threshold", "4.57e-7"], "1", id="threshold"),
        # Every clique is flagged, so the certificate must prove every vote it settles.
        pytest.param(["--threshold", "0"], "1", id="threshold-0"),
        # A clean clique's tail eigenvalues are near-degenerate, so the
        # certificate's margins decide which biased cliques it settles.
        pytest.param(["--threshold", "4.57e-7"], "0", id="sigma-w-0"),
        pytest.param(["--threshold", "4.57e-7"], "1e-8", id="sigma-w-1e-8"),
        # The unthresholded path: eigh on every clique, the features, the model.
        pytest.param(None, "1", id="model"),
    ])
    def test_fault_on_satellite_3(self, tmp_path, capsys, request, threshold, sigma_w):
        if threshold is None:
            threshold = ["--model", str(request.getfixturevalue("tiny_model"))]
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path), "--t0", "0",
                   "--fault-sats", "3", "--magnitude", "20", "--sigma-w", sigma_w,
                   "--dl", "3", "--seed", "0"] + threshold)
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["injected"] == [3]
        if threshold[0] == "--threshold":
            assert report["fault_list"] == [3]

    @pytest.mark.parametrize("magnitude, pinned", [
        ("20", "detect_sat3_20m.json"),  # fault list [3]
        ("1e7", "detect_sat3_1e7m.json"),  # four removals, [11, 7, 6, 8]
        ("1e10", "detect_sat3_1e10m.json"),  # nothing flagged, []
    ], ids=["20m", "1e7m", "1e10m"])
    def test_report_bytes_pinned(self, capsys, magnitude, pinned):
        # The whole report, votes_per_round included, byte for byte.
        rc = main(["detect", "--config", "elfo_moon", "--t0", "0", "--fault-sats", "3",
                   "--magnitude", magnitude, "--threshold", "4.6e-7", "--dl", "1", "--seed", "0"])
        assert rc == 0
        assert capsys.readouterr().out == (DATA / pinned).read_text(encoding="utf-8")

    def test_requires_threshold_or_model(self, tmp_path):
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path)])
        assert rc != 0

    def test_threshold_and_model_together_refused(self, tmp_path, capsys, monkeypatch):
        # One of the two would be dropped without a word, so neither runs.
        def schedule(*args, **kwargs):
            raise AssertionError("ran a detection with one of two thresholds")

        monkeypatch.setattr("satfd.cli.iter_schedule", schedule)
        model = tmp_path / "model.json"
        calibration.MlpPredictor.initialize(np.random.default_rng(0)).save(model)
        out = tmp_path / "out"
        rc = main(["detect", "--config", "elfo_moon", "--out", str(out), "--dump-ranges",
                   "--threshold", "4.6e-7", "--model", str(model)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need exactly one of --threshold and --model\n"
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("dl", [721, 100_000_000, 10**18])
    def test_window_longer_than_a_period_refused(self, tmp_path, capsys, monkeypatch, dl):
        def schedule(*args, **kwargs):
            raise AssertionError("propagated a window that is too long")

        monkeypatch.setattr("satfd.cli.iter_schedule", schedule)
        out = tmp_path / "out"
        rc = main(["detect", "--config", "elfo_moon", "--out", str(out), "--dump-ranges",
                   "--threshold", "4.6e-7", "--dl", str(dl)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid detector option: di (--dl) must not exceed one orbital period, "
            f"720 epochs of 60 s; got {dl}\n")
        assert captured.out == ""
        assert not out.exists()

    def test_window_of_one_period_accepted(self, tmp_path, capsys, monkeypatch):
        # The window rule is cliques.check_window; detect's window starts at
        # --t0 and steps by cliques.EPOCH_STEP.
        checked, grids = [], []
        original = satfd.cli.check_window

        def check_window(*args):
            checked.append(args)
            return original(*args)

        def schedule(config, times):
            grids.append(times)
            raise ValueError("stop before the detection")

        monkeypatch.setattr("satfd.cli.check_window", check_window)
        monkeypatch.setattr("satfd.cli.iter_schedule", schedule)
        rc = main(["detect", "--config", "elfo_moon", "--out", str(tmp_path),
                   "--threshold", "4.6e-7", "--t0", "30", "--dl", "720"])
        assert rc == 1
        assert capsys.readouterr().err == "error: stop before the detection\n"
        config = load_bundled("elfo_moon")
        assert checked == [(720, config.period, 60.0, "di (--dl)")]
        assert np.array_equal(grids[0], 30.0 + 60.0 * np.arange(720))

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


# Two scalar thresholds, both read by every trial's analysis.
TWO_VALUES = {"values": [{"label": "p95", "value": 3.58e-7},
                         {"label": "p99.9", "value": 5.86e-7}]}


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

    @pytest.mark.parametrize("overrides, threads, cells", [
        pytest.param({}, (2, 3, 16), 2, id="one-value"),
        # One trial runs in this process at any thread count, with no pool.
        pytest.param({"n_trials": 1}, (8,), 2, id="one-trial"),
        pytest.param({"thresholds": TWO_VALUES}, (2,), 4, id="two-values"),
        # Several fault configs stack into each epoch's one analysis call.
        pytest.param({"thresholds": TWO_VALUES, "fault_counts": [1, 2],
                      "magnitudes_m": [5.0, 20.0]}, (2,), 16, id="four-configs"),
        # 20 fault configs per epoch go through the keyed sharing of rows.
        pytest.param({"thresholds": TWO_VALUES, "fault_counts": [0, 1, 2, 3],
                      "magnitudes_m": [5.0, 8.0, 10.0, 15.0, 20.0], "dl_list": [1, 2, 3, 5],
                      "n_trials": 3}, (2,), 160, id="paper-grid"),
        pytest.param({"thresholds": "model", "n_trials": 3}, (2,), 2, id="model"),
    ])
    def test_results_do_not_depend_on_threads(self, tmp_path, request, overrides, threads,
                                              cells):
        # --threads 16 asks for more processes than there are trials or
        # CPUs: the pool never outgrows either.
        if overrides.get("thresholds") == "model":
            overrides = {**overrides,
                         "thresholds": {"model": str(request.getfixturevalue("tiny_model"))}}
        exp = self.experiment_file(tmp_path, **{"dl_list": [1, 3], "master_seed": 3,
                                                **overrides})
        tables = []
        for count in (1,) + threads:
            out = tmp_path / f"threads{count}"
            assert main(["montecarlo", "--experiment", str(exp), "--threads", str(count),
                         "--out", str(out)]) == 0
            tables.append((out / "results.csv").read_bytes())
        assert tables[1:] == tables[:1] * len(threads)
        assert tables[0].count(b"\n") == 1 + cells

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
        ("timestep_s", 0, step_refusal(0.0, ELFO_PERIOD)),
        ("dl_list", [0], "detection lengths"),
        ("magnitudes_m", [-5], "fault magnitude must be >= 0 and finite, got -5.0"),
        ("fault_counts", [-1], "fault counts"),
        ("fault_counts", [20], "fault counts"),
        ("delta_nf", 0, "delta_nf"),
        ("n_trials", 2.5, "n_trials must be an integer"),
        ("fault_counts", [1.7], "fault_counts must be an integer"),
        ("dl_list", [2.5], "dl_list must be an integer"),
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("sigma_w_m", -1, "sigma_w must be >= 0"),
        ("n_trials", "5", "n_trials must be an integer"),
        ("fault_counts", 5, "fault_counts must be an array, got 5"),
        ("thresholds", {"values": [{"value": 4.6e-7}]}, "missing field 'label'"),
        ("thresholds", {"values": [{"label": "a", "value": 3.58e-7},
                                   {"label": "a", "value": 5.86e-7}]},
         "threshold labels must be distinct, got ['a', 'a']"),
        ("thresholds", {"percentiles": [99.9, 99.90000001]},
         "threshold labels must be distinct, got ['p99.9', 'p99.9']"),
        ("fault_counts", [1, 2, 1], "fault counts (fault_counts) must be distinct, got [1, 2, 1]"),
        ("magnitudes_m", [5, 5.0],
         "fault magnitudes (magnitudes_m) must be distinct, got [5.0, 5.0]"),
        ("dl_list", [2, 2], "detection lengths (dl_list) must be distinct, got [2, 2]"),
        ("n_trials", 0, "n_trials must be >= 1"),
        ("sigma_w_m", math.nan, "sigma_w must be >= 0 and finite, got nan"),
        ("magnitudes_m", [math.inf], "fault magnitude must be >= 0 and finite, got inf"),
        ("timestep_s", math.nan, step_refusal(math.nan, ELFO_PERIOD)),
        ("timestep_s", math.inf, step_refusal(math.inf, ELFO_PERIOD)),
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
        ("dl_list", None, "dl_list must be an array, got None"),
        # One period would hold more epochs than a float can count.
        ("timestep_s", 1e-310, step_refusal(1e-310, ELFO_PERIOD)),
    ], ids=["timestep_s=0", "dl_list=[0]", "magnitudes_m=[-5]", "fault_counts=[-1]",
            "fault_counts=[20]", "delta_nf=0", "n_trials=2.5", "fault_counts=[1.7]",
            "dl_list=[2.5]", "master_seed=1.5", "sigma_w_m=-1", "n_trials='5'",
            "fault_counts=5", "values-without-label", "values-label-repeated",
            "percentiles-label-repeated", "fault_counts-repeated", "magnitudes_m-repeated",
            "dl_list-repeated", "n_trials=0", "sigma_w_m=NaN",
            "magnitudes_m=[Infinity]", "timestep_s=NaN", "timestep_s=Infinity", "values=[NaN]",
            "values=[-Infinity]", "n_trials=Infinity", "n_trials=NaN", "delta_nf=Infinity",
            "master_seed=-Infinity", "fault_counts=[Infinity]", "dl_list=[NaN]",
            "master_seed=-1", "dl_list=null", "timestep_s=1e-310"])
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

    @pytest.mark.parametrize("field", ["constellation", "sigma_w_m", "fault_counts",
                                       "magnitudes_m", "thresholds", "dl_list", "n_trials",
                                       "master_seed"])
    def test_missing_field_rejected(self, tmp_path, capsys, field):
        exp = self.experiment_file(tmp_path)
        raw = json.loads(exp.read_text(encoding="utf-8"))
        del raw[field]
        exp.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid experiment config: missing field {field!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("n_trials", True), ("fault_counts", [False])],
                             ids=["n_trials=true", "fault_counts=[false]"])
    def test_boolean_integer_rejected(self, tmp_path, capsys, field, value):
        # int(True) == True, so a JSON boolean passes an int() round trip.
        exp = self.experiment_file(tmp_path, **{field: value})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        shown = value if field == "n_trials" else value[0]
        assert captured.err == (
            f"error: invalid experiment config: {field} must be an integer, got {shown!r}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("sigma_w_m", True, "sigma_w_m must be a number, got True"),
        ("sigma_w_m", 10**400, "sigma_w_m must be a finite number: "
                               "int too large to convert to float"),
        ("magnitudes_m", [True], "magnitudes_m must be a number, got True"),
        ("timestep_s", "60", "timestep_s must be a number, got '60'"),
        ("delta_rf", "0.5", "delta_rf must be a number, got '0.5'"),
        ("thresholds", {"percentiles": ["99"]}, "percentiles must be a number, got '99'"),
        ("thresholds", {"values": [{"label": "x", "value": True}]},
         "threshold 'x' must be a number, got True"),
        ("magnitudes_m", "20", "magnitudes_m must be an array, got '20'"),
        ("fault_counts", {"1": 1}, "fault_counts must be an array, got {'1': 1}"),
        ("dl_list", "1", "dl_list must be an array, got '1'"),
        ("thresholds", {"percentiles": "99"}, "percentiles must be an array, got '99'"),
        ("thresholds", {"values": {"label": "x", "value": 4.6e-7}},
         "values must be an array, got {'label': 'x', 'value': 4.6e-07}"),
        ("thresholds", {"values": ["x"]}, "values entries must be objects, got 'x'"),
        ("timestep", 120, "unknown field 'timestep'"),
        ("delta_rff", 0.9, "unknown field 'delta_rff'"),
        ("thresholds", {"percentiles": [99], "values": []},
         "thresholds must be an object giving exactly one of 'percentiles', 'values' or "
         "'model', got {'percentiles': [99], 'values': []}"),
        ("thresholds", {"percentilez": [99]},
         "thresholds must be an object giving exactly one of 'percentiles', 'values' or "
         "'model', got {'percentilez': [99]}"),
        ("thresholds", "p99",
         "thresholds must be an object giving exactly one of 'percentiles', 'values' or "
         "'model', got 'p99'"),
        ("thresholds", {"model": 0}, "model must be a file path string, got 0"),
        ("thresholds", {"model": None}, "model must be a file path string, got None"),
    ], ids=["sigma_w_m=true", "sigma_w_m=1e400", "magnitudes_m=[true]", "timestep_s='60'",
            "delta_rf='0.5'", "percentiles=['99']", "value=true", "magnitudes_m='20'",
            "fault_counts={}", "dl_list='1'", "percentiles='99'", "values={}",
            "values=['x']", "timestep", "delta_rff", "percentiles+values", "percentilez",
            "thresholds='p99'", "model=0", "model=null"])
    def test_wrong_json_type_rejected(self, tmp_path, capsys, monkeypatch, field, value, message):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated an experiment file that failed its checks")

        monkeypatch.setattr(calibration, "sample_statistics", calibrate)
        exp = self.experiment_file(tmp_path, **{field: value})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid experiment config: {message}\n"
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

    @pytest.mark.parametrize("dl", [721, 100_000_000, 10**18])
    def test_window_longer_than_a_period_refused(self, tmp_path, capsys, monkeypatch, dl):
        def schedule(*args, **kwargs):
            raise AssertionError("propagated a campaign whose window is too long")

        monkeypatch.setattr(experiment, "build_clique_schedule", schedule)
        exp = self.experiment_file(tmp_path, dl_list=[1, dl])
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid experiment config: detection lengths (dl_list) must not exceed "
            f"one orbital period, 720 epochs of 60 s; got {dl}\n")
        assert not out.exists()

    def test_window_of_one_period_accepted(self, tmp_path, monkeypatch):
        # The window rule is cliques.check_window; the grid covers every
        # start epoch of the period and the last window's 719 more.
        checked, grids = [], []
        original = experiment.check_window

        def check_window(*args):
            checked.append(args)
            return original(*args)

        def schedule(config, times):
            grids.append(times)
            return ()

        monkeypatch.setattr(experiment, "check_window", check_window)
        monkeypatch.setattr(experiment, "build_clique_schedule", schedule)
        spec = experiment.ExperimentSpec.load(self.experiment_file(tmp_path, dl_list=[720, 1]))
        config = load_bundled("elfo_moon")
        assert checked == [(dl, config.period, 60.0, "detection lengths (dl_list)")
                           for dl in (1, 720)]
        assert spec.context.n_start_epochs == 720
        assert np.array_equal(grids[0], 60.0 * np.arange(720 + 719))

    def test_missing_model_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "nope.json"
        exp = self.experiment_file(tmp_path, thresholds={"model": str(model)})
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: cannot load threshold model: ")
        assert str(model) in err and err.count("\n") == 1
        assert not out.exists()

    def test_model_not_json_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{not json", encoding="utf-8")
        exp = self.experiment_file(tmp_path, thresholds={"model": str(model)})
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: invalid experiment config: cannot load threshold model: {model} is not JSON: ")

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
        def sample(*args, **kwargs):
            raise AssertionError("sampled an epoch before the step check")

        monkeypatch.setattr(calibration, "iter_schedule", sample)
        # elfo_moon's period is about 43,200 s, so a 50,000 s step leaves no
        # calibration epoch.
        exp = self.experiment_file(tmp_path, thresholds={"percentiles": [99]}, timestep_s=50000)
        out = tmp_path / "out"
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid experiment config: need duration >= step, "
            f"got step=50000.0 s, duration={ELFO_PERIOD!r} s\n")
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

    def test_report_missing_results_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["report", "--results", str(missing), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read results file: ")
        assert str(missing) in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_report_non_utf8_results_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfef\x00a\x00u\x00l\x00t\x00s\x00")
        rc = main(["report", "--results", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read results file: {bad} is not UTF-8: ")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert not (tmp_path / "out").exists()

    def test_report_to_a_closed_pipe_exits_without_traceback(self, tmp_path):
        # The reader of stdout is gone before the report writes its first
        # line (satfd report | head, with head done): exit 1, no traceback,
        # and no empty --out left behind.
        src = Path(satfd.__file__).resolve().parent.parent
        read, write = os.pipe()
        os.close(read)
        out = tmp_path / "out"
        try:
            result = subprocess.run(
                [sys.executable, "-m", "satfd.cli", "report", "--results",
                 str(Path(__file__).resolve().parent / "data" / "paper_elfo_slice_results.csv"),
                 "--out", str(out)],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(write)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr
        assert not out.exists()

    def test_report_single_row_echoes(self, tmp_path, capsys):
        exp = self.experiment_file(tmp_path)
        main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path)])
        capsys.readouterr()
        main(["report", "--results", str(tmp_path / "results.csv"), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        row = read_csv(tmp_path / "results.csv")[1]
        tpr = float(row[10])
        assert f"{tpr:.3f}" in out


# The error lines of a noisy range <= 0: in an epoch's range matrix, and in
# a training geometry's draws.
CLIQUE_RANGE = (r"clique \[[0-9, ]+\] has a range <= 0: the pair is unmeasured, or its "
                r"noise is larger than its range")
GEOMETRY_RANGE = (r"training geometry [0-9]+ \(clique \[[0-9, ]+\] at t=[0-9.e+-]+ s\) has a "
                  r"range <= 0: its noise is larger than its range")


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
        (["calibrate", "--duration", "inf"], step_refusal(60.0, math.inf)),
        (["calibrate", "--step", "nan"], step_refusal(math.nan, ELFO_PERIOD)),
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
        (["detect", "--t0", "0", "--fault-sats", "3", "--threshold", "4.6e-7", "--dl", "1",
          "--seed", "0", "--magnitude", "1e200"],
         "clique [1, 2, 3, 4, 5, 6] has a range whose square is not finite"),
        # The bias sum overflows to inf, and the range matrix reads it.
        (["detect", "--threshold", "4.6e-7", "--dl", "1", "--fault-sats", "3", "--magnitude",
          "1e308"], "clique [1, 2, 3, 4, 5, 6] has a range whose square is not finite"),
        # Noise draws beyond the float range are inf.
        (["calibrate", "--duration", "120", "--sigma-w", "1e308"],
         "clique [0, 5, 6, 7, 8, 9] has a range <= 0"),
        # One period at a subnormal step would hold more epochs than a float can count.
        (["calibrate", "--step", "5e-324"], step_refusal(5e-324, ELFO_PERIOD)),
        (["calibrate", "--step", "0"], step_refusal(0.0, ELFO_PERIOD)),
        (["calibrate", "--duration", "nan"], step_refusal(60.0, math.nan)),
        # ranging refuses a fault id: FaultConfig below 0, add_bias from n up.
        (["detect", "--threshold", "4.6e-7", "--fault-sats", "12", "--magnitude", "20"],
         "fault satellite ids must be in 0 .. 11, got 12"),
        (["detect", "--threshold", "4.6e-7", "--fault-sats=-1", "--magnitude", "20"],
         "fault satellite ids must be >= 0, got -1"),
        (["train-predictor", "--sigma-w", "-1"], "sigma_w must be >= 0"),
        (["train-predictor", "--lr", "nan"], "learning rate must be positive and finite"),
        (["detect", "--threshold", "nan", "--fault-sats", "1", "--magnitude", "20", "--dl", "3"],
         "invalid detector option: gamma_threshold must be finite, got nan"),
        # cliques.check_grid: floats are 16384 s apart at 1e20, so a window
        # on the 60 s step would judge one epoch three times.
        (["detect", "--t0", "1e20", "--fault-sats", "3", "--magnitude", "20", "--threshold",
          "4.57e-7", "--dl", "3", "--seed", "0", "--dump-ranges"],
         "step 60.0 s is below the float spacing 16384.0 s at t = 1e+20, "
         "so epochs would repeat"),
        # t + 1.5 != t at 1e16, but floats there are 2 s apart, so epochs repeat.
        (["propagate", "--t-start", "1e16", "--t-end", "10000000000000020", "--step", "1.5"],
         "step 1.5 s is below the float spacing 2.0 s at t = 1.000000000000002e+16, "
         "so epochs would repeat"),
        # constellation.propagate names the first epoch that is not finite.
        (["detect", "--t0", "nan", "--threshold", "4.6e-7", "--fault-sats", "3",
          "--magnitude", "20"], "epoch must be finite, got t=nan\n"),
        (["graph", "--t", "nan"], "epoch must be finite, got t=nan\n"),
        (["cliques", "--t", "inf"], "epoch must be finite, got t=inf\n"),
    ], ids=["detect-fault-sats-x", "detect-sigma-w", "calibrate-sigma-w", "detect-magnitude",
            "train-n-noise", "train-n-geometries", "calibrate-percentile-100",
            "detect-sigma-w-inf", "detect-sigma-w-nan", "detect-magnitude-inf",
            "train-sigma-w", "train-diverges", "calibrate-duration-inf", "calibrate-step-nan",
            "detect-threshold-nan", "detect-threshold-inf", "train-lr-nan", "train-lr-0",
            "train-epochs-negative", "detect-magnitude-1e200", "detect-magnitude-1e308",
            "calibrate-sigma-w-1e308", "calibrate-step-5e-324", "calibrate-step-0",
            "calibrate-duration-nan", "detect-fault-sats-12", "detect-fault-sats--1",
            "train-sigma-w-default-size",
            "train-lr-nan-default-size", "detect-threshold-nan-dl-3", "detect-t0-1e20",
            "propagate-t-start-1e16", "detect-t0-nan", "graph-t-nan", "cliques-t-inf"])
    def test_error_line_not_traceback(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = main(argv[:1] + ["--config", "elfo_moon", "--out", str(out)] + argv[1:])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["calibrate", "--duration", "120"],
        ["train-predictor"] + TINY_TRAINING,
        ["detect", "--threshold", "4.6e-7", "--dump-ranges"],
    ], ids=["calibrate", "train-predictor", "detect"])
    def test_negative_seed_refused_before_out(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv[:1] + ["--config", "elfo_moon", "--seed", "-1", "--out", str(out)]
                  + argv[1:])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, sigma_w, message", [
        pytest.param(["detect", "--t0", "0", "--fault-sats", "3", "--threshold", "4.6e-7",
                      "--dl", "1"], "1e8", CLIQUE_RANGE, id="detect"),
        pytest.param(["calibrate", "--duration", "120"], "1e8", CLIQUE_RANGE, id="calibrate"),
        pytest.param(["montecarlo"], "1e8", CLIQUE_RANGE, id="montecarlo"),
        pytest.param(["train-predictor"] + TINY_TRAINING, "1e8", GEOMETRY_RANGE,
                     id="train-predictor"),
        # Squares of such draws overflow: no warning, the same one line.
        pytest.param(["train-predictor"] + TINY_TRAINING, "1e200", GEOMETRY_RANGE,
                     id="train-predictor-1e200"),
    ])
    def test_noise_larger_than_a_range_is_one_error_line(self, tmp_path, capsys, argv,
                                                         sigma_w, message):
        # At sigma_w 1e8 m some noise draws exceed their ranges, which makes
        # those ranges <= 0: no clique reading them can be analysed, and no
        # training target solved.  calibrate, montecarlo and train-predictor
        # make --out before that: the directories a failed run made are
        # removed again, and one that was there before stays.
        if argv[0] == "montecarlo":
            exp = tmp_path / "exp.json"
            exp.write_text(json.dumps({
                "constellation": "elfo_moon", "sigma_w_m": float(sigma_w), "fault_counts": [1],
                "magnitudes_m": [20.0], "thresholds": {"values": [{"label": "p99", "value": 4.6e-7}]},
                "dl_list": [1], "n_trials": 2, "master_seed": 11,
            }), encoding="utf-8")
            argv = argv + ["--experiment", str(exp)]
        else:
            argv = argv[:1] + ["--config", "elfo_moon", "--sigma-w", sigma_w] + argv[1:]
        before = sorted(tmp_path.iterdir())
        rc = main(argv + ["--out", str(tmp_path / "made" / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert re.fullmatch(f"error: {message}\n", captured.err)
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(argv + ["--out", str(kept)]) == 1
        assert kept.is_dir()

    @pytest.mark.parametrize("argv, message", [
        (["--n-geometries", "0"], "empty training set: n_geometries must be >= 1, got 0"),
        (["--n-geometries", "-5"], "empty training set: n_geometries must be >= 1, got -5"),
        (["--n-noise", "299"], "n_noise must be >= 300 to resolve the 99.7 percentile, got 299"),
    ], ids=["n-geometries-0", "n-geometries-negative", "n-noise-299"])
    def test_training_size_refused_before_out(self, tmp_path, capsys, monkeypatch, argv,
                                              message):
        def never(*args, **kwargs):
            raise AssertionError("build_training_set ran before the training size was checked")

        monkeypatch.setattr(calibration, "build_training_set", never)
        out = tmp_path / "out"
        rc = main(["train-predictor", "--config", "elfo_moon", "--out", str(out)] + argv)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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


class TestTrainPredictor:
    @pytest.mark.parametrize("argv", [
        pytest.param(TINY_TRAINING, id="tiny"),
        # With no noise the target screen can rule no draw out: every draw is solved.
        pytest.param(["--sigma-w", "0", "--n-geometries", "5", "--n-noise", "300",
                      "--epochs", "1"], id="sigma-w-0"),
        # At 10 nm the draws differ by about the rounding of their squared
        # ranges, so the screen's rounding allowance decides what is solved.
        pytest.param(["--sigma-w", "1e-8", "--n-geometries", "5", "--n-noise", "300",
                      "--epochs", "1"], id="sigma-w-1e-8"),
        # A block of 2,000 draws holds 4 geometries, so the last of 9 is partial.
        pytest.param(["--n-geometries", "9", "--n-noise", "2000", "--epochs", "1"],
                     id="partial-block"),
    ])
    def test_writes_a_model(self, tmp_path, argv):
        rc = main(["train-predictor", "--config", "elfo_moon", "--out", str(tmp_path)] + argv)
        assert rc == 0
        calibration.MlpPredictor.load(tmp_path / "model.json")


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
        self.assert_error_line(
            capsys, rc, "invalid experiment config: no cliques over the entire sampling window")


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
