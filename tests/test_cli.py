import csv
import json
from math import comb

import pytest

from satfd.cli import main
from satfd.constellation import load_bundled


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
    ], ids=["timestep_s=0", "dl_list=[0]", "magnitudes_m=[-5]", "fault_counts=[-1]",
            "fault_counts=[20]", "delta_nf=0"])
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

    def test_unparsable_experiment_rejected(self, tmp_path, capsys):
        exp = tmp_path / "exp.json"
        exp.write_text("{", encoding="utf-8")
        rc = main(["montecarlo", "--experiment", str(exp), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot read experiment config")

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


class TestConfigRoundTrip:
    def test_loaded_elfo_matches_paper_table(self):
        config = load_bundled("elfo_moon")
        assert config.satellites[0].a == 6142.4e3
        assert config.satellites[0].e == 0.6
