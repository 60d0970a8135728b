"""What ``import satfd`` and each command load.

The package namespace is lazy, and each subcommand imports only what it
runs, so the module-loading tests run in fresh interpreters: the test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import satfd
from satfd import calibration
from satfd.results import RESULT_COLUMNS

SRC = Path(satfd.__file__).resolve().parent.parent

# The names `from satfd import *` gives, each with its home module.
EXPORTS = {
    "constellation": ["BodyParams", "ConstellationConfig", "OrbitalElements", "load_bundled",
                      "load_config", "orbital_period", "propagate", "solve_kepler"],
    "linkgraph": ["VisibilityGraph", "build_visibility_graph", "line_of_sight"],
    "cliques": ["build_clique_schedule", "list_k_cliques"],
    "ranging": ["FaultConfig", "RangeMatrix", "measure_ranges"],
    "edm": ["analyze_clique_batch", "build_edm", "geometric_center"],
    "detector": ["DetectionOutcome", "DetectorParams", "VoteState", "detect_faults"],
    "calibration": ["MlpPredictor", "StatisticSample", "build_training_set", "percentile",
                    "sample_statistics", "train_predictor"],
    "experiment": ["CampaignContext", "ConfusionCounts", "ExperimentGrid", "MetricSet",
                   "ThresholdSpec", "compute_metrics", "run_campaign"],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules after code runs in a fresh interpreter."""
    script = textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def run_main(argv: list[str]) -> str:
    """Code that runs satfd.cli.main(argv) and requires it to succeed."""
    return f"""
        import contextlib, io
        from satfd.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
    """


class TestNamespace:
    def test_all_is_the_exported_names(self):
        assert sorted(satfd.__all__) == sorted(name for _, name in HOMES)
        assert len(satfd.__all__) == len(set(satfd.__all__))

    @pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
    def test_name_is_its_home_module_object(self, module, name):
        home = getattr(satfd, module)
        assert home.__name__ == f"satfd.{module}"
        assert getattr(satfd, name) is getattr(home, name)

    def test_star_import(self):
        namespace = {}
        exec("from satfd import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(satfd.__all__)
        for module, name in HOMES:
            assert namespace[name] is getattr(sys.modules[f"satfd.{module}"], name)

    def test_dir_lists_names_and_submodules(self):
        assert set(satfd.__all__) | set(EXPORTS) | {"cli", "results", "seeds"} <= set(dir(satfd))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'satfd' has no attribute 'no_such_name'"):
            satfd.no_such_name

    def test_replaced_binding_is_what_the_package_returns(self, monkeypatch):
        # Nothing is copied into the package, so a wrapper installed in the
        # home module is returned while it is there, and the original after.
        original = satfd.list_k_cliques

        def wrapper(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(satfd.cliques, "list_k_cliques", wrapper)
        assert satfd.list_k_cliques is wrapper
        monkeypatch.undo()
        assert satfd.list_k_cliques is original
        assert "list_k_cliques" not in vars(satfd)


class TestWhatIsLoaded:
    """Each check runs in a fresh interpreter."""

    def test_import_satfd_loads_no_submodule(self):
        loaded = loaded_after("import satfd")
        assert "satfd" in loaded
        assert not {m for m in loaded if m.startswith("satfd.")}
        assert "numpy" not in loaded

    def test_name_loads_only_its_home_module(self):
        loaded = loaded_after("import satfd\nsatfd.load_bundled")
        assert {m for m in loaded if m.startswith("satfd.")} <= {
            "satfd.constellation", "satfd.configs"}

    def test_detector_loads_no_calibration(self):
        loaded = loaded_after("import satfd.detector")
        assert "satfd.edm" in loaded
        assert not loaded & {"satfd.calibration", "satfd.experiment"}

    def test_cli_loads_no_campaign_code(self):
        assert "satfd.experiment" not in loaded_after("import satfd.cli")

    def test_detect_with_threshold(self):
        loaded = loaded_after(run_main([
            "detect", "--config", "elfo_moon", "--t0", "0", "--fault-sats", "3",
            "--magnitude", "20", "--threshold", "4.57e-7", "--dl", "3"]))
        assert "satfd.detector" in loaded
        assert not loaded & {"satfd.experiment", "satfd.calibration", "concurrent.futures"}

    def test_detect_with_model_loads_calibration(self, tmp_path):
        model = tmp_path / "model.json"
        calibration.MlpPredictor.initialize(np.random.default_rng(0)).save(model)
        loaded = loaded_after(run_main([
            "detect", "--config", "elfo_moon", "--t0", "0", "--fault-sats", "3",
            "--magnitude", "20", "--model", str(model), "--dl", "1"]))
        assert "satfd.calibration" in loaded
        assert "satfd.experiment" not in loaded

    def test_serial_montecarlo_loads_no_process_pool(self, tmp_path):
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "constellation": "elfo_moon", "sigma_w_m": 1.0, "fault_counts": [1],
            "magnitudes_m": [20.0], "thresholds": {"values": [{"label": "p99", "value": 4.6e-7}]},
            "dl_list": [1], "n_trials": 2, "master_seed": 3,
        }), encoding="utf-8")
        loaded = loaded_after(run_main([
            "montecarlo", "--experiment", str(exp), "--threads", "1",
            "--out", str(tmp_path / "out")]))
        assert "satfd.experiment" in loaded
        assert (tmp_path / "out" / "results.csv").is_file()
        assert not loaded & {"concurrent.futures.process", "multiprocessing"}

    def test_one_trial_campaign_loads_no_pool(self, tmp_path):
        """One trial runs in this process whatever the thread count, and no
        pool is imported."""
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "constellation": "elfo_moon", "sigma_w_m": 1.0, "fault_counts": [1],
            "magnitudes_m": [20.0], "thresholds": {"values": [{"label": "p99", "value": 4.6e-7}]},
            "dl_list": [1], "n_trials": 1, "master_seed": 3,
        }), encoding="utf-8")
        loaded = loaded_after(run_main([
            "montecarlo", "--experiment", str(exp), "--threads", "8",
            "--out", str(tmp_path / "out")]))
        assert (tmp_path / "out" / "results.csv").is_file()
        assert not loaded & {"concurrent.futures", "multiprocessing"}

    def test_report_loads_no_campaign_code(self, tmp_path):
        table = tmp_path / "results.csv"
        row = ["1", "20.0", "p99", "4.6e-07", "3", "5", "4", "1", "2", "98",
               "0.8", "0.02", "0.6666666666666666", "0.7272727272727272", "0.8"]
        table.write_text(",".join(RESULT_COLUMNS) + "\n" + ",".join(row) + "\n",
                         encoding="utf-8")
        loaded = loaded_after(run_main([
            "report", "--results", str(table), "--out", str(tmp_path / "out")]))
        assert "satfd.results" in loaded
        assert (tmp_path / "out" / "report_tpr_faults1.csv").stat().st_size > 0
        assert not loaded & {"satfd.experiment", "satfd.calibration"}
