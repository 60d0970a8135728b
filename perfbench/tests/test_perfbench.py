"""Tests of the benchmark itself: toy runs, the output checker, the tracer."""

import copy
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_toy_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    specs = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace == 0:
        assert re.search(r"^\s+failed_frac\s+0 1\b", proc.stdout, re.M), proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_detect_counts_are_exact():
    proc = run_bench("--workload", "detect_stream", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    windows = wl.WORKLOADS["detect_stream"].trace_pairs[1] * wl.DETECT_DL
    assert metrics["cliques.list_k_cliques.calls"]["value"] == windows
    assert metrics["edm.analyze_clique_batch.calls"]["value"] == windows
    assert metrics["detector.detect_faults.calls"]["value"] == windows // wl.DETECT_DL
    assert metrics["cli.cmd_detect.self_s"]["value"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "calibrate_elfo", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# The checker behind failed_frac.
# ---------------------------------------------------------------------------

def campaign_results(ref, inp):
    rows = []
    for key, (tp, fn, fp, tn) in wl.expected_rows(ref, False, inp).items():
        fc, mag, label, dl = key
        rows.append(SimpleNamespace(
            faults=fc, magnitude=mag, threshold=SimpleNamespace(label=label), dl=dl,
            counts=SimpleNamespace(tp=tp, fn=fn, fp=fp, tn=tn)))
    return rows


@pytest.mark.parametrize("workload", ["campaign_elfo", "campaign_mars"])
def test_campaign_checker_flags_tampered_reference(workload):
    ref = wl.load_reference(workload)
    inp = (5, ref["trials"]["full"])
    results = campaign_results(ref, inp)
    n_rows = len(ref["cells"])
    assert wl.check_campaign(ref, False, inp, results) == (n_rows, 0)

    tampered = copy.deepcopy(ref)
    tampered["full"]["5"][0][1] += 1     # first cell, fn
    assert wl.check_campaign(tampered, False, inp, results) == (n_rows, 1)
    # Another master seed's record does not matter.
    tampered = copy.deepcopy(ref)
    tampered["full"]["6"][0][1] += 1
    assert wl.check_campaign(tampered, False, inp, results) == (n_rows, 0)
    assert wl.check_campaign(ref, False, inp, results[1:]) == (n_rows, 1)
    assert wl.check_campaign(ref, False, inp, RuntimeError("boom")) == (n_rows, n_rows)
    with pytest.raises(ValueError, match="trials per call"):
        wl.check_campaign(ref, False, (5, inp[1] + 1), results)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_no_input_repeats_within_a_run(workload):
    """Each operation of a run gets an input no other operation used."""
    state = SimpleNamespace(seeds=range(1, wl.MARS_CAMPAIGN[1] + 1), trials=3,
                            requests=[None] * wl.DETECT_POOL_SIZE)
    draw = wl.WORKLOADS[workload].inputs
    first = list(draw(state, random.Random(1)))
    assert len(first) == len(set(first)) > 1
    assert first == list(draw(state, random.Random(1)))
    assert first != list(draw(state, random.Random(2)))


def test_detect_checker_flags_tampered_reference():
    ref = wl.load_reference("detect_stream")
    fault_list, rounds = ref["outputs"][11]
    output = (0, json.dumps({"fault_list": fault_list, "rounds": rounds}))
    assert wl.check_detect(ref, False, 11, output) == (1, 0)

    tampered = copy.deepcopy(ref)
    tampered["outputs"][11][1] += 1
    assert wl.check_detect(tampered, False, 11, output) == (1, 1)
    tampered = copy.deepcopy(ref)
    tampered["outputs"][11][0] = fault_list + [99]
    assert wl.check_detect(tampered, False, 11, output) == (1, 1)
    assert wl.check_detect(ref, False, 11, (1, "")) == (1, 1)
    assert wl.check_detect(ref, False, 11, ValueError("boom")) == (1, 1)


def test_calibration_checker_flags_tampered_reference():
    ref = wl.load_reference("calibrate_elfo")
    state = wl.setup_calibrate(toy=True)
    sample = wl.run_calibrate(state, 2)
    assert wl.check_calibrate(ref, True, 2, sample) == (1, 0)

    for key, scale in (("n", None), ("p99", 1 + 1e-8), ("p99.9", 1 - 1e-8)):
        tampered = copy.deepcopy(ref)
        case = tampered["toy"]["2"]
        case[key] = case[key] + 1 if scale is None else case[key] * scale
        assert wl.check_calibrate(tampered, True, 2, sample) == (1, 1), key
    within = copy.deepcopy(ref)
    within["toy"]["2"]["p95"] *= 1 + 1e-12
    assert wl.check_calibrate(within, True, 2, sample) == (1, 0)


# ---------------------------------------------------------------------------
# The tracer.
# ---------------------------------------------------------------------------

def test_tracer_fails_loudly_on_missing_function():
    wl.import_satfd()
    tracer = tracing.Tracer(targets={"cliques.gone": "cliques.no_such_function"})
    with pytest.raises(tracing.TraceTargetMissing, match="no_such_function"):
        tracer.install()


def test_tracer_wraps_every_binding_and_restores_it():
    satfd = wl.import_satfd()
    import satfd.experiment

    original = satfd.cliques.list_k_cliques
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert satfd.cliques.list_k_cliques is not original
        assert satfd.experiment.list_k_cliques is satfd.cliques.list_k_cliques
        assert satfd.list_k_cliques is satfd.cliques.list_k_cliques
    finally:
        tracer.uninstall()
    assert satfd.cliques.list_k_cliques is original
    assert satfd.experiment.list_k_cliques is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1, 1], ["a", 2.0, 6.0, 0, 1],
                    ["b", 3.0, 4.0, 1, 1], [tracing.BOOKKEEPING, 6.0, 6.5, 0, 1]]
    metrics = tracer.layer_metrics()
    assert metrics["op.self_s"] == pytest.approx(5.5)
    assert metrics["a.self_s"] == pytest.approx(3.0)
    assert metrics["b.self_s"] == pytest.approx(1.0)
    assert metrics["a.calls"] == 1
