import math

import numpy as np
import pytest

from satfd.constellation import load_bundled
from satfd.detector import DetectorParams, detect_faults_from_analyses
from satfd.experiment import (
    CampaignContext,
    CellResult,
    ConfusionCounts,
    ExperimentGrid,
    ThresholdSpec,
    compute_metrics,
    read_results_csv,
    run_campaign,
    write_results_csv,
)
from satfd.ranging import FaultConfig

P99 = 4.6e-7


def small_grid(**overrides):
    base = dict(
        fault_counts=(1,),
        magnitudes=(20.0,),
        thresholds=(ThresholdSpec("p99", P99),),
        dls=(1,),
    )
    base.update(overrides)
    return ExperimentGrid(**base)


def make_ctx(grid, seed=1):
    return CampaignContext(
        config=load_bundled("elfo_moon"), sigma_w=1.0, grid=grid, master_seed=seed
    )


def classify(ctx, trial_id, t0_index, fault_set, params, magnitude):
    """Boolean per-satellite verdicts of one trial's one-epoch window."""
    faults = FaultConfig(fault_set=fault_set, magnitude=magnitude)
    batches = ctx.epoch_analyses(trial_id, t0_index, faults, 1)
    outcome = detect_faults_from_analyses(batches, params, ctx.n_sats)
    classified = np.zeros(ctx.n_sats, dtype=bool)
    classified[list(outcome.fault_list)] = True
    return classified


class TestComputeMetrics:
    def test_perfect_detector(self):
        m = compute_metrics(ConfusionCounts(tp=10, fn=0, fp=0, tn=110))
        assert (m.tpr, m.fpr, m.ppv, m.f1, m.p4) == (1.0, 0.0, 1.0, 1.0, 1.0)

    def test_balanced_counts(self):
        m = compute_metrics(ConfusionCounts(tp=1, fn=1, fp=1, tn=1))
        assert m.tpr == 0.5
        assert m.fpr == 0.5
        assert m.p4 == pytest.approx(0.5)

    def test_zero_numerators(self):
        m = compute_metrics(ConfusionCounts(tp=0, fn=5, fp=0, tn=55))
        assert m.tpr == 0.0
        assert m.fpr == 0.0
        assert m.p4 == 0.0

    def test_undefined_marked_nan(self):
        m = compute_metrics(ConfusionCounts(tp=0, fn=0, fp=0, tn=0))
        assert math.isnan(m.tpr) and math.isnan(m.fpr) and math.isnan(m.p4)


class TestTrialConditions:
    def test_keyed_by_master_seed_and_trial_only(self):
        grid_a = small_grid()
        grid_b = small_grid(magnitudes=(5.0, 20.0), dls=(1, 3))
        ctx_a, ctx_b = make_ctx(grid_a), make_ctx(grid_b)
        for trial in range(20):
            t0_a, perm_a = ctx_a.trial_conditions(trial)
            t0_b, perm_b = ctx_b.trial_conditions(trial)
            assert t0_a == t0_b
            assert np.array_equal(perm_a, perm_b)

    def test_t0_spans_one_period(self):
        ctx = make_ctx(small_grid())
        t0s = {ctx.trial_conditions(j)[0] for j in range(300)}
        assert min(t0s) >= 0
        assert max(t0s) < ctx.n_start_epochs
        assert len(t0s) > 100

    def test_nested_fault_sets_across_fault_counts(self):
        ctx = make_ctx(small_grid())
        _, perm = ctx.trial_conditions(7)
        assert set(perm[:1]) <= set(perm[:2]) <= set(perm[:3])


class TestRunTrial:
    def test_strong_fault_detected(self):
        ctx = make_ctx(small_grid())
        hits = 0
        for trial in range(10):
            t0_index, perm = ctx.trial_conditions(trial)
            fault = int(perm[0])
            classified = classify(
                ctx, trial, t0_index, frozenset({fault}),
                DetectorParams(gamma_threshold=P99), magnitude=20.0,
            )
            hits += bool(classified[fault])
        assert hits >= 8

    def test_zero_magnitude_behaves_like_no_fault(self):
        ctx = make_ctx(small_grid())
        t0_index, perm = ctx.trial_conditions(0)
        params = DetectorParams(gamma_threshold=P99)
        with_zero = classify(ctx, 0, t0_index, frozenset({int(perm[0])}), params, 0.0)
        without = classify(ctx, 0, t0_index, frozenset(), params, 0.0)
        assert np.array_equal(with_zero, without)

    def test_repeat_invocation_identical(self):
        ctx = make_ctx(small_grid())
        t0_index, perm = ctx.trial_conditions(3)
        args = (ctx, 3, t0_index, frozenset({int(perm[0])}),
                DetectorParams(gamma_threshold=P99), 10.0)
        assert np.array_equal(classify(*args), classify(*args))


class TestRunCampaign:
    def test_count_conservation(self):
        grid = small_grid(magnitudes=(5.0, 20.0))
        ctx = make_ctx(grid)
        results = run_campaign(ctx, n_trials=10)
        for r in results:
            c = r.counts
            assert c.tp + c.fn == 10 * r.faults
            assert c.tp + c.fn + c.fp + c.tn == 10 * 12

    def test_same_seed_identical_tables(self, tmp_path):
        grid = small_grid()
        a = run_campaign(make_ctx(grid, seed=9), n_trials=8)
        b = run_campaign(make_ctx(grid, seed=9), n_trials=8)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(pa, a)
        write_results_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        grid = small_grid(magnitudes=(5.0, 20.0))
        serial = run_campaign(make_ctx(grid, seed=4), n_trials=12, workers=1)
        parallel = run_campaign(make_ctx(grid, seed=4), n_trials=12, workers=3)
        ps, pp = tmp_path / "s.csv", tmp_path / "p.csv"
        write_results_csv(ps, serial)
        write_results_csv(pp, parallel)
        assert ps.read_bytes() == pp.read_bytes()

    def test_seed_isolation_across_grid_dimensions(self):
        # adding grid cells must not disturb shared cells' outcomes
        narrow = run_campaign(make_ctx(small_grid(), seed=2), n_trials=10)
        wide_grid = small_grid(
            magnitudes=(5.0, 20.0),
            thresholds=(ThresholdSpec("p99", P99), ThresholdSpec("p95", 3.6e-7)),
            dls=(1, 2),
        )
        wide = run_campaign(make_ctx(wide_grid, seed=2), n_trials=10)
        match = [
            r for r in wide
            if r.magnitude == 20.0 and r.threshold.label == "p99" and r.dl == 1
        ]
        assert len(match) == 1
        assert match[0].counts == narrow[0].counts

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExperimentGrid(fault_counts=(), magnitudes=(1.0,),
                           thresholds=(ThresholdSpec("x", 1.0),), dls=(1,))
        with pytest.raises(ValueError):
            run_campaign(make_ctx(small_grid()), n_trials=0)
        # out-of-range grid values and campaign settings
        for bad in (dict(dls=(0,)), dict(dls=(1, -2)), dict(fault_counts=(-1,)),
                    dict(magnitudes=(-5.0,))):
            with pytest.raises(ValueError):
                small_grid(**bad)
        with pytest.raises(ValueError, match="12 satellites"):
            make_ctx(small_grid(fault_counts=(1, 13)))
        for timestep in (0.0, -60.0):
            with pytest.raises(ValueError, match="timestep"):
                CampaignContext(config=load_bundled("elfo_moon"), sigma_w=1.0,
                                grid=small_grid(), master_seed=1, timestep=timestep)
        with pytest.raises(ValueError, match="delta_nf"):
            CampaignContext(config=load_bundled("elfo_moon"), sigma_w=1.0,
                            grid=small_grid(), master_seed=1, delta_nf=0)

    @pytest.mark.parametrize("dimension, values", [
        ("magnitudes", (10.0, 10.0)),
        ("thresholds", (ThresholdSpec("p99", P99), ThresholdSpec("p99", P99))),
        ("dls", (2, 2)),
        ("fault_counts", (1, 1)),
    ], ids=["magnitudes", "thresholds", "dls", "fault_counts"])
    def test_repeated_grid_values_give_equal_rows(self, dimension, values):
        # each row is found by its grid position, not by its cell values
        single = run_campaign(make_ctx(small_grid(**{dimension: values[:1]}), seed=5),
                              n_trials=6)
        repeated = run_campaign(make_ctx(small_grid(**{dimension: values}), seed=5),
                                n_trials=6)
        assert len(single) == 1 and len(repeated) == 2
        assert [r.counts for r in repeated] == [single[0].counts] * 2
        assert [r.metrics for r in repeated] == [single[0].metrics] * 2


class TestThresholdSpec:
    @pytest.mark.parametrize("value", [np.float32(1e-7), np.int64(2), 3, 4.5e-7])
    def test_real_numbers_are_scalar(self, value):
        assert ThresholdSpec("x", value).scalar == float(value)

    def test_predictor_is_nan(self):
        class Stub:
            def predict(self, features):
                return np.zeros(len(features))

        assert math.isnan(ThresholdSpec("x", Stub()).scalar)


class TestResultsCsv:
    def test_round_trip_schema(self, tmp_path):
        m = compute_metrics(ConfusionCounts(5, 5, 3, 107))
        row = CellResult(
            faults=1, magnitude=10.0, threshold=ThresholdSpec("p99", P99),
            dl=2, trials=10, counts=ConfusionCounts(5, 5, 3, 107), metrics=m,
        )
        path = tmp_path / "r.csv"
        write_results_csv(path, [row])
        rows = read_results_csv(path)
        assert len(rows) == 1
        assert rows[0]["faults"] == "1"
        assert float(rows[0]["tpr"]) == m.tpr

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_results_csv(path)
