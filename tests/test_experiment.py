import concurrent.futures
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from satfd import calibration, edm, experiment
from satfd.cli import main
from satfd.constellation import load_bundled
from satfd.detector import (
    DetectorParams,
    analysis_thresholds,
    detect_faults,
    detect_faults_from_analyses,
    table_from_analyses,
)
from satfd.experiment import (
    CampaignContext,
    CellResult,
    ConfusionCounts,
    ExperimentGrid,
    ExperimentSpec,
    ThresholdSpec,
    compute_metrics,
    run_campaign,
)
from satfd.ranging import FaultConfig, measure_ranges
from satfd.results import read_results_csv, write_results_csv
from test_edm import recorded_settles

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
    [(rows, source)] = ctx.epoch_analyses(trial_id, t0_index, [faults], 1)
    table = table_from_analyses([rows], params).rows(source[0])
    outcome = detect_faults_from_analyses(table, params, ctx.n_sats)
    classified = np.zeros(ctx.n_sats, dtype=bool)
    classified[list(outcome.fault_list)] = True
    return classified


class StubPredictor:
    """A per-subgraph threshold that flags no clique."""

    def predict(self, features):
        return np.ones(len(features))


class TestAnalysisFloor:
    @pytest.mark.parametrize("values, thresholds", [
        ((5.86e-7, P99, 3.58e-7), (5.86e-7, P99, 3.58e-7)),
        ((P99, StubPredictor()), None),
        ((P99, 0), (P99, 0.0)),
    ], ids=["scalar", "mixed-predictor", "holding-zero"])
    def test_campaign_and_detector_take_the_same_floor(self, monkeypatch, values, thresholds):
        got = analysis_thresholds(values)
        assert got == thresholds
        assert got is None or all(type(v) is float for v in got)
        seen = []
        real = edm.analyze_clique_batch

        def recording(*args, thresholds=None, **kwargs):
            seen.append(thresholds)
            return real(*args, thresholds=thresholds, **kwargs)

        monkeypatch.setattr(edm, "analyze_clique_batch", recording)
        ctx = make_ctx(small_grid(
            thresholds=tuple(ThresholdSpec(f"t{i}", v) for i, v in enumerate(values))))
        ctx.epoch_analyses(1, 0, [FaultConfig(), FaultConfig({3}, 20.0)], 2)
        assert seen and seen == [thresholds] * len(seen)
        entry = ctx.schedule[0]
        rm = measure_ranges(entry.positions, entry.graph, FaultConfig(), 1.0,
                            np.random.default_rng(0))
        for value in values:
            seen.clear()
            detect_faults([entry.cliques], [rm], DetectorParams(gamma_threshold=value))
            assert seen == [analysis_thresholds([value])]


class TestOneAnalysisPerEpoch:
    def count_calls(self, monkeypatch):
        """The side of the range matrix of every analyze_clique_batch call."""
        sides = []
        real = edm.analyze_clique_batch

        def counting(ranges, cliques, **kwargs):
            sides.append(len(ranges.r))
            return real(ranges, cliques, **kwargs)

        monkeypatch.setattr(edm, "analyze_clique_batch", counting)
        return sides

    def test_configs_of_an_epoch_share_one_call(self, monkeypatch):
        sides = self.count_calls(monkeypatch)
        ctx = make_ctx(small_grid())
        configs = [FaultConfig({3}, 5.0), FaultConfig({3}, 20.0), FaultConfig({3, 7}, 20.0),
                   FaultConfig()]
        epochs = ctx.epoch_analyses(1, 4, configs, 3)
        # Four blocks: the fault-free config's rows are all shared but those with 3.
        assert sides == [4 * ctx.n_sats] * 3
        for offset, (rows, source) in enumerate(epochs):
            assert rows.cliques.min() >= 0 and rows.cliques.max() < ctx.n_sats
            for index in source:
                assert np.array_equal(rows.cliques[index], ctx.schedule[4 + offset].cliques)

    def test_rows_in_config_then_clique_order(self):
        ctx = make_ctx(small_grid())
        # Config 1 shares config 0's rows that bias 3 alone, by the same 20 m;
        # configs 2-5 share rows with no biased vertex, and config 4 (a zero
        # bias) shares every row.
        configs = [FaultConfig({3}, 20.0), FaultConfig({3, 7}, 20.0), FaultConfig({3}, 5.0),
                   FaultConfig(), FaultConfig({7}, 0.0), FaultConfig({7}, 20.0)]
        for offset, (rows, source) in enumerate(ctx.epoch_analyses(1, 4, configs, 3)):
            cliques = ctx.schedule[4 + offset].cliques
            # Rows are numbered in config order, then clique order; a row is
            # new unless an earlier config biases the same vertices of its
            # clique by the same magnitude, or neither biases any.
            numbers, order = {}, []
            want = np.empty(source.shape, dtype=np.intp)
            for c, faults in enumerate(configs):
                for i, clique in enumerate(cliques.tolist()):
                    hit = faults.fault_set.intersection(clique) if faults.magnitude else set()
                    key = (i, frozenset(hit), faults.magnitude if hit else None)
                    if key not in numbers:
                        numbers[key] = len(order)
                        order.append(i)
                    want[c, i] = numbers[key]
            assert np.array_equal(source, want)
            assert np.array_equal(rows.cliques, cliques[order])
            has3, has7 = (cliques == 3).any(axis=1), (cliques == 7).any(axis=1)
            assert (has3 & ~has7).any() and (~has3 & ~has7).any()
            assert np.array_equal(source[1, has3 & ~has7], source[0, has3 & ~has7])
            assert np.array_equal(source[3, ~has3], source[0, ~has3])
            assert np.array_equal(source[4], source[3])

    def test_trial_makes_one_call_per_epoch(self, monkeypatch):
        sides = self.count_calls(monkeypatch)
        ctx = make_ctx(small_grid(fault_counts=(1, 2), magnitudes=(5.0, 20.0), dls=(1, 3)))
        experiment._trial_cell_counts(ctx, 2)
        assert len(sides) == 3 and max(sides) > ctx.n_sats


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

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        # Eight usable CPUs, so that every worker count below runs that many
        # processes on any machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        grid = small_grid(magnitudes=(5.0, 20.0))
        serial = run_campaign(make_ctx(grid, seed=4), n_trials=13, workers=1)
        ps = tmp_path / "s.csv"
        write_results_csv(ps, serial)
        for workers in (2, 3, 5):
            parallel = run_campaign(make_ctx(grid, seed=4), n_trials=13, workers=workers)
            pp = tmp_path / f"p{workers}.csv"
            write_results_csv(pp, parallel)
            assert ps.read_bytes() == pp.read_bytes()

    def test_pool_is_capped_by_the_cpus(self, monkeypatch):
        """A pool may start every worker at its first task, so a huge worker
        count gets one process per usable CPU, this one included.  The
        recorder runs each submitted task in this process and starts none."""
        sizes, submits, taken = [], [], []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submits.append(fn)
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        trial_cell_counts = experiment._trial_cell_counts

        def recording_counts(ctx, trial_id):
            taken.append(trial_id)
            return trial_cell_counts(ctx, trial_id)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(experiment, "_WORKER_ARGS", None)
        monkeypatch.setattr(experiment, "_trial_cell_counts", recording_counts)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        grid = small_grid(magnitudes=(5.0, 20.0))
        pooled = run_campaign(make_ctx(grid, seed=4), n_trials=5, workers=10**6)
        assert sizes == [2] and len(submits) == 2
        assert sorted(taken) == list(range(5))
        serial = run_campaign(make_ctx(grid, seed=4), n_trials=5, workers=1)
        assert [r.counts for r in pooled] == [r.counts for r in serial]

    def test_trials_go_largest_window_first(self):
        """The order the processes take trials in: descending count of the
        cliques in the trial's longest window, ties by trial id."""
        ctx = make_ctx(small_grid(dls=(1, 3)), seed=6)
        costs = []
        for trial_id in range(40):
            t0, _ = ctx.trial_conditions(trial_id)
            costs.append(sum(len(ctx.schedule[t0 + o].cliques) for o in range(3)))
        order = experiment._trial_order(ctx, 40)
        assert order == sorted(range(40), key=lambda t: (-costs[t], t))
        assert len(set(costs)) > 1

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
        for bad in (dict(fault_counts=(-1,)), dict(magnitudes=(-5.0,)),
                    dict(magnitudes=(20.0, math.inf)), dict(magnitudes=(math.nan,))):
            with pytest.raises(ValueError):
                small_grid(**bad)
        # cliques.check_window is the one DL rule, so the campaign refuses these.
        for dls in ((0,), (1, -2)):
            with pytest.raises(ValueError, match=f"^detection lengths .* >= 1, got {min(dls)}$"):
                make_ctx(small_grid(dls=dls))
        with pytest.raises(ValueError, match="12 satellites"):
            make_ctx(small_grid(fault_counts=(1, 13)))
        # cliques.epoch_count, which check_window reads, is the one step rule.
        period = load_bundled("elfo_moon").period
        for timestep in (0.0, -60.0):
            message = (f"need a finite step > 0 and a finite span of finitely many steps, "
                       f"got step={timestep!r} s, span={period!r} s")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CampaignContext(config=load_bundled("elfo_moon"), sigma_w=1.0,
                                grid=small_grid(), master_seed=1, timestep=timestep)
        with pytest.raises(ValueError, match="delta_nf"):
            CampaignContext(config=load_bundled("elfo_moon"), sigma_w=1.0,
                            grid=small_grid(), master_seed=1, delta_nf=0)
        with pytest.raises(ValueError, match="sigma_w"):
            CampaignContext(config=load_bundled("elfo_moon"), sigma_w=-1.0,
                            grid=small_grid(), master_seed=1)

    @pytest.mark.parametrize("sigma_w", [-1.0, math.inf, math.nan])
    def test_sigma_checked_before_the_schedule(self, monkeypatch, sigma_w):
        def schedule(*args, **kwargs):
            raise AssertionError("built the schedule before checking sigma_w")

        monkeypatch.setattr(experiment, "build_clique_schedule", schedule)
        with pytest.raises(ValueError, match="^sigma_w must be >= 0 and finite"):
            CampaignContext(config=load_bundled("elfo_moon"), sigma_w=sigma_w,
                            grid=small_grid(), master_seed=1)

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


class TestExperimentSpec:
    @staticmethod
    def load(tmp_path, thresholds):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "constellation": "elfo_moon", "sigma_w_m": 2.0, "fault_counts": [1],
            "magnitudes_m": [20.0], "thresholds": thresholds, "dl_list": [1],
            "n_trials": 3, "master_seed": 7, "timestep_s": 120,
        }), encoding="utf-8")
        return ExperimentSpec.load(path)

    def test_calibrated_copies_the_context(self, tmp_path, monkeypatch):
        sample = calibration.StatisticSample(
            values=np.linspace(0.0, 1e-6, 101), constellation="Moon", sigma_w=2.0)
        calls = []

        def sample_statistics(config, sigma_w, step, duration, seed):
            calls.append((sigma_w, step, duration, seed))
            return sample

        monkeypatch.setattr(calibration, "sample_statistics", sample_statistics)
        spec = self.load(tmp_path, {"percentiles": [50, 99]})
        assert calls == []
        ctx = spec.calibrated()
        assert calls == [(2.0, 120.0, spec.context.config.period, 7)]
        assert [(thr.label, thr.value) for thr in ctx.grid.thresholds] == [
            ("p50", calibration.percentile(sample, 50)),
            ("p99", calibration.percentile(sample, 99)),
        ]
        assert ctx is not spec.context and ctx.schedule is spec.context.schedule
        assert [thr.label for thr in spec.context.grid.thresholds] == ["p50", "p99"]
        assert all(math.isnan(thr.value) for thr in spec.context.grid.thresholds)

    def test_fixed_thresholds_need_no_calibration(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("calibrated a campaign with fixed thresholds")

        monkeypatch.setattr(calibration, "sample_statistics", never)
        spec = self.load(tmp_path, {"values": [{"label": "p99", "value": P99}]})
        assert spec.calibrated() is spec.context
        assert (spec.n_trials, spec.context.timestep, spec.percentiles) == (3, 120.0, ())
        assert spec.context.grid == small_grid()


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


TREND_THRESHOLDS = (ThresholdSpec("p95", 3.58e-7), ThresholdSpec("p99", 4.57e-7),
                    ThresholdSpec("p99.9", 5.86e-7))
DATA = Path(__file__).resolve().parent / "data"


class TestCertificateReach:
    def test_most_rows_settle(self):
        """On trials 0-3 of the trend grid (master seed 1), the certificate
        settles at least 99% of the 6-clique rows, so eigh solves the rest
        only."""
        grid = ExperimentGrid(fault_counts=(1,), magnitudes=(5.0, 10.0, 20.0),
                              thresholds=TREND_THRESHOLDS, dls=(1, 2, 3, 5))
        ctx = make_ctx(grid)
        analysed = settled = 0
        for trial_id in range(4):
            t0_index, perm = ctx.trial_conditions(trial_id)
            configs = [FaultConfig(fault_set=perm[:1].tolist(), magnitude=magnitude)
                       for magnitude in grid.magnitudes]
            # One certificate call per epoch, on that epoch's rows.
            with recorded_settles() as masks:
                epochs = ctx.epoch_analyses(trial_id, t0_index, configs, max(grid.dls))
            assert len(masks) == len(epochs)
            for (rows, _), mask in zip(epochs, masks):
                assert rows.singular_values is None and rows.left_vectors is None
                assert len(mask) == len(rows.cliques)
                analysed += len(rows.cliques)
                settled += mask.sum()
        assert analysed > 10000
        assert settled >= 0.99 * analysed


@pytest.mark.parametrize("threads", [1, 2])
def test_paper_grid_slice_writes_its_committed_results(tmp_path, threads):
    """Ten trials of the paper's elfo_moon grid (fault counts 0-3 by five
    magnitudes, three thresholds, DL 1, 2, 3 and 5), run serially and in a
    pool of two, write the committed results.csv byte for byte."""
    rc = main(["montecarlo", "--experiment", str(DATA / "paper_elfo_slice.json"),
               "--threads", str(threads), "--out", str(tmp_path)])
    assert rc == 0
    assert ((tmp_path / "results.csv").read_bytes()
            == (DATA / "paper_elfo_slice_results.csv").read_bytes())
