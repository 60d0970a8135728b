import json

import numpy as np
import pytest

import dataclasses

from satfd import calibration, edm
from satfd.calibration import (
    DegenerateFitError,
    MlpPredictor,
    StatisticSample,
    batch_features,
    build_training_set,
    fit_gamma,
    loss_and_grads,
    percentile,
    sample_statistics,
    sampling_times,
    train_predictor,
)
from satfd.constellation import load_bundled
from satfd.ranging import RangeMatrix


def make_sample(values, **kw):
    defaults = dict(constellation="x", sigma_w=1.0, step=60.0, duration=3600.0)
    defaults.update(kw)
    return StatisticSample(values=np.sort(np.asarray(values, dtype=float)), **defaults)


class TestSamplingTimes:
    def test_endpoint_exclusive(self):
        assert sampling_times(60.0, 60.0).tolist() == [0.0]
        assert sampling_times(60.0, 121.0).tolist() == [0.0, 60.0, 120.0]

    def test_one_elfo_period_epoch_count(self):
        assert sampling_times(60.0, 43198.127485324025).size == 720


class TestSampleStatistics:
    def test_single_epoch(self):
        config = load_bundled("elfo_moon")
        sample = sample_statistics(config, 1.0, 60.0, 60.0, seed=0)
        assert sample.n == 463  # 6-clique count of the t=0 topology
        assert np.all(np.diff(sample.values) >= 0.0)
        assert np.all(sample.values >= 0.0)

    def test_noiseless_statistics_negligible(self):
        config = load_bundled("elfo_moon")
        sample = sample_statistics(config, 0.0, 60.0, 60.0, seed=0)
        assert sample.values.max() <= 1e-10

    def test_seeded_reproducibility(self):
        config = load_bundled("elfo_moon")
        a = sample_statistics(config, 1.0, 60.0, 121.0, seed=5)
        b = sample_statistics(config, 1.0, 60.0, 121.0, seed=5)
        assert np.array_equal(a.values, b.values)


class TestPercentile:
    def test_linear_interpolation_midpoint(self):
        sample = make_sample(np.arange(1.0, 101.0))
        assert percentile(sample, 50.0) == pytest.approx(50.5)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        sample = make_sample(rng.gamma(2.0, 1.5, size=5000))
        ps = [10, 50, 90, 99, 99.9]
        vals = [percentile(sample, p) for p in ps]
        assert vals == sorted(vals)

    def test_scale_invariance_of_thresholds(self):
        # gamma_test is scale-free, so scaling all ranges (noise included)
        # leaves the sampled values (hence any percentile) unchanged
        rng = np.random.default_rng(8)
        pts = rng.uniform(1.0, 2.0, size=(6, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((diff**2).sum(axis=2))
        noise = rng.standard_normal((6, 6)) * 1e-6
        r = r + np.triu(noise, 1) + np.triu(noise, 1).T

        clique = np.arange(6)[None]
        base = edm.analyze_clique_batch(RangeMatrix(r), clique).gamma_test[0]
        scaled = edm.analyze_clique_batch(RangeMatrix(1e4 * r), clique).gamma_test[0]
        assert base > 1e-9  # well above the SVD floor
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_bounds(self):
        sample = make_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            percentile(sample, 0.0)
        with pytest.raises(ValueError):
            percentile(sample, 100.0)


class TestFitGamma:
    def test_moment_identities_on_synthetic_draws(self):
        rng = np.random.default_rng(17)
        sample = make_sample(rng.gamma(shape=3.0, scale=2.0, size=100_000))
        fit = fit_gamma(sample)
        assert fit.shape == pytest.approx(3.0, abs=0.1)
        assert fit.scale == pytest.approx(2.0, abs=0.1)

    def test_exponential_is_gamma_one(self):
        rng = np.random.default_rng(19)
        sample = make_sample(rng.exponential(scale=1.7, size=100_000))
        fit = fit_gamma(sample)
        assert fit.shape == pytest.approx(1.0, abs=0.05)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_gamma(make_sample(np.full(100, 2.5)))


class TestThresholdFile:
    def test_round_trip(self, tmp_path):
        sample = make_sample(np.linspace(0.0, 1.0, 1000), constellation="Moon")
        path = tmp_path / "thr.json"
        records = calibration.write_thresholds(path, sample, [95.0, 99.0])
        loaded = calibration.read_thresholds(path)
        assert loaded == records
        assert loaded[0]["percentile"] == 95.0
        assert loaded[0]["n_samples"] == 1000


def exact_ranges(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return RangeMatrix(r=np.sqrt((diff**2).sum(axis=2)))


class TestExtractFeatures:
    def analysis(self, seed=0, n=6):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        return edm.analyze_clique_batch(exact_ranges(pts), np.arange(n)[None])

    def test_dimension_21(self):
        feats = batch_features(self.analysis())[0]
        assert feats.shape == (21,)
        assert np.all(np.diff(feats[:3]) <= 0.0)

    def test_rejects_wrong_size(self):
        # features are defined for 6-vertex subgraphs; the predictor that
        # consumes them rejects those of any other size
        model = MlpPredictor.initialize(np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.predict(batch_features(self.analysis(n=7)))

    def test_sign_flip_stability(self):
        a = self.analysis(4)
        flipped = dataclasses.replace(a, left_vectors=a.left_vectors * -1.0)
        assert np.array_equal(batch_features(a), batch_features(flipped))

    def test_relabeling_permutes_u_blocks_only(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0.0, 1.0, size=(6, 3))
        rm = exact_ranges(pts)
        base = batch_features(edm.analyze_clique_batch(rm, np.arange(6)[None]))[0]
        perm = rng.permutation(6)
        permuted = batch_features(edm.analyze_clique_batch(rm, perm[None]))[0]
        assert permuted[:3] == pytest.approx(base[:3], rel=1e-12)
        for block in range(3):
            lo = 3 + 6 * block
            assert permuted[lo:lo + 6] == pytest.approx(
                base[lo:lo + 6][perm], abs=1e-9
            )

    def test_matches_batch_features(self):
        from satfd.linkgraph import build_visibility_graph
        from satfd.cliques import list_k_cliques
        from satfd.ranging import FaultConfig, measure_ranges
        from satfd.constellation import propagate
        from satfd.seeds import substream

        config = load_bundled("elfo_moon")
        ps = propagate(config, 600.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)[:30]
        rm = measure_ranges(ps, graph, FaultConfig.none(), 1.0, substream(2, 0))
        batch = edm.analyze_clique_batch(rm, cliques)
        feats = calibration.batch_features(batch)
        for row, clique in enumerate(cliques):
            # per-matrix numpy reference of the same features
            d = rm.r[np.ix_(clique, clique)] ** 2
            np.fill_diagonal(d, 0.0)
            j = np.eye(6) - np.full((6, 6), 1.0 / 6)
            u, s, _ = np.linalg.svd(-0.5 * (j @ d @ j))
            u = u[:, :3] * np.sign(u[np.argmax(np.abs(u[:, :3]), axis=0), [0, 1, 2]])
            want = np.concatenate([s[:3], u.T.reshape(-1)])
            assert feats[row] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestMlp:
    def test_zero_model_predicts_zero(self):
        dims = MlpPredictor.DIMS
        model = MlpPredictor(
            [np.zeros((a, b)) for a, b in zip(dims, dims[1:])],
            [np.zeros(b) for b in dims[1:]],
        )
        assert model.predict(np.zeros(21)) == 0.0

    def test_gradient_check_against_finite_differences(self):
        rng = np.random.default_rng(0)
        model = MlpPredictor.initialize(rng)
        x = rng.standard_normal((8, 21))
        y = rng.standard_normal(8)
        loss, gw, gb = loss_and_grads(model, x, y)

        eps = 1e-6
        checked = 0
        for layer in range(3):
            w = model.weights[layer]
            flat = [(i, j) for i in range(w.shape[0]) for j in range(w.shape[1])]
            for i, j in [flat[k] for k in rng.choice(len(flat), size=20, replace=False)]:
                orig = w[i, j]
                w[i, j] = orig + eps
                lp, _, _ = loss_and_grads(model, x, y)
                w[i, j] = orig - eps
                lm, _, _ = loss_and_grads(model, x, y)
                w[i, j] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = gw[layer][i, j]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-5
                checked += 1
        assert checked == 60

    def test_constant_target_learned(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((512, 21))
        y = np.full(512, 3.7)
        model = train_predictor(x, y, seed=1, epochs=30)
        pred = model.predict(x)
        assert float(np.mean((pred - y) ** 2)) < 1e-3

    def test_beats_constant_baseline_on_synthetic_data(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5000, 21))
        y = 0.3 * x[:, 0] - 0.5 * np.maximum(x[:, 3], 0.0) + 0.05 * rng.standard_normal(5000)
        train, hold = slice(0, 4000), slice(4000, 5000)
        model = train_predictor(x[train], y[train], seed=2, epochs=40)
        pred = model.predict(x[hold])
        mse = float(np.mean((pred - np.maximum(y[hold], 0.0)) ** 2))
        baseline = float(np.mean((np.maximum(y[train].mean(), 0.0) - np.maximum(y[hold], 0.0)) ** 2))
        assert mse < baseline

    def test_training_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((256, 21))
        y = rng.standard_normal(256)
        a = train_predictor(x, y, seed=3, epochs=5)
        b = train_predictor(x, y, seed=3, epochs=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((64, 21)) * 10.0
        y = rng.standard_normal(64)
        with pytest.raises(calibration.DivergenceError):
            train_predictor(x, y, seed=1, epochs=200, lr=1e3)

    def test_model_file_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((128, 21))
        y = rng.standard_normal(128)
        model = train_predictor(x, y, seed=7, epochs=2)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = MlpPredictor.load(path)
        for wa, wb in zip(model.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(model.biases, loaded.biases):
            assert np.array_equal(ba, bb)
        assert np.array_equal(model.x_mean, loaded.x_mean)
        assert np.array_equal(model.x_std, loaded.x_std)
        assert model.y_mean == loaded.y_mean and model.y_std == loaded.y_std
        # saving again produces identical bytes
        path2 = tmp_path / "model2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(ValueError):
            MlpPredictor.load(path)

    def test_predict_threshold_clamps_and_validates(self):
        rng = np.random.default_rng(2)
        model = MlpPredictor.initialize(rng)
        model.y_mean = -100.0  # force a negative raw output
        assert model.predict(np.zeros(21)) == 0.0
        with pytest.raises(ValueError):
            model.predict(np.zeros(20))


class TestBuildTrainingSet:
    def test_shapes_and_reproducibility(self):
        config = load_bundled("elfo_moon")
        fa, ta = build_training_set(config, 1.0, n_geometries=4, n_noise=300,
                                    seed=5, step=7200.0)
        fb, tb = build_training_set(config, 1.0, n_geometries=4, n_noise=300,
                                    seed=5, step=7200.0)
        assert fa.shape == (4, 21) and ta.shape == (4,)
        assert np.array_equal(fa, fb) and np.array_equal(ta, tb)
        assert np.all(ta > 0.0)

    def test_noiseless_targets_negligible(self):
        config = load_bundled("elfo_moon")
        _, targets = build_training_set(config, 0.0, n_geometries=3, n_noise=300,
                                        seed=6, step=7200.0)
        assert targets.max() <= 1e-10

    def test_target_stability_across_seeds(self):
        # one fixed geometry, large n_noise: . the 99.7 percentile estimate
        # is stable to a few percent across independent noise draws
        config = load_bundled("elfo_moon")
        _, t1 = build_training_set(config, 1.0, n_geometries=1, n_noise=10_000,
                                   seed=100, step=43198.0)
        _, t2 = build_training_set(config, 1.0, n_geometries=1, n_noise=10_000,
                                   seed=200, step=43198.0)
        assert t1[0] == pytest.approx(t2[0], rel=0.05)

    def test_n_noise_floor(self):
        config = load_bundled("elfo_moon")
        with pytest.raises(ValueError):
            build_training_set(config, 1.0, n_geometries=1, n_noise=100, seed=1)
