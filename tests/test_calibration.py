import json
import math
import re

import numpy as np
import pytest

import dataclasses

from satfd import calibration, edm
from satfd.calibration import (
    TAIL_PERCENTILE,
    MlpPredictor,
    StatisticSample,
    batch_features,
    build_training_set,
    loss_and_grads,
    percentile,
    sample_statistics,
    sampling_times,
    train_predictor,
)
from satfd.cliques import build_clique_schedule
from satfd.constellation import load_bundled
from satfd.ranging import RangeMatrix, pair_noise, true_ranges
from satfd.seeds import TRAINING, substream


def make_sample(values, **kw):
    defaults = dict(constellation="x", sigma_w=1.0)
    defaults.update(kw)
    return StatisticSample(values=np.sort(np.asarray(values, dtype=float)), **defaults)


class TestSamplingTimes:
    def test_endpoint_exclusive(self):
        assert sampling_times(60.0, 60.0).tolist() == [0.0]
        assert sampling_times(60.0, 121.0).tolist() == [0.0, 60.0, 120.0]

    def test_one_elfo_period_epoch_count(self):
        assert sampling_times(60.0, 43198.127485324025).size == 720

    @pytest.mark.parametrize("step, duration", [
        (60.0, math.inf), (math.nan, 600.0), (60.0, math.nan), (math.inf, math.inf),
    ])
    def test_non_finite_refused(self, step, duration):
        # cliques.epoch_count is the one rule on steps and spans.
        message = (f"need a finite step > 0 and a finite span of finitely many steps, "
                   f"got step={step!r} s, span={duration!r} s")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sampling_times(step, duration)


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


class TestThresholdFile:
    def test_round_trip(self, tmp_path):
        sample = make_sample(np.linspace(0.0, 1.0, 1000), constellation="Moon")
        path = tmp_path / "thr.json"
        records = calibration.write_thresholds(path, sample, [95.0, 99.0])
        loaded = json.loads(path.read_text(encoding="utf-8"))
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
        rm = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(2, 0))
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
        assert model.predict(np.zeros((1, 21))) == 0.0

    @pytest.mark.parametrize("m", [1, 300, 1848])
    def test_forward_equals_out_of_place_formula(self, m):
        """The forward pass adds each hidden bias in place: the bits of
        a @ w + b, with every value back-propagation reads."""
        rng = np.random.default_rng(m)
        model = MlpPredictor.initialize(rng)
        model.biases = [rng.uniform(-1.0, 1.0, size=b.shape) for b in model.biases]
        model.x_mean, model.x_std = rng.standard_normal(21), rng.uniform(0.5, 2.0, size=21)
        model.y_mean, model.y_std = 0.3, 2.0
        x = rng.standard_normal((m, 21))
        x_std = (x - model.x_mean) / model.x_std
        a, acts, pre = x_std, [], []
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            acts.append(a)
            pre.append(a @ w + b)
            a = np.maximum(pre[-1], 0.0)
        acts.append(a)
        out = (a @ model.weights[-1] + model.biases[-1])[:, 0]
        for keep in (True, False):
            got, got_acts, got_pre = model._forward_std(x_std, keep=keep)
            assert np.array_equal(got, out)
            if keep:
                assert all(map(np.array_equal, got_acts, acts)) and len(got_acts) == len(acts)
                assert all(map(np.array_equal, got_pre, pre)) and len(got_pre) == len(pre)
            else:
                assert got_acts == [] and got_pre == []
        assert np.array_equal(model.predict(x), np.maximum(out * model.y_std + model.y_mean, 0.0))

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

    @pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe"],
                             ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_file_is_one_value_error(self, tmp_path, content):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match="^cannot load threshold model: ") as exc:
            MlpPredictor.load(path)
        assert str(path) in str(exc.value)

    def test_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(ValueError):
            MlpPredictor.load(path)

    @pytest.mark.parametrize("field, value, message", [
        ("x_mean", [0.0] * 20, "model field 'x_mean' is not an array of shape (21,)"),
        ("x_std", "ones", "model field 'x_std' is not an array of shape (21,)"),
        ("y_mean", "0", "model field 'y_mean' is not a number"),
        ("y_std", None, "model field 'y_std' is not a number"),
        ("biases", [[0.0]] * 3, "model field 'biases[0]' is not an array of shape (128,)"),
        ("weights", [[[0.0], [0.0, 1.0]], [[0.0]], [[0.0]]],
         "model field 'weights[0]' is not an array of shape (21, 128)"),
        ("dims", 5, "unsupported dims 5"),
    ], ids=["x_mean", "x_std", "y_mean", "y_std", "biases", "weights", "dims"])
    def test_rejects_mistyped_field(self, field, value, message):
        raw = MlpPredictor.initialize(np.random.default_rng(0)).to_dict()
        raw[field] = value
        with pytest.raises(ValueError) as exc:
            MlpPredictor.from_dict(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1e-3])
    def test_learning_rate_not_positive_and_finite_refused(self, lr):
        x = np.random.default_rng(4).standard_normal((16, 21))
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            train_predictor(x, np.ones(16), seed=1, epochs=1, lr=lr)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_refused(self, epochs):
        x = np.random.default_rng(4).standard_normal((16, 21))
        with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
            train_predictor(x, np.ones(16), seed=1, epochs=epochs)

    @pytest.mark.parametrize("index, value", [(slice(None), 0.0), (7, 0.0), (20, -1.5)],
                             ids=["all-zero", "one-zero", "one-negative"])
    def test_rejects_x_std_not_positive(self, index, value):
        raw = MlpPredictor.initialize(np.random.default_rng(0)).to_dict()
        x_std = np.array(raw["x_std"])
        x_std[index] = value
        raw["x_std"] = x_std.tolist()
        with pytest.raises(ValueError) as exc:
            MlpPredictor.from_dict(raw)
        assert str(exc.value) == "model field 'x_std' holds a zero or negative value"

    @pytest.mark.parametrize("path, value, name", [
        (("weights", 1, 0, 0), math.nan, "weights[1]"),
        (("biases", 2, 0), math.inf, "biases[2]"),
        (("x_std", 3), math.nan, "x_std"),
        (("y_mean",), -math.inf, "y_mean"),
    ], ids=["weights", "biases", "x_std", "y_mean"])
    def test_rejects_non_finite_field(self, path, value, name):
        raw = MlpPredictor.initialize(np.random.default_rng(0)).to_dict()
        *parents, last = path
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError) as exc:
            MlpPredictor.from_dict(json.loads(json.dumps(raw)))
        assert str(exc.value) == f"model field {name!r} holds a non-finite value"

    def test_predict_equals_forward_pass_with_activations_kept(self):
        # Prediction drops each layer once the next is computed; its output
        # must equal, bit for bit, the pass that keeps them and an inline one.
        rng = np.random.default_rng(17)
        model = train_predictor(rng.standard_normal((256, 21)), rng.standard_normal(256),
                                seed=5, epochs=2)
        x = rng.standard_normal((300, 21))
        x_std = (x - model.x_mean) / model.x_std
        kept, acts, pre = model._forward_std(x_std, keep=True)
        assert len(acts) == 3 and len(pre) == 2
        a = x_std
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        inline = (a @ model.weights[-1] + model.biases[-1])[:, 0]
        for out in (kept, inline):
            assert np.array_equal(model.predict(x), np.maximum(out * model.y_std + model.y_mean, 0.0))

    def test_predict_threshold_clamps_and_validates(self):
        rng = np.random.default_rng(2)
        model = MlpPredictor.initialize(rng)
        model.y_mean = -100.0  # force a negative raw output
        assert model.predict(np.zeros((1, 21))) == 0.0
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 20)))
        with pytest.raises(ValueError):  # one vector is not a batch
            model.predict(np.zeros(21))


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

    def test_targets_equal_inline_eigvalsh_reference(self):
        # A test-side copy of the target: eigvalsh of each centred noise
        # draw, |lambda| sorted descending (stable), gamma and its percentile.
        config = load_bundled("elfo_moon")
        seed, sigma_w, n_noise, step = 8, 1.0, 300, 7200.0
        _, targets = build_training_set(config, sigma_w, n_geometries=3, n_noise=n_noise,
                                        seed=seed, step=step)
        schedule = build_clique_schedule(config, sampling_times(step, config.period))
        pool = [(entry, clique) for entry in schedule for clique in entry.cliques]
        chosen = substream(seed, TRAINING, 0).integers(len(pool), size=3)
        j = np.eye(6) - np.full((6, 6), 1.0 / 6)
        for g, index in enumerate(chosen):
            entry, clique = pool[index]
            sub = true_ranges(entry.positions, entry.graph)[np.ix_(clique, clique)]
            w = pair_noise(substream(seed, TRAINING, 1, g), 6, sigma_w, size=(n_noise,))
            centred = -0.5 * (j @ (sub + w) ** 2 @ j)
            lam = np.linalg.eigvalsh(centred)
            order = np.argsort(-np.abs(lam), axis=1, kind="stable")
            s = np.abs(lam)[np.arange(n_noise)[:, None], order]
            assert np.array_equal(edm.spectrum(centred), s)
            gamma = (s[:, 3] + s[:, 4]) / s[:, 0]
            assert targets[g] == np.percentile(gamma, TAIL_PERCENTILE)

    def test_target_stability_across_seeds(self):
        # one fixed geometry, large n_noise: . the 99.7 percentile estimate
        # is stable to a few percent across independent noise draws
        config = load_bundled("elfo_moon")
        _, t1 = build_training_set(config, 1.0, n_geometries=1, n_noise=10_000,
                                   seed=100, step=43198.0)
        _, t2 = build_training_set(config, 1.0, n_geometries=1, n_noise=10_000,
                                   seed=200, step=43198.0)
        assert t1[0] == pytest.approx(t2[0], rel=0.05)

    @pytest.mark.parametrize("sigma_w", [-1.0, math.inf, math.nan])
    def test_sigma_checked_before_the_schedule(self, monkeypatch, sigma_w):
        def schedule(*args, **kwargs):
            raise AssertionError("built the schedule before checking sigma_w")

        monkeypatch.setattr(calibration, "build_clique_schedule", schedule)
        with pytest.raises(ValueError, match="^sigma_w must be >= 0 and finite"):
            build_training_set(load_bundled("elfo_moon"), sigma_w, n_geometries=1,
                               n_noise=300, seed=1)

    def test_n_noise_floor(self):
        config = load_bundled("elfo_moon")
        with pytest.raises(ValueError):
            build_training_set(config, 1.0, n_geometries=1, n_noise=100, seed=1)

    @pytest.mark.parametrize("n_geometries, n_noise, message", [
        (0, 300, "empty training set: n_geometries must be >= 1, got 0"),
        (-5, 300, "empty training set: n_geometries must be >= 1, got -5"),
        (1, 299, "n_noise must be >= 300 to resolve the 99.7 percentile, got 299"),
    ])
    def test_training_size_checked_before_the_schedule(self, monkeypatch, n_geometries,
                                                       n_noise, message):
        def schedule(*args, **kwargs):
            raise AssertionError("built the schedule before checking the training size")

        monkeypatch.setattr(calibration, "build_clique_schedule", schedule)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_training_set(load_bundled("elfo_moon"), 1.0, n_geometries=n_geometries,
                               n_noise=n_noise, seed=1)

    @pytest.mark.parametrize("scale, message", [
        (-1e8, "has a range <= 0: its noise is larger than its range"),
        (1e200, "has a range whose square is not finite"),
    ], ids=["range<=0", "square-not-finite"])
    def test_range_rule_names_the_geometry(self, monkeypatch, scale, message):
        # Geometry 5 of 8, in the second block of 4, draws scale * |w|; the
        # others draw as usual.  The refusal names it, with no warning.
        config = load_bundled("elfo_moon")
        seed, step = 3, 7200.0
        draws, calls = calibration.pair_draws, []

        def pair_draws(*args, **kwargs):
            w = draws(*args, **kwargs)
            calls.append(None)
            return scale * np.abs(w) if len(calls) == 6 else w

        monkeypatch.setattr(calibration, "pair_draws", pair_draws)
        monkeypatch.setattr(calibration, "BLOCK_DRAWS", 1200)
        schedule = build_clique_schedule(config, sampling_times(step, config.period))
        pool = [(entry.t, clique.tolist()) for entry in schedule for clique in entry.cliques]
        t, clique = pool[substream(seed, TRAINING, 0).integers(len(pool), size=8)[5]]
        want = f"training geometry 5 (clique {clique} at t={t:g} s) {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            build_training_set(config, 1.0, n_geometries=8, n_noise=300, seed=seed, step=step)
        assert len(calls) == 8

    @pytest.mark.parametrize("draws", [300, 900, calibration.BLOCK_DRAWS])
    def test_one_feature_analysis_per_block(self, monkeypatch, draws):
        # A block of draws // 300 consecutive geometries is one
        # analyze_clique_batch call, and the rows do not depend on the block.
        config = load_bundled("elfo_moon")
        args = dict(sigma_w=1.0, n_geometries=40, n_noise=300, seed=4, step=600.0)
        want = build_training_set(config, **args)
        calls = []
        analyze = edm.analyze_clique_batch

        def counted(*a, **kw):
            calls.append(len(a[1]))
            return analyze(*a, **kw)

        monkeypatch.setattr(edm, "analyze_clique_batch", counted)
        monkeypatch.setattr(calibration, "BLOCK_DRAWS", draws)
        got = build_training_set(config, **args)
        per_block = draws // 300
        assert len(calls) == -(-40 // per_block)
        assert calls[:-1] == [per_block] * (len(calls) - 1)
        assert sum(calls) == 40
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
