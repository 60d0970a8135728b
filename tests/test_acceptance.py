"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the verdict lines.
Campaign-level checks run at desk scale (100 or 500 trials) against the
reference detection-performance values with the stated tolerances.
"""

import itertools
import os
import time

import numpy as np
import pytest

from satfd import edm
from satfd.calibration import (
    MlpPredictor,
    build_training_set,
    loss_and_grads,
    percentile,
    sample_statistics,
    train_predictor,
)
from satfd.cliques import list_k_cliques
from satfd.constellation import load_bundled, orbital_period, propagate
from satfd.experiment import (
    CampaignContext,
    ExperimentGrid,
    ThresholdSpec,
    run_campaign,
    write_results_csv,
)
from satfd.linkgraph import VisibilityGraph
from satfd.ranging import RangeMatrix

MASTER_SEED = 1
WORKERS = min(8, os.cpu_count() or 1)


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive artifacts.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def elfo():
    return load_bundled("elfo_moon")


@pytest.fixture(scope="session")
def elfo_period(elfo):
    return orbital_period(elfo.satellites[0].a, elfo.body.mu)


@pytest.fixture(scope="session")
def calibration_run(elfo, elfo_period):
    start = time.perf_counter()
    sample = sample_statistics(elfo, 1.0, 60.0, elfo_period, seed=0)
    return sample, time.perf_counter() - start


@pytest.fixture(scope="session")
def calibration_sample(calibration_run):
    return calibration_run[0]


@pytest.fixture(scope="session")
def thresholds(calibration_sample):
    return {p: percentile(calibration_sample, p) for p in (95.0, 99.0, 99.7, 99.9)}


@pytest.fixture(scope="session")
def desk_campaign(elfo, thresholds):
    """100-trial campaign over the cells the desk-scale reproduction pins."""
    grid = ExperimentGrid(
        fault_counts=(1,),
        magnitudes=(5.0, 20.0),
        thresholds=(
            ThresholdSpec("p99", thresholds[99.0]),
            ThresholdSpec("p99.9", thresholds[99.9]),
        ),
        dls=(1,),
    )
    ctx = CampaignContext(config=elfo, sigma_w=1.0, grid=grid, master_seed=MASTER_SEED)
    start = time.perf_counter()
    results = run_campaign(ctx, n_trials=100, workers=WORKERS)
    elapsed = time.perf_counter() - start
    return {(r.threshold.label, r.magnitude): r for r in results}, elapsed


@pytest.fixture(scope="session")
def trend_campaign(elfo, thresholds):
    """500-trial campaign over the full threshold x DL x magnitude grid."""
    grid = ExperimentGrid(
        fault_counts=(1,),
        magnitudes=(5.0, 10.0, 20.0),
        thresholds=(
            ThresholdSpec("p99.9", thresholds[99.9]),
            ThresholdSpec("p99", thresholds[99.0]),
            ThresholdSpec("p95", thresholds[95.0]),
        ),
        dls=(1, 2, 3, 5),
    )
    ctx = CampaignContext(config=elfo, sigma_w=1.0, grid=grid, master_seed=MASTER_SEED)
    results = run_campaign(ctx, n_trials=500, workers=WORKERS)
    return {(r.threshold.label, r.dl, r.magnitude): r.metrics for r in results}


@pytest.fixture(scope="session")
def predictor_data(elfo):
    return build_training_set(elfo, 1.0, n_geometries=5000, n_noise=500, seed=77)


# ---------------------------------------------------------------------------
# Criterion 1: rank laws of faulted distance matrices.
# ---------------------------------------------------------------------------

def random_rank_cases(sigma):
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(0, 4))
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((diff**2).sum(axis=2))
        if sigma:
            w = np.zeros((n, n))
            iu = np.triu_indices(n, k=1)
            w[iu] = rng.standard_normal(iu[0].size) * sigma
            r = r + w + w.T
        bias = np.zeros(n)
        bias[rng.choice(n, size=m, replace=False)] = 0.3
        r = r + bias[:, None] + bias[None, :]
        np.fill_diagonal(r, 0.0)
        yield n, m, RangeMatrix(r=r)


def test_criterion_1_rank_laws():
    start = time.perf_counter()
    edm_ok = edm_exact = 0
    g_ok = g_exact = g_eligible = 0
    noisy_ok = 0
    for n, m, rm in random_rank_cases(sigma=0.0):
        d = edm.build_edm(rm, np.arange(n)[None])[0]
        s_d = np.linalg.svd(d, compute_uv=False)
        rank_d = edm.numerical_rank(s_d, 1e-10)
        bound_d = min(3 + 2 + 2 * m, n)
        edm_ok += rank_d <= bound_d
        edm_exact += rank_d == bound_d

        g = edm.geometric_center(d)
        s_g = np.linalg.svd(g, compute_uv=False)
        rank_g = edm.numerical_rank(s_g, 1e-10)
        bound_g = min(3 + 2 * m, n - 1)
        g_ok += rank_g <= bound_g
        if 2 * m < n - 1:
            g_eligible += 1
            g_exact += rank_g == bound_g

    for n, m, rm in random_rank_cases(sigma=1e-4):
        g = edm.geometric_center(edm.build_edm(rm, np.arange(n)[None]))[0]
        s_g = np.linalg.svd(g, compute_uv=False)
        noisy_ok += edm.numerical_rank(s_g, 1e-12) == n - 1

    elapsed = time.perf_counter() - start
    ok = (
        edm_ok == 200 and edm_exact >= 190
        and g_ok == 200 and g_exact >= 0.95 * g_eligible
        and noisy_ok == 200 and elapsed < 10.0
    )
    verdict(ok, "criterion 1 (rank laws)",
            f"EDM bound {edm_ok}/200 exact {edm_exact}, GCEDM bound {g_ok}/200 "
            f"exact {g_exact}/{g_eligible}, noisy full-rank {noisy_ok}/200, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: noiseless sanity of the test statistic.
# ---------------------------------------------------------------------------

def test_criterion_2_noiseless_sanity():
    rng = np.random.default_rng(99)
    clean = 0
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(0, 7)
        pts = rng.uniform(0.0, 1.0, size=(6, 3)) * scale
        diff = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(r, 0.0)
        clique = np.arange(6)[None]
        g = edm.geometric_center(edm.build_edm(RangeMatrix(r), clique))[0]
        a = edm.analyze_clique_batch(RangeMatrix(r), clique)
        row_sums_ok = np.abs(g.sum(axis=1)).max() <= 1e-9 * np.abs(g).max()
        clean += (a.gamma_test[0] <= 1e-10) and row_sums_ok
    verdict(clean == 1000, "criterion 2 (noiseless sanity)",
            f"{clean}/1000 cliques with gamma <= 1e-10 and centered row sums")


# ---------------------------------------------------------------------------
# Criterion 3: clique enumeration equals brute force.
# ---------------------------------------------------------------------------

def test_criterion_3_clique_oracle():
    rng = np.random.default_rng(555)
    graphs = agree = 0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        adj = np.zeros((n, n), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < rng.uniform(0.2, 0.95):
                adj[i, j] = adj[j, i] = True
        graph = VisibilityGraph(adjacency=adj)
        graphs += 1
        match = True
        for k in range(3, 7):
            brute = [
                c for c in itertools.combinations(range(n), k)
                if all(adj[a, b] for a, b in itertools.combinations(c, 2))
            ]
            brute = np.array(brute, dtype=np.intp).reshape(len(brute), k)
            match &= np.array_equal(list_k_cliques(graph, k), brute)
        agree += match
    verdict(agree == graphs, "criterion 3 (clique oracle)",
            f"{agree}/{graphs} random graphs match brute force for k in 3..6")


# ---------------------------------------------------------------------------
# Criterion 4: threshold calibration reproduction.
# ---------------------------------------------------------------------------

REFERENCE_SUBGRAPH_TOTAL = 256_742
REFERENCE_THRESHOLDS = {95.0: 3.58e-7, 99.0: 4.57e-7, 99.9: 5.86e-7}


def clears_body(pos: np.ndarray, radius: float) -> np.ndarray:
    """(n, n) mask of satellite pairs whose joining segment misses the sphere.

    Closest point of p_i + s (p_j - p_i), s in [0, 1], to the origin; the pair
    is linked when that point lies at or above the radius.
    """
    p1 = pos[:, None, :]
    d = pos[None, :, :] - p1
    dd = (d * d).sum(axis=2)
    s = np.clip(-(p1 * d).sum(axis=2) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    closest = p1 + s[..., None] * d
    return (closest * closest).sum(axis=2) >= radius * radius


def test_criterion_4_subgraph_count(elfo, elfo_period, calibration_sample):
    # The calibration sample must hold one gamma_test per non-fault 6-clique
    # per epoch of one period on the 60 s grid.  The oracle recounts that
    # population by brute force over all 6-satellite subsets, from positions
    # alone, and the sample must match it exactly.  The reference total is
    # only reported: the stated setup fixes the count at 12 x 25,842 (the
    # constellation repeats itself rotated every T/12), and no window or link
    # rule that the paper states gives 256,742, which is 2 mod 12.
    subsets = np.array(list(itertools.combinations(range(elfo.n_satellites), 6)))
    ii, jj = np.triu_indices(6, k=1)
    expected = 0
    for t in np.arange(0.0, elfo_period, 60.0):
        linked = clears_body(propagate(elfo, float(t)).positions, elfo.body.radius)
        expected += int(linked[subsets[:, ii], subsets[:, jj]].all(axis=1).sum())
    total = calibration_sample.n
    deviation = total / REFERENCE_SUBGRAPH_TOTAL - 1.0
    verdict(total == expected, "criterion 4a (subgraph count)",
            f"{total} sampled subgraphs vs brute-force oracle {expected} "
            f"(must be equal); reference {REFERENCE_SUBGRAPH_TOTAL} "
            f"({deviation:+.1%}, reported only)")


def test_criterion_4_threshold_values(calibration_run, thresholds):
    elapsed = calibration_run[1]
    details = []
    ok = elapsed < 300.0
    for p, ref in REFERENCE_THRESHOLDS.items():
        got = thresholds[p]
        details.append(f"p{p:g}={got:.3e} (ref {ref:.2e}, {got / ref - 1.0:+.1%})")
        ok &= abs(got / ref - 1.0) <= 0.20
    verdict(ok, "criterion 4b (threshold values)",
            ", ".join(details) + f", sampled in {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# Criterion 5: Monte-Carlo table reproduction at desk scale.
# ---------------------------------------------------------------------------

def test_criterion_5_desk_scale_table(desk_campaign):
    cells, elapsed = desk_campaign
    strong = cells[("p99", 20.0)].metrics
    weak = cells[("p99", 5.0)].metrics
    tight = cells[("p99.9", 5.0)].metrics
    ok = (
        0.84 <= strong.tpr <= 0.96
        and strong.fpr <= 0.03
        and weak.tpr <= 0.30
        and tight.tpr <= 0.05
        and elapsed < 600.0
    )
    verdict(ok, "criterion 5 (desk-scale table)",
            f"b20/p99 TPR={strong.tpr:.3f} (ref 0.900, want [0.84,0.96]) "
            f"FPR={strong.fpr:.3f} (<=0.03); b5/p99 TPR={weak.tpr:.3f} (<=0.30); "
            f"b5/p99.9 TPR={tight.tpr:.3f} (<=0.05); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 6: statistical trends at 500 trials.
# ---------------------------------------------------------------------------

SLACK = 0.02


def test_criterion_6_trends(trend_campaign):
    labels = ("p99.9", "p99", "p95")
    dls = (1, 2, 3, 5)
    mags = (5.0, 10.0, 20.0)

    tpr_vs_mag = all(
        trend_campaign[(lab, dl, hi)].tpr >= trend_campaign[(lab, dl, lo)].tpr - SLACK
        for lab in labels for dl in dls
        for lo, hi in zip(mags, mags[1:])
    )
    tpr_vs_dl = all(
        trend_campaign[(lab, hi, mag)].tpr >= trend_campaign[(lab, lo, mag)].tpr - SLACK
        for lab in labels for mag in mags
        for lo, hi in zip(dls, dls[1:])
    )
    fpr_vs_dl = all(
        trend_campaign[(lab, hi, mag)].fpr >= trend_campaign[(lab, lo, mag)].fpr - SLACK
        for lab in labels for mag in mags
        for lo, hi in zip(dls, dls[1:])
    )
    max_tpr = max(m.tpr for m in trend_campaign.values())
    capped = max_tpr <= 0.94

    ok = tpr_vs_mag and tpr_vs_dl and fpr_vs_dl and capped
    verdict(ok, "criterion 6 (trends at 500 trials)",
            f"TPR/magnitude monotone={tpr_vs_mag}, TPR/DL monotone={tpr_vs_dl}, "
            f"FPR/DL monotone={fpr_vs_dl}, max TPR={max_tpr:.3f} (<=0.94)")


# ---------------------------------------------------------------------------
# Criterion 7: campaign determinism.
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(elfo, thresholds, tmp_path):
    grid = ExperimentGrid(
        fault_counts=(1, 2),
        magnitudes=(10.0, 20.0),
        thresholds=(ThresholdSpec("p99", thresholds[99.0]),),
        dls=(1, 2),
    )

    paths = []
    for name, workers in (("a", 1), ("b", 2), ("c", 1)):
        ctx = CampaignContext(config=elfo, sigma_w=1.0, grid=grid, master_seed=7)
        results = run_campaign(ctx, n_trials=20, workers=workers)
        path = tmp_path / f"{name}.csv"
        write_results_csv(path, results)
        paths.append(path.read_bytes())

    ok = paths[0] == paths[1] == paths[2]
    verdict(ok, "criterion 7 (determinism)",
            "results CSV byte-identical across repeated runs and worker counts")


# ---------------------------------------------------------------------------
# Criterion 8: threshold predictor suite.
# ---------------------------------------------------------------------------

def test_criterion_8_gradient_check():
    rng = np.random.default_rng(12)
    model = MlpPredictor.initialize(rng)
    x = rng.standard_normal((16, 21))
    y = rng.standard_normal(16)
    _, gw, gb = loss_and_grads(model, x, y)

    eps = 1e-6
    worst = 0.0
    for layer in range(3):
        for arr, grads in ((model.weights[layer], gw[layer]),
                           (model.biases[layer], gb[layer])):
            flat_idx = rng.choice(arr.size, size=min(15, arr.size), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _, _ = loss_and_grads(model, x, y)
                arr[idx] = orig - eps
                lm, _, _ = loss_and_grads(model, x, y)
                arr[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(grads[idx]), 1e-8)
                worst = max(worst, abs(numeric - grads[idx]) / denom)
    verdict(worst < 1e-5, "criterion 8a (gradient check)",
            f"max relative gradient error {worst:.2e} (< 1e-5)")


def test_criterion_8_beats_baseline(predictor_data):
    feats, targets = predictor_data
    split = int(0.8 * len(targets))
    model = train_predictor(feats[:split], targets[:split], seed=5)
    pred = model.predict(feats[split:])
    mse = float(np.mean((pred - targets[split:]) ** 2))
    baseline = float(np.mean((targets[:split].mean() - targets[split:]) ** 2))
    verdict(mse < baseline, "criterion 8b (beats constant baseline)",
            f"holdout MSE {mse:.3e} vs baseline {baseline:.3e} "
            f"(ratio {mse / baseline:.2f})")


def test_criterion_8_round_trip(predictor_data, tmp_path):
    feats, targets = predictor_data
    model = train_predictor(feats[:1000], targets[:1000], seed=5, epochs=5)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    model.save(p1)
    loaded = MlpPredictor.load(p1)
    loaded.save(p2)
    weights_equal = all(
        np.array_equal(a, b) for a, b in zip(model.weights, loaded.weights)
    ) and all(np.array_equal(a, b) for a, b in zip(model.biases, loaded.biases))
    ok = weights_equal and p1.read_bytes() == p2.read_bytes()
    verdict(ok, "criterion 8c (model round-trip)",
            "weights bit-exact and re-serialization byte-identical")


def test_criterion_8_predicted_mode_tpr(elfo, thresholds, predictor_data):
    feats, targets = predictor_data
    split = int(0.8 * len(targets))
    model = train_predictor(feats[:split], targets[:split], seed=5)
    grid = ExperimentGrid(
        fault_counts=(1,),
        magnitudes=(5.0,),
        thresholds=(
            ThresholdSpec("p99.7", thresholds[99.7]),
            ThresholdSpec("predicted", model),
        ),
        dls=(1,),
    )
    ctx = CampaignContext(config=elfo, sigma_w=1.0, grid=grid, master_seed=MASTER_SEED)
    results = run_campaign(ctx, n_trials=100, workers=WORKERS)
    tpr = {r.threshold.label: r.metrics.tpr for r in results}
    verdict(tpr["predicted"] >= tpr["p99.7"], "criterion 8d (predicted-mode TPR)",
            f"predicted TPR={tpr['predicted']:.3f} >= fixed p99.7 TPR={tpr['p99.7']:.3f} "
            f"at 5 m magnitude")
