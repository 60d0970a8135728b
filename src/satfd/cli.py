"""Command-line driver for the fault-detection pipeline.

Subcommands:

    propagate        satellite positions on a time grid -> CSV
    graph            visibility edges at one epoch -> CSV
    cliques          k-cliques at one epoch -> CSV + per-satellite counts
    calibrate        percentile thresholds from non-fault sampling -> JSON
    train-predictor  fit the per-subgraph threshold model -> JSON model
    detect           one detection run with injected faults -> JSON
    montecarlo       seeded campaign over a parameter grid -> results CSV
    report           summarize a results CSV and emit plot-ready series

All outputs are UTF-8 CSV/JSON.  Every command is deterministic given its
config and seed.  Only calibrate, train-predictor and detect take --seed
(montecarlo reads master_seed from its experiment file), and only
montecarlo takes --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, experiment
from .cliques import build_clique_schedule, schedule_entry
from .constellation import ConstellationConfig, orbital_period, propagate, resolve_config
from .detector import DetectorParams, detect_faults
from .linkgraph import build_visibility_graph
from .ranging import FaultConfig, measure_ranges
from .seeds import EPOCH_NOISE, substream


class CliError(Exception):
    """User-facing error: print the message and exit nonzero."""


def _common_flags(parser: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", required=True,
                            help="constellation config path or bundled name "
                                 "(elfo_moon, walker_mars)")
    parser.add_argument("--out", default=".", help="output directory")


def _seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_constellation(args) -> ConstellationConfig:
    try:
        return resolve_config(args.config)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load constellation config: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_propagate(args) -> int:
    config = _load_constellation(args)
    if args.step <= 0 or args.t_end < args.t_start:
        raise CliError("need step > 0 and t-end >= t-start")
    path = _outdir(args) / "positions.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sat_id", "x_m", "y_m", "z_m"])
        t = args.t_start
        while t <= args.t_end + 1e-9:
            ps = propagate(config, t)
            for sat, p in enumerate(ps.positions):
                writer.writerow([repr(t), sat] + [repr(float(v)) for v in p])
            t += args.step
    print(f"wrote {path}")
    return 0


def cmd_graph(args) -> int:
    config = _load_constellation(args)
    graph = build_visibility_graph(propagate(config, args.t), config.body.radius)
    path = _outdir(args) / "edges.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j"])
        for i, j in graph.edges():
            writer.writerow([repr(args.t), i, j])
    print(f"wrote {path} ({len(graph.edges())} edges)")
    return 0


def cmd_cliques(args) -> int:
    config = _load_constellation(args)
    if args.k < 1:
        raise CliError("need k >= 1")
    found = schedule_entry(config, args.t, args.k).cliques
    out = _outdir(args)
    path = out / "cliques.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v{i}" for i in range(args.k)])
        for clique in found.tolist():
            writer.writerow([repr(args.t)] + clique)
    counts = np.bincount(found.ravel(), minlength=config.n_satellites)
    counts_path = out / "clique_counts.csv"
    with open(counts_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sat_id", "n_cliques"])
        for sat, n_cliques in enumerate(counts.tolist()):
            writer.writerow([sat, n_cliques])
    print(f"wrote {path} ({len(found)} cliques) and {counts_path}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_constellation(args)
    duration = args.duration
    if duration is None:
        duration = orbital_period(config.satellites[0].a, config.body.mu)
    if args.step <= 0 or duration < args.step:
        raise CliError("need step > 0 and duration >= step")
    sample = calibration.sample_statistics(
        config, args.sigma_w, args.step, duration, seed=args.seed
    )
    path = _outdir(args) / "thresholds.json"
    records = calibration.write_thresholds(path, sample, args.percentiles)
    for rec in records:
        print(f"p{rec['percentile']}: {rec['value']:.6e}  ({rec['n_samples']} samples)")
    print(f"wrote {path}")
    return 0


def cmd_train_predictor(args) -> int:
    config = _load_constellation(args)
    feats, targets = calibration.build_training_set(
        config, args.sigma_w, args.n_geometries, args.n_noise, seed=args.seed
    )
    model = calibration.train_predictor(
        feats, targets, seed=args.seed, epochs=args.epochs, lr=args.lr
    )
    path = _outdir(args) / "model.json"
    model.save(path)
    print(f"wrote {path}")
    return 0


def cmd_detect(args) -> int:
    config = _load_constellation(args)
    if args.model is not None:
        threshold = calibration.MlpPredictor.load(args.model)
    elif args.threshold is not None:
        threshold = args.threshold
    else:
        raise CliError("need --threshold or --model")
    fault_ids = frozenset(int(s) for s in args.fault_sats.split(",")) if args.fault_sats else frozenset()
    if any(s < 0 or s >= config.n_satellites for s in fault_ids):
        raise CliError("fault satellite id out of range")

    if args.dl < 1:
        raise CliError("invalid detector option: di (--dl) must be >= 1")
    try:
        params = DetectorParams(delta_nf=args.delta_nf, delta_rf=args.delta_rf,
                                gamma_threshold=threshold)
    except ValueError as exc:
        raise CliError(f"invalid detector option: {exc}") from exc
    faults = FaultConfig(fault_set=fault_ids, magnitude=args.magnitude)
    times = args.t0 + 60.0 * np.arange(args.dl)
    window = build_clique_schedule(config, times).entries
    ranges = [
        measure_ranges(entry.positions, entry.graph, faults, args.sigma_w,
                       substream(args.seed, EPOCH_NOISE, 0, k))
        for k, entry in enumerate(window)
    ]
    if args.dump_ranges:
        path = _outdir(args) / "ranges.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "i", "j", "range_m"])
            for entry, rm in zip(window, ranges):
                for i, j in entry.graph.edges():
                    writer.writerow([repr(entry.t), i, j, repr(float(rm.r[i, j]))])
        print(f"wrote {path}")
    outcome = detect_faults([entry.cliques for entry in window], ranges, params)
    report = {
        "fault_list": list(outcome.fault_list),
        "rounds": outcome.rounds,
        "votes_per_round": [v.counts.tolist() for v in outcome.vote_history],
        "injected": sorted(fault_ids),
    }
    print(json.dumps(report, indent=2))
    return 0


def _thresholds_from_spec(raw: dict, config, sigma_w, step, seed) -> list[experiment.ThresholdSpec]:
    if "percentiles" in raw:
        duration = orbital_period(config.satellites[0].a, config.body.mu)
        sample = calibration.sample_statistics(config, sigma_w, step, duration, seed=seed)
        return [
            experiment.ThresholdSpec(label=f"p{p:g}", value=calibration.percentile(sample, p))
            for p in raw["percentiles"]
        ]
    if "values" in raw:
        return [
            experiment.ThresholdSpec(label=str(v["label"]), value=float(v["value"]))
            for v in raw["values"]
        ]
    if "model" in raw:
        return [
            experiment.ThresholdSpec(
                label="predicted", value=calibration.MlpPredictor.load(raw["model"])
            )
        ]
    raise CliError("thresholds must give 'percentiles', 'values', or 'model'")


def load_experiment_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read experiment config: {exc}") from exc
    for field in ("constellation", "sigma_w_m", "fault_counts", "magnitudes_m",
                  "thresholds", "dl_list", "n_trials", "master_seed"):
        if field not in raw:
            raise CliError(f"experiment config missing field {field!r}")
    for lst in ("fault_counts", "magnitudes_m", "dl_list"):
        if not raw[lst]:
            raise CliError(f"experiment config field {lst!r} must be non-empty")
    if raw["n_trials"] < 1:
        raise CliError("n_trials must be >= 1")
    raw.setdefault("timestep_s", 60.0)
    return raw


def cmd_montecarlo(args) -> int:
    if args.threads < 1:
        raise CliError("--threads must be >= 1")
    raw = load_experiment_config(args.experiment)
    try:
        config = resolve_config(raw["constellation"])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load constellation config: {exc}") from exc

    seed = int(raw["master_seed"])
    sigma_w = float(raw["sigma_w_m"])
    step = float(raw["timestep_s"])
    try:
        thresholds = _thresholds_from_spec(raw["thresholds"], config, sigma_w, step, seed)
        grid = experiment.ExperimentGrid(
            fault_counts=tuple(int(v) for v in raw["fault_counts"]),
            magnitudes=tuple(float(v) for v in raw["magnitudes_m"]),
            thresholds=tuple(thresholds),
            dls=tuple(int(v) for v in raw["dl_list"]),
        )
        ctx = experiment.CampaignContext(
            config=config, sigma_w=sigma_w, grid=grid, master_seed=seed, timestep=step,
            delta_nf=int(raw.get("delta_nf", 10)), delta_rf=float(raw.get("delta_rf", 0.2)),
        )
    except (OSError, ValueError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc
    results = experiment.run_campaign(ctx, int(raw["n_trials"]), workers=args.threads)
    path = _outdir(args) / "results.csv"
    experiment.write_results_csv(path, results)
    print(f"wrote {path} ({len(results)} cells x {raw['n_trials']} trials)")
    return 0


def cmd_report(args) -> int:
    try:
        rows = experiment.read_results_csv(args.results)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if not rows:
        raise CliError("results file has no rows")

    fmt = "{:>7} {:>12} {:>10} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8}"
    print(fmt.format("faults", "magnitude_m", "threshold", "dl",
                     "tpr", "fpr", "ppv", "f1", "p4"))
    for r in rows:
        print(fmt.format(
            r["faults"], r["magnitude_m"], r["threshold_label"], r["dl"],
            *(f"{float(r[m]):.3f}" for m in ("tpr", "fpr", "ppv", "f1", "p4")),
        ))

    # Plot-ready series: per metric and fault count, magnitude rows against
    # one column per (threshold, DL) pair.
    out = _outdir(args)
    fault_counts = sorted({r["faults"] for r in rows}, key=int)
    for metric in ("tpr", "fpr", "ppv", "f1", "p4"):
        for fc in fault_counts:
            sub = [r for r in rows if r["faults"] == fc]
            pairs = sorted({(r["threshold_label"], int(r["dl"])) for r in sub})
            mags = sorted({float(r["magnitude_m"]) for r in sub})
            lookup = {
                (r["threshold_label"], int(r["dl"]), float(r["magnitude_m"])): r[metric]
                for r in sub
            }
            path = out / f"report_{metric}_faults{fc}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["magnitude_m"] + [f"{lab}_dl{dl}" for lab, dl in pairs])
                for mag in mags:
                    writer.writerow(
                        [repr(mag)] + [lookup.get((lab, dl, mag), "") for lab, dl in pairs]
                    )
    print(f"wrote report series to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satfd",
        description="Satellite fault detection from inter-satellite ranges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="positions on a time grid")
    _common_flags(p)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=0.0)
    p.add_argument("--step", type=float, default=60.0)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("graph", help="visibility edges at one epoch")
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cliques", help="k-cliques at one epoch")
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--k", type=int, default=6)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("calibrate", help="percentile thresholds from sampling")
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--sigma-w", type=float, default=1.0, help="range noise std (m)")
    p.add_argument("--percentiles", type=lambda s: [float(v) for v in s.split(",")],
                   default=[95.0, 99.0, 99.9])
    p.add_argument("--step", type=float, default=60.0)
    p.add_argument("--duration", type=float, default=None,
                   help="sampling window (s); default one orbital period")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train-predictor", help="fit the threshold predictor")
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--sigma-w", type=float, default=1.0)
    p.add_argument("--n-geometries", type=int, default=5000)
    p.add_argument("--n-noise", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(func=cmd_train_predictor)

    p = sub.add_parser("detect", help="single detection run with injected faults")
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--fault-sats", default="", help="comma-separated satellite ids")
    p.add_argument("--magnitude", type=float, default=0.0, help="fault bias (m)")
    p.add_argument("--sigma-w", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--model", default=None, help="threshold predictor model file")
    p.add_argument("--dl", type=int, default=1)
    p.add_argument("--delta-nf", type=int, default=10)
    p.add_argument("--delta-rf", type=float, default=0.2)
    p.add_argument("--dump-ranges", action="store_true",
                   help="also write the measured ranges as t,i,j,range_m")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("montecarlo", help="seeded campaign over a parameter grid")
    _common_flags(p, config=False)
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--experiment", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", help="summarize a results CSV")
    _common_flags(p, config=False)
    p.add_argument("--results", required=True, help="results CSV from montecarlo")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
