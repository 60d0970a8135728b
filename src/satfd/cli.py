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
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration, experiment
from .cliques import iter_schedule
from .constellation import ConstellationConfig, propagate, resolve_config
from .detector import DetectorParams, detect_faults
from .linkgraph import build_visibility_graph
from .ranging import FaultConfig, measure_ranges
from .seeds import EPOCH_NOISE, substream


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory: {exc}") from exc
    return out


def _write_csv(path: Path, header: list, rows) -> None:
    """One UTF-8 CSV table: the header row, then every row of rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_constellation(name: str) -> ConstellationConfig:
    try:
        return resolve_config(name)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load constellation config: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

# Epochs per propagate call of cmd_propagate, which bounds its memory on a long grid.
PROPAGATE_BLOCK = 4096


def cmd_propagate(args) -> int:
    config = _load_constellation(args.config)
    # A non-finite span would write rows without end; so would one whose
    # epoch count overflows a float.
    if not (0.0 < args.step < math.inf and -math.inf < args.t_start <= args.t_end < math.inf
            and (args.t_end - args.t_start) / args.step < math.inf):
        raise ValueError("need step > 0 and t-end >= t-start, all finite")
    # So would a step too small to change t: every row would share one epoch.
    for end in (args.t_start, args.t_end):
        if end + args.step == end:
            raise ValueError(f"step {args.step!r} does not advance t at {end!r}")
    path = _outdir(args) / "positions.csv"
    # Epochs t-start + k*step up to t-end, the way sampling_times builds its grid.
    last = args.t_end + 1e-9
    n_epochs = math.floor((last - args.t_start) / args.step) + 1

    def rows():
        for first in range(0, n_epochs, PROPAGATE_BLOCK):
            k = np.arange(first, min(first + PROPAGATE_BLOCK, n_epochs))
            times = args.t_start + args.step * k
            times = times[times <= last]
            for t, positions in zip(times.tolist(), propagate(config, times)):
                for sat, p in enumerate(positions.tolist()):
                    yield [repr(t), sat] + [repr(v) for v in p]

    _write_csv(path, ["t", "sat_id", "x_m", "y_m", "z_m"], rows())
    print(f"wrote {path}")
    return 0


def cmd_graph(args) -> int:
    config = _load_constellation(args.config)
    edges = build_visibility_graph(propagate(config, args.t), config.body.radius).edges()
    path = _outdir(args) / "edges.csv"
    _write_csv(path, ["t", "i", "j"], ([repr(args.t), i, j] for i, j in edges))
    print(f"wrote {path} ({len(edges)} edges)")
    return 0


def cmd_cliques(args) -> int:
    config = _load_constellation(args.config)
    if args.k < 1:
        raise ValueError("need k >= 1")
    found = next(iter_schedule(config, [args.t], args.k)).cliques
    out = _outdir(args)
    path = out / "cliques.csv"
    _write_csv(path, ["t"] + [f"v{i}" for i in range(args.k)],
               ([repr(args.t)] + clique for clique in found.tolist()))
    counts = np.bincount(found.ravel(), minlength=config.n_satellites)
    counts_path = out / "clique_counts.csv"
    _write_csv(counts_path, ["sat_id", "n_cliques"], enumerate(counts.tolist()))
    print(f"wrote {path} ({len(found)} cliques) and {counts_path}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_constellation(args.config)
    duration = config.period if args.duration is None else args.duration
    for p in args.percentiles:
        calibration.check_percentile(p)
    path = _outdir(args) / "thresholds.json"
    sample = calibration.sample_statistics(
        config, args.sigma_w, args.step, duration, seed=args.seed
    )
    records = calibration.write_thresholds(path, sample, args.percentiles)
    for rec in records:
        print(f"p{rec['percentile']}: {rec['value']:.6e}  ({rec['n_samples']} samples)")
    print(f"wrote {path}")
    return 0


def cmd_train_predictor(args) -> int:
    config = _load_constellation(args.config)
    calibration.check_learning_rate(args.lr)
    calibration.check_epochs(args.epochs)
    path = _outdir(args) / "model.json"
    feats, targets = calibration.build_training_set(
        config, args.sigma_w, args.n_geometries, args.n_noise, seed=args.seed
    )
    model = calibration.train_predictor(
        feats, targets, seed=args.seed, epochs=args.epochs, lr=args.lr
    )
    model.save(path)
    print(f"wrote {path}")
    return 0


def _satellite_ids(text: str) -> frozenset[int]:
    """Parse --fault-sats: comma-separated satellite ids, or "" for none."""
    try:
        return frozenset(int(s) for s in text.split(",")) if text else frozenset()
    except ValueError:
        raise ValueError(f"--fault-sats takes comma-separated ids, not {text!r}") from None


def cmd_detect(args) -> int:
    config = _load_constellation(args.config)
    if args.model is not None:
        try:
            threshold = calibration.MlpPredictor.load(args.model)
        except OSError as exc:
            raise ValueError(f"cannot load threshold model: {exc}") from exc
    elif args.threshold is not None:
        threshold = args.threshold
    else:
        raise ValueError("need --threshold or --model")
    fault_ids = _satellite_ids(args.fault_sats)
    if any(s < 0 or s >= config.n_satellites for s in fault_ids):
        raise ValueError("fault satellite id out of range")

    if args.dl < 1:
        raise ValueError("invalid detector option: di (--dl) must be >= 1")
    try:
        params = DetectorParams(delta_nf=args.delta_nf, delta_rf=args.delta_rf,
                                gamma_threshold=threshold)
    except ValueError as exc:
        raise ValueError(f"invalid detector option: {exc}") from exc
    faults = FaultConfig(fault_set=fault_ids, magnitude=args.magnitude)
    times = args.t0 + 60.0 * np.arange(args.dl)
    window = tuple(iter_schedule(config, times))
    ranges = [
        measure_ranges(entry.positions, entry.graph, faults, args.sigma_w,
                       substream(args.seed, EPOCH_NOISE, 0, k))
        for k, entry in enumerate(window)
    ]
    if args.dump_ranges:
        path = _outdir(args) / "ranges.csv"
        _write_csv(path, ["t", "i", "j", "range_m"], (
            [repr(entry.t), i, j, repr(float(rm.r[i, j]))]
            for entry, rm in zip(window, ranges) for i, j in entry.graph.edges()))
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


def _thresholds_from_spec(raw: dict, sample) -> list[experiment.ThresholdSpec]:
    """Grid thresholds; percentile values are NaN until a sample is given."""
    if "percentiles" in raw:
        for p in raw["percentiles"]:
            calibration.check_percentile(p)
        return [
            experiment.ThresholdSpec(label=f"p{p:g}", value=(
                math.nan if sample is None else calibration.percentile(sample, p)))
            for p in raw["percentiles"]
        ]
    if "values" in raw:
        specs = [
            experiment.ThresholdSpec(label=str(v["label"]), value=float(v["value"]))
            for v in raw["values"]
        ]
        for spec in specs:
            if not math.isfinite(spec.value):
                raise ValueError(f"threshold {spec.label!r} must be finite, got {spec.value!r}")
        return specs
    if "model" in raw:
        return [
            experiment.ThresholdSpec(
                label="predicted", value=calibration.MlpPredictor.load(raw["model"])
            )
        ]
    raise ValueError("thresholds must give 'percentiles', 'values', or 'model'")


def _integer(value, field: str) -> int:
    """int(value), refusing a value that int() would truncate or cannot
    convert (NaN, infinities)."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return whole


def load_experiment_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read experiment config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"invalid experiment config: {path} must be a JSON object, "
                         f"not {type(raw).__name__}")
    for field in ("constellation", "sigma_w_m", "fault_counts", "magnitudes_m",
                  "thresholds", "dl_list", "n_trials", "master_seed"):
        if field not in raw:
            raise ValueError(f"experiment config missing field {field!r}")
    raw.setdefault("timestep_s", 60.0)
    return raw


def cmd_montecarlo(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    raw = load_experiment_config(args.experiment)
    # str(): resolve_config would take an integer for a file descriptor.
    config = _load_constellation(str(raw["constellation"]))
    spec = raw["thresholds"]
    try:
        sigma_w = float(raw["sigma_w_m"])
        step = float(raw["timestep_s"])
        seed = _integer(raw["master_seed"], "master_seed")
        n_trials = _integer(raw["n_trials"], "n_trials")
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        grid = experiment.ExperimentGrid(
            fault_counts=tuple(_integer(v, "fault_counts") for v in raw["fault_counts"]),
            magnitudes=tuple(float(v) for v in raw["magnitudes_m"]),
            thresholds=tuple(_thresholds_from_spec(spec, sample=None)),
            dls=tuple(_integer(v, "dl_list") for v in raw["dl_list"]),
        )
        ctx = experiment.CampaignContext(
            config=config, sigma_w=sigma_w, grid=grid, master_seed=seed, timestep=step,
            delta_nf=_integer(raw.get("delta_nf", 10), "delta_nf"),
            delta_rf=float(raw.get("delta_rf", 0.2)),
        )
        if "percentiles" in spec:
            calibration.sampling_times(step, config.period)  # refuses a step beyond one period
    except KeyError as exc:
        raise ValueError(f"invalid experiment config: missing field {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid experiment config: {exc}") from exc
    # Calibrate and run only once the grid and the campaign have passed their
    # checks and the output directory exists.
    path = _outdir(args) / "results.csv"
    if "percentiles" in spec:
        sample = calibration.sample_statistics(config, sigma_w, step, config.period, seed=seed)
        ctx.grid = replace(grid, thresholds=tuple(_thresholds_from_spec(spec, sample)))
    results = experiment.run_campaign(ctx, n_trials, workers=args.threads)
    experiment.write_results_csv(path, results)
    print(f"wrote {path} ({len(results)} cells x {n_trials} trials)")
    return 0


def cmd_report(args) -> int:
    try:
        rows = experiment.read_results_csv(args.results)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    if not rows:
        raise ValueError("results file has no rows")

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
            _write_csv(
                out / f"report_{metric}_faults{fc}.csv",
                ["magnitude_m"] + [f"{lab}_dl{dl}" for lab, dl in pairs],
                ([repr(mag)] + [lookup.get((lab, dl, mag), "") for lab, dl in pairs]
                 for mag in mags),
            )
    print(f"wrote report series to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def _propagate_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=0.0)
    p.add_argument("--step", type=float, default=60.0)
    p.set_defaults(func=cmd_propagate)


def _graph_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(func=cmd_graph)


def _cliques_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--k", type=int, default=6)
    p.set_defaults(func=cmd_cliques)


def _calibrate_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--sigma-w", type=float, default=1.0, help="range noise std (m)")
    p.add_argument("--percentiles", type=lambda s: [float(v) for v in s.split(",")],
                   default=[95.0, 99.0, 99.9])
    p.add_argument("--step", type=float, default=60.0)
    p.add_argument("--duration", type=float, default=None,
                   help="sampling window (s); default one orbital period")
    p.set_defaults(func=cmd_calibrate)


def _train_predictor_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    _seed_flag(p)
    p.add_argument("--sigma-w", type=float, default=1.0)
    p.add_argument("--n-geometries", type=int, default=5000)
    p.add_argument("--n-noise", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(func=cmd_train_predictor)


def _detect_parser(p: argparse.ArgumentParser) -> None:
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


def _montecarlo_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p, config=False)
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--experiment", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_montecarlo)


def _report_parser(p: argparse.ArgumentParser) -> None:
    _common_flags(p, config=False)
    p.add_argument("--results", required=True, help="results CSV from montecarlo")
    p.set_defaults(func=cmd_report)


# name: (help, the function that adds the subcommand's options and sets its
# command function), in the order that --help lists them.  Each function
# reads its cmd_* by name when it runs, so a replaced module binding (a
# test's monkeypatch, a tracer's wrapper) is the one that runs.
SUBCOMMANDS = {
    "propagate": ("positions on a time grid", _propagate_parser),
    "graph": ("visibility edges at one epoch", _graph_parser),
    "cliques": ("k-cliques at one epoch", _cliques_parser),
    "calibrate": ("percentile thresholds from sampling", _calibrate_parser),
    "train-predictor": ("fit the threshold predictor", _train_predictor_parser),
    "detect": ("single detection run with injected faults", _detect_parser),
    "montecarlo": ("seeded campaign over a parameter grid", _montecarlo_parser),
    "report": ("summarize a results CSV", _report_parser),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The satfd parser.  When command names a subcommand, only that
    subcommand's parser is built (most of the cost of a parser is its
    add_argument calls); otherwise, as for --help, no command or an
    unknown one, every subcommand's parser is.  Usage, help and error
    texts are the same either way."""
    parser = argparse.ArgumentParser(
        prog="satfd",
        description="Satellite fault detection from inter-satellite ranges.",
    )
    names = [command] if command in SUBCOMMANDS else list(SUBCOMMANDS)
    # The usage line names every subcommand.  argparse prints the choices
    # of the parsers it has, so a lone parser needs the full list as its
    # metavar; with every parser built the metavar stays unset, because
    # argparse would also put it in place of "command" in its errors.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if len(names) == len(SUBCOMMANDS) else "{" + ",".join(SUBCOMMANDS) + "}",
    )
    for name in names:
        help_text, add_options = SUBCOMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
