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

Each command imports only the modules it runs: calibration and
experiment are imported inside the commands that use them, so detect
--threshold loads neither, detect --model loads calibration, and report
loads only results (standard-library CSV, the writer of every table).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cliques import EPOCH_STEP, check_grid, check_window, epoch_count, iter_schedule
from .constellation import propagate, resolve_config
from .detector import DetectorParams, detect_faults
from .linkgraph import build_visibility_graph
from .ranging import FaultConfig, measure_ranges
from .results import METRICS, read_results_csv, write_csv, write_results_csv
from .seeds import EPOCH_NOISE, check_seed, substream


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


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

# Epochs per propagate call of cmd_propagate, which bounds its memory on a long grid.
PROPAGATE_BLOCK = 4096


def cmd_propagate(args) -> int:
    config = resolve_config(args.config)
    # Every epoch t-start + k*step <= last has k < n_epochs; rows() keeps those.
    last = args.t_end + 1e-9
    n_epochs = epoch_count(last - args.t_start, args.step) + 1
    if args.t_start > args.t_end:
        raise ValueError(f"need t-end >= t-start, got t-start={args.t_start!r}, t-end={args.t_end!r}")
    check_grid(args.t_start, args.t_end, args.step)
    path = _outdir(args) / "positions.csv"

    def rows():
        for first in range(0, n_epochs, PROPAGATE_BLOCK):
            k = np.arange(first, min(first + PROPAGATE_BLOCK, n_epochs))
            times = args.t_start + args.step * k
            times = times[times <= last]
            for t, positions in zip(times.tolist(), propagate(config, times)):
                for sat, p in enumerate(positions.tolist()):
                    yield [repr(t), sat] + [repr(v) for v in p]

    write_csv(path, ["t", "sat_id", "x_m", "y_m", "z_m"], rows())
    print(f"wrote {path}")
    return 0


def cmd_graph(args) -> int:
    config = resolve_config(args.config)
    edges = build_visibility_graph(propagate(config, args.t), config.body.radius).edges()
    path = _outdir(args) / "edges.csv"
    write_csv(path, ["t", "i", "j"], ([repr(args.t), i, j] for i, j in edges))
    print(f"wrote {path} ({len(edges)} edges)")
    return 0


def cmd_cliques(args) -> int:
    config = resolve_config(args.config)
    found = next(iter_schedule(config, [args.t], args.k)).cliques
    out = _outdir(args)
    path = out / "cliques.csv"
    write_csv(path, ["t"] + [f"v{i}" for i in range(args.k)],
              ([repr(args.t)] + clique for clique in found.tolist()))
    counts = np.bincount(found.ravel(), minlength=config.n_satellites)
    counts_path = out / "clique_counts.csv"
    write_csv(counts_path, ["sat_id", "n_cliques"], enumerate(counts.tolist()))
    print(f"wrote {path} ({len(found)} cliques) and {counts_path}")
    return 0


def cmd_calibrate(args) -> int:
    from . import calibration

    config = resolve_config(args.config)
    duration = config.period if args.duration is None else args.duration
    check_seed(args.seed, "--seed")
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
    from . import calibration

    config = resolve_config(args.config)
    check_seed(args.seed, "--seed")
    calibration.check_learning_rate(args.lr)
    calibration.check_epochs(args.epochs)
    calibration.check_training_size(args.n_geometries, args.n_noise)
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
    config = resolve_config(args.config)
    check_seed(args.seed, "--seed")
    if (args.threshold is None) == (args.model is None):
        raise ValueError("need exactly one of --threshold and --model")
    if args.model is not None:
        from . import calibration

        threshold = calibration.MlpPredictor.load(args.model)
    else:
        threshold = args.threshold
    fault_ids = _satellite_ids(args.fault_sats)
    try:
        check_window(args.dl, config.period, EPOCH_STEP, "di (--dl)")
        params = DetectorParams(delta_nf=args.delta_nf, delta_rf=args.delta_rf,
                                gamma_threshold=threshold)
    except ValueError as exc:
        raise ValueError(f"invalid detector option: {exc}") from exc
    check_grid(args.t0, args.t0 + EPOCH_STEP * (args.dl - 1), EPOCH_STEP)
    faults = FaultConfig(fault_set=fault_ids, magnitude=args.magnitude)
    times = args.t0 + EPOCH_STEP * np.arange(args.dl)
    window = tuple(iter_schedule(config, times))
    ranges = [
        measure_ranges(entry.positions, entry.graph, faults, args.sigma_w,
                       substream(args.seed, EPOCH_NOISE, 0, k))
        for k, entry in enumerate(window)
    ]
    if args.dump_ranges:
        path = _outdir(args) / "ranges.csv"
        write_csv(path, ["t", "i", "j", "range_m"], (
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


def cmd_montecarlo(args) -> int:
    from . import experiment

    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    path = _outdir(args) / "results.csv"  # before calibrating; main removes it on failure
    spec = experiment.ExperimentSpec.load(args.experiment)
    cells = experiment.run_campaign(spec.context, spec.n_trials, workers=args.threads)
    write_results_csv(path, cells)
    print(f"wrote {path} ({len(cells)} cells x {spec.n_trials} trials)")
    return 0


def cmd_report(args) -> int:
    rows = read_results_csv(args.results)
    if not rows:
        raise ValueError("results file has no rows")

    fmt = "{:>7} {:>12} {:>10} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8}"
    print(fmt.format("faults", "magnitude_m", "threshold", "dl", *METRICS))
    for r in rows:
        print(fmt.format(
            r["faults"], r["magnitude_m"], r["threshold_label"], r["dl"],
            *(f"{float(r[m]):.3f}" for m in METRICS),
        ))

    # Plot-ready series: per metric and fault count, magnitude rows against
    # one column per (threshold, DL) pair.
    out = _outdir(args)
    fault_counts = sorted({r["faults"] for r in rows}, key=int)
    for metric in METRICS:
        for fc in fault_counts:
            sub = [r for r in rows if r["faults"] == fc]
            pairs = sorted({(r["threshold_label"], int(r["dl"])) for r in sub})
            mags = sorted({float(r["magnitude_m"]) for r in sub})
            lookup = {
                (r["threshold_label"], int(r["dl"]), float(r["magnitude_m"])): r[metric]
                for r in sub
            }
            write_csv(
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
    p.add_argument("--step", type=float, default=EPOCH_STEP)
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
    p.add_argument("--step", type=float, default=EPOCH_STEP)
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
    p.add_argument("--threads", type=int, default=1,
                   help="processes, at most one per trial and per usable CPU")
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
    out = Path(args.out)
    # --out and those of its parents that this run would make, deepest first.
    missing = [path for path in (out, *out.parents) if not path.exists()]
    try:
        rc = args.func(args)
        # A reader that closed stdout early shows here at the latest.
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed stdout (satfd report | head): send what is left
        # to os.devnull, so that the flush at exit raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, MemoryError) as exc:
        # numpy refuses an allocation larger than the machine at once, with
        # a MemoryError that says how large it was.
        print(f"error: {exc}", file=sys.stderr)
    # A failed run takes back the directories it made and left empty.
    for path in missing:
        try:
            path.rmdir()
        except OSError:  # not made, or not empty
            break
    return 1


if __name__ == "__main__":
    sys.exit(main())
