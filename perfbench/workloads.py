"""The four satfd benchmark workloads and the checks on their outputs.

Each workload has:

* a set-up, timed as ``setup_s`` from ``import satfd`` to the first
  operation;
* an endless stream of operation inputs drawn from the benchmark seed;
* the timed operation, which calls satfd the way a user would;
* a check of every output against references recorded on the seed commit
  (``perfbench/reference/*.json``, written by ``record_reference.py``).

Every operation's input is drawn, without replacement, from a recorded
pool (32 calibration seeds, 64 elfo and 32 mars campaign master seeds,
4,096 detection requests) in an order set by the benchmark seed.  So every
output has a reference, and no operation of a run repeats the work of
another: a cache that outlives one call cannot make a later operation of
the same run cheaper than it would be for a user.  A run stops timing
early if its pool runs out.  A campaign operation is one run_campaign
call on a shallow copy of the set-up context with the operation's master
seed, so the operations share the set-up topology but run trials no other
operation ran.  The mars pool is small on purpose: the cost of a mars
operation follows the clique count of its trials' start epochs (a
coefficient of variation of 0.16 across master seeds at 32 trials), and a
run that times nearly all of a small pool varies less than one that
samples a few from a large pool.  Why each workload exists:

calibrate_elfo
    One ``elfo_moon`` period of ``sample_statistics``: 720 epochs, 310,104
    cliques, no faults.  The only timed path where topology (propagation,
    visibility, clique listing) carries about half the work and the
    detector none.
campaign_elfo
    Serial ``run_campaign`` over the 36-cell trend grid (1 fault; 5, 10,
    20 m; three thresholds; DL 1, 2, 3, 5).  Topology is paid in set-up;
    trials are EDM analysis plus 12 threshold x DL re-tallies per
    magnitude, and the three magnitudes share noise.
campaign_mars
    ``run_campaign`` on ``walker_mars`` with up to two worker processes:
    nested fault counts 1-3 at one magnitude, a fixed p99 threshold and a
    predictor threshold trained in set-up.  Exercises the process pool, the
    predictor path and a set-up that computes the topology twice.
detect_stream
    Closed loop, one client: each request is one in-process
    ``satfd.cli.main(["detect", ...])`` over a 3-epoch window.  The only
    workload that pays topology on every request.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SIGMA_W = 1.0
STEP_S = 60.0
CALIBRATION_SEEDS = 32           # calibration seeds with recorded outputs
CAMPAIGN_MASTER_SEED = 1         # of the set-up context and the mars predictor
TOY_EPOCHS = 20                  # calibration window of the toy run
# (trials per run_campaign call, recorded master seeds 1..n) per campaign
ELFO_CAMPAIGN = (16, 64)
MARS_CAMPAIGN = (24, 32)
TOY_CAMPAIGN_TRIALS = 2
REL_TOL = 1e-9                   # calibration percentiles

ELFO_THRESHOLDS = (("p95", 3.58e-7), ("p99", 4.57e-7), ("p99.9", 5.86e-7))
MARS_P99 = 1.8248616594192475e-07    # walker_mars p99, seed 0, one period
MARS_TRAINING = (1000, 300)          # geometries x noise draws
MARS_MAX_WORKERS = 2

ELFO_EPOCHS = 720                # 60 s epochs in one elfo_moon period
DETECT_POOL_SIZE = 4096
DETECT_POOL_SEED = 2406_09759
DETECT_THRESHOLD = 4.57e-7
DETECT_DL = 3
DETECT_MAGNITUDE = 20.0

# Program counts of one elfo_moon calibration period at 60 s steps.
CALIBRATE_PERIOD_COUNTS = {
    "cliques.list_k_cliques.calls": 720,
    "edm.cliques_analysed": 310_104,
    "cliques.distinct_topologies": 144,
}

CALIBRATION_PERCENTILES = (("p95", 95.0), ("p99", 99.0), ("p99.9", 99.9))


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result; it exits without one."""


class MissingProgram(BenchmarkError):
    """The checkout holds no satfd sources to benchmark."""


def import_satfd():
    """Import satfd from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "satfd" / "__init__.py").is_file():
        raise MissingProgram(f"no satfd package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import satfd

    if Path(satfd.__file__).resolve().parent != (src / "satfd").resolve():
        raise MissingProgram(f"imported satfd from {satfd.__file__}, not {src}")
    return satfd


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see the module docstring for why it exists."""

    name: str
    unit: str                                     # what one work unit is
    setup: Callable[[bool], object]                # toy -> state
    inputs: Callable[[object, random.Random], Iterator]  # the shuffled input pool
    run: Callable[[object, object], object]       # the timed operation
    units: Callable[[object], int]                # work units in one operation
    check: Callable[[dict, bool, object, object], tuple[int, int]]
    setup_samples: int                            # set-ups per run (median)
    trace_pairs: tuple[int, int]                  # traced/untraced operation pairs: full, toy
    trace_counts: dict | None = None              # exact counts per traced operation
    workers: int = 1                              # most CPUs one operation uses
    warmup_ops: int = 1                           # checked but untimed, before timing


def _failed_all(n: int) -> tuple[int, int]:
    return n, n


def shuffled(pool, rng: random.Random) -> Iterator:
    """The pool's inputs, each once, in an order set by the benchmark seed."""
    order = list(pool)
    rng.shuffle(order)
    return iter(order)


# ---------------------------------------------------------------------------
# calibrate_elfo
# ---------------------------------------------------------------------------

@dataclass
class CalibrationState:
    satfd: object
    config: object
    duration: float


def setup_calibrate(toy: bool) -> CalibrationState:
    satfd = import_satfd()
    config = satfd.load_bundled("elfo_moon")
    period = satfd.orbital_period(config.satellites[0].a, config.body.mu)
    return CalibrationState(satfd, config, TOY_EPOCHS * STEP_S if toy else period)


def calibrate_inputs(state, rng: random.Random) -> Iterator[int]:
    return shuffled(range(CALIBRATION_SEEDS), rng)


def run_calibrate(state: CalibrationState, seed: int):
    return state.satfd.sample_statistics(
        state.config, SIGMA_W, STEP_S, state.duration, seed=seed
    )


def summarize_calibration(satfd, sample) -> dict:
    out = {"n": sample.n}
    for label, p in CALIBRATION_PERCENTILES:
        out[label] = satfd.percentile(sample, p)
    return out


def check_calibrate(ref: dict, toy: bool, seed: int, sample) -> tuple[int, int]:
    """One operation: the sample count exactly, p95/p99/p99.9 to 1e-9 relative."""
    if isinstance(sample, BaseException):
        return _failed_all(1)
    want = ref["toy" if toy else "period"][str(seed)]
    got = summarize_calibration(sys.modules["satfd"], sample)
    ok = got["n"] == want["n"] and all(
        abs(got[label] - want[label]) <= REL_TOL * abs(want[label])
        for label, _ in CALIBRATION_PERCENTILES
    )
    return 1, 0 if ok else 1


# ---------------------------------------------------------------------------
# campaign_elfo and campaign_mars
# ---------------------------------------------------------------------------

@dataclass
class CampaignState:
    satfd: object
    ctx: object
    seeds: range        # recorded master seeds, one per operation
    trials: int         # trials per run_campaign call
    workers: int


def campaign_elfo_state(satfd, toy: bool) -> CampaignState:
    config = satfd.load_bundled("elfo_moon")
    grid = satfd.ExperimentGrid(
        fault_counts=(1,),
        magnitudes=(5.0, 10.0, 20.0),
        thresholds=tuple(satfd.ThresholdSpec(label, v) for label, v in ELFO_THRESHOLDS),
        dls=(1, 2, 3, 5),
    )
    ctx = satfd.CampaignContext(config=config, sigma_w=SIGMA_W, grid=grid,
                                master_seed=CAMPAIGN_MASTER_SEED)
    trials, n_seeds = ELFO_CAMPAIGN
    return CampaignState(satfd, ctx, range(1, n_seeds + 1),
                         TOY_CAMPAIGN_TRIALS if toy else trials, workers=1)


def campaign_mars_state(satfd, toy: bool) -> CampaignState:
    config = satfd.load_bundled("walker_mars")
    feats, targets = satfd.build_training_set(
        config, SIGMA_W, *MARS_TRAINING, seed=CAMPAIGN_MASTER_SEED
    )
    model = satfd.train_predictor(feats, targets, seed=CAMPAIGN_MASTER_SEED)
    grid = satfd.ExperimentGrid(
        fault_counts=(1, 2, 3),
        magnitudes=(20.0,),
        thresholds=(satfd.ThresholdSpec("p99", MARS_P99),
                    satfd.ThresholdSpec("predicted", model)),
        dls=(1, 3),
    )
    ctx = satfd.CampaignContext(config=config, sigma_w=SIGMA_W, grid=grid,
                                master_seed=CAMPAIGN_MASTER_SEED)
    trials, n_seeds = MARS_CAMPAIGN
    workers = min(MARS_MAX_WORKERS, os.cpu_count() or 1)
    return CampaignState(satfd, ctx, range(1, n_seeds + 1),
                         TOY_CAMPAIGN_TRIALS if toy else trials, workers=workers)


def setup_campaign_elfo(toy: bool) -> CampaignState:
    return campaign_elfo_state(import_satfd(), toy)


def setup_campaign_mars(toy: bool) -> CampaignState:
    return campaign_mars_state(import_satfd(), toy)


def campaign_inputs(state: CampaignState, rng: random.Random) -> Iterator[tuple[int, int]]:
    """(master seed, trials) of each operation."""
    return ((seed, state.trials) for seed in shuffled(state.seeds, rng))


def run_campaign(state: CampaignState, inp: tuple[int, int]):
    ctx = copy.copy(state.ctx)      # shares the set-up topology
    ctx.master_seed = inp[0]
    return state.satfd.experiment.run_campaign(ctx, inp[1], workers=state.workers)


def cell_key(faults, magnitude, label, dl) -> tuple:
    return int(faults), float(magnitude), str(label), int(dl)


def expected_rows(ref: dict, toy: bool, inp: tuple[int, int]) -> dict:
    """Reference tp/fn/fp/tn per cell of one run_campaign call."""
    seed, n_trials = inp
    key = "toy" if toy else "full"
    if ref["trials"][key] != n_trials:
        raise ValueError(f"reference holds {ref['trials'][key]} trials per call, "
                         f"not {n_trials}")
    rows = ref[key][str(seed)]
    return {cell_key(*cell): counts for cell, counts in zip(ref["cells"], rows)}


def check_campaign(ref: dict, toy: bool, inp: tuple[int, int], results) -> tuple[int, int]:
    """One operation per results row: tp/fn/fp/tn must match exactly."""
    n_rows = len(ref["cells"])
    if isinstance(results, BaseException):
        return _failed_all(n_rows)
    want = expected_rows(ref, toy, inp)
    got = {
        cell_key(r.faults, r.magnitude, r.threshold.label, r.dl):
            [r.counts.tp, r.counts.fn, r.counts.fp, r.counts.tn]
        for r in results
    }
    failed = sum(1 for key, counts in want.items() if got.get(key) != counts)
    return n_rows, failed


# ---------------------------------------------------------------------------
# detect_stream
# ---------------------------------------------------------------------------

@dataclass
class DetectState:
    cli: object
    requests: list


def detect_pool(size: int = DETECT_POOL_SIZE) -> list[list]:
    """Recorded detection requests: [window start (s), faulty satellite, seed]."""
    rng = random.Random(DETECT_POOL_SEED)
    return [
        [STEP_S * rng.randrange(ELFO_EPOCHS), rng.randrange(12), rng.randrange(2**31)]
        for _ in range(size)
    ]


def setup_detect(toy: bool) -> DetectState:
    import_satfd()
    import satfd.cli

    return DetectState(satfd.cli, load_reference("detect_stream")["requests"])


def detect_inputs(state: DetectState, rng: random.Random) -> Iterator[int]:
    return shuffled(range(len(state.requests)), rng)


def detect_argv(request: list) -> list[str]:
    t0, sat, seed = request
    return [
        "detect", "--config", "elfo_moon", "--t0", repr(float(t0)),
        "--fault-sats", str(sat), "--magnitude", repr(DETECT_MAGNITUDE),
        "--sigma-w", repr(SIGMA_W), "--threshold", repr(DETECT_THRESHOLD),
        "--dl", str(DETECT_DL), "--seed", str(seed),
    ]


def run_detect(state: DetectState, index: int) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = state.cli.main(detect_argv(state.requests[index]))
    return rc, buf.getvalue()


def parse_detect(output: tuple[int, str]) -> list:
    """[fault_list, rounds] from one detect call; raises if it failed."""
    rc, text = output
    if rc != 0:
        raise RuntimeError(f"detect exited with {rc}")
    report = json.loads(text)
    return [report["fault_list"], report["rounds"]]


def check_detect(ref: dict, toy: bool, index: int, output) -> tuple[int, int]:
    """One operation per window: fault_list and rounds must match."""
    if isinstance(output, BaseException):
        return _failed_all(1)
    try:
        got = parse_detect(output)
    except (RuntimeError, ValueError, KeyError):
        return _failed_all(1)
    return 1, 0 if got == ref["outputs"][index] else 1


def _one(_inp) -> int:
    return 1


def _trials(inp: tuple[int, int]) -> int:
    return inp[1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("calibrate_elfo", "period", setup_calibrate, calibrate_inputs,
                 run_calibrate, _one, check_calibrate, setup_samples=5, trace_pairs=(2, 1),
                 trace_counts=CALIBRATE_PERIOD_COUNTS, warmup_ops=0),
        Workload("campaign_elfo", "trial", setup_campaign_elfo, campaign_inputs,
                 run_campaign, _trials, check_campaign, setup_samples=3, trace_pairs=(4, 1)),
        Workload("campaign_mars", "trial", setup_campaign_mars, campaign_inputs,
                 run_campaign, _trials, check_campaign, setup_samples=2, trace_pairs=(3, 1),
                 workers=MARS_MAX_WORKERS),
        Workload("detect_stream", "window", setup_detect, detect_inputs,
                 run_detect, _one, check_detect, setup_samples=5, trace_pairs=(50, 2)),
    )
}
