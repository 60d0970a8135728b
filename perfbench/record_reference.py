#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run once on the commit whose behaviour is the reference, from the
repository root:

    python3 perfbench/record_reference.py [--only WORKLOAD ...]

It writes ``perfbench/reference/<workload>.json`` for every input the
benchmark can draw: 32 calibration seeds (one period, and the toy window),
the confusion counts of one run_campaign call per recorded master seed
(full and toy trial counts), and 4,096 detection requests.  A later commit must
reproduce these outputs; the benchmark counts any difference as a failed
operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads as wl  # noqa: E402
from run import git_commit  # noqa: E402


def record_calibrate(satfd) -> dict:
    out = {"period": {}, "toy": {}}
    for toy, key in ((False, "period"), (True, "toy")):
        state = wl.setup_calibrate(toy)
        for seed in range(wl.CALIBRATION_SEEDS):
            sample = wl.run_calibrate(state, seed)
            out[key][str(seed)] = wl.summarize_calibration(satfd, sample)
            print(f"calibrate {key} seed {seed}: {out[key][str(seed)]}", flush=True)
    return out


def record_campaign(satfd, make_state) -> dict:
    """Counts per cell of each master seed's run_campaign call, full and toy."""
    full = make_state(satfd, False)
    toy = dataclasses.replace(full, trials=wl.TOY_CAMPAIGN_TRIALS)
    cells = [list(wl.cell_key(fc, mag, thr.label, dl))
             for fc, mag, thr, dl in full.ctx.grid.cells()]
    out = {"cells": cells, "trials": {"full": full.trials, "toy": toy.trials},
           "full": {}, "toy": {}}
    for key, state in (("full", full), ("toy", toy)):
        for seed in state.seeds:
            by_cell = {wl.cell_key(r.faults, r.magnitude, r.threshold.label, r.dl):
                       [r.counts.tp, r.counts.fn, r.counts.fp, r.counts.tn]
                       for r in wl.run_campaign(state, (seed, state.trials))}
            out[key][str(seed)] = [by_cell[tuple(cell)] for cell in cells]
        print(f"campaign {key}: {len(state.seeds)} master seeds x {state.trials} trials",
              flush=True)
    return out


def record_detect(satfd) -> dict:
    import satfd.cli

    requests = wl.detect_pool()
    state = wl.DetectState(satfd.cli, requests)
    outputs = [wl.parse_detect(wl.run_detect(state, i)) for i in range(len(requests))]
    print(f"detect: {len(requests)} requests", flush=True)
    return {"requests": requests, "outputs": outputs}


def dump(data: dict) -> str:
    """JSON with one line per recorded case, so the files stay diffable."""
    def compact(v):
        return json.dumps(v, separators=(",", ":"))

    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {compact(v)}" for k, v in value.items())
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {compact(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    satfd = wl.import_satfd()
    recorders = {
        "calibrate_elfo": lambda: record_calibrate(satfd),
        "campaign_elfo": lambda: record_campaign(satfd, wl.campaign_elfo_state),
        "campaign_mars": lambda: record_campaign(satfd, wl.campaign_mars_state),
        "detect_stream": lambda: record_detect(satfd),
    }
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.only or recorders:
        data = {"recorded_at_commit": git_commit(), **recorders[name]()}
        path = wl.REFERENCE_DIR / f"{name}.json"
        path.write_text(dump(data), encoding="utf-8")
        print(f"wrote {path.relative_to(wl.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
