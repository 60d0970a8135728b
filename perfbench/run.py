#!/usr/bin/env python3
"""satfd benchmark: four seeded workloads, checked outputs, traced layers.

From the repository root:

    python3 perfbench/run.py --workload calibrate_elfo --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 0] [--save perfbench/baseline/NAME.json]

A workload run (``--trace 0``) sets up, runs one untimed warm-up
operation (none for calibrate_elfo), then runs operations, each on an
input no other operation of the run used, until ``--seconds`` have passed
or the workload's input pool runs out, checking every output against the
recorded reference.  Afterwards it repeats the set-up in fresh
processes and reports the median set-up time.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics named in BENCHMARK.json:

    setup_s      median time from ``import satfd`` to the first operation
    op_ms_p50    median time of one work unit: a calibration period, a
                 campaign trial (run_campaign wall time / trials) or a
                 detection window
    op_ms_p95    95th percentile of the same samples
    peak_rss_mb  peak RSS of this process plus its largest child

Times are wall times divided by the CPU slowdown that ``speed.py``
samples during each set-up and operation, i.e. wall times at the
reference CPU speed; the unnormalized wall times are printed too.  Serial
work is pinned to one CPU and parallel work to ``workers`` CPUs, so the
sampler watches the CPUs that do the work.

``failed_frac`` is ``failed / attempted``; it is not in BENCHMARK.json,
whose metrics must never read 0, and reaches the caller as ``failed``.  The
lines before the JSON also give the per-workload names of these figures
(calibrate_s, trials_per_s, detect_ms_p50, detect_ms_p95, failed_frac)
and the machine.

A traced run (``--trace 1``) sets up once with tracing on, runs the
warm-up operation, then alternates untraced and traced operations, each
on its own input, and reports the per-layer metrics of BENCHMARK.json
over the set-up and the traced operations.  ``trace.overhead_ms`` is the
traced minus the untraced median per work unit, both speed-normalized;
it is printed as unresolved when it is smaller than twice the standard
error of that difference.  Self times are not normalized.  campaign_mars
runs serially when traced, because worker processes would keep their
spans; its counts do not depend on the worker count.

BLAS is pinned to one thread in this process and every process it starts.
``--all`` runs every workload, traced and untraced, each in a fresh
process, and prints one table; ``--save`` also writes it as a JSON data
point with the machine record.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:       # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MANIFEST = ROOT / "BENCHMARK.json"
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 175


class CountMismatch(wl.BenchmarkError):
    """A traced run's exact program counts differ from the recorded ones."""


@dataclass
class Tally:
    """Outcome of a list of operations."""

    intervals: list = field(default_factory=list)   # (start, end, units) per timed op
    attempted: int = 0
    failed: int = 0
    errors: int = 0


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def run_op(workload, state, ref, toy, inp, tally: Tally, tracer=None, op=0) -> None:
    """Time one operation and check its output; an exception is a failed op."""
    if tracer is not None:
        tracer.begin(op, "op")
    start = perf_counter()
    try:
        out = workload.run(state, inp)
    except Exception as exc:  # the run goes on; the op counts as failed
        if not tally.errors:
            traceback.print_exc()
        tally.errors += 1
        out = exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.end()
    n = workload.units(inp)
    tally.intervals.append((start, start + elapsed, n))
    attempted, failed = workload.check(ref, toy, inp, out)
    tally.attempted += attempted
    tally.failed += failed


def normalized(tally: Tally, sampler, cpus) -> list:
    """Seconds per work unit of each operation at the reference CPU speed."""
    return [(b - a) / n / sampler.factor(a, b, cpus) for a, b, n in tally.intervals]


def home_cpu() -> int:
    """The CPU serial work is pinned to: the one this run started on."""
    allowed = os.sched_getaffinity(0)
    cpu = current_cpu()
    return cpu if cpu in allowed else min(allowed)


def p95(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def probe_setup(workload: str, toy: bool) -> float:
    """Set-up time measured in a fresh process, import included."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def current_cpu() -> int:
    """The CPU this process last ran on; -1 if unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def env_line(env: dict) -> str:
    pinned = ",".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    return (f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
            f"numpy={env['numpy']} blas={env['blas']!r} pin={pinned} commit={env['commit']}")


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------

def workload_metrics(workload: str, lat: list, tally: Tally) -> dict:
    """The per-workload names of the end-to-end figures: name -> (value, unit)."""
    out = {}
    if workload == "calibrate_elfo":
        out["calibrate_s"] = (statistics.median(lat), "s")
    elif workload.startswith("campaign_"):
        busy = sum(x * n for x, (_, _, n) in zip(lat, tally.intervals))
        out["trials_per_s"] = (sum(n for _, _, n in tally.intervals) / busy, "1/s")
    elif workload == "detect_stream":
        out["detect_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        out["detect_ms_p95"] = (p95(lat) * 1e3, "ms")
    out["failed_frac"] = (tally.failed / tally.attempted if tally.attempted else 1.0, "1")
    return out


def pick_metrics(manifest_metrics: list, computed: dict) -> dict:
    """Exactly the manifest's metrics, with the manifest's units."""
    out = {}
    for spec in manifest_metrics:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: computed in {unit}, manifest says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def workload_run(args, manifest: dict) -> tuple[dict, list, dict]:
    workload = wl.WORKLOADS[args.workload]
    ref = wl.load_reference(args.workload)
    rng = random.Random(args.seed)
    # Serial work stays on one CPU, parallel work on `workers` CPUs, so the
    # speed sampler watches the CPUs the work runs on.
    home = {home_cpu()}
    op_cpus = set(sorted(os.sched_getaffinity(0), key=lambda c: c not in home)[:workload.workers])
    os.sched_setaffinity(0, home)
    with speed.Sampler(home | op_cpus) as sampler:
        start = perf_counter()
        state = workload.setup(args.toy)
        end = perf_counter()
        setup_runs = [(end - start, start, end)]

        inputs = workload.inputs(state, rng)
        tally = Tally()
        os.sched_setaffinity(0, op_cpus)
        # The first operation of a process pays one-off costs (the first pool
        # start, lazy imports); a 5 s calibration period hides them.
        for inp in itertools.islice(inputs, workload.warmup_ops):
            run_op(workload, state, ref, args.toy, inp, tally)
        tally.intervals.clear()
        start = perf_counter()
        pool_ran_out = True
        for inp in inputs:
            run_op(workload, state, ref, args.toy, inp, tally)
            if perf_counter() - start >= args.seconds:
                pool_ran_out = False
                break
        timed_s = perf_counter() - start
        os.sched_setaffinity(0, home)
        rss = peak_rss_mb()     # before the set-up probes, which are children too

        for _ in range(0 if args.toy else workload.setup_samples - 1):
            start = perf_counter()
            seconds = probe_setup(args.workload, args.toy)
            setup_runs.append((seconds, start, perf_counter()))

    setup = [s / sampler.factor(a, b, home) for s, a, b in setup_runs]
    factors = [sampler.factor(a, b, op_cpus) for a, b, _ in tally.intervals]
    lat = normalized(tally, sampler, op_cpus)
    computed = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p95": (p95(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics = pick_metrics(manifest["end_to_end"], computed)
    extra = workload_metrics(args.workload, lat, tally)
    raw = [(b - a) / n for a, b, n in tally.intervals]
    wall = {"setup_s": statistics.median(s for s, _, _ in setup_runs),
            "op_ms_p50": statistics.median(raw) * 1e3, "op_ms_p95": p95(raw) * 1e3,
            "speed_factor_p50": statistics.median(factors)}
    lines = [f"  {name:<14} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines[0] += f"   median of {len(setup)} set-ups: " + ", ".join(f"{s:.4g}" for s in setup)
    units = sum(n for _, _, n in tally.intervals)
    lines[1] += f"   per {workload.unit}; {len(lat)} operations, {units} {workload.unit}s"
    lines += [f"  {name:<14} {v:.6g} {unit}" for name, (v, unit) in extra.items()]
    lines[-1] += f"   ({tally.failed} of {tally.attempted} checked outputs failed)"
    lines.append("  wall time, not normalized: " + ", ".join(
        f"{k}={v:.6g}" for k, v in wall.items()))
    if pool_ran_out:
        lines.append(f"  note: the input pool ran out after {timed_s:.3g} s of timing")
    detail = {"setup_samples": setup, "operations": len(lat), "units": units,
              "wall": wall, "op_ms": [x * 1e3 for x in lat], "speed_factors": factors,
              "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}, lines, detail


def traced_run(args, manifest: dict) -> tuple[dict, list, dict]:
    import tracing

    workload = wl.WORKLOADS[args.workload]
    ref = wl.load_reference(args.workload)
    rng = random.Random(args.seed)
    wl.import_satfd()
    tracer = tracing.Tracer()
    lines = []

    tracer.install()
    tracer.begin(0, "setup")
    state = workload.setup(args.toy)
    tracer.end()
    tracer.uninstall()
    if getattr(state, "workers", 1) > 1:
        lines.append(f"  note: traced run is serial (workers=1, untraced runs use "
                     f"workers={state.workers}); counts do not depend on the worker count")
        state.workers = 1

    inputs = workload.inputs(state, rng)
    pairs = workload.trace_pairs[args.toy]
    warmup, untraced, traced = Tally(), Tally(), Tally()
    home = {home_cpu()}
    os.sched_setaffinity(0, home)
    with speed.Sampler(home) as sampler:
        for inp in itertools.islice(inputs, workload.warmup_ops):
            run_op(workload, state, ref, args.toy, inp, warmup)
        # Untraced and traced operations alternate, in turn first, so that
        # machine drift falls on both alike.
        for op in range(1, pairs + 1):
            plain, inp = next(inputs), next(inputs)
            if op % 2:
                run_op(workload, state, ref, args.toy, plain, untraced)
            tracer.install()
            try:
                run_op(workload, state, ref, args.toy, inp, traced, tracer, op)
            finally:
                tracer.uninstall()
            if not op % 2:
                run_op(workload, state, ref, args.toy, plain, untraced)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")

    if workload.trace_counts and not args.toy:
        for op in range(1, pairs + 1):
            got = tracer.op_counts(op)
            for key, want in workload.trace_counts.items():
                if got[key] != want:
                    raise CountMismatch(f"{args.workload} operation {op}: {key} = "
                                        f"{got[key]:g}, recorded {want}")
        lines.append("  exact counts per operation hold: " + ", ".join(
            f"{k}={v}" for k, v in workload.trace_counts.items()))

    layers = tracer.layer_metrics()
    untraced_ms = [x * 1e3 for x in normalized(untraced, sampler, home)]
    traced_ms = [x * 1e3 for x in normalized(traced, sampler, home)]
    overhead = statistics.median(traced_ms) - statistics.median(untraced_ms)
    noise = (2 * math.sqrt((statistics.variance(traced_ms) + statistics.variance(untraced_ms))
                           / pairs) if pairs > 1 else math.inf)
    layers["trace.overhead_ms"] = overhead
    missing = [s["name"] for s in manifest["per_layer"] if s["name"] not in layers]
    if missing:
        raise RuntimeError(f"the tracer derives no per-layer metric named {missing}")
    computed = {s["name"]: (layers[s["name"]], s["unit"]) for s in manifest["per_layer"]}
    metrics = pick_metrics(manifest["per_layer"], computed)
    lines += [f"  {name:<52} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items() if m["value"]]
    lines.append(f"  {pairs} traced and {pairs} untraced operations, {len(tracer.spans)} spans; "
                 f"median untraced {statistics.median(untraced_ms):.6g} ms, traced "
                 f"{statistics.median(traced_ms):.6g} ms per {workload.unit}")
    lines.append(f"  trace.overhead_ms {overhead:.4g} is "
                 + ("resolved" if abs(overhead) > noise else "unresolved")
                 + f": twice its standard error is {noise:.4g} ms")
    attempted = sum(t.attempted for t in (warmup, untraced, traced))
    failed = sum(t.failed for t in (warmup, untraced, traced))
    detail = {"pairs": pairs, "spans": len(tracer.spans), "untraced_ms": untraced_ms,
              "traced_ms": traced_ms,
              "overhead_noise_ms": noise if math.isfinite(noise) else None,
              "overhead_resolved": abs(overhead) > noise}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines, detail


def single(args) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    runner = traced_run if args.trace else workload_run
    result, lines, detail = runner(args, manifest)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "env": env, "detail": detail,
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"satfd benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} toy={int(args.toy)}")
    print("  " + env_line(env))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    manifest = load_manifest()
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    table = {}
    for spec in manifest["workloads"]:
        name = spec["name"]
        table[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            record = json.loads(
                (OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json").read_text(encoding="utf-8"))
            table[name]["end_to_end" if trace == 0 else "per_layer"] = record["result"]
            if trace == 0:
                table[name]["workload_metrics"] = record["detail"]["workload_metrics"]
    print("\nsummary (end to end)")
    for name, rows in table.items():
        res = rows["end_to_end"]
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        cells += [f"{k}={v['value']:.4g} {v['unit']}" for k, v in rows["workload_metrics"].items()]
        print(f"  {name:<15} " + "  ".join(cells))
    if args.save:
        point = {"env": environment(), "seed": args.seed, "seconds": seconds, "workloads": table}
        path = Path(args.save)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="satfd benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="small inputs, for the tests")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--save", help="with --all: write the results as JSON here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload or --all is required")
        if args.setup_probe:
            start = perf_counter()
            wl.WORKLOADS[args.workload].setup(args.toy)
            print(perf_counter() - start)
            return 0
        if args.seconds is None:
            args.seconds = load_manifest()["run_seconds"]
        return single(args)
    except wl.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
