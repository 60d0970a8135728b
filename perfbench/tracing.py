"""Spans and counts around satfd's public functions, from outside the package.

The tracer replaces each target function with a wrapper in every satfd
module that binds it (``from .cliques import list_k_cliques`` makes a
second binding in ``experiment``), and methods on their class.  Each call
records a span (name, start, end, parent, operation) in memory; counts are
taken from arguments and results by hooks that run after the call, inside
a bookkeeping span so their cost is not charged to any layer.  Self time
of a layer is its spans' duration minus the part covered by child spans.

A target that no longer exists raises ``TraceTargetMissing``: a refactor
must update the benchmark rather than let a layer's metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import BenchmarkError

PACKAGE = "satfd"
BOOKKEEPING = "trace.bookkeeping"

# Counts derived from arguments and results, besides calls and self time.
DERIVED = (
    "cliques.cliques_listed", "cliques.distinct_topologies", "cliques.distinct_topology_frac",
    "edm.cliques_analysed", "edm.repeated_cliques", "edm.repeat_frac", "edm.us_per_clique",
    "detector.rounds", "detector.flagged_cliques",
)

# Span name -> attribute path under the satfd package.
TARGETS = {
    "constellation.propagate": "constellation.propagate",
    "linkgraph.build_visibility_graph": "linkgraph.build_visibility_graph",
    "cliques.list_k_cliques": "cliques.list_k_cliques",
    "cliques.build_clique_schedule": "cliques.build_clique_schedule",
    "ranging.measure_ranges": "ranging.measure_ranges",
    "seeds.substream": "seeds.substream",
    "edm.analyze_clique_batch": "edm.analyze_clique_batch",
    "detector.table_from_analyses": "detector.table_from_analyses",
    "detector.detect_faults_from_analyses": "detector.detect_faults_from_analyses",
    "detector.detect_faults": "detector.detect_faults",
    "calibration.sample_statistics": "calibration.sample_statistics",
    "calibration.build_training_set": "calibration.build_training_set",
    "calibration.train_predictor": "calibration.train_predictor",
    "calibration.MlpPredictor.predict": "calibration.MlpPredictor.predict",
    "calibration.batch_features": "calibration.batch_features",
    "experiment.CampaignContext": "experiment.CampaignContext.__init__",
    "experiment.CampaignContext.epoch_analyses": "experiment.CampaignContext.epoch_analyses",
    "experiment.run_campaign": "experiment.run_campaign",
    "cli.cmd_detect": "cli.cmd_detect",
}

# Odd 64-bit multipliers of the hash that finds repeated range submatrices.
_HASH_MULT = np.random.default_rng(0).integers(1, 2**63, size=256, dtype=np.uint64) | np.uint64(1)


class TraceTargetMissing(BenchmarkError):
    """A traced satfd function is gone; the benchmark needs updating."""


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _row_hashes(r: np.ndarray, cliques) -> np.ndarray:
    """64-bit hash of each clique's range submatrix bytes."""
    idx = np.asarray(cliques, dtype=np.intp)
    sub = np.ascontiguousarray(r[idx[:, :, None], idx[:, None, :]])
    words = sub.reshape(len(idx), -1).view(np.uint64)
    return (words * _HASH_MULT[: words.shape[1]]).sum(axis=1, dtype=np.uint64)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, targets: dict[str, str] = TARGETS):
        self.targets = targets
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._topologies: dict[int, set] = defaultdict(set)
        self._clique_hashes: dict[int, list] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "cliques.list_k_cliques": self._count_listing,
            "edm.analyze_clique_batch": self._count_analysis,
            "detector.detect_faults": self._count_detection,
            "detector.detect_faults_from_analyses": self._count_detection,
        }

    # -- installation -------------------------------------------------------

    def _resolve(self, path: str):
        """(owner, attribute, original) for a dotted path under the package."""
        modname, *attrs = path.split(".")
        full = f"{PACKAGE}.{modname}"
        try:
            __import__(full)
            owner = sys.modules[full]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = owner.__dict__[attrs[-1]] if isinstance(owner, type) else getattr(owner, attrs[-1])
        except (ImportError, AttributeError, KeyError) as exc:
            raise TraceTargetMissing(
                f"{PACKAGE}.{path} no longer exists ({exc!r}); update "
                "perfbench/tracing.py TARGETS and the per_layer metrics in BENCHMARK.json"
            ) from exc
        if not callable(original):
            raise TraceTargetMissing(f"{PACKAGE}.{path} is not callable")
        return owner, attrs[-1], original

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        resolved = [(name, *self._resolve(path)) for name, path in self.targets.items()]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, owner, attr, original in resolved:
            wrapper = self._wrap(name, original, self._hooks.get(name))
            if isinstance(owner, type):
                self._bind(owner, attr, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper, original)

    def _bind(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, tracer.op])
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[index][1:3] = start, end
            if hook is not None:
                hook(args, kwargs, result)
                spans.append([BOOKKEEPING, end, perf_counter(), parent, tracer.op])
            return result

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin(self, op: int, name: str) -> None:
        """Open the root span of one benchmark operation (0 = set-up)."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, -1, op])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    # -- count hooks --------------------------------------------------------

    def _count_listing(self, args, kwargs, result) -> None:
        graph = _arg(args, kwargs, 0, "graph")
        self.counts[(self.op, "cliques.cliques_listed")] += len(result)
        self._topologies[self.op].add(np.asarray(graph.adjacency).tobytes())

    def _count_analysis(self, args, kwargs, result) -> None:
        cliques = result.cliques
        self.counts[(self.op, "edm.cliques_analysed")] += len(cliques)
        if len(cliques):
            ranges = _arg(args, kwargs, 0, "ranges")
            self._clique_hashes[self.op].append(_row_hashes(ranges.r, cliques))

    def _count_detection(self, args, kwargs, result) -> None:
        self.counts[(self.op, "detector.rounds")] += result.rounds
        if result.vote_history:
            self.counts[(self.op, "detector.flagged_cliques")] += result.vote_history[0].total

    # -- results ------------------------------------------------------------

    def op_counts(self, op: int) -> dict[str, float]:
        """Calls per target and the derived counts of one operation."""
        out = defaultdict(float)
        for name, _, _, _, span_op in self.spans:
            if span_op == op:
                out[f"{name}.calls"] += 1
        for (span_op, key), value in self.counts.items():
            if span_op == op:
                out[key] += value
        out["cliques.distinct_topologies"] = len(self._topologies.get(op, ()))
        hashes = self._clique_hashes.get(op)
        if hashes:
            allh = np.concatenate(hashes)
            out["edm.repeated_cliques"] = allh.size - np.unique(allh).size
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Totals over every operation recorded: calls, self time, counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for key in DERIVED:
            out[key] = 0.0
        for name in self.targets:
            out[f"{name}.calls"] = out[f"{name}.self_s"] = 0.0
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[f"{name}.self_s"] += (end - start) - covered
        for op in sorted({s[4] for s in self.spans}):
            for key, value in self.op_counts(op).items():
                out[key] += value
        listed_calls = out["cliques.list_k_cliques.calls"]
        analysed = out["edm.cliques_analysed"]
        out["cliques.distinct_topology_frac"] = (
            out["cliques.distinct_topologies"] / listed_calls if listed_calls else 0.0)
        out["edm.repeat_frac"] = out["edm.repeated_cliques"] / analysed if analysed else 0.0
        out["edm.us_per_clique"] = (
            out["edm.analyze_clique_batch.self_s"] / analysed * 1e6 if analysed else 0.0)
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
