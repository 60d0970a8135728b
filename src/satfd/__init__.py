"""Satellite constellation fault detection from inter-satellite ranges.

Pipeline: propagate a constellation (two-body), build the occultation
visibility graph, enumerate 6-clique subgraphs, synthesize noisy/faulted
two-way ranges, analyze each clique's centered distance matrix, and vote
out faulty satellites greedily.  Monte-Carlo campaigns over parameter
grids report confusion-matrix metrics.

The namespace is lazy (PEP 562): ``import satfd`` loads no submodule, and
the first access to a name below imports its home module only.  A name is
looked up in its home module on every access, never copied here, so a
binding replaced there (a test's monkeypatch, a tracer's wrapper) is the
one ``satfd.<name>`` returns.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Home module -> the public names it exports here.  Every key is also a
# submodule name (satfd.experiment, ...); cli, results and seeds export no names.
_EXPORTS = {
    "constellation": ("BodyParams", "ConstellationConfig", "OrbitalElements", "load_bundled",
                      "load_config", "orbital_period", "propagate", "solve_kepler"),
    "linkgraph": ("VisibilityGraph", "build_visibility_graph", "line_of_sight"),
    "cliques": ("build_clique_schedule", "list_k_cliques"),
    "ranging": ("FaultConfig", "RangeMatrix", "measure_ranges"),
    "edm": ("analyze_clique_batch", "build_edm", "geometric_center"),
    "detector": ("DetectionOutcome", "DetectorParams", "VoteState", "detect_faults"),
    "calibration": ("MlpPredictor", "StatisticSample", "build_training_set", "percentile",
                    "sample_statistics", "train_predictor"),
    "experiment": ("CampaignContext", "ConfusionCounts", "ExperimentGrid", "MetricSet",
                   "ThresholdSpec", "compute_metrics", "run_campaign"),
    "cli": (),
    "results": (),
    "seeds": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
