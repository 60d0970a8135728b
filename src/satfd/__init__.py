"""Satellite constellation fault detection from inter-satellite ranges.

Pipeline: propagate a constellation (two-body), build the occultation
visibility graph, enumerate 6-clique subgraphs, synthesize noisy/faulted
two-way ranges, analyze each clique's centered distance matrix, and vote
out faulty satellites greedily.  Monte-Carlo campaigns over parameter
grids report confusion-matrix metrics.
"""

from .constellation import (
    BodyParams,
    ConstellationConfig,
    OrbitalElements,
    PositionSet,
    load_bundled,
    load_config,
    orbital_period,
    propagate,
    solve_kepler,
)
from .linkgraph import VisibilityGraph, build_visibility_graph, line_of_sight
from .cliques import (
    CliqueSchedule,
    build_clique_schedule,
    list_k_cliques,
)
from .ranging import FaultConfig, RangeMatrix, measure_ranges
from .edm import (
    analyze_clique_batch,
    build_edm,
    geometric_center,
    numerical_rank,
)
from .detector import (
    DetectionOutcome,
    DetectorParams,
    VoteState,
    detect_faults,
)
from .calibration import (
    GammaFit,
    MlpPredictor,
    StatisticSample,
    build_training_set,
    fit_gamma,
    percentile,
    sample_statistics,
    train_predictor,
)
from .experiment import (
    CampaignContext,
    ConfusionCounts,
    ExperimentGrid,
    MetricSet,
    ThresholdSpec,
    compute_metrics,
    run_campaign,
)

__version__ = "0.1.0"
