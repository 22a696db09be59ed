"""skewstream: online learning from imbalanced, concept-drifting streams.

Synthetic drift generators, adaptive-resampling online ensembles, active
drift detectors, prequential evaluation, and a config-driven experiment
harness that reports comparison tables and detection scores.
"""
from .labels import NEG, POS
from .streams import (
    ConceptSpec,
    DriftSchedule,
    InfeasibleConceptError,
    Skew,
    StreamExhausted,
    StreamGenerator,
    dump_stream,
    mixture_weight,
    stationary_schedule,
)
from .presets import PRESETS, preset_schedule
from .metrics import (
    ScoreWindow,
    TooFewPairsError,
    WilcoxonResult,
    prequential_auc,
    wilcoxon_signed_rank,
)
from .imbalance import ClassSizeTracker
from .learners import OnlineEnsemble, default_hidden_size
from .detectors import (
    AucDropDetector,
    BoundTable,
    DetectorScore,
    DriftDetector,
    FourRatesDetector,
    RecallDropDetector,
    Verdict,
    score_detections,
)
from .harness import (
    ConceptAverages,
    ConfigError,
    ExperimentConfig,
    PipelineSpec,
    Report,
    RunRecord,
    aggregate_and_test,
    dump_config_lock,
    emit_report,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "NEG",
    "POS",
    "ConceptSpec",
    "DriftSchedule",
    "InfeasibleConceptError",
    "Skew",
    "StreamExhausted",
    "StreamGenerator",
    "dump_stream",
    "mixture_weight",
    "stationary_schedule",
    "PRESETS",
    "preset_schedule",
    "ScoreWindow",
    "TooFewPairsError",
    "WilcoxonResult",
    "prequential_auc",
    "wilcoxon_signed_rank",
    "ClassSizeTracker",
    "OnlineEnsemble",
    "default_hidden_size",
    "AucDropDetector",
    "BoundTable",
    "DetectorScore",
    "DriftDetector",
    "FourRatesDetector",
    "RecallDropDetector",
    "Verdict",
    "score_detections",
    "ConceptAverages",
    "ConfigError",
    "ExperimentConfig",
    "PipelineSpec",
    "Report",
    "RunRecord",
    "aggregate_and_test",
    "dump_config_lock",
    "emit_report",
    "load_config",
    "run_experiment",
]
