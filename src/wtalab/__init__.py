"""Multi-hypothesis trajectory forecasting with winner-takes-all losses.

The package trains small multi-head MLPs on synthetic branching futures and
compares hard, relaxed, evolving, divide-and-conquer and annealed variants
of the winner-takes-all objective.
"""

from .datagen import (
    FeaturizedScene,
    GeneratorConfig,
    Scene,
    featurize,
    generate,
    generate_split,
    load_dataset,
    load_split,
    save_dataset,
)
from .errors import (
    ConfigurationError,
    DatasetParseError,
    InputError,
    NonFiniteError,
    WtalabError,
)
from .harness import (
    EpochRecord,
    ExperimentConfig,
    OptimizerConfig,
    SweepCell,
    TrainResult,
    build_splits,
    emit_charts,
    evaluate_cmd,
    load_config,
    save_config,
    sweep,
    train,
)
from .losses import (
    BatchObjective,
    LossConfig,
    assignment_weights,
    awta_weights,
    batch_objective,
    dac_weights,
    ewta_weights,
    rwta_weights,
    wta_weights,
)
from .metrics import MetricsReport, effective_hypotheses, evaluate, miss_rate
from .network import (
    AdamState,
    GradientBuffer,
    ModelConfig,
    ModelParams,
    adam_step,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .postselect import NMSConfig, nms_select
from .schedulers import ScheduleState

__version__ = "0.1.0"
