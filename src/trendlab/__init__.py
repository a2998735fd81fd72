"""Market trend forecasting lab: feature construction from price, indicator,
and sentiment streams; fused-input stacked recurrent regression trained on an
RMSE objective; and a seeded experiment harness.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    TrendlabError,
)
from .experiments import (
    PAPER_SEGMENTS,
    ExperimentsSection,
    RegimeLabel,
    RunConfig,
    classify_regime,
    run_forget_gate_experiment,
    run_interval_experiment,
    run_regime_experiment,
    run_sentiment_ablation,
)
from .features import (
    DatasetBundle,
    FeatureFrame,
    build_feature_frame,
    feature_frame_to_csv,
    inference_windows,
    parse_feature_csv,
    prepare_dataset,
)
from .indicators import IndicatorConfig, cci, ema, macd, rsi
from .market_data import (
    DAILY,
    WEEKLY,
    NormalizationScale,
    PriceSeries,
    WindowedDataset,
    compute_tdd,
    denormalize,
    fit_scale,
    make_windows,
    normalize,
    parse_price_csv,
    parse_sentiment_csv,
    resample_weekly,
)
from .network import (
    FusionParameters,
    LstmLayerParameters,
    ModelShape,
    NetworkParameters,
    RnnLayerParameters,
    backward_batch,
    forward_batch,
    init_parameters,
    last_step_cache,
    mean_forget_activation,
)
from .reports import (
    AggregateRow,
    ExperimentReport,
    ReportRow,
    aggregate_report,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from .training import (
    Checkpoint,
    GradientCheckResult,
    TrainConfig,
    TrainingRun,
    adam_step,
    evaluate,
    gradient_check,
    load_checkpoint,
    rmse,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
