"""Anomaly detection via gradient-reversal autoencoders and latent LOF.

Library layout:
    data         CSV loading, one-hot encoding, min-max normalization,
                 deterministic splitting and subsampling, dataset caching.
    autoencoder  Five-layer tanh autoencoder, smooth-L1 loss, minibatch
                 SGD of network stacks in lockstep, gradient scoring and
                 end-of-epoch reversal.
    lof          Exact Local Outlier Factor in novelty mode.
    pipeline     Detection variants (raw LOF, reconstruction error,
                 latent LOF with pruning/augmentation).
    metrics      ROC AUC, PR AUC, Wilcoxon signed-rank.
    report       The run's report block and report.md text, built from
                 its head outcomes without IO.
    plots        Latent scatter and KDE curve data generation.
    storage      Writes and reads every artifact file: atomic writes, CSV,
                 deterministic .npz archives, hashing.
    cli          `aegrlof prepare|run|plotdata` command line.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Dataset,
    NormParams,
    PreparedData,
    RawTable,
    SplitSpec,
    load_csv,
    normalize_apply,
    normalize_fit,
    one_hot_encode,
    prepare,
    split,
    subsample,
)
from .autoencoder import (  # noqa: F401
    EpochStats,
    Network,
    TrainConfig,
    backward,
    build_architecture,
    bottleneck_width,
    default_batch_size,
    encode,
    forward,
    gradient_score,
    reconstruction_error,
    sgd_step,
    smooth_l1_loss,
    train,
    train_stack,
)
from .lof import LofModel, fit, score  # noqa: F401
from .metrics import (  # noqa: F401
    MetricResult,
    WilcoxonResult,
    compute_metrics,
    pr_auc,
    roc_auc,
    wilcoxon_signed_rank,
)
from .pipeline import (  # noqa: F401
    VARIANT_MATRIX,
    ScoredRun,
    TrainedNetwork,
    VariantSpec,
    augment,
    prune,
    run_variant,
    train_networks,
)
