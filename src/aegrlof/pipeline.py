"""Detection variants: stand-alone LOF, reconstruction-error scoring, and
latent-space LOF with or without gradient reversal, pruning, and Gaussian
augmentation.

Every variant consumes preprocessed (encoded, normalized) train/val/test
splits and produces one anomaly score per test row, oriented so that higher
means more anomalous. Pruning and augmentation modify the latent reference
set handed to LOF: pruning drops training rows whose reconstruction error
exceeds the mean (the network itself is not refitted), and augmentation
appends Gaussian-noised copies of the surviving latents to re-densify the
reference set.

Every detector but ``lof_raw`` is a scoring head on one trained network:
``ae_re`` and ``ae_lof/*`` on the plain network, ``aegr_lof/*`` on the
gradient-reversal one. :func:`train_network` trains a network once, and
each head that shares it passes it to :func:`run_variant`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import autoencoder as ae
from . import lof
from .data import Dataset

logger = logging.getLogger(__name__)

DETECTORS = ("lof_raw", "ae_re", "ae_lof", "aegr_lof")
MODIFIERS = ("none", "prune", "prune_da")

# Rows of the benchmark comparison matrix: modifiers apply only to the
# latent-LOF detectors.
VARIANT_MATRIX = (
    ("lof_raw", "none"),
    ("ae_re", "none"),
    ("ae_lof", "none"),
    ("ae_lof", "prune"),
    ("ae_lof", "prune_da"),
    ("aegr_lof", "none"),
    ("aegr_lof", "prune"),
    ("aegr_lof", "prune_da"),
)


@dataclass(frozen=True)
class VariantSpec:
    """One detection variant: detector, latent modifier, and seed."""

    detector: str
    modifier: str = "none"
    aug_factor: float = 2.0
    aug_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.modifier not in MODIFIERS:
            raise ValueError(f"unknown modifier {self.modifier!r}")
        if self.modifier != "none" and self.detector not in ("ae_lof", "aegr_lof"):
            raise ValueError(
                f"modifier {self.modifier!r} applies only to ae_lof/aegr_lof, "
                f"not {self.detector!r}"
            )
        if self.aug_factor < 1.0:
            raise ValueError(f"aug_factor must be >= 1, got {self.aug_factor}")
        if self.aug_sigma < 0.0:
            raise ValueError(f"aug_sigma must be >= 0, got {self.aug_sigma}")

    @property
    def key(self) -> str:
        return f"{self.detector}/{self.modifier}"


@dataclass
class ScoredRun:
    """Scores for one executed variant plus run metadata.

    ``train_latents``/``pruned_mask`` are populated for the latent-LOF
    detectors so the CLI can export latent scatter data; ``pruned_mask``
    is True for rows *removed* by pruning.
    """

    variant: VariantSpec
    scores: np.ndarray
    labels: np.ndarray | None
    metadata: dict = field(default_factory=dict)
    train_latents: np.ndarray | None = None
    pruned_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if self.labels is not None and len(self.labels) != len(self.scores):
            raise ValueError(
                f"{len(self.scores)} scores for {len(self.labels)} labels"
            )


def prune(latents: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep rows whose reconstruction error is at or below the mean.

    Returns (kept rows, kept mask). At least one row always survives
    because the minimum error cannot exceed the mean, and the survivors'
    mean error never exceeds the overall mean; the latter is checked on
    every call.
    """
    latents = np.asarray(latents, dtype=np.float64)
    res = np.asarray(res, dtype=np.float64)
    if res.shape != (latents.shape[0],):
        raise ValueError(
            f"{res.shape[0] if res.ndim else 0} errors for {latents.shape[0]} rows"
        )
    mean = res.mean()
    mask = res <= mean
    if not mask.any():
        # summation rounding can push the computed mean a hair below a
        # constant vector's value; the minimum-error row survives by contract
        mask = res <= res.min()
    if res[mask].mean() > mean + 1e-12 * max(1.0, abs(mean)):
        raise RuntimeError("mean error of surviving rows exceeds overall mean")
    return latents[mask], mask


def augment(
    latents: np.ndarray, factor: float, sigma: float, seed: int
) -> np.ndarray:
    """Append floor((factor - 1) * n) Gaussian-noised copies of the rows.

    Originals come first, unchanged; copies cycle through the rows in
    order, each perturbed by i.i.d. zero-mean noise with standard
    deviation ``sigma`` per coordinate. Deterministic per seed.
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    latents = np.asarray(latents, dtype=np.float64)
    n = latents.shape[0]
    n_extra = int((factor - 1.0) * n + 1e-9)
    if n_extra == 0:
        return latents.copy()
    base = latents[np.arange(n_extra) % n]
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=base.shape)
    return np.vstack([latents, base + noise])


@dataclass
class TrainedNetwork:
    """One trained autoencoder with its latents and per-row reconstruction
    errors on the training and test splits, computed once for all heads."""

    seed: int
    reversal: bool
    net: ae.Network
    history: list[ae.EpochStats]
    train_latents: np.ndarray
    train_errors: np.ndarray
    test_latents: np.ndarray
    test_errors: np.ndarray


def train_network(
    seed: int,
    reversal: bool,
    train_data: Dataset,
    val_data: Dataset,
    test_data: Dataset,
    cfg: ae.TrainConfig,
) -> TrainedNetwork:
    """Train one autoencoder and encode the training and test splits.

    ``seed`` drives initialization and batch shuffling and overrides
    ``cfg.seed``. Without ``reversal`` the reversal start is moved to
    ``cfg.max_epochs``, which yields plain SGD.
    """
    cfg = replace(
        cfg,
        seed=seed,
        gr_start_epoch=cfg.gr_start_epoch if reversal else cfg.max_epochs,
    )
    net = ae.build_architecture(train_data.n_features, seed=seed)
    net, history = ae.train(net, train_data, val_data, cfg)
    return TrainedNetwork(
        seed, reversal, net, history,
        train_latents=ae.encode(net, train_data),
        train_errors=ae.reconstruction_error(net, train_data),
        test_latents=ae.encode(net, test_data),
        test_errors=ae.reconstruction_error(net, test_data),
    )


def run_variant(
    spec: VariantSpec,
    train_data: Dataset,
    val_data: Dataset,
    test_data: Dataset,
    cfg: ae.TrainConfig,
    min_pts: int = 20,
    network: TrainedNetwork | None = None,
) -> ScoredRun:
    """Execute one variant end to end and score the test split.

    Detector behavior:
        lof_raw: LOF fitted on normalized training features scores the
            raw test features.
        ae_re: plain autoencoder (reversal disabled); the score is each
            test row's reconstruction error.
        ae_lof: plain autoencoder; LOF fitted on training latents scores
            test latents.
        aegr_lof: gradient-reversal autoencoder; LOF fitted on training
            latents, optionally pruned and augmented, scores test latents.

    The spec's seed drives network initialization, batch shuffling, and
    augmentation noise, so identical inputs yield identical scores.

    ``network`` is a :func:`train_network` result for the same splits,
    config, seed and reversal setting. Passing it skips training; the
    result is the same as without it. ``lof_raw`` ignores it.
    """
    meta: dict = {
        "detector": spec.detector,
        "modifier": spec.modifier,
        "seed": spec.seed,
        "train_rows": train_data.n_rows,
        "test_rows": test_data.n_rows,
    }

    if spec.detector == "lof_raw":
        model = lof.fit(train_data.features, min_pts)
        scores = lof.score(model, test_data.features)
        meta.update(min_pts=min_pts, reference_rows=model.n_reference)
        return ScoredRun(spec, scores, test_data.labels, meta)

    reversal = spec.detector == "aegr_lof"
    if network is None:
        network = train_network(spec.seed, reversal, train_data, val_data,
                                test_data, cfg)
    elif (network.seed, network.reversal) != (spec.seed, reversal):
        raise ValueError(
            f"{spec.key} seed {spec.seed} cannot use the network trained with "
            f"seed {network.seed}, reversal={network.reversal}"
        )
    history = network.history
    meta.update(
        epochs_run=len(history),
        best_val_loss=min(h.val_loss for h in history),
        reversal_epochs=sum(1 for h in history if h.reversal_applied),
    )

    if spec.detector == "ae_re":
        return ScoredRun(spec, network.test_errors, test_data.labels, meta)

    reference = train_latents = network.train_latents
    pruned_mask = np.zeros(train_data.n_rows, dtype=bool)
    if spec.modifier in ("prune", "prune_da"):
        reference, kept = prune(train_latents, network.train_errors)
        pruned_mask = ~kept
        meta["rows_after_prune"] = int(reference.shape[0])
    if spec.modifier == "prune_da":
        reference = augment(reference, spec.aug_factor, spec.aug_sigma, spec.seed + 1)
        meta["rows_after_augment"] = int(reference.shape[0])

    model = lof.fit(reference, min_pts)
    scores = lof.score(model, network.test_latents)
    meta.update(min_pts=min_pts, reference_rows=model.n_reference,
                latent_dim=network.net.bottleneck_width)
    logger.info("variant %s seed %d: %d reference rows, %d epochs",
                spec.key, spec.seed, model.n_reference, len(history))
    return ScoredRun(spec, scores, test_data.labels, meta,
                     train_latents=train_latents, pruned_mask=pruned_mask)
