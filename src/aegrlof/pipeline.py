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
gradient-reversal one. :func:`train_networks` trains one network per
(seed, reversal) key, each once, all of one call in lockstep with one
training config, and records in a :class:`TrainedNetwork` everything the
heads read: one forward pass per split gives the latents and
reconstruction errors, and one :func:`prune` call the rows pruning keeps.
:func:`run_variant` scores one head from a network: it picks the LOF
reference and fits and scores LOF. A head reads the network's arrays and
never changes them, so every head of a network can share it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autoencoder as ae
from . import lof
from .data import Dataset, fraction_rows

logger = logging.getLogger(__name__)

# Each detector's report title and the network its heads read: None for
# no network, False for the plain one, True for the gradient-reversal one.
DETECTORS = {
    "lof_raw": ("Stand-alone LOF", None),
    "ae_re": ("AE-RE", False),
    "ae_lof": ("AE-LOF", False),
    "aegr_lof": ("AEGR-LOF", True),
}
# Each network's name in its history_* and latents_* files, by reversal.
NETWORKS = {False: "ae", True: "aegr"}
# Each modifier's report title.
MODIFIERS = {"none": "None", "prune": "Pruning", "prune_da": "Pruning+DA"}

# Rows of the benchmark comparison matrix, and the only valid (detector,
# modifier) pairs: modifiers apply only to the latent-LOF detectors.
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


@dataclass(frozen=True, order=True)
class VariantSpec:
    """One detection variant: detector, latent modifier, and seed. A run
    holds each detector/modifier once, so its specs order on those, then seed."""

    detector: str
    modifier: str = "none"
    aug_factor: float = 2.0
    aug_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value, table in (("detector", self.detector, DETECTORS),
                                   ("modifier", self.modifier, MODIFIERS)):
            # only a string names one; a list would not even hash
            if not (isinstance(value, str) and value in table):
                raise ValueError(f"unknown {name} {value!r}")
        if (self.detector, self.modifier) not in VARIANT_MATRIX:
            takers = "/".join(d for d, m in VARIANT_MATRIX if m == self.modifier)
            raise ValueError(
                f"modifier {self.modifier!r} applies only to {takers}, "
                f"not {self.detector!r}"
            )
        if not (math.isfinite(self.aug_factor) and self.aug_factor >= 1.0):
            raise ValueError(
                f"aug_factor must be finite and >= 1, got {self.aug_factor}"
            )
        if not (math.isfinite(self.aug_sigma) and self.aug_sigma >= 0.0):
            raise ValueError(
                f"aug_sigma must be finite and >= 0, got {self.aug_sigma}"
            )

    @property
    def key(self) -> str:
        return f"{self.detector}/{self.modifier}"

    @property
    def reversal(self) -> bool | None:
        """Whether the head reads the gradient-reversal network; None for
        ``lof_raw``, which reads no network."""
        return DETECTORS[self.detector][1]


@dataclass
class ScoredRun:
    """Scores for one executed variant plus run metadata.

    ``timings`` holds the seconds of the LOF fit and score, for
    ``timings.json``; they vary from run to run, so they never enter the
    report.
    """

    scores: np.ndarray
    metadata: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


def prune(latents: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep rows whose reconstruction error is at or below the mean.

    Returns (kept rows, kept mask). At least one row always survives
    because the minimum error cannot exceed the mean, and the survivors'
    mean error never exceeds the overall mean; the latter is checked on
    every call. A non-finite error has no mean to compare with, so it
    raises ``ValueError``.
    """
    latents = np.asarray(latents, dtype=np.float64)
    res = np.asarray(res, dtype=np.float64)
    if res.shape != (latents.shape[0],):
        raise ValueError(
            f"{res.shape[0] if res.ndim else 0} errors for {latents.shape[0]} rows"
        )
    bad = np.flatnonzero(~np.isfinite(res))
    if bad.size:
        raise ValueError(f"reconstruction errors must be finite, got "
                         f"{res[bad[0]]} at row {bad[0]}")
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
    n_extra = fraction_rows(factor - 1.0, n)
    if n_extra == 0:
        return latents.copy()
    base = latents[np.arange(n_extra) % n]
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=base.shape)
    return np.vstack([latents, base + noise])


@dataclass
class TrainedNetwork:
    """One trained autoencoder and everything its heads read: its latents
    and per-row reconstruction errors on the training and test splits,
    and ``kept``, the training rows :func:`prune` keeps."""

    seed: int
    reversal: bool
    net: ae.Network
    history: list[ae.EpochStats]
    train_latents: np.ndarray
    train_errors: np.ndarray
    test_latents: np.ndarray
    test_errors: np.ndarray
    kept: np.ndarray


def train_networks(
    keys: Sequence[tuple[int, bool]],
    train_data: Dataset,
    val_data: Dataset,
    test_data: Dataset,
    cfg: ae.TrainConfig,
    *,
    map: Callable = map,
) -> list[TrainedNetwork | RuntimeError]:
    """Train one autoencoder per (seed, reversal) key, all in one
    :func:`autoencoder.train_stack` stack, encode the training and test
    splits with each, one forward pass per split, and prune its training
    rows once. ``map`` runs the stack's validation passes when their
    blocks are large enough to pay.

    A key's seed drives initialization and batch shuffling; a key without
    reversal trains by plain SGD. A network whose training diverged gets
    its ``RuntimeError`` in place of a result.
    """
    nets = [ae.build_architecture(train_data.n_features, seed=seed)
            for seed, _ in keys]
    results = ae.train_stack(nets, train_data, val_data, cfg, keys, map=map)
    return [result if isinstance(result, RuntimeError)
            else _encode_splits(key, *result, train_data, test_data)
            for key, result in zip(keys, results)]


def _encode_splits(key: tuple[int, bool], net: ae.Network,
                   history: list[ae.EpochStats], train_data: Dataset,
                   test_data: Dataset) -> TrainedNetwork:
    train_latents, train_errors = ae.encode(net, train_data)
    test_latents, test_errors = ae.encode(net, test_data)
    return TrainedNetwork(*key, net, history, train_latents, train_errors,
                          test_latents, test_errors,
                          kept=prune(train_latents, train_errors)[1])


def run_variant(
    spec: VariantSpec,
    train_data: Dataset,
    test_data: Dataset,
    min_pts: int,
    network: TrainedNetwork | None = None,
) -> ScoredRun:
    """Score the test split with one variant.

    Detector behavior:
        lof_raw: LOF fitted on normalized training features scores the
            raw test features.
        ae_re: the plain network's reconstruction error of each test row.
        ae_lof: plain network; LOF fitted on training latents scores
            test latents.
        aegr_lof: gradient-reversal network; LOF fitted on training
            latents, optionally pruned and augmented, scores test latents.

    ``lof_raw`` takes no network. Every other detector scores
    ``network``, a :func:`train_networks` result for the same splits with
    the spec's seed and reversal setting; anything else raises
    ``ValueError``, as does a pruned reference left with no more than
    ``min_pts`` rows. Pruning keeps the network's ``kept`` rows. The
    spec's seed also drives augmentation noise, so identical inputs yield
    identical scores.
    """
    meta: dict = {"train_rows": train_data.n_rows, "test_rows": test_data.n_rows}

    if spec.detector == "lof_raw":
        if network is not None:
            raise ValueError("lof_raw scores the raw features and takes no network")
        model, scores, timings = _lof_scores(train_data.features,
                                             test_data.features, min_pts)
        meta.update(min_pts=min_pts, reference_rows=model.n_reference)
        return ScoredRun(scores, meta, timings)

    if network is None:
        raise ValueError(f"{spec.key} needs a network from train_networks")
    if (network.seed, network.reversal) != (spec.seed, spec.reversal):
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
        return ScoredRun(network.test_errors, meta)

    reference = network.train_latents
    if spec.modifier != "none":
        reference = reference[network.kept]
        meta["rows_after_prune"] = int(reference.shape[0])
    if spec.modifier == "prune_da":
        reference = augment(reference, spec.aug_factor, spec.aug_sigma, spec.seed + 1)
        meta["rows_after_augment"] = int(reference.shape[0])
    if spec.modifier != "none" and reference.shape[0] <= min_pts:
        raise ValueError(
            f"{spec.key}: pruning kept {meta['rows_after_prune']} of "
            f"{train_data.n_rows} training rows, leaving {reference.shape[0]} "
            f"reference rows; LOF needs more than min_pts={min_pts}"
        )

    model, scores, timings = _lof_scores(reference, network.test_latents, min_pts)
    meta.update(min_pts=min_pts, reference_rows=model.n_reference,
                latent_dim=network.net.bottleneck_width)
    logger.info("variant %s seed %d: %d reference rows, %d epochs",
                spec.key, spec.seed, model.n_reference, len(history))
    return ScoredRun(scores, meta, timings)


def _lof_scores(reference: np.ndarray, queries: np.ndarray, min_pts: int,
                ) -> tuple[lof.LofModel, np.ndarray, dict]:
    """Fit LOF on ``reference`` and score ``queries``, timing both."""
    start = time.perf_counter()
    model = lof.fit(reference, min_pts)
    fitted = time.perf_counter()
    scores = lof.score(model, queries)
    return model, scores, {"lof_fit_s": fitted - start,
                           "lof_score_s": time.perf_counter() - fitted}
