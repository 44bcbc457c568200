"""Shared test fixtures: synthetic datasets and independent oracles.

The oracles here are deliberately written from the definitions (per-point
loops, no shared code with the library) so that library results can be
checked against an implementation that cannot share its bugs.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings

from aegrlof import autoencoder as ae
from aegrlof.data import Dataset

# Property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")


# ---------------------------------------------------------------------------
# synthetic datasets


def make_embedded_blob(seed: int, n_normal: int = 950, n_anom: int = 50,
                       ambient_dim: int = 20) -> Dataset:
    """2-D Gaussian blob embedded in ``ambient_dim`` dims plus far anomalies.

    Anomalies are half a loose cluster at radius 8 and half a scattered
    ring at radius 6-12, all with large off-plane noise, so they are far
    from the normal manifold in every sense.
    """
    rng = np.random.default_rng(seed)
    basis_rng = np.random.default_rng(12345)  # embedding fixed across seeds
    basis, _ = np.linalg.qr(basis_rng.normal(size=(ambient_dim, 2)))
    normals = rng.normal(size=(n_normal, 2)) @ basis.T
    normals += rng.normal(scale=0.05, size=normals.shape)

    n_clustered = n_anom // 2
    center = np.array([8.0, 0.0]) @ basis.T
    clustered = center + rng.normal(scale=2.0, size=(n_clustered, ambient_dim))
    angles = rng.uniform(0.0, 2.0 * np.pi, n_anom - n_clustered)
    radii = rng.uniform(6.0, 12.0, n_anom - n_clustered)
    ring = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    scattered = ring @ basis.T + rng.normal(
        scale=2.0, size=(n_anom - n_clustered, ambient_dim)
    )

    features = np.vstack([normals, clustered, scattered])
    labels = np.concatenate([np.zeros(n_normal, int), np.ones(n_anom, int)])
    perm = rng.permutation(labels.size)
    names = [f"f{i}" for i in range(ambient_dim)]
    return Dataset(features[perm], names, labels[perm])


def make_pendigits_like(seed: int = 7, n_total: int = 2286,
                        anomaly_rate: float = 0.05) -> Dataset:
    """16-feature surrogate with PenDigits-style structure.

    Normals live on a 3-D nonlinear manifold (three clusters, tanh
    embedding into 16-D). Anomalies form a tight fourth cluster pushed
    off-manifold by a fixed offset: they are locally dense (so a raw LOF
    reference contaminated with them scores them as inliers) yet poorly
    reconstructible (so reconstruction-error pruning removes them).
    """
    rng = np.random.default_rng(seed)
    n_anom = int(round(n_total * anomaly_rate))
    n_norm = n_total - n_anom
    fixed = np.random.default_rng(2024)
    embed = fixed.normal(size=(16, 3))
    centers = fixed.normal(scale=2.5, size=(3, 3))
    anom_center = fixed.normal(scale=2.5, size=3) * 2.0
    offset = fixed.normal(size=16)
    offset *= 2.2 / np.linalg.norm(offset)

    which = rng.integers(0, 3, n_norm)
    t_norm = centers[which] + rng.normal(scale=0.6, size=(n_norm, 3))
    normals = np.tanh(t_norm @ embed.T) + rng.normal(scale=0.05, size=(n_norm, 16))
    t_anom = anom_center + rng.normal(scale=0.25, size=(n_anom, 3))
    anoms = np.tanh(t_anom @ embed.T) + offset + rng.normal(
        scale=0.1, size=(n_anom, 16)
    )

    features = np.vstack([normals, anoms])
    labels = np.concatenate([np.zeros(n_norm, int), np.ones(n_anom, int)])
    perm = rng.permutation(n_total)
    return Dataset(features[perm], [f"f{i}" for i in range(16)], labels[perm])


def write_dataset_csv(path, ds: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.feature_names) + ",label\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


# ---------------------------------------------------------------------------
# from-definition LOF oracle


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum((a - b) ** 2)))


def naive_lof_scores(reference: np.ndarray, min_pts: int,
                     queries: np.ndarray) -> np.ndarray:
    """Literal per-point LOF: k-distances, reachability, LRD, score.

    Each point's distances to the reference are computed once and reused
    for its k-distance, its neighborhood and its reachability distances.
    """
    n = reference.shape[0]
    # a density whose reachability distances are all 0 is capped at
    # 1/EPSILON/scale, scale the largest coordinate range or 1
    cap = 1.0 / 1e-10 / (float(np.ptp(reference, axis=0).max()) or 1.0)
    k_dist = np.empty(n)
    ref_dists: list[list[float]] = []
    neigh: list[list[int]] = []
    for o in range(n):
        dists = [_dist(reference[o], reference[j]) for j in range(n)]
        k_dist[o] = sorted(dists[j] for j in range(n) if j != o)[min_pts - 1]
        neigh.append([j for j in range(n) if j != o and dists[j] <= k_dist[o]])
        ref_dists.append(dists)

    lrd = np.empty(n)
    for o in range(n):
        total = sum(max(k_dist[j], ref_dists[o][j]) for j in neigh[o])
        lrd[o] = len(neigh[o]) / total if total > 0 else cap

    scores = np.empty(queries.shape[0])
    for qi in range(queries.shape[0]):
        dists = [_dist(queries[qi], reference[j]) for j in range(n)]
        k_q = sorted(dists)[min_pts - 1]
        members = [j for j in range(n) if dists[j] <= k_q]
        total = sum(max(k_dist[j], dists[j]) for j in members)
        lrd_q = len(members) / total if total > 0 else cap
        scores[qi] = sum(lrd[j] for j in members) / (len(members) * lrd_q)
    return scores


# ---------------------------------------------------------------------------
# central finite-difference gradients over every parameter


def finite_difference_grads(net: ae.Network, batch: np.ndarray,
                            step: float = 1e-5) -> list[tuple[np.ndarray, np.ndarray]]:
    grads = []
    for layer in net.layers:
        dw = np.zeros_like(layer.weights)
        db = np.zeros_like(layer.bias)
        for arr, out in ((layer.weights, dw), (layer.bias, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = ae.smooth_l1_loss(ae.forward(net, batch)[1], batch)
                arr[idx] = orig - step
                lo = ae.smooth_l1_loss(ae.forward(net, batch)[1], batch)
                arr[idx] = orig
                out[idx] = (hi - lo) / (2.0 * step)
        grads.append((dw, db))
    return grads


# ---------------------------------------------------------------------------
# brute-force ranking oracle


def pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC by counting positive-over-negative pairs (ties half)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# independent plain-SGD trainer (no gradient-reversal machinery)


def reference_plain_sgd(net: ae.Network, train_data: Dataset, val_data: Dataset,
                        cfg: ae.TrainConfig) -> tuple[ae.Network, int]:
    """Minimal minibatch-SGD trainer implementing the documented training
    contract without any gradient recording or reversal code paths."""
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    x = train_data.features
    n = x.shape[0]
    order = np.arange(n)
    best_val = math.inf
    best_net = net.copy()
    stall = 0
    epochs_run = 0
    for _ in range(cfg.max_epochs):
        epochs_run += 1
        for start in range(0, n, cfg.batch_size):
            batch = x[order[start : start + cfg.batch_size]]
            activations, _ = ae.forward(net, batch)
            grads = ae.backward(net, activations, batch)
            ae.sgd_step(net, grads, cfg.learning_rate)
        val_loss = ae.smooth_l1_loss(ae.forward(net, val_data.features)[1],
                                     val_data.features)
        if val_loss < best_val - cfg.min_improvement:
            best_val = val_loss
            best_net = net.copy()
            stall = 0
        else:
            stall += 1
            if cfg.patience > 0 and stall >= cfg.patience:
                break
        order = rng.permutation(n)
    return best_net, epochs_run
