"""Exact Local Outlier Factor in novelty mode.

A model is fitted on a reference set (Euclidean distances, brute force,
exact) and then scores arbitrary query points against that reference set
only; queries never enter each other's neighborhoods. The score compares
the local reachability density of a query with that of its neighbors:
inliers score close to 1, anomalies above 1.

Definitions, for neighborhood size ``min_pts``:

* k-distance(o): smallest radius around reference point o containing at
  least min_pts other reference points; ties at exactly that radius all
  join the neighborhood, so it may hold more than min_pts members.
* reach-dist(p, o) = max(k-distance(o), d(p, o)).
* lrd(p) = |N(p)| / sum of reach-dist(p, o) over o in N(p); when every
  reachability distance is zero (duplicate points) the density is capped
  at 1/EPSILON instead of dividing by zero.
* score(p) = mean of lrd(o)/lrd(p) over o in N(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-10

# Distances are computed in row blocks so fitting ~10k references stays
# within a few tens of MB instead of materializing the full n^2 matrix.
_BLOCK_ROWS = 256
# Cap on elements of the (rows, cols, features) difference tensor built at
# once inside _pairwise_distances (8M elements ~ 64 MB of float64).
_DIFF_ELEMENT_BUDGET = 1 << 23


@dataclass
class LofModel:
    """Fitted reference set with cached per-reference statistics."""

    reference: np.ndarray
    min_pts: int
    k_distances: np.ndarray
    lrds: np.ndarray

    @property
    def n_reference(self) -> int:
        return self.reference.shape[0]


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances via explicit differences (no dot-product trick,
    so exactly coincident points yield exactly zero)."""
    n_features = a.shape[1]
    out = np.empty((a.shape[0], b.shape[0]))
    chunk = max(1, _DIFF_ELEMENT_BUDGET // max(1, a.shape[0] * n_features))
    for start in range(0, b.shape[0], chunk):
        stop = min(start + chunk, b.shape[0])
        diff = a[:, None, :] - b[None, start:stop, :]
        out[:, start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _lrd_from_distances(
    dists: np.ndarray, ref_k_distances: np.ndarray, k_distance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Neighborhood counts and LRDs for a block of points.

    ``dists`` rows are distances to every reference (self distances must
    already be inf for fit-side rows); membership is d <= own k-distance.
    """
    member = dists <= k_distance[:, None]
    reach = np.maximum(ref_k_distances[None, :], dists)
    reach_sum = np.where(member, reach, 0.0).sum(axis=1)
    counts = member.sum(axis=1)
    lrds = np.where(reach_sum > 0.0, counts / np.where(reach_sum > 0, reach_sum, 1.0),
                    1.0 / EPSILON)
    return counts, lrds


def fit(reference: np.ndarray, min_pts: int) -> LofModel:
    """Fit LOF on a reference set.

    Args:
        reference: (n, d) matrix with n > min_pts.
        min_pts: Minimum neighborhood size, >= 1.

    Raises:
        ValueError: Too few reference points, bad min_pts, or non-finite
            input.
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 2 or reference.shape[1] < 1:
        raise ValueError(f"reference must be a 2-D matrix, got {reference.shape}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    n = reference.shape[0]
    if n <= min_pts:
        raise ValueError(f"need more than min_pts={min_pts} reference points, got {n}")
    if not np.all(np.isfinite(reference)):
        raise ValueError("reference contains non-finite values")

    k_distances = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        dists = _pairwise_distances(reference[start:stop], reference)
        dists[np.arange(stop - start), np.arange(start, stop)] = np.inf
        k_distances[start:stop] = np.partition(dists, min_pts - 1, axis=1)[
            :, min_pts - 1
        ]

    lrds = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        dists = _pairwise_distances(reference[start:stop], reference)
        dists[np.arange(stop - start), np.arange(start, stop)] = np.inf
        _, lrds[start:stop] = _lrd_from_distances(
            dists, k_distances, k_distances[start:stop]
        )

    return LofModel(reference, min_pts, k_distances, lrds)


def reach_dist(model: LofModel, p: np.ndarray, o: int) -> float:
    """max(k-distance(o), d(p, o)) for reference index o."""
    p = np.asarray(p, dtype=np.float64)
    d = float(np.sqrt(np.sum((p - model.reference[o]) ** 2)))
    return max(float(model.k_distances[o]), d)


def lrd(model: LofModel, p: np.ndarray) -> float:
    """Local reachability density of a query point against the reference."""
    _, lrds, _ = _query_stats(model, np.asarray(p, dtype=np.float64)[None, :])
    return float(lrds[0])


def _query_stats(
    model: LofModel, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query neighborhood count, LRD, and sum of member LRDs."""
    counts = np.empty(queries.shape[0])
    lrds = np.empty(queries.shape[0])
    member_lrd_sums = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, queries.shape[0])
        dists = _pairwise_distances(queries[start:stop], model.reference)
        k_distance = np.partition(dists, model.min_pts - 1, axis=1)[
            :, model.min_pts - 1
        ]
        member = dists <= k_distance[:, None]
        counts[start:stop], lrds[start:stop] = _lrd_from_distances(
            dists, model.k_distances, k_distance
        )
        member_lrd_sums[start:stop] = member @ model.lrds
    return counts, lrds, member_lrd_sums


def score(model: LofModel, queries: np.ndarray) -> np.ndarray:
    """LOF scores for query points; higher means more anomalous."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != model.reference.shape[1]:
        raise ValueError(
            f"query width {queries.shape[1]} does not match reference "
            f"width {model.reference.shape[1]}"
        )
    counts, lrds, member_lrd_sums = _query_stats(model, queries)
    return member_lrd_sums / (counts * lrds)
