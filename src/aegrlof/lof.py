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
  at 1/EPSILON/scale instead of dividing by zero. ``scale`` is the
  reference's largest coordinate range (1 for one repeated point), so
  the cap scales with the coordinates as every other density does.
* score(p) = mean of lrd(o)/lrd(p) over o in N(p).

Algorithm. ``fit`` (each reference point against the other references)
and ``score`` (each query against the references) share one routine,
:func:`_neighborhoods`, which looks at every (row, reference) pair once:

1. Screen. Squared distances for a block of rows come from one BLAS
   product, |a|^2 + |b|^2 - 2 a.b. That form rounds, and loses the exact
   zero of coincident points. It and the explicit-difference form are
   each within (d + 2) * eps * (|a|^2 + |b|^2) of the exact value (the
   gamma_d bound on d-term sums, Higham, "Accuracy and Stability of
   Numerical Algorithms", ch. 3), so each entry gets more than twice
   their sum, (4d + 16) * eps * (|a|^2 + |b|^2), as its margin. A
   reference is a candidate when its lower bound (sq - margin) is at most
   the row's min_pts-th smallest upper bound (sq + margin). At least
   min_pts references lie within that bound, so every neighbor is a
   candidate.
2. Recompute. Candidate distances are recomputed from explicit coordinate
   differences, so coincident points are exactly 0 apart and ties are
   exact. The k-distance is the min_pts-th smallest of these distances,
   and every candidate at or below it (``<=``) is a neighbor.
3. Aggregate. Neighbors come back as row-sorted (row, column, distance)
   lists with O(n * min_pts) entries; only exact ties add more. LRDs,
   neighbor-LRD sums and scores are ``np.bincount`` sums over them.

Rows are screened in blocks of at most ``_ELEMENT_BUDGET`` (row,
reference) entries, and candidate differences are gathered in chunks of
the same budget, so working memory stays bounded even when every pair
ties; only the neighbor lists grow with the number of ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-10

# Cap on (row, reference) entries screened at once, and on candidate
# difference elements gathered at once (256k float64 = 2 MB per array,
# small enough to stay in cache).
_ELEMENT_BUDGET = 1 << 18
_EPS = np.finfo(np.float64).eps


@dataclass
class LofModel:
    """Fitted reference set with cached per-reference statistics."""

    reference: np.ndarray
    min_pts: int
    k_distances: np.ndarray
    lrds: np.ndarray
    sq_norms: np.ndarray
    # largest coordinate range of the reference, 1.0 if it has none
    scale: float

    @property
    def n_reference(self) -> int:
        return self.reference.shape[0]


def _sq_norms(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


def _neighborhoods(
    points: np.ndarray,
    points_sq: np.ndarray,
    reference: np.ndarray,
    reference_sq: np.ndarray,
    min_pts: int,
    exclude_self: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tie-inclusive min_pts-neighborhoods of ``points`` in ``reference``.

    ``points_sq``/``reference_sq`` are the squared row norms. With
    ``exclude_self``, ``points`` is ``reference`` and row i never counts
    itself. Returns (rows, columns, distances) of every neighbor, sorted
    by row and then column, and the k-distance of each row.
    """
    n_points, n_features = points.shape
    n_reference = reference.shape[0]
    margin_scale = (4 * n_features + 16) * _EPS
    # sq +- margin = (1 +- margin_scale) * (|a|^2 + |b|^2) - 2 a.b
    hi, lo = 1.0 + margin_scale, 1.0 - margin_scale
    hi_ref, lo_ref = hi * reference_sq, lo * reference_sq
    block = max(1, _ELEMENT_BUDGET // n_reference)
    chunk = max(1, _ELEMENT_BUDGET // n_features)
    k_distances = np.empty(n_points)
    rows, cols, dists = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for start in range(0, n_points, block):
        stop = min(start + block, n_points)
        bounds = (-2.0 * points[start:stop]) @ reference.T
        if exclude_self:
            bounds[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # adding a per-row term keeps each row's order, so it is added
        # after the partition and, for the lower bound, to the limit
        upper = bounds + hi_ref
        upper.partition(min_pts - 1, axis=1)
        # a neighbor's distance can round to the k-distance after the
        # square root although its square is a little larger
        limit = upper[:, min_pts - 1] + hi * points_sq[start:stop]
        limit *= 1.0 + 4.0 * _EPS
        del upper
        bounds += lo_ref
        r, c = np.nonzero(bounds <= (limit - lo * points_sq[start:stop])[:, None])
        del bounds

        d = np.empty(r.size)
        for at in range(0, r.size, chunk):
            diff = points[start + r[at:at + chunk]] - reference[c[at:at + chunk]]
            d[at:at + chunk] = np.sqrt(np.einsum("ij,ij->i", diff, diff))

        # every row has at least min_pts candidates; take the min_pts-th
        # smallest exact distance within each row's run
        counts = np.bincount(r, minlength=stop - start)
        first = np.cumsum(counts) - counts
        k_block = d[np.lexsort((d, r))[first + min_pts - 1]]
        member = d <= k_block[r]
        k_distances[start:stop] = k_block
        rows.append(r[member] + start)
        cols.append(c[member])
        dists.append(d[member])
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(dists),
            k_distances)


def _densities(
    rows: np.ndarray, cols: np.ndarray, dists: np.ndarray,
    ref_k_distances: np.ndarray, n_rows: int, scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Neighborhood sizes and LRDs from neighbor lists."""
    counts = np.bincount(rows, minlength=n_rows)
    reach_sums = np.bincount(rows, weights=np.maximum(ref_k_distances[cols], dists),
                             minlength=n_rows)
    lrds = np.full(n_rows, 1.0 / EPSILON / scale)
    np.divide(counts, reach_sums, out=lrds, where=reach_sums > 0.0)
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

    sq_norms = _sq_norms(reference)
    rows, cols, dists, k_distances = _neighborhoods(
        reference, sq_norms, reference, sq_norms, min_pts, exclude_self=True)
    scale = float(np.ptp(reference, axis=0).max()) or 1.0
    _, lrds = _densities(rows, cols, dists, k_distances, n, scale)
    return LofModel(reference, min_pts, k_distances, lrds, sq_norms, scale)


def score(model: LofModel, queries: np.ndarray) -> np.ndarray:
    """LOF scores for query points; higher means more anomalous.

    A query with a non-finite coordinate scores NaN.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != model.reference.shape[1]:
        raise ValueError(
            f"query width {queries.shape[1]} does not match reference "
            f"width {model.reference.shape[1]}"
        )
    scores = np.full(queries.shape[0], np.nan)
    finite = np.all(np.isfinite(queries), axis=1)
    if not finite.all():
        queries = queries[finite]
    rows, cols, dists, _ = _neighborhoods(
        queries, _sq_norms(queries), model.reference, model.sq_norms,
        model.min_pts, exclude_self=False)
    counts, lrds = _densities(rows, cols, dists, model.k_distances,
                              queries.shape[0], model.scale)
    member_lrd_sums = np.bincount(rows, weights=model.lrds[cols],
                                  minlength=queries.shape[0])
    scores[finite] = member_lrd_sums / (counts * lrds)
    return scores
