"""Exact Local Outlier Factor in novelty mode.

A model is fitted on a reference set (Euclidean distances, exact) and
then scores arbitrary query points against that reference set only;
queries never enter each other's neighborhoods. The score compares the
local reachability density of a query with that of its neighbors:
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
:func:`_neighborhoods`:

0. Leaves (``fit`` only). ``fit`` splits the reference into k-d leaves
   of at most ``_LEAF_SIZE`` rows, halving every node at the median of
   its widest coordinate, one level at a time (Bentley, CACM 1975), and
   takes each leaf's rows as one group. Every leaf holds at least m
   rows, so the t = ceil((min_pts + 1) / m) leaves whose boxes reach
   least far from a group's box hold min_pts references besides any row
   of the group: the largest box-to-box distance to the t-th of them
   bounds every k-distance of the group. Only a leaf whose box comes
   within that bound of the group's box (Friedman, Bentley and Finkel,
   ACM TOMS 1977) can hold a neighbor, so steps 1 and 2 see only those
   leaves' columns; any superset of the neighbors gives the same
   k-distance and members.
   Rounding margin: box distances are made of the same differences,
   squares and sums as the distances of step 2, so each computed squared
   distance, box or point, is within a relative (d + 3) * eps of its
   exact value. From a neighbor's smallest squared box distance to its
   squared distance, on to the squared k-distance and to the squared
   bound, the exact values only grow, and the computed ones can lose at
   most four such errors. Neighbors are chosen after the square root,
   where a square an ulp above the k-distance's can still give it, which
   costs 2 eps more. The test keeps a leaf while its smallest squared box
   distance is at most the squared bound times 1 + (4d + 16) * eps, more
   than all of these, so rounding never drops a neighbor.
   A leaf that keeps every leaf, as on wide or uniform data, gathers
   nothing: its rows are screened in place, in blocks as ``score``
   screens queries. ``score`` screens every pair: grouping queries by
   leaf measured no faster on the benchmark workloads.
1. Screen. Squared distances for a group of rows come from one BLAS
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
3. Aggregate. Neighbors come back as (row, column, distance) lists sorted
   by row and then column, with O(n * min_pts) entries; only exact ties
   add more. LRDs, neighbor-LRD sums and scores are ``np.bincount`` sums
   over them, so any grouping of the rows gives bit-identical results.

Each screen is one group of rows. A block of rows against every
reference in place holds about ``_ELEMENT_BUDGET`` (row, reference)
entries, or one row (n entries) once n exceeds the budget; a leaf
against the gathered columns of the leaves it kept, up to ``_LEAF_SIZE``
* n. Candidate differences are gathered in chunks of the budget; only
the neighbor lists grow with the number of ties. The leaf plan also
holds three float64 (leaves x leaves) arrays of box distances: some
100 MB at 100k reference rows, whose leaves hold about 48 rows each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-10

# Cap on (row, reference) entries screened at once, and on candidate
# difference elements gathered at once. A screen holds two arrays of
# this many float64 (512 KB each), so both stay in a 2 MB per-core L2
# cache. On the 2-core Xeon the benchmarks ran on, 4x this budget made
# the element-wise passes up to twice as slow and dense scoring 1.4x.
_ELEMENT_BUDGET = 1 << 16
_EPS = np.finfo(np.float64).eps
# Largest k-d leaf, in reference rows.
_LEAF_SIZE = 64


@dataclass
class Leaves:
    """k-d leaves of a reference: leaf i holds the rows
    ``order[offsets[i]:offsets[i + 1]]``, inside the box
    ``[lo[i], hi[i]]``."""

    order: np.ndarray
    offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


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


def _rows(matrix: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``matrix[index]``; ``np.take`` gathers short rows several times
    faster than fancy indexing."""
    return np.take(matrix, index, axis=0)


def _boxes(points: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box of each run ``points[offsets[i]:offsets[i + 1]]``."""
    # runs of the contiguous transpose reduce 1.4x as fast, copy included
    columns = np.ascontiguousarray(points.T)
    return (np.minimum.reduceat(columns, offsets[:-1], axis=1).T,
            np.maximum.reduceat(columns, offsets[:-1], axis=1).T)


def _build_leaves(reference: np.ndarray) -> Leaves:
    """Split ``reference`` into k-d leaves of at most ``_LEAF_SIZE`` rows,
    one level of nodes at a time: each node larger than that is sorted on
    its widest coordinate and halved."""
    n = reference.shape[0]
    order = np.arange(n)
    offsets = np.array([0, n])
    while True:
        sizes = np.diff(offsets)
        split = sizes > _LEAF_SIZE
        if not split.any():
            return Leaves(order, offsets, *_boxes(_rows(reference, order), offsets))
        points = _rows(reference, order)
        lo, hi = _boxes(points, offsets)
        node = np.repeat(np.arange(sizes.size), sizes)
        widest = np.argmax(hi - lo, axis=1)[node]
        order = order[np.lexsort((points[np.arange(n), widest], node))]
        offsets = np.union1d(offsets, offsets[:-1][split] + sizes[split] // 2)


def _box_sq_distances(leaves: Leaves) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest squared distances between each pair of leaf
    boxes."""
    n, n_features = leaves.lo.shape
    near = np.empty((n, n))
    far = np.empty_like(near)
    step = max(1, _ELEMENT_BUDGET // n // n_features)
    for start in range(0, n, step):
        box_lo = leaves.lo[start:start + step, None]
        box_hi = leaves.hi[start:start + step, None]
        gap = np.maximum(np.maximum(leaves.lo - box_hi, box_lo - leaves.hi), 0.0)
        near[start:start + step] = np.einsum("ijk,ijk->ij", gap, gap)
        span = np.maximum(leaves.hi - box_lo, box_hi - leaves.lo)
        far[start:start + step] = np.einsum("ijk,ijk->ij", span, span)
    return near, far


def _plan(leaves: Leaves, min_pts: int) -> np.ndarray:
    """(leaves, leaves) mask of the leaves that can hold a neighbor of a
    row of each leaf (step 0 of the module docstring)."""
    near, far = _box_sq_distances(leaves)
    t = min(far.shape[1], -(-(min_pts + 1) // int(leaves.sizes.min())))
    bound = np.partition(far, t - 1, axis=1)[:, t - 1]
    bound *= 1.0 + (4 * leaves.lo.shape[1] + 16) * _EPS
    return near <= bound[:, None]


def _screen(points: np.ndarray, points_sq: np.ndarray, reference: np.ndarray,
            reference_sq: np.ndarray, rows: np.ndarray, cols: np.ndarray | None,
            self_slots: np.ndarray | None, min_pts: int,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (row, column) pairs of one group of rows (step 1).

    The rows ``rows`` are screened against the references ``cols``, or
    all of them when ``cols`` is None. ``self_slots[i]`` is the slot of
    row ``rows[i]``'s own column, which never counts. Every row has at
    least min_pts other columns.
    """
    margin_scale = (4 * points.shape[1] + 16) * _EPS
    # sq +- margin = (1 +- margin_scale) * (|a|^2 + |b|^2) - 2 a.b
    hi, lo = 1.0 + margin_scale, 1.0 - margin_scale
    if cols is None:
        columns, columns_sq = reference, reference_sq
    else:
        columns, columns_sq = _rows(reference, cols), reference_sq[cols]
    rows_sq = points_sq[rows]
    bounds = (-2.0 * _rows(points, rows)) @ columns.T
    if self_slots is not None:
        bounds[np.arange(rows.size), self_slots] = np.inf
    # adding a per-row term keeps each row's order, so it is added after
    # the partition and, for the lower bound, to the limit
    upper = bounds + hi * columns_sq
    upper.partition(min_pts - 1, axis=1)
    # a neighbor's distance can round to the k-distance after the square
    # root although its square is a little larger
    limit = upper[:, min_pts - 1] + hi * rows_sq
    limit *= 1.0 + 4.0 * _EPS
    del upper
    bounds += lo * columns_sq
    # one flat nonzero and a divmod are faster than a 2-D nonzero
    row, slot = np.divmod(np.flatnonzero(bounds <= (limit - lo * rows_sq)[:, None]),
                          bounds.shape[1])
    return rows[row], slot if cols is None else cols[slot]


def _select(points: np.ndarray, reference: np.ndarray, r: np.ndarray,
            c: np.ndarray, min_pts: int, k_distances: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact distances of candidate pairs (step 2).

    Each row's candidates form one run of ``r``. Writes each row's
    k-distance into ``k_distances`` and returns the neighbor pairs and
    distances, in candidate order.
    """
    chunk = max(1, _ELEMENT_BUDGET // points.shape[1])
    d = np.empty(r.size)
    for at in range(0, r.size, chunk):
        diff = _rows(points, r[at:at + chunk]) - _rows(reference, c[at:at + chunk])
        d[at:at + chunk] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # every row has at least min_pts candidates. With exactly min_pts, as
    # almost always, its k-distance is the largest; a longer run (ties, or
    # a reference within the rounding margin) is sorted on one integer
    # key, (run, rank of the distance), far faster than a lexsort.
    first = np.flatnonzero(np.diff(r, prepend=-1))
    runs = np.diff(first, append=r.size)
    k_runs = np.maximum.reduceat(d, first)
    long = runs > min_pts
    if long.any():
        long_d = d[np.repeat(long, runs)]
        rank = np.empty(long_d.size, np.intp)
        rank[np.argsort(long_d)] = np.arange(long_d.size)
        run = np.repeat(np.arange(long.sum()), runs[long])
        by_run = np.argsort(run * long_d.size + rank)
        starts = np.cumsum(runs[long]) - runs[long]
        k_runs[long] = long_d[by_run[starts + min_pts - 1]]
    k_distances[r[first]] = k_runs
    member = d <= np.repeat(k_runs, runs)
    return r[member], c[member], d[member]


def _neighborhoods(
    points: np.ndarray,
    points_sq: np.ndarray,
    reference: np.ndarray,
    reference_sq: np.ndarray,
    min_pts: int,
    exclude_self: bool,
    leaves: Leaves | None = None,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tie-inclusive min_pts-neighborhoods of ``points`` in ``reference``.

    ``points_sq``/``reference_sq`` are the squared row norms. With
    ``exclude_self``, ``points`` is ``reference`` and row i never counts
    itself. Only that case takes ``leaves``, the reference's k-d leaves,
    and ``keep``, their ``_plan``: then each leaf that keeps only some
    leaves screens its rows against their gathered columns. Every other
    row is screened against every reference, in place, in blocks of
    rows. Returns (rows, columns, distances) of every neighbor, sorted by
    row and then column, and the k-distance of each row.
    """
    n_points = points.shape[0]
    found = [(np.empty(0, np.intp), np.empty(0, np.intp))]
    # the rows screened against every reference, in place
    in_place = np.arange(n_points)
    if leaves is not None:
        sizes = leaves.sizes
        full = keep.all(axis=1)
        in_place = leaves.order[np.repeat(full, sizes)]
        for leaf in np.flatnonzero(~full):
            # the kept leaves' columns in leaf order: the leaf's own rows
            # follow the earlier kept leaves' rows, in their own order
            cols = leaves.order[np.repeat(keep[leaf], sizes)]
            own = keep[leaf, :leaf] @ sizes[:leaf]
            start = leaves.offsets[leaf]
            rows = leaves.order[start:start + sizes[leaf]]
            found.append(_screen(points, points_sq, reference, reference_sq, rows,
                                 cols, own + np.arange(rows.size), min_pts))
    block = max(1, _ELEMENT_BUDGET // reference.shape[0])
    for start in range(0, in_place.size, block):
        rows = in_place[start:start + block]
        found.append(_screen(points, points_sq, reference, reference_sq, rows,
                             None, rows if exclude_self else None, min_pts))
    k_distances = np.empty(n_points)
    rows, cols, dists = _select(points, reference, *map(np.concatenate, zip(*found)),
                                min_pts, k_distances)
    if leaves is not None:
        by_row = np.argsort(rows * reference.shape[0] + cols)
        rows, cols, dists = rows[by_row], cols[by_row], dists[by_row]
    return rows, cols, dists, k_distances


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
    leaves = _build_leaves(reference)
    rows, cols, dists, k_distances = _neighborhoods(
        reference, sq_norms, reference, sq_norms, min_pts, exclude_self=True,
        leaves=leaves, keep=_plan(leaves, min_pts))
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
