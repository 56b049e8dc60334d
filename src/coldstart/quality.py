"""Davies-Bouldin cluster validity with a negated reporting convention.

Scatter is the mean (not squared) Euclidean distance of a cluster's members
to its centroid; separation is the centroid-to-centroid Euclidean distance.
The index is reported negated, so better clusterings sit closer to 0 from
below. Pairs of coincident centroids are excluded rather than producing an
infinite term, which keeps prefix-assignment quality curves finite.

Separation is summed item by item in the order scipy's ``cdist`` sums it,
so the distances, and every term built on them, match ``cdist`` bit for bit
without importing ``scipy.spatial``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import RatingMatrix
from .errors import DegenerateModelError
from .kmeans import ClusterModel, _assigned_sq_dists


@dataclass(frozen=True, eq=False)
class ClusterQuality:
    """Per-cluster scatter and DB terms plus the aggregate index.

    Arrays have one entry per cluster; empty clusters hold NaN and are
    excluded from `db_index`, which averages the remaining D_j terms.
    `db_signed` is the negated index used in reports and curves.
    """

    per_cluster_scatter: np.ndarray
    per_cluster_db_term: np.ndarray
    db_index: float
    db_signed: float


def _scatters(model: ClusterModel, m: RatingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Member counts and mean member-to-centroid distance per cluster (NaN when empty).

    The distances are the ones ``kmeans.sse`` sums, so scatter and SSE
    describe the same rows.
    """
    k = model.n_clusters
    a = model.assignments
    dist = np.sqrt(_assigned_sq_dists(model, m))
    counts = np.bincount(a, minlength=k)
    scatter = np.full(k, np.nan)
    nonempty = counts > 0
    sums = np.bincount(a, weights=dist, minlength=k)
    scatter[nonempty] = sums[nonempty] / counts[nonempty]
    return counts, scatter


def _separation(cu: np.ndarray) -> np.ndarray:
    """Euclidean distance between every pair of rows of ``cu``.

    Each pair's squared differences are added item by item from 0.0, the
    order ``cdist`` uses, so the result equals ``cdist(cu, cu)`` exactly.
    """
    k = cu.shape[0]
    acc = np.zeros((k, k))
    for c in cu.T:
        acc += (c[:, None] - c[None, :]) ** 2
    return np.sqrt(acc)


def davies_bouldin(model: ClusterModel, m: RatingMatrix) -> ClusterQuality:
    """Davies-Bouldin terms for every non-empty cluster and their mean.

    D_j is the max over other non-empty clusters of (S_j + S_m) / d(c_j, c_m),
    taken only over pairs whose centroids do not coincide. Fewer than two
    non-empty clusters, or all centroids coincident, is a degenerate model.
    """
    counts, scatter = _scatters(model, m)
    k = model.n_clusters
    usable = np.flatnonzero(counts > 0)
    if len(usable) < 2:
        raise DegenerateModelError(
            f"need at least 2 non-empty clusters, found {len(usable)}"
        )
    cu = model.centroids[usable]
    su = scatter[usable]
    dist = _separation(cu)
    valid = dist > 0.0
    np.fill_diagonal(valid, False)
    if not valid.any():
        raise DegenerateModelError("all cluster centroids coincide")
    ratio = np.where(valid, (su[:, None] + su[None, :]) / np.where(valid, dist, 1.0), -np.inf)
    terms_u = ratio.max(axis=1)

    db_term = np.full(k, np.nan)
    db_term[usable] = terms_u
    db_index = float(terms_u.mean())
    return ClusterQuality(
        per_cluster_scatter=scatter,
        per_cluster_db_term=db_term,
        db_index=db_index,
        db_signed=-db_index,
    )
