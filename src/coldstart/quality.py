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
from .kmeans import ClusterModel, _row_sq_norms


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
    """Member counts and mean member-to-centroid distance per cluster (NaN when empty)."""
    if m.n_items != model.n_items:
        raise ValueError("matrix item space does not match the model")
    if m.n_users != len(model.assignments):
        raise ValueError("matrix user count does not match the model assignments")
    k = model.n_clusters
    a = model.assignments
    counts = np.bincount(a, minlength=k)

    # Row-to-assigned-centroid distances in one pass: the dot of each sparse
    # row with its centroid via a cumulative sum over the value array.
    owner = np.repeat(np.arange(m.n_users), np.diff(m.indptr))
    prod = m.values * model.centroids[a[owner], m.indices]
    cum = np.concatenate([[0.0], np.cumsum(prod)])
    dots = cum[m.indptr[1:]] - cum[m.indptr[:-1]]
    d2 = _row_sq_norms(m) - 2.0 * dots + model.centroid_sq_norms[a]
    dist = np.sqrt(np.maximum(d2, 0.0))

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


def cluster_scatter(model: ClusterModel, m: RatingMatrix, j: int) -> float:
    """Mean Euclidean distance of cluster j's members to its centroid."""
    if not 0 <= j < model.n_clusters:
        raise ValueError(f"cluster index {j} out of range [0, {model.n_clusters})")
    counts, scatter = _scatters(model, m)
    if counts[j] == 0:
        raise DegenerateModelError(f"cluster {j} is empty")
    return float(scatter[j])


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


def per_cluster_quality(model: ClusterModel, m: RatingMatrix, j: int) -> float:
    """Signed single-cluster quality: −D_j for the cluster a user lands in."""
    if not 0 <= j < model.n_clusters:
        raise ValueError(f"cluster index {j} out of range [0, {model.n_clusters})")
    q = davies_bouldin(model, m)
    term = q.per_cluster_db_term[j]
    if np.isnan(term):
        raise DegenerateModelError(f"cluster {j} is empty")
    return float(-term)
