"""Reference versions of ``coldstart.kmeans`` distances and per-rating passes.

``coldstart.kmeans`` takes every distance from the expansion
(-2·x·c + ‖x‖²) + ‖c‖². ``sq_euclidean`` sums (v - c)² over the rated items
and c² over the rest instead, with no cancellation, so the tests hold
``assign`` to it.

``kmeans`` runs its per-rating passes (row norms, per-row dots, the dense
fill and the mean update) one block of rows at a time, to bound their
memory. The functions below take each pass over the whole matrix at once,
as one ``np.bincount`` or one fancy index; the tests require the blocked
passes to give the same bytes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from coldstart.dataset import RatingMatrix, segment_ids, segment_sums
from coldstart.kmeans import ClusterModel, _sq_dists


def sq_euclidean(row: tuple[np.ndarray, np.ndarray], centroid: np.ndarray) -> float:
    """Squared Euclidean distance of a sparse row to a dense vector, zero-filling unrated dimensions."""
    indices, values = row
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    if centroid.ndim != 1:
        raise ValueError("centroid must be a 1-D vector")
    if len(indices) and (indices.min() < 0 or indices.max() >= centroid.shape[0]):
        raise ValueError("row index space does not match the centroid dimension")
    rated = float(((values - centroid[indices]) ** 2).sum())
    mask = np.ones(centroid.shape[0], dtype=bool)
    mask[indices] = False
    return rated + float((centroid[mask] ** 2).sum())


def cell_bins(m: RatingMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    """Each stored rating's (item, cluster of its user) cell as ``item * k + label``."""
    return m.indices.astype(np.int64) * k + np.repeat(labels, np.diff(m.indptr))


def cluster_means(m: RatingMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster mean rows from one bincount over every rating's cell; 0.0 for an empty cluster."""
    d = m.n_items
    sums = np.bincount(cell_bins(m, labels, k), weights=m.values, minlength=d * k).reshape(d, k).T
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0
    return sums / counts[:, None]


def row_sq_norms(m: RatingMatrix) -> np.ndarray:
    return segment_sums(segment_ids(m.indptr), m.values * m.values, m.n_users)


def assigned_sq_dists(model: ClusterModel, m: RatingMatrix) -> np.ndarray:
    a = model.assignments
    rows = segment_ids(m.indptr)
    dots = segment_sums(rows, m.values * model.centroids[a[rows], m.indices], m.n_users)
    return np.maximum(_sq_dists(dots, row_sq_norms(m), model.centroid_sq_norms[a]), 0.0)


def dense_rows(m: RatingMatrix) -> np.ndarray:
    """The rows as one dense array, filled by one fancy index; adding 0.0 turns -0.0 into 0.0."""
    rows = np.zeros((m.n_users, m.n_items))
    rows[segment_ids(m.indptr), m.indices] = m.values
    rows += 0.0
    return rows


def csr_matrix(m: RatingMatrix) -> sparse.csr_matrix:
    """The rows as the scipy CSR matrix over ``m``'s own arrays, as the CSR kernel takes them."""
    return sparse.csr_matrix((m.values, m.indices, m.indptr), shape=(m.n_users, m.n_items))
