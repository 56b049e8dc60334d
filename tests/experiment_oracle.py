"""Per-t CSR prefix replay, as ``coldstart.experiment`` ran it before ``prefix_replay``.

For every t this builds one scipy CSR matrix of all selected users' first
min(t, history) ratings and assigns it with ``kmeans._assign_all``; the full
rows get the same treatment for the final labels. The differential tests
hold the running-sum replay to it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from coldstart.dataset import _gather_rows
from coldstart.kmeans import _assign_all


def _prefix_ranks(m, ordering) -> np.ndarray:
    """Within-row rank of every stored rating under the prefix ordering."""
    starts = np.repeat(m.indptr[:-1], np.diff(m.indptr))
    if ordering.kind == "by_item_index":
        return np.arange(m.n_ratings, dtype=np.int64) - starts
    owner = np.repeat(np.arange(m.n_users), np.diff(m.indptr))
    order = np.lexsort((m.indices, m.timestamps, owner))
    ranks = np.empty(m.n_ratings, dtype=np.int64)
    ranks[order] = np.arange(m.n_ratings, dtype=np.int64) - starts
    return ranks


def _prefix_matrix(model, idx, vals, counts):
    """CSR rows holding ``counts`` consecutive (idx, vals) entries each, and their squared norms."""
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    X = sparse.csr_matrix((vals, idx, indptr), shape=(len(counts), model.n_items))
    sq = np.concatenate([[0.0], np.cumsum(X.data**2)])
    return X, sq[indptr[1:]] - sq[indptr[:-1]]


def assign_rows(model, idx, vals, counts) -> np.ndarray:
    X, xnorms = _prefix_matrix(model, idx, vals, counts)
    labels, _ = _assign_all(X, xnorms, model.centroids)
    return labels


def distances(model, idx, vals, counts) -> tuple[np.ndarray, np.ndarray]:
    """The rows' distances to every centroid, as ``_assign_all`` computes them, and their squared norms."""
    X, xnorms = _prefix_matrix(model, idx, vals, counts)
    d = X @ model.centroids.T
    d *= -2.0
    d += xnorms[:, None]
    d += np.einsum("ij,ij->i", model.centroids, model.centroids)
    return d, xnorms


def prefix_rows(m, users, t, ordering):
    """(idx, vals, counts) of every user's first min(t, history) ratings."""
    rank = _prefix_ranks(m, ordering)
    pos, _ = _gather_rows(m.indptr, users)
    lens = m.indptr[users + 1] - m.indptr[users]
    keep = rank[pos] < t
    return m.indices[pos][keep].astype(np.int32), m.values[pos][keep], np.minimum(lens, t)


def final_rows(m, users):
    """(idx, vals, counts) of every user's whole history."""
    pos, _ = _gather_rows(m.indptr, users)
    lens = m.indptr[users + 1] - m.indptr[users]
    return m.indices[pos].astype(np.int32), m.values[pos], lens


def prefix_labels(model, m, users, t_max, ordering):
    """Yield (t, labels of every user's min(t, history)-length prefix) for t = 1..t_max."""
    for t in range(1, t_max + 1):
        yield t, assign_rows(model, *prefix_rows(m, users, t, ordering))


def final_labels(model, m, users) -> np.ndarray:
    """Assignment of each user's full row against the frozen centroids."""
    return assign_rows(model, *final_rows(m, users))
