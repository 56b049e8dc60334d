"""Davies-Bouldin terms with scipy's ``cdist`` for the centroid separation.

This is the code ``coldstart.quality.davies_bouldin`` ran before it summed
the separation itself. The differential tests hold the numpy version to it
bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from coldstart.quality import _scatters


def db_terms(model, m) -> np.ndarray:
    """Per-cluster D_j (NaN for an empty cluster), as ``per_cluster_db_term``."""
    counts, scatter = _scatters(model, m)
    usable = np.flatnonzero(counts > 0)
    cu = model.centroids[usable]
    su = scatter[usable]
    dist = cdist(cu, cu)
    valid = dist > 0.0
    np.fill_diagonal(valid, False)
    ratio = np.where(valid, (su[:, None] + su[None, :]) / np.where(valid, dist, 1.0), -np.inf)
    terms = np.full(model.n_clusters, np.nan)
    terms[usable] = ratio.max(axis=1)
    return terms
