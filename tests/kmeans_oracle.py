"""Direct squared Euclidean distance of a sparse row to a dense vector.

``coldstart.kmeans`` takes every distance from the expansion
(-2·x·c + ‖x‖²) + ‖c‖². This sums (v - c)² over the rated items and c² over
the rest instead, with no cancellation, so the tests hold ``assign`` to it.
"""

from __future__ import annotations

import numpy as np


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
