"""Shared fixtures: hand-assembled rating matrices for unit tests, and child-process settings."""

import os
from pathlib import Path

import numpy as np
import pytest

import coldstart
from coldstart.dataset import RatingMatrix


def child_env(drop=(), **extra):
    """Environment for a child Python process that can import this ``coldstart``.

    pytest's ``pythonpath`` setting reaches the test process only, so the
    package's directory goes first in the child's PYTHONPATH. Variables
    named in ``drop`` are removed; keyword arguments are set.
    """
    env = {k: v for k, v in os.environ.items() if k not in drop}
    package_root = str(Path(coldstart.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def matrix_from_dense(dense, timestamps=None):
    """Build a RatingMatrix from a dense array with NaN marking "not rated".

    ``timestamps`` (same shape, ignored where dense is NaN) attaches
    per-rating timestamps so ordering-sensitive paths can be exercised.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense must be 2-D")
    n_users, n_items = dense.shape
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    indices, values, ts = [], [], []
    for u, row in enumerate(dense):
        cols = np.flatnonzero(~np.isnan(row))
        indices.extend(int(c) for c in cols)
        values.extend(float(v) for v in row[cols])
        if timestamps is not None:
            ts.extend(int(timestamps[u][c]) for c in cols)
        indptr[u + 1] = len(values)
    return RatingMatrix(
        n_users=n_users,
        n_items=n_items,
        indptr=indptr,
        indices=np.asarray(indices, dtype=np.int32),
        values=np.asarray(values, dtype=np.float64),
        user_ids=np.arange(n_users, dtype=np.int64),
        item_ids=np.arange(n_items, dtype=np.int64),
        timestamps=np.asarray(ts, dtype=np.int64) if timestamps is not None else None,
    )


@pytest.fixture
def mk_matrix():
    return matrix_from_dense
