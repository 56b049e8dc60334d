"""Per-user reference version of the coefficient sweep's split and scoring.

This is the loop that ``coldstart.recsys_eval`` replaced with one cluster ×
item table per fit and block-wise ranking: for each user it gathers every
rater of each candidate item, keeps the co-members of the user's cluster,
and ranks with ``np.lexsort``. The differential tests hold the array version
to it, float for float.

One difference is left to the tests: when no coefficient has a defined MAP,
this version names the smallest coefficient as ``best_by_map``, where the
array version reports None.

``score_table`` is the items x clusters table as two whole-matrix
bincounts; the array version sums the same cells one block of rows at a
time, and the tests require the same bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import kmeans_oracle
from dataset_oracle import row
from coldstart.dataset import RatingMatrix, _gather_rows, segment_sums
from coldstart.kmeans import ClusterModel, KMeansConfig, fit, n_clusters_from_coeff
from coldstart.recsys_eval import (
    FALLBACK_SCORE,
    EvalConfig,
    SweepResult,
    SweepRow,
    average_precision,
    ndcg_at_n,
)


def holdout_split(
    m: RatingMatrix, ecfg: EvalConfig
) -> tuple[RatingMatrix, list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Hide a seeded holdout per user; returns (train matrix, held items, held gains, pools)."""
    lengths = m.row_lengths()
    bad = np.flatnonzero(lengths <= ecfg.holdout_per_user)
    if len(bad):
        shown = ", ".join(str(m.user_ids[u]) for u in bad[:10])
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise ValueError(
            f"holdout of {ecfg.holdout_per_user} infeasible for users: {shown}{more}"
        )
    rng = np.random.default_rng(ecfg.seed)
    keep = np.ones(m.n_ratings, dtype=bool)
    held_items: list[np.ndarray] = []
    held_gains: list[np.ndarray] = []
    pools: list[np.ndarray] = []
    all_items = np.arange(m.n_items)
    for u in range(m.n_users):
        idx, vals = row(m, u)
        local = rng.choice(len(idx), size=ecfg.holdout_per_user, replace=False)
        keep[m.indptr[u] + local] = False
        held_items.append(idx[local].copy())
        held_gains.append(vals[local].copy())
        unrated = np.setdiff1d(all_items, idx, assume_unique=True)
        n_pool = min(ecfg.candidate_pool, len(unrated))
        pool = rng.choice(unrated, size=n_pool, replace=False) if n_pool else unrated[:0]
        pools.append(pool)

    lens_new = lengths - ecfg.holdout_per_user
    train = RatingMatrix(
        n_users=m.n_users,
        n_items=m.n_items,
        indptr=np.concatenate([[0], np.cumsum(lens_new)]).astype(np.int64),
        indices=m.indices[keep],
        values=m.values[keep],
        user_ids=m.user_ids,
        item_ids=m.item_ids,
        timestamps=m.timestamps[keep] if m.timestamps is not None else None,
    )
    return train, held_items, held_gains, pools


def score_table(m: RatingMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    """Items x k mean ratings per cluster, else the item's mean, else FALLBACK_SCORE."""
    n_items = m.n_items
    n_raters = np.bincount(m.indices, minlength=n_items)
    item_total = segment_sums(m.indices, m.values, n_items)
    item_mean = np.where(n_raters > 0, item_total / np.maximum(n_raters, 1), FALLBACK_SCORE)
    bins = kmeans_oracle.cell_bins(m, labels, k)
    cnt = np.bincount(bins, minlength=n_items * k).reshape(n_items, k)
    table = np.bincount(bins, weights=m.values, minlength=n_items * k).reshape(n_items, k)
    table = table.astype(np.float64, copy=False)  # integer zeros when no item has a rater
    table /= np.maximum(cnt, 1)
    np.copyto(table, item_mean[:, None], where=cnt == 0)
    return table


def score_candidates(
    model: ClusterModel,
    train_csc,
    global_sum: np.ndarray,
    global_cnt: np.ndarray,
    user: int,
    items: np.ndarray,
) -> np.ndarray:
    """Mean rating of each item among the user's cluster co-members, else the item's global mean."""
    cl = model.assignments[user]
    flat, seg = _gather_rows(train_csc.indptr, items)
    raters = train_csc.indices[flat]
    vals = train_csc.data[flat]
    sel = (model.assignments[raters] == cl) & (raters != user)
    co_sum = np.bincount(seg[sel], weights=vals[sel], minlength=len(items))
    co_cnt = np.bincount(seg[sel], minlength=len(items))
    g_cnt = global_cnt[items]
    g_mean = np.where(g_cnt > 0, global_sum[items] / np.maximum(g_cnt, 1), FALLBACK_SCORE)
    return np.where(co_cnt > 0, co_sum / np.maximum(co_cnt, 1), g_mean)


def user_metrics(
    model: ClusterModel,
    train: RatingMatrix,
    held_items: list[np.ndarray],
    held_gains: list[np.ndarray],
    pools: list[np.ndarray],
    ecfg: EvalConfig,
) -> tuple[np.ndarray, list[float]]:
    """Each user's NDCG@n, and the AP of each user with a relevant held-out item, in user order."""
    train_csc = kmeans_oracle.csr_matrix(train).tocsc()
    global_cnt = np.diff(train_csc.indptr)
    sums = np.concatenate([[0.0], np.cumsum(train_csc.data)])
    global_sum = sums[train_csc.indptr[1:]] - sums[train_csc.indptr[:-1]]
    ndcgs = np.zeros(train.n_users)
    aps = []
    for u in range(train.n_users):
        items = np.concatenate([held_items[u], pools[u]])
        gains = np.concatenate([held_gains[u], np.zeros(len(pools[u]))])
        scores = score_candidates(model, train_csc, global_sum, global_cnt, u, items)
        order = np.lexsort((items, -scores))
        ndcgs[u] = ndcg_at_n(
            gains[order], np.sort(gains)[::-1], ecfg.ndcg_cutoff
        )
        relevant = held_items[u][held_gains[u] >= ecfg.relevance_threshold]
        if len(relevant):
            aps.append(average_precision(items[order], relevant))
    return ndcgs, aps


def sweep_coefficient(
    m: RatingMatrix,
    coeffs,
    kcfg_template: KMeansConfig,
    ecfg: EvalConfig,
    *,
    threads: int = 1,
) -> SweepResult:
    """Fit and score one clustering per coefficient, one user at a time."""
    coeffs = [int(c) for c in coeffs]
    train, held_items, held_gains, pools = holdout_split(m, ecfg)
    rows = []
    for coeff in coeffs:
        k = n_clusters_from_coeff(train.n_users, coeff)
        kcfg = dataclasses.replace(kcfg_template, n_clusters=k)
        model = fit(train, kcfg, threads=threads)
        ndcgs, aps = user_metrics(model, train, held_items, held_gains, pools, ecfg)
        rows.append(
            SweepRow(
                k_coeff=coeff,
                n_clusters=k,
                ndcg_mean=float(ndcgs.mean()),
                map_mean=float(np.mean(aps)) if aps else float("nan"),
            )
        )

    def argmax(rows, key):
        best = max(key(r) for r in rows)
        return min(r.k_coeff for r in rows if key(r) == best)

    return SweepResult(
        rows=tuple(rows),
        best_by_ndcg=argmax(rows, lambda r: r.ndcg_mean),
        best_by_map=argmax(rows, lambda r: (-np.inf if np.isnan(r.map_mean) else r.map_mean)),
    )
