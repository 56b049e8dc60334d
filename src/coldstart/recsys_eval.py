"""Cluster-based CF scoring plus NDCG/MAP, driving the cluster-coefficient sweep.

The sweep hides a fixed per-user holdout, fits k-means on the remainder for
each coefficient, ranks the holdout together with a sampled pool of unrated
items, and records mean NDCG and MAP per coefficient. Holdout and pool are
drawn once from the eval seed, so every coefficient is scored on identical
splits and the whole sweep is reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RatingMatrix, _gather_rows
from .kmeans import ClusterModel, KMeansConfig, fit, n_clusters_from_coeff

FALLBACK_SCORE = 3.0


@dataclass(frozen=True)
class EvalConfig:
    holdout_per_user: int = 10
    candidate_pool: int = 100
    relevance_threshold: float = 4.0
    ndcg_cutoff: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.holdout_per_user < 1:
            raise ValueError("holdout_per_user must be >= 1")
        if self.candidate_pool < 0:
            raise ValueError("candidate_pool must be >= 0")
        if self.ndcg_cutoff < 1:
            raise ValueError("ndcg_cutoff must be >= 1")
        if not 1.0 <= self.relevance_threshold <= 5.0:
            raise ValueError("relevance_threshold must lie in [1, 5]")


@dataclass(frozen=True)
class SweepRow:
    k_coeff: int
    n_clusters: int
    ndcg_mean: float
    map_mean: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best_by_ndcg: int
    best_by_map: int


def ndcg_at_n(ranked_gains, ideal_gains, n: int) -> float:
    """DCG of the presented order over DCG of the ideal order, cut at rank n.

    A user whose gains are all zero cannot be ranked wrongly, so the result
    is defined as 1.0 there; this keeps user counts equal across sweep runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranked_gains = np.asarray(ranked_gains, dtype=np.float64)
    ideal_gains = np.asarray(ideal_gains, dtype=np.float64)
    if ranked_gains.shape != ideal_gains.shape:
        raise ValueError("ranked_gains and ideal_gains must have equal length")
    discounts = 1.0 / np.log2(np.arange(2, min(n, len(ranked_gains)) + 2))
    idcg = float(ideal_gains[: len(discounts)] @ discounts)
    if idcg == 0.0:
        return 1.0
    return float(ranked_gains[: len(discounts)] @ discounts) / idcg


def average_precision(ranked_items, relevant) -> float:
    """Mean precision at each relevant hit, over the size of the relevant set.

    Relevant items missing from the ranking contribute zero, so the value
    stays in [0,1] and is insensitive to how non-relevant tail items are
    permuted below the last hit.
    """
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for pos, item in enumerate(ranked_items, start=1):
        if item in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def predict_score(model: ClusterModel, m: RatingMatrix, user: int, item: int) -> float:
    """Mean rating of `item` among `user`'s cluster co-members who rated it.

    Falls back to the item's global mean rating, then to the scale midpoint.
    """
    if not 0 <= user < m.n_users:
        raise ValueError(f"user index {user} out of range [0, {m.n_users})")
    if not 0 <= item < m.n_items:
        raise ValueError(f"item index {item} out of range [0, {m.n_items})")
    col = m.to_csr().tocsc()[:, item]
    raters = col.indices
    vals = col.data
    mask = (model.assignments[raters] == model.assignments[user]) & (raters != user)
    if mask.any():
        return float(vals[mask].mean())
    if len(vals):
        return float(vals.mean())
    return FALLBACK_SCORE


def _holdout_split(
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
        idx, vals = m.row(u)
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
        scheme=m.scheme,
        timestamps=m.timestamps[keep] if m.timestamps is not None else None,
    )
    return train, held_items, held_gains, pools


def _score_candidates(
    model: ClusterModel,
    train_csc,
    global_sum: np.ndarray,
    global_cnt: np.ndarray,
    user: int,
    items: np.ndarray,
) -> np.ndarray:
    """Vectorized predict_score over one user's candidate items."""
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


def sweep_coefficient(
    m: RatingMatrix,
    coeffs,
    kcfg_template: KMeansConfig,
    ecfg: EvalConfig,
    *,
    threads: int = 1,
) -> SweepResult:
    """Fit and score one clustering per coefficient on a shared holdout split."""
    coeffs = [int(c) for c in coeffs]
    if not coeffs:
        raise ValueError("coeffs must be non-empty")
    if any(c < 1 for c in coeffs):
        raise ValueError("every coefficient must be >= 1")

    train, held_items, held_gains, pools = _holdout_split(m, ecfg)
    train_csc = train.to_csr().tocsc()
    global_cnt = np.diff(train_csc.indptr)
    sums = np.concatenate([[0.0], np.cumsum(train_csc.data)])
    global_sum = sums[train_csc.indptr[1:]] - sums[train_csc.indptr[:-1]]

    rows = []
    for coeff in coeffs:
        k = n_clusters_from_coeff(train.n_users, coeff)
        kcfg = dataclasses.replace(kcfg_template, n_clusters=k)
        model = fit(train, kcfg, threads=threads)

        ndcgs = np.zeros(train.n_users)
        aps = []
        for u in range(train.n_users):
            items = np.concatenate([held_items[u], pools[u]])
            gains = np.concatenate([held_gains[u], np.zeros(len(pools[u]))])
            scores = _score_candidates(model, train_csc, global_sum, global_cnt, u, items)
            order = np.lexsort((items, -scores))
            ndcgs[u] = ndcg_at_n(
                gains[order], np.sort(gains)[::-1], ecfg.ndcg_cutoff
            )
            relevant = held_items[u][held_gains[u] >= ecfg.relevance_threshold]
            if len(relevant):
                aps.append(average_precision(items[order], relevant))
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


def write_sweep_csv(result: SweepResult, dest: str | Path) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k_coeff", "n_clusters", "ndcg_mean", "map_mean"])
        for r in result.rows:
            w.writerow([r.k_coeff, r.n_clusters, repr(r.ndcg_mean), repr(r.map_mean)])
        fh.write(f"# best_by_ndcg={result.best_by_ndcg} best_by_map={result.best_by_map}\n")
