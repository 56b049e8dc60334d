"""Cluster-based CF scoring plus NDCG/MAP, driving the cluster-coefficient sweep.

The sweep hides a fixed per-user holdout, fits k-means on the remainder for
each coefficient, ranks the holdout together with a sampled pool of unrated
items, and records mean NDCG and MAP per coefficient. Holdout and pool are
drawn once from the eval seed, so every coefficient is scored on identical
splits and the whole sweep is reproducible.

Each fit gets one items x clusters table of mean ratings, summed one block
of training rows at a time with the cells of the k-means mean update; a
candidate's score is one lookup in it.
Users are ranked in the same blocks of ``kmeans._ROW_BLOCK`` rows, which
bound the sort's memory: a block pads its candidate lists into one array and
sorts each row by (-score, item). AP sums in rank order and NDCG calls
``ndcg_at_n`` per row, so both keep the bits of the per-user definitions.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RatingMatrix, _subset, segment_sums
from .kmeans import KMeansConfig, _cell_blocks, _row_blocks, fit, n_clusters_from_coeff

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
    best_by_map: int | None  # None when no coefficient has a defined MAP


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


def _score_table(m: RatingMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    """Items x k table of each cluster's mean rating of each item.

    A cell no cluster member rated holds the item's mean rating, or
    FALLBACK_SCORE for an item nobody rated. The cells are those of the
    k-means mean update, summed by the same blocked pass, so each cell sums
    its raters in ascending row order.
    """
    n_items = m.n_items
    n_raters = np.bincount(m.indices, minlength=n_items)
    item_total = segment_sums(m.indices, m.values, n_items)
    item_mean = np.where(n_raters > 0, item_total / np.maximum(n_raters, 1), FALLBACK_SCORE)
    table = np.zeros(n_items * k)
    cnt = np.zeros(n_items * k, dtype=np.int64)
    for cells, values in _cell_blocks(m, labels, k):
        np.add.at(table, cells, values)
        np.add.at(cnt, cells, 1)
    table = table.reshape(n_items, k)
    cnt = cnt.reshape(n_items, k)
    table /= np.maximum(cnt, 1)
    np.copyto(table, item_mean[:, None], where=cnt == 0)
    return table


def _holdout_split(
    m: RatingMatrix, ecfg: EvalConfig
) -> tuple[RatingMatrix, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Hide a seeded holdout per user; returns (train matrix, held items, held gains, pools).

    Held items and gains are users x holdout arrays. Per user the RNG draws
    the holdout, then the pool from the ascending unrated items.
    """
    lengths = m.row_lengths()
    bad = np.flatnonzero(lengths <= ecfg.holdout_per_user)
    if len(bad):
        shown = ", ".join(str(m.user_ids[u]) for u in bad[:10])
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise ValueError(
            f"holdout of {ecfg.holdout_per_user} infeasible for users: {shown}{more}"
        )
    rng = np.random.default_rng(ecfg.seed)
    held = np.empty((m.n_users, ecfg.holdout_per_user), dtype=np.int64)
    pools: list[np.ndarray] = []
    unrated = np.ones(m.n_items, dtype=bool)
    for u in range(m.n_users):
        lo, hi = int(m.indptr[u]), int(m.indptr[u + 1])
        held[u] = lo + rng.choice(hi - lo, size=ecfg.holdout_per_user, replace=False)
        rated = m.indices[lo:hi]
        unrated[rated] = False
        free = np.flatnonzero(unrated)
        unrated[rated] = True
        n_pool = min(ecfg.candidate_pool, len(free))
        pools.append(rng.choice(free, size=n_pool, replace=False) if n_pool else free[:0])

    keep = np.ones(m.n_ratings, dtype=bool)
    keep[held.ravel()] = False
    train = _subset(m, np.arange(m.n_users), lengths - ecfg.holdout_per_user, keep)
    return train, m.indices[held], m.values[held], pools


def _rank_block(
    table: np.ndarray,
    labels: np.ndarray,
    held_items: np.ndarray,
    held_gains: np.ndarray,
    pools: list[np.ndarray],
    ecfg: EvalConfig,
) -> tuple[list[float], np.ndarray]:
    """NDCG@n of each user in a block, and AP of each user with a relevant held-out item.

    Each row holds a user's held items then pool, padded to the longest row
    with score -inf and an item past the last, so padding ranks last.
    """
    h = held_items.shape[1]
    n_cand = h + np.array([len(p) for p in pools], dtype=np.int64)
    cols = np.arange(n_cand.max())
    real = cols < n_cand[:, None]
    in_pool = real & (cols >= h)
    items = np.full(real.shape, len(table), dtype=np.int64)
    items[:, :h] = held_items
    items[in_pool] = np.concatenate(pools)
    gains = np.full(real.shape, -np.inf)
    gains[:, :h] = held_gains
    gains[in_pool] = 0.0
    scores = np.full(real.shape, -np.inf)
    scores[real] = table[items[real], np.repeat(labels, n_cand)]

    order = np.lexsort((items, -scores))
    ranked = np.take_along_axis(gains, order, axis=1)
    ideal = np.sort(gains, axis=1)[:, ::-1]
    # Row by row, so each DCG takes the same dot product as ndcg_at_n alone.
    ndcgs = [ndcg_at_n(ranked[r, :n], ideal[r, :n], ecfg.ndcg_cutoff) for r, n in enumerate(n_cand)]

    relevant = np.zeros(real.shape, dtype=bool)
    relevant[:, :h] = held_gains >= ecfg.relevance_threshold
    hit = np.take_along_axis(relevant, order, axis=1)
    precision = np.where(hit, np.cumsum(hit, axis=1) / (cols + 1), 0.0)
    # cumsum adds the precisions in rank order, as average_precision does.
    total = np.cumsum(precision, axis=1)[:, -1]
    n_rel = relevant.sum(axis=1)
    has = n_rel > 0
    return ndcgs, total[has] / n_rel[has]


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

    rows = []
    for coeff in coeffs:
        k = n_clusters_from_coeff(train.n_users, coeff)
        kcfg = dataclasses.replace(kcfg_template, n_clusters=k)
        labels = fit(train, kcfg, threads=threads).assignments
        # A candidate is never in its user's training row, so no cell needs
        # the user's own rating taken out.
        table = _score_table(train, labels, k)

        ndcgs, aps = [], []
        for users, _, _ in _row_blocks(train):
            block_ndcgs, block_aps = _rank_block(
                table, labels[users], held_items[users], held_gains[users], pools[users], ecfg
            )
            ndcgs += block_ndcgs
            aps.append(block_aps)
        aps = np.concatenate(aps)
        rows.append(
            SweepRow(
                k_coeff=coeff,
                n_clusters=k,
                ndcg_mean=float(np.mean(ndcgs)),
                map_mean=float(aps.mean()) if len(aps) else float("nan"),
            )
        )

    def argmax(key):  # smallest coefficient with the largest value; None if all are NaN
        defined = [r for r in rows if not np.isnan(key(r))]
        best = max((key(r) for r in defined), default=None)
        return min((r.k_coeff for r in defined if key(r) == best), default=None)

    return SweepResult(
        rows=tuple(rows),
        best_by_ndcg=argmax(lambda r: r.ndcg_mean),
        best_by_map=argmax(lambda r: r.map_mean),
    )


def write_sweep_csv(result: SweepResult, dest: str | Path) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k_coeff", "n_clusters", "ndcg_mean", "map_mean"])
        for r in result.rows:
            map_text = "n/a" if np.isnan(r.map_mean) else repr(r.map_mean)  # no relevant item
            w.writerow([r.k_coeff, r.n_clusters, repr(r.ndcg_mean), map_text])
        best_map = "n/a" if result.best_by_map is None else result.best_by_map
        fh.write(f"# best_by_ndcg={result.best_by_ndcg} best_by_map={best_map}\n")
