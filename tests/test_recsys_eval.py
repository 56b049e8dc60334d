from unittest import mock

import numpy as np
import pytest
import recsys_oracle as oracle
from dataset_oracle import row
from conftest import matrix_from_dense
from hypothesis import given, settings, strategies as st

from coldstart import recsys_eval as rv
from coldstart.kmeans import ClusterModel, KMeansConfig


def _model(centroids, labels):
    return ClusterModel(
        centroids=np.asarray(centroids, dtype=np.float64),
        assignments=np.asarray(labels, dtype=np.int64),
        sse=0.0,
    )


# ---------------------------------------------------------------- NDCG

def test_ndcg_ideal_order_is_one():
    gains = [5.0, 4.0, 2.0, 1.0]
    assert rv.ndcg_at_n(gains, gains, 10) == pytest.approx(1.0)


def test_ndcg_hand_case():
    # DCG([1,2,3]) = 1 + 2/log2(3) + 3/2, IDCG([3,2,1]) = 3 + 2/log2(3) + 1/2
    got = rv.ndcg_at_n([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], 10)
    dcg = 1.0 + 2.0 / np.log2(3.0) + 1.5
    idcg = 3.0 + 2.0 / np.log2(3.0) + 0.5
    assert got == pytest.approx(dcg / idcg)
    assert got == pytest.approx(0.7899, abs=5e-4)


def test_ndcg_all_zero_gains_is_one():
    assert rv.ndcg_at_n([0.0, 0.0], [0.0, 0.0], 5) == 1.0


def test_ndcg_cutoff_truncates():
    # beyond-cutoff positions contribute nothing to either sum
    full = rv.ndcg_at_n([0.0, 5.0], [5.0, 0.0], 2)
    cut = rv.ndcg_at_n([0.0, 5.0], [5.0, 0.0], 1)
    assert cut == pytest.approx(0.0)
    # gain 5 at position 2 discounted by log2(3); ideal puts it undiscounted
    assert full == pytest.approx(1.0 / np.log2(3.0))


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_ndcg_bounded(gains, n, rnd):
    ranked = list(gains)
    rnd.shuffle(ranked)
    ideal = sorted(gains, reverse=True)
    val = rv.ndcg_at_n(ranked, ideal, n)
    assert 0.0 <= val <= 1.0 + 1e-12


# ---------------------------------------------------------------- average precision

def test_ap_hand_cases():
    assert rv.average_precision(["b", "a"], {"a"}) == pytest.approx(0.5)
    assert rv.average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx(
        0.8333, abs=5e-4
    )


def test_ap_missing_relevant_counts_in_denominator():
    # "b" never shows up but still divides
    assert rv.average_precision(["a"], {"a", "b"}) == pytest.approx(0.5)


def test_ap_empty_relevant_rejected():
    with pytest.raises(ValueError):
        rv.average_precision(["a"], set())


def test_ap_perfect_prefix_is_one():
    assert rv.average_precision(["a", "b", "x"], {"a", "b"}) == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ap_ignores_order_after_last_relevant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    ranked = [f"i{j}" for j in range(n)]
    relevant = set(rng.choice(ranked, size=int(rng.integers(1, n)), replace=False))
    base = rv.average_precision(ranked, relevant)
    last_hit = max(j for j, it in enumerate(ranked) if it in relevant)
    tail = ranked[last_hit + 1 :]
    rng.shuffle(tail)
    assert rv.average_precision(ranked[: last_hit + 1] + tail, relevant) == pytest.approx(base)


# ---------------------------------------------------------------- score table

def test_score_table_fallback_chain(mk_matrix):
    # users 0 and 3 in cluster 0, user 1 in cluster 1, user 2 in cluster 2
    m = mk_matrix(
        [
            [5.0, np.nan, np.nan],
            [2.0, 2.0, np.nan],
            [np.nan, 5.0, np.nan],
            [4.0, np.nan, np.nan],
        ]
    )
    table = rv._score_table(m, np.array([0, 1, 2, 0]), 3)
    # a cell some cluster member rated: the members' mean
    assert table[0, 0] == pytest.approx(4.5)
    assert table[0, 1] == table[1, 1] == 2.0
    assert table[1, 2] == 5.0
    # no member rated the item: the item's mean over every rater
    assert table[0, 2] == pytest.approx(11.0 / 3.0)
    assert table[1, 0] == pytest.approx(3.5)
    # nobody rated the item: the constant
    assert table[2].tolist() == [rv.FALLBACK_SCORE] * 3


def test_score_table_without_ratings_is_the_constant(mk_matrix):
    table = rv._score_table(mk_matrix(np.full((2, 3), np.nan)), np.array([0, 1]), 2)
    assert table.dtype == np.float64
    assert table.tolist() == [[rv.FALLBACK_SCORE] * 2] * 3


# ---------------------------------------------------------------- the sweep

def _bloc_matrix(mk_matrix):
    """4 blocs x 8 users; own items rated 5, out-bloc items sometimes 1."""
    rng = np.random.default_rng(77)
    n_blocs, per, items_per = 4, 8, 12
    n_users, n_items = n_blocs * per, n_blocs * items_per
    dense = np.full((n_users, n_items), np.nan)
    for u in range(n_users):
        b = u // per
        lo, hi = b * items_per, (b + 1) * items_per
        dense[u, lo:hi] = 5.0
        for it in range(n_items):
            if not (lo <= it < hi) and rng.random() < 0.45:
                dense[u, it] = 1.0
    return mk_matrix(dense)


def test_sweep_prefers_true_bloc_granularity(mk_matrix):
    m = _bloc_matrix(mk_matrix)
    ecfg = rv.EvalConfig(
        holdout_per_user=3, candidate_pool=8, relevance_threshold=4.0,
        ndcg_cutoff=8, seed=0,
    )
    res = rv.sweep_coefficient(m, [1, 8, 16], KMeansConfig(n_clusters=1, seed=0), ecfg)
    by_coeff = {r.k_coeff: r for r in res.rows}
    assert by_coeff[8].n_clusters == 4
    assert res.best_by_ndcg == 8
    assert res.best_by_map == 8
    assert by_coeff[8].ndcg_mean > by_coeff[1].ndcg_mean
    assert by_coeff[8].ndcg_mean > by_coeff[16].ndcg_mean
    # perfect clustering ranks every relevant held-out item above the pool
    assert by_coeff[8].map_mean == pytest.approx(1.0)


def test_sweep_same_split_for_every_coeff(mk_matrix):
    # a single-coeff sweep must agree with that coeff's row in a larger sweep
    m = _bloc_matrix(mk_matrix)
    ecfg = rv.EvalConfig(
        holdout_per_user=3, candidate_pool=8, relevance_threshold=4.0,
        ndcg_cutoff=8, seed=1,
    )
    solo = rv.sweep_coefficient(m, [8], KMeansConfig(n_clusters=1, seed=0), ecfg)
    multi = rv.sweep_coefficient(m, [16, 8], KMeansConfig(n_clusters=1, seed=0), ecfg)
    row = next(r for r in multi.rows if r.k_coeff == 8)
    assert row.ndcg_mean == solo.rows[0].ndcg_mean
    assert row.map_mean == solo.rows[0].map_mean


def test_sweep_validates_input(mk_matrix):
    m = _bloc_matrix(mk_matrix)
    ecfg = rv.EvalConfig(holdout_per_user=3, candidate_pool=8)
    with pytest.raises(ValueError):
        rv.sweep_coefficient(m, [], KMeansConfig(n_clusters=1), ecfg)
    with pytest.raises(ValueError):
        rv.sweep_coefficient(m, [0], KMeansConfig(n_clusters=1), ecfg)


def test_sweep_infeasible_holdout_names_users(mk_matrix):
    m = mk_matrix([[1.0, 2.0], [3.0, 4.0]])
    ecfg = rv.EvalConfig(holdout_per_user=5, candidate_pool=2)
    with pytest.raises(ValueError, match="infeasible"):
        rv.sweep_coefficient(m, [1], KMeansConfig(n_clusters=1), ecfg)


@st.composite
def sweep_cases(draw):
    """Small rating matrices with integer ratings (tied scores), items nobody
    rates (the fallback score), users who rate almost every item (short pools)
    and, with a high threshold or low ratings, users with no relevant item."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(2, 20))
    holdout = draw(st.integers(1, 8))
    n_items = draw(st.integers(holdout + 1, 30))
    unrated = rng.choice(n_items, size=draw(st.integers(0, n_items - holdout - 1)), replace=False)
    rateable = np.setdiff1d(np.arange(n_items), unrated)
    top = draw(st.integers(1, 5))
    dense = np.full((n_users, n_items), np.nan)
    for u in range(n_users):
        n = int(rng.integers(holdout + 1, len(rateable) + 1))
        dense[u, rng.choice(rateable, size=n, replace=False)] = rng.integers(1, top + 1, size=n)
    stamps = rng.integers(0, 1000, size=dense.shape) if draw(st.booleans()) else None
    ecfg = rv.EvalConfig(
        holdout_per_user=holdout,
        candidate_pool=draw(st.integers(0, n_items)),
        relevance_threshold=draw(st.sampled_from([1.0, 3.0, 4.0, 5.0])),
        ndcg_cutoff=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 1000)),
    )
    coeffs = draw(st.lists(st.integers(1, n_users), min_size=1, max_size=3))
    return matrix_from_dense(dense, stamps), coeffs, ecfg


@given(sweep_cases(), st.sampled_from([1, 7, 10_000]), st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_sweep_matches_per_user_oracle(case, block, seed):
    m, coeffs, ecfg = case
    kcfg = KMeansConfig(n_clusters=1, restarts=1, max_steps=5, seed=seed)

    train, held, gains, pools = rv._holdout_split(m, ecfg)
    o_train, o_held, o_gains, o_pools = oracle.holdout_split(m, ecfg)
    for field in ("indptr", "indices", "values", "user_ids", "item_ids", "timestamps"):
        got, want = getattr(train, field), getattr(o_train, field)
        if got is None or want is None:
            assert got is None and want is None, field
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert np.array_equal(held, np.stack(o_held)) and held.dtype == o_held[0].dtype
    assert np.array_equal(gains, np.stack(o_gains))
    assert len(pools) == len(o_pools)
    assert all(np.array_equal(p, q) for p, q in zip(pools, o_pools))

    with mock.patch.object(rv, "_RANK_BLOCK", block):
        got = rv.sweep_coefficient(m, coeffs, kcfg, ecfg)
    want = oracle.sweep_coefficient(m, coeffs, kcfg, ecfg)

    def exact(result):
        return [(r.k_coeff, r.n_clusters, repr(r.ndcg_mean), repr(r.map_mean)) for r in result.rows]

    assert exact(got) == exact(want)
    assert got.best_by_ndcg == want.best_by_ndcg
    if all(np.isnan(r.map_mean) for r in want.rows):
        assert got.best_by_map is None
    else:
        assert got.best_by_map == want.best_by_map


@pytest.mark.parametrize("block", [7, 256])
def test_rank_blocks_match_per_user_metrics_exactly(block):
    # Per user, because a last-bit difference in one user's AP or NDCG can
    # vanish in the mean. Long candidate lists with many relevant items make
    # the order in which AP and DCG add their terms show.
    rng = np.random.default_rng(5)
    dense = np.where(rng.random((300, 60)) < 0.4, rng.integers(1, 6, size=(300, 60)), np.nan)
    dense[:, :9] = rng.integers(1, 6, size=(300, 9))
    ecfg = rv.EvalConfig(holdout_per_user=8, candidate_pool=30, relevance_threshold=2.0, seed=3)
    m = matrix_from_dense(dense)
    k = 15
    labels = rng.integers(0, k, size=m.n_users)
    train, held, gains, pools = rv._holdout_split(m, ecfg)
    table = rv._score_table(train, labels, k)
    ndcgs, aps = [], []
    for lo in range(0, m.n_users, block):
        part = slice(lo, lo + block)
        block_ndcgs, block_aps = rv._rank_block(
            table, labels[part], held[part], gains[part], pools[part], ecfg
        )
        ndcgs += block_ndcgs
        aps += list(block_aps)
    want_ndcgs, want_aps = oracle.user_metrics(
        _model(np.zeros((k, m.n_items)), labels), train, list(held), list(gains), pools, ecfg
    )
    assert [repr(float(v)) for v in ndcgs] == [repr(v) for v in want_ndcgs.tolist()]
    assert [repr(float(v)) for v in aps] == [repr(v) for v in want_aps]


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
def test_holdout_and_pool_never_meet_the_training_row(case):
    # This is why the table needs no per-user exclusion: a candidate is never
    # among the ratings its user's cluster contributes.
    m, _, ecfg = case
    train, held, _, pools = rv._holdout_split(m, ecfg)
    for u in range(m.n_users):
        train_items, _ = row(train, u)
        assert len(np.unique(pools[u])) == len(pools[u])
        assert len(np.unique(held[u])) == len(held[u])
        assert not np.intersect1d(held[u], pools[u]).size
        assert not np.intersect1d(held[u], train_items).size
        assert not np.intersect1d(pools[u], train_items).size


def test_write_sweep_csv(tmp_path):
    res = rv.SweepResult(
        rows=(
            rv.SweepRow(k_coeff=10, n_clusters=4, ndcg_mean=0.5, map_mean=0.25),
            rv.SweepRow(k_coeff=20, n_clusters=2, ndcg_mean=0.75, map_mean=0.5),
        ),
        best_by_ndcg=20,
        best_by_map=20,
    )
    dest = tmp_path / "sweep.csv"
    rv.write_sweep_csv(res, dest)
    assert dest.read_text() == (
        "k_coeff,n_clusters,ndcg_mean,map_mean\n"
        "10,4,0.5,0.25\n"
        "20,2,0.75,0.5\n"
        "# best_by_ndcg=20 best_by_map=20\n"
    )


# ---------------------------------------------------------------- config validation

@pytest.mark.parametrize(
    "kwargs",
    [
        {"holdout_per_user": 0},
        {"candidate_pool": -1},
        {"relevance_threshold": 0.5},
        {"ndcg_cutoff": 0},
    ],
)
def test_eval_config_validation(kwargs):
    with pytest.raises(ValueError):
        rv.EvalConfig(**kwargs)
