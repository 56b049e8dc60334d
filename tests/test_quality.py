import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

import quality_oracle as oracle
from dataset_oracle import row
from conftest import matrix_from_dense
from coldstart import quality as q
from coldstart.errors import DegenerateModelError
from coldstart.kmeans import ClusterModel


def _model(centroids, labels):
    return ClusterModel(
        centroids=np.asarray(centroids, dtype=np.float64),
        assignments=np.asarray(labels, dtype=np.int64),
        sse=0.0,
    )


def _dense(m):
    out = np.zeros((m.n_users, m.n_items))
    for u in range(m.n_users):
        idx, vals = row(m, u)
        out[u, idx] = vals
    return out


def brute_force_db(centroids, labels, dense):
    """Straight-from-the-definition Davies-Bouldin with loops."""
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    scatter = np.full(k, np.nan)
    for j in range(k):
        members = dense[labels == j]
        if len(members):
            scatter[j] = np.mean(
                [np.linalg.norm(x - centroids[j]) for x in members]
            )
    usable = [j for j in range(k) if counts[j] > 0]
    terms = {}
    for j in usable:
        best = -np.inf
        for mm in usable:
            if mm == j:
                continue
            d = np.linalg.norm(centroids[j] - centroids[mm])
            if d > 0:
                best = max(best, (scatter[j] + scatter[mm]) / d)
        terms[j] = best
    db = float(np.mean([terms[j] for j in usable]))
    return scatter, terms, db


# ---------------------------------------------------------------- hand case

def test_scatter_hand_case(mk_matrix):
    m = mk_matrix([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
    model = _model([[1.0, 0.0], [10.0, 2.0]], [0, 0, 1, 1])
    res = q.davies_bouldin(model, m)
    np.testing.assert_allclose(res.per_cluster_scatter, [1.0, 2.0])
    # single pair: (1 + 2) / sqrt(81 + 4)
    expect = 3.0 / np.sqrt(85.0)
    assert res.db_index == pytest.approx(expect)
    assert res.db_signed == pytest.approx(-expect)
    np.testing.assert_allclose(res.per_cluster_db_term, [expect, expect])


def test_scatter_uses_zero_fill(mk_matrix):
    # the unrated dim counts as 0, so the member is sqrt(1 + 4) away
    m = mk_matrix([[1.0, np.nan], [9.0, 9.0]])
    model = _model([[0.0, 2.0], [9.0, 9.0]], [0, 1])
    assert q.davies_bouldin(model, m).per_cluster_scatter[0] == pytest.approx(np.sqrt(5.0))


def test_scatter_of_empty_cluster_is_nan(mk_matrix):
    m = mk_matrix([[1.0], [2.0], [9.0]])
    model = _model([[1.5], [40.0], [9.0]], [0, 0, 2])
    scatter = q.davies_bouldin(model, m).per_cluster_scatter
    assert np.isnan(scatter[1])
    np.testing.assert_allclose(scatter[[0, 2]], [0.5, 0.0])


def test_scatter_rejects_a_mismatched_matrix(mk_matrix):
    model = _model([[1.5], [40.0]], [0, 0])
    with pytest.raises(ValueError, match="item space"):
        q.davies_bouldin(model, mk_matrix([[1.0, 2.0], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="user count"):
        q.davies_bouldin(model, mk_matrix([[1.0], [2.0], [3.0]]))


# ---------------------------------------------------------------- oracle sweep

@pytest.mark.parametrize("seed", range(25))
def test_davies_bouldin_matches_brute_force(mk_matrix, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    d = int(rng.integers(1, 5))
    k = int(rng.integers(2, 4))
    dense = rng.normal(0, 2, (n, d))
    labels = rng.integers(0, k, n)
    while len(np.unique(labels)) < 2:  # oracle needs two non-empty clusters
        labels = rng.integers(0, k, n)
    centroids = rng.normal(0, 2, (k, d))
    m = mk_matrix(dense)
    model = _model(centroids, labels)
    res = q.davies_bouldin(model, m)
    scatter, terms, db = brute_force_db(centroids, labels, dense)
    assert res.db_index == pytest.approx(db, abs=1e-12)
    for j, term in terms.items():
        assert res.per_cluster_db_term[j] == pytest.approx(term, abs=1e-12)
    np.testing.assert_allclose(
        res.per_cluster_scatter[~np.isnan(scatter)],
        scatter[~np.isnan(scatter)],
        atol=1e-12,
    )


def test_empty_cluster_term_is_nan(mk_matrix):
    m = mk_matrix([[0.0], [1.0], [5.0]])
    model = _model([[0.5], [5.0], [99.0]], [0, 0, 1])
    res = q.davies_bouldin(model, m)
    assert np.isnan(res.per_cluster_db_term[2])
    assert not np.isnan(res.per_cluster_db_term[0])


# ---------------------------------------------------------------- degenerate models

def test_single_nonempty_cluster_is_degenerate(mk_matrix):
    m = mk_matrix([[1.0], [2.0]])
    model = _model([[1.5], [9.0]], [0, 0])
    with pytest.raises(DegenerateModelError, match="non-empty"):
        q.davies_bouldin(model, m)


def test_coincident_centroids_are_degenerate(mk_matrix):
    m = mk_matrix([[1.0], [2.0], [3.0]])
    model = _model([[2.0], [2.0]], [0, 1, 1])
    with pytest.raises(DegenerateModelError, match="coincide"):
        q.davies_bouldin(model, m)


def test_coincident_pair_skipped_when_another_separates(mk_matrix):
    # clusters 0 and 1 coincide; both can still pair with cluster 2
    m = mk_matrix([[0.0], [0.5], [10.0]])
    model = _model([[0.0], [0.0], [10.0]], [0, 1, 2])
    res = q.davies_bouldin(model, m)
    assert np.isfinite(res.db_index)
    # terms of 0 and 1 must come from the pairing with cluster 2
    s = res.per_cluster_scatter
    assert res.per_cluster_db_term[0] == pytest.approx((s[0] + s[2]) / 10.0)


# ---------------------------------------------------------------- separation vs cdist

# Rows of a centroid block: small and huge magnitudes, exact zeros, and
# rows repeated so that some centroids coincide.
_coord = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e6, -1e6, 1e6 - 0.5, -1e6 + 0.25]),
)


@st.composite
def _centroid_blocks(draw):
    k = draw(st.integers(2, 300))
    d = draw(st.integers(1, 12))
    distinct = draw(st.integers(1, k))
    rows = draw(hnp.arrays(np.float64, (distinct, d), elements=_coord))
    pick = draw(hnp.arrays(np.int64, k, elements=st.integers(0, distinct - 1)))
    return rows[pick]


@given(_centroid_blocks())
@settings(max_examples=200, deadline=None)
def test_separation_equals_cdist_bit_for_bit(cu):
    assert np.array_equal(q._separation(cu), cdist(cu, cu))


@pytest.mark.parametrize("k, d", [(2, 1), (2, 5), (3, 1), (250, 100)])
def test_separation_equals_cdist_at_fixed_shapes(k, d):
    cu = np.random.default_rng(k * d).normal(0, 1e6, (k, d))
    cu[k // 2] = cu[0]
    assert np.array_equal(q._separation(cu), cdist(cu, cu))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_davies_bouldin_terms_equal_cdist_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = int(rng.integers(1, 40))  # numpy sums 8 or more terms in another order than cdist
    k = int(rng.integers(2, 8))
    dense = rng.normal(0, 1e6 if rng.random() < 0.2 else 2.0, (n, d))
    dense[rng.random((n, d)) < 0.3] = np.nan
    labels = rng.integers(0, k, n)
    while len(np.unique(labels)) < 2:
        labels = rng.integers(0, k, n)
    centroids = rng.normal(0, 2, (k, d))
    centroids[-1] = centroids[0]  # a coincident pair, skipped when others separate
    m = matrix_from_dense(dense)
    model = _model(centroids, labels)
    want = oracle.db_terms(model, m)
    if not np.isfinite(want[~np.isnan(want)]).all():
        with pytest.raises(DegenerateModelError):
            q.davies_bouldin(model, m)
        return
    got = q.davies_bouldin(model, m).per_cluster_db_term
    assert np.array_equal(got, want, equal_nan=True)
