import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy import sparse

import kmeans_oracle as oracle
import recsys_oracle
from conftest import matrix_from_dense
from coldstart import kmeans as km
from coldstart import recsys_eval as rv
from coldstart.dataset import BY_ITEM_INDEX, RatingMatrix, read_records, write_records
from coldstart.experiment import prefix_replay


# ---------------------------------------------------------------- cluster-count rule

@pytest.mark.parametrize(
    "n_users, coeff, expected",
    [
        (24983, 100, 250),   # ceil(249.83)
        (1398, 250, 6),      # ceil(5.592)
        (100, 100, 1),
        (100, 1000, 1),      # never below 1
        (5, 1, 5),
        (7, 2, 4),
    ],
)
def test_n_clusters_from_coeff(n_users, coeff, expected):
    assert km.n_clusters_from_coeff(n_users, coeff) == expected


def test_n_clusters_from_coeff_rejects_nonpositive():
    with pytest.raises(ValueError):
        km.n_clusters_from_coeff(0, 10)
    with pytest.raises(ValueError):
        km.n_clusters_from_coeff(10, 0)


# ---------------------------------------------------------------- fit on toy data

def _toy_matrix(mk, rows):
    return mk(np.asarray(rows, dtype=float))


def test_fit_two_obvious_clusters(mk_matrix):
    m = _toy_matrix(mk_matrix, [[0.0], [1.0], [10.0], [11.0]])
    model = km.fit(m, km.KMeansConfig(n_clusters=2, seed=0))
    assert sorted(model.centroids.ravel().tolist()) == [0.5, 10.5]
    assert model.sse == pytest.approx(1.0)
    # members of the same arm share a label
    a = model.assignments
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]


def test_fit_is_deterministic(mk_matrix):
    rng = np.random.default_rng(11)
    m = mk_matrix(rng.uniform(1, 5, (40, 6)))
    cfg = km.KMeansConfig(n_clusters=5, seed=3)
    a = km.fit(m, cfg)
    b = km.fit(m, cfg)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.sse == b.sse


def test_fit_threads_do_not_change_result(mk_matrix):
    rng = np.random.default_rng(12)
    m = mk_matrix(rng.uniform(1, 5, (60, 8)))
    cfg = km.KMeansConfig(n_clusters=6, seed=1, restarts=10)
    a = km.fit(m, cfg, threads=1, collect_step_sse=True)
    # fewer, some and more workers than restarts
    for threads in (3, 10, 16):
        b = km.fit(m, cfg, threads=threads, collect_step_sse=True)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.assignments, b.assignments)
        assert a.sse == b.sse
        assert a.step_sse == b.step_sse
        assert a.restarts == b.restarts


def test_restart_records_explain_each_stop(mk_matrix):
    rng = np.random.default_rng(8)
    m = mk_matrix(rng.uniform(1, 5, (80, 6)))
    cases = [
        (km.KMeansConfig(n_clusters=8, seed=4, restarts=6), {"labels_stable"}),
        # any shift is below this tolerance, so each run stops after one update
        # unless the labels already repeat
        (km.KMeansConfig(n_clusters=8, seed=4, restarts=6, conv_tol=1e9), {"shift_below_tol"}),
        (km.KMeansConfig(n_clusters=8, seed=4, restarts=6, max_steps=1), {"max_steps"}),
    ]
    for cfg, expected in cases:
        model = km.fit(m, cfg, collect_step_sse=True)
        assert len(model.restarts) == cfg.restarts
        assert {r.stop for r in model.restarts} == expected
        for r, history in zip(model.restarts, model.step_sse):
            assert r.steps == len(history) - 1  # one SSE per assignment, one more than updates
            assert r.sse == history[-1]
            assert r.steps <= cfg.max_steps
        assert model.sse == min(r.sse for r in model.restarts)


def test_restart_records_do_not_depend_on_threads():
    m = _threads_case()
    cfg = km.KMeansConfig(n_clusters=30, restarts=8, max_steps=12, seed=5)
    a = km.fit(m, cfg, threads=1)
    b = km.fit(m, cfg, threads=8)
    assert len(a.restarts) == 8
    assert a.restarts == b.restarts


def test_fit_sse_tie_goes_to_earlier_restart(mk_matrix):
    # both restarts end at the same SSE, with the two labels swapped
    m = _toy_matrix(mk_matrix, [[0.0], [1.0], [10.0], [11.0]])
    first = km.fit(m, km.KMeansConfig(n_clusters=2, seed=0, restarts=1))
    second = km.fit(m, km.KMeansConfig(n_clusters=2, seed=1, restarts=1))
    assert second.sse == first.sse
    assert not np.array_equal(second.assignments, first.assignments)
    cfg = km.KMeansConfig(n_clusters=2, seed=0, restarts=2)
    for threads in (1, 2):
        model = km.fit(m, cfg, threads=threads)
        assert model.sse == first.sse
        np.testing.assert_array_equal(model.assignments, first.assignments)


def test_fit_validates_cluster_count(mk_matrix):
    m = mk_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        km.fit(m, km.KMeansConfig(n_clusters=4))


def test_fit_k_equals_n_is_perfect(mk_matrix):
    m = mk_matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]])
    model = km.fit(m, km.KMeansConfig(n_clusters=3, seed=0))
    assert model.sse == pytest.approx(0.0, abs=1e-12)
    assert len(set(model.assignments.tolist())) == 3


def test_step_sse_non_increasing(mk_matrix):
    rng = np.random.default_rng(5)
    m = mk_matrix(rng.uniform(1, 5, (50, 4)))
    model = km.fit(m, km.KMeansConfig(n_clusters=4, seed=9), collect_step_sse=True)
    assert model.step_sse is not None and len(model.step_sse) == 10
    for history in model.step_sse:  # one SSE trace per restart
        assert len(history) >= 1
        assert (np.diff(np.asarray(history)) <= 1e-9).all()


def test_empty_cluster_repair_keeps_k_clusters(mk_matrix):
    # duplicate points force ties; k close to n makes empty clusters likely
    m = mk_matrix([[1.0], [1.0], [1.0], [1.0], [9.0], [9.5]])
    model = km.fit(m, km.KMeansConfig(n_clusters=4, seed=0))
    assert model.n_clusters == 4
    # every point assigned, labels within range
    assert model.assignments.min() >= 0 and model.assignments.max() < 4


# exhaustive-partition oracle on tiny instances (the acceptance run is larger)
def _best_partition_sse(X, k):
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        sse = 0.0
        for j in range(k):
            members = X[np.asarray(labels) == j]
            if len(members):
                c = members.mean(axis=0)
                sse += float(((members - c) ** 2).sum())
        best = min(best, sse)
    return best


@pytest.mark.parametrize("kernel, dense_fill", [("dense", 0.0), ("csr", np.inf)])
@pytest.mark.parametrize("seed", range(10))
def test_fit_matches_exhaustive_partition(mk_matrix, monkeypatch, seed, kernel, dense_fill):
    monkeypatch.setattr(km, "DENSE_FILL", dense_fill)
    rng = np.random.default_rng(seed)
    n, d, k = int(rng.integers(4, 7)), 2, int(rng.integers(2, 4))
    X = rng.normal(0, 2, (n, d))
    m = mk_matrix(X)
    model = km.fit(m, km.KMeansConfig(n_clusters=k, seed=0, restarts=30))
    assert model.kernel == kernel
    assert model.sse <= _best_partition_sse(X, k) + 1e-9


# ---------------------------------------------------------------- batched kernels

@pytest.mark.parametrize("kernel, chunk", [("csr", "_CHUNK"), ("dense", "_DENSE_CHUNK")])
def test_assign_all_blocks_match_one_block(monkeypatch, kernel, chunk):
    rng = np.random.default_rng(4)
    dense = np.where(rng.random((40, 6)) < 0.6, rng.uniform(1, 5, (40, 6)), 0.0)
    centroids = rng.uniform(1, 5, (5, 6))
    centroids[3] = centroids[1]  # every row is equally far from 1 and 3
    dense[::4] = centroids[1]  # rows sitting on the duplicated centroid
    X = sparse.csr_matrix(dense) if kernel == "csr" else dense
    xnorms = (dense**2).sum(axis=1)
    one_labels, one_dists = km._assign_all(X, xnorms, centroids)
    monkeypatch.setattr(km, chunk, 7)
    labels, dists = km._assign_all(X, xnorms, centroids)
    assert labels.tobytes() == one_labels.tobytes()
    if kernel == "csr":
        assert dists.tobytes() == one_dists.tobytes()
    else:  # BLAS may split a 7-row product differently from a 40-row one
        np.testing.assert_allclose(dists, one_dists, rtol=1e-12, atol=1e-12)
    assert 3 not in labels  # a tie goes to the lowest index
    assert (labels[::4] == 1).all()
    expect = ((dense[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(labels, np.argmin(expect, axis=1))
    np.testing.assert_allclose(dists, expect.min(axis=1), atol=1e-9)


def test_cluster_means_matches_dense_oracle(mk_matrix):
    rng = np.random.default_rng(6)
    dense = np.where(rng.random((30, 7)) < 0.5, rng.uniform(1, 5, (30, 7)), 0.0)
    labels = rng.integers(0, 4, 30)
    labels[labels == 2] = 0  # cluster 2 stays empty
    means = km._cluster_means(mk_matrix(np.where(dense == 0.0, np.nan, dense)), labels, 4)
    for j in range(4):
        members = dense[labels == j]
        expect = members.mean(axis=0) if len(members) else np.zeros(7)
        np.testing.assert_allclose(means[j], expect, rtol=1e-12, atol=0)
    assert (means[2] == 0.0).all()


@pytest.mark.parametrize("fill", ["dense", "csr"])
def test_kernel_rows_match_csr_toarray(mk_matrix, fill):
    rng = np.random.default_rng(8)
    share = 0.9 if fill == "dense" else 0.1
    dense = np.where(rng.random((12, 9)) < share, rng.uniform(-5, 5, (12, 9)), np.nan)
    dense[4] = np.nan  # an empty row
    dense[:, -1] = np.nan  # nobody rated the last item
    dense[0, 0] = -0.0  # toarray adds into zeros, so this comes out as 0.0
    m = mk_matrix(dense)
    rows, kernel = km._kernel_rows(m)
    assert kernel == fill
    want = oracle.csr_matrix(m).toarray()
    got = rows if kernel == "dense" else rows.toarray()
    assert isinstance(got, np.ndarray) and got.flags.c_contiguous
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _blocked_case(seed):
    """A rating matrix, labels with an empty cluster, and centroids near the cluster means.

    Ratings are half-points or two-decimal values; one row is empty and one
    stored rating is -0.0.
    """
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 12))
    if rng.random() < 0.5:
        values = rng.integers(-20, 21, (n, d)) / 2.0
    else:
        values = np.round(rng.uniform(-10, 10, (n, d)), 2)
    dense = np.where(rng.random((n, d)) < rng.choice([0.2, 0.6, 1.0]), values, np.nan)
    empty = int(rng.integers(n))
    dense[empty] = np.nan
    dense[(empty + 1 + int(rng.integers(n - 1))) % n, int(rng.integers(d))] = -0.0
    k = int(rng.integers(2, 8))
    labels = rng.integers(0, k - 1, n)  # cluster k - 1 stays empty
    m = matrix_from_dense(dense)
    centroids = oracle.cluster_means(m, labels, k) + np.round(rng.uniform(-1, 1, (k, d)), 2)
    return m, labels, k, centroids


@pytest.mark.parametrize("block", [1, 7, "all"])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_blocked_passes_match_whole_matrix_passes(block, seed):
    m, labels, k, centroids = _blocked_case(seed)
    model = km.ClusterModel(centroids=centroids, assignments=labels, sse=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_ROW_BLOCK", m.n_users + 1 if block == "all" else block)
        mp.setattr(km, "DENSE_FILL", 0.0)
        means = km._cluster_means(m, labels, k)
        norms = km._row_sq_norms(m)
        dists = km._assigned_sq_dists(model, m)
        rows, kernel = km._kernel_rows(m)
        table = rv._score_table(m, labels, k)
    want = oracle.cluster_means(m, labels, k)
    assert means.tobytes() == want.tobytes()
    assert means.strides == want.strides  # the centroid norms depend on the layout
    assert norms.tobytes() == oracle.row_sq_norms(m).tobytes()
    assert dists.tobytes() == oracle.assigned_sq_dists(model, m).tobytes()
    assert kernel == "dense"
    assert rows.tobytes() == oracle.dense_rows(m).tobytes()
    assert table.tobytes() == recsys_oracle.score_table(m, labels, k).tobytes()


def _tall_matrix(n_users):
    """``n_users`` rows of 100 ratings over 200 items, all in one seeded pattern."""
    rng = np.random.default_rng(0)
    idx = np.sort(np.argsort(rng.random((n_users, 200)), axis=1)[:, :100], axis=1)
    return RatingMatrix(
        n_users=n_users, n_items=200,
        indptr=np.arange(0, 100 * n_users + 1, 100, dtype=np.int64),
        indices=idx.ravel().astype(np.int32),
        values=rng.integers(2, 11, 100 * n_users) / 2.0,
        user_ids=np.arange(n_users), item_ids=np.arange(200),
    )


@pytest.mark.parametrize("name", ["_cluster_means", "_row_sq_norms", "_assigned_sq_dists"])
def test_per_rating_passes_take_memory_by_the_block(name):
    k = 50
    peaks = []
    for n in (3000, 6000):
        m = _tall_matrix(n)
        labels = np.arange(n) % k
        centroids = np.random.default_rng(1).uniform(1, 5, (k, m.n_items))
        model = km.ClusterModel(centroids=centroids, assignments=labels, sse=0.0)
        model.centroid_sq_norms  # cached before tracing
        args = {
            "_cluster_means": (m, labels, k),
            "_row_sq_norms": (m,),
            "_assigned_sq_dists": (model, m),
        }[name]
        tracemalloc.start()
        try:
            getattr(km, name)(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Twice the rows add only the per-row outputs, not per-rating temporaries.
    assert peaks[1] < 1.1 * peaks[0], peaks


# ---------------------------------------------------------------- dense kernel vs CSR oracle

def _rows_case(seed):
    """A rating grid (dense with zeros, CSR, row norms) with duplicate rows.

    Ratings are half-points, where many products are exact and ties are
    real, or two-decimal Jester values, where the kernels round differently.
    """
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 300)), int(rng.integers(1, 40))
    fill = float(rng.choice([0.05, 0.3, 0.7, 1.0]))
    if rng.random() < 0.5:
        values = rng.integers(-20, 21, (n, d)) / 2.0
    else:
        values = np.round(rng.uniform(-10, 10, (n, d)), 2)
    dense = np.where(rng.random((n, d)) < fill, values, 0.0)
    dense[rng.integers(0, n, n // 4)] = dense[rng.integers(0, n)]
    X = sparse.csr_matrix(dense)
    X.sort_indices()
    return rng, dense, X, km._row_sq_norms(_matrix_of(X))


def _matrix_of(X):
    n, d = X.shape
    return RatingMatrix(
        n_users=n, n_items=d, indptr=X.indptr.astype(np.int64),
        indices=X.indices.astype(np.int32), values=X.data.astype(np.float64),
        user_ids=np.arange(n), item_ids=np.arange(d),
    )


def _near_ties(X, xnorms, centroids):
    """Rows whose two nearest centroids, by the CSR kernel's distances, are within 1e-9 relative.

    Relative to the squared norms that the distance expansion cancels: a
    row on a centroid has a distance near 0 but a rounding error of the
    norms' size.
    """
    cnorms = np.einsum("ij,ij->i", centroids, centroids)
    d = xnorms[:, None] - 2.0 * (X @ centroids.T) + cnorms
    if d.shape[1] < 2:
        return np.zeros(d.shape[0], dtype=bool)
    two = np.argpartition(d, 1, axis=1)[:, :2]
    first, second = np.take_along_axis(d, two, axis=1).T
    scale = xnorms + cnorms[two].max(axis=1)
    return np.abs(second - first) <= 1e-9 * scale


def _sse_tolerance(xnorms, centroids, labels):
    """1e-12 of the SSE, or of the norms the distances cancel when the SSE is near 0."""
    cnorms = np.einsum("ij,ij->i", centroids, centroids)
    return 1e-12 * (xnorms.sum() + cnorms[labels].sum())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_dense_assign_matches_csr_oracle(seed):
    rng, dense, X, xnorms = _rows_case(seed)
    k = int(rng.integers(1, 30))
    centroids = np.concatenate([
        rng.integers(-20, 21, (k, dense.shape[1])) / 2.0,  # grid points: exact ties
        dense[rng.integers(0, len(dense), 3)],  # centroids on rows
    ])
    centroids[rng.integers(0, len(centroids))] = centroids[0]  # a duplicate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_DENSE_CHUNK", int(rng.choice([7, 64, km._DENSE_CHUNK])))
        labels, dists = km._assign_all(dense, xnorms, centroids)
    want_labels, want_dists = km._assign_all(X, xnorms, centroids)
    differ = labels != want_labels
    assert not (differ & ~_near_ties(X, xnorms, centroids)).any()
    event(f"near-tie label differences: {int(differ.sum())}")
    assert dists.sum() == pytest.approx(
        want_dists.sum(), rel=1e-12, abs=_sse_tolerance(xnorms, centroids, want_labels)
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dense_fit_matches_csr_oracle(seed):
    rng, dense, X, xnorms = _rows_case(seed)
    m = _matrix_of(X)
    cfg = km.KMeansConfig(
        n_clusters=int(rng.integers(1, min(m.n_users, 12) + 1)),
        restarts=2, max_steps=int(rng.integers(1, 12)), seed=seed % 1000,
    )
    real = km._assign_all
    differing = []

    def checked(rows, norms, centroids):
        # Every dense assignment is held to the CSR kernel at the same centroids.
        labels, dists = real(rows, norms, centroids)
        want, _ = real(X, norms, centroids)
        differ = labels != want
        assert not (differ & ~_near_ties(X, norms, centroids)).any()
        differing.append(int(differ.sum()))
        return labels, dists

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "DENSE_FILL", np.inf)
        want = km.fit(m, cfg, collect_step_sse=True)
        mp.setattr(km, "DENSE_FILL", 0.0)
        mp.setattr(km, "_assign_all", checked)
        got = km.fit(m, cfg, collect_step_sse=True)
    assert (want.kernel, got.kernel) == ("csr", "dense")
    event(f"near-tie label differences in a fit: {sum(differing)}")
    if sum(differing):
        return  # a near tie went the other way; the runs may part from there
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    tol = _sse_tolerance(xnorms, want.centroids, want.assignments)
    assert got.sse == pytest.approx(want.sse, rel=1e-12, abs=tol)
    assert len(got.step_sse) == len(want.step_sse)
    for a, b in zip(got.step_sse, want.step_sse):
        assert a == pytest.approx(b, rel=1e-12, abs=tol)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_load_model_labels_match_the_replay_final(tmp_path_factory, seed):
    rng, dense, X, xnorms = _rows_case(seed)
    m = _matrix_of(X)
    k = int(rng.integers(1, 30))
    centroids = np.concatenate([
        rng.integers(-20, 21, (k, dense.shape[1])) / 2.0,  # grid points: exact ties
        dense[rng.integers(0, len(dense), 3)],  # centroids on rows
    ])
    centroids[rng.integers(0, len(centroids))] = centroids[0]  # a duplicate
    model = km.ClusterModel(
        centroids=centroids, assignments=np.zeros(m.n_users, dtype=np.int64),
        sse=0.0,
    )
    path = tmp_path_factory.mktemp("model") / "model.txt"
    km.save_model(model, path)
    loaded = km.load_model(path, m)
    final = prefix_replay(loaded, m, np.arange(m.n_users), 1, BY_ITEM_INDEX).final
    # Both take each row's norm as the same row-order sum: squares added to
    # 0.0 one by one, as the replay adds them. The CSR kernel also sums the
    # dots in row order, as the replay does; BLAS may not.
    row_order = []
    for lo, hi in zip(m.indptr[:-1], m.indptr[1:]):
        total = 0.0
        for v in m.values[lo:hi].tolist():
            total += v * v
        row_order.append(total)
    assert xnorms.tolist() == row_order
    differ = loaded.assignments != final
    if loaded.kernel == "csr":
        assert not differ.any()
    assert not (differ & ~_near_ties(X, xnorms, centroids)).any()
    event(f"{loaded.kernel} kernel, near-tie label differences: {int(differ.sum())}")


def _threads_case():
    """3,000 x 60, about 66 % rated: dense, and large enough for OpenBLAS to start threads."""
    rng = np.random.default_rng(21)
    dense = np.where(rng.random((3000, 60)) < 0.66, np.round(rng.uniform(-10, 10, (3000, 60)), 2), 0.0)
    return _matrix_of(sparse.csr_matrix(dense))


def test_dense_fit_threads_do_not_change_result():
    m = _threads_case()
    cfg = km.KMeansConfig(n_clusters=40, restarts=4, max_steps=8, seed=2)
    a = km.fit(m, cfg, threads=1, collect_step_sse=True)
    assert a.kernel == "dense"
    for threads in (2, 8):
        b = km.fit(m, cfg, threads=threads, collect_step_sse=True)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.assignments, b.assignments)
        assert a.sse == b.sse
        assert a.step_sse == b.step_sse
        assert a.restarts == b.restarts


@pytest.mark.skipif(not km.blas_thread_cap_found(), reason="OpenBLAS thread count not settable")
def test_fit_holds_blas_to_one_thread_and_restores_it(monkeypatch):
    set_threads = km._openblas_set_threads()
    seen = []
    real = km._lloyd

    def lloyd(*args):
        count = set_threads(1)  # returns the count in force
        set_threads(count)
        seen.append(count)
        return real(*args)

    monkeypatch.setattr(km, "_lloyd", lloyd)
    before = set_threads(2)
    try:
        for threads in (1, 2):
            km.fit(_threads_case(), km.KMeansConfig(n_clusters=5, restarts=3, max_steps=2), threads=threads)
            assert set_threads(2) == 2
    finally:
        set_threads(before)
    assert seen == [1] * 6


# ---------------------------------------------------------------- assignment

def _one_centroid(centroid):
    return km.ClusterModel(
        centroids=np.asarray([centroid], dtype=np.float64),
        assignments=np.zeros(1, dtype=np.int64),
        sse=0.0,
    )


def test_assign_distance_hand_case():
    # rated dims contribute (v - c)^2, unrated contribute c^2
    row = (np.array([0, 2]), np.array([4.0, 1.0]))
    assert km.assign(_one_centroid([2.0, 2.0, 1.0]), row) == (0, 4.0 + 4.0 + 0.0)


def test_assign_empty_row_is_centroid_norm():
    row = (np.array([], dtype=int), np.array([]))
    assert km.assign(_one_centroid([3.0, 4.0]), row) == (0, 25.0)


@pytest.mark.parametrize("index", [2, 5, -1])
def test_assign_index_bounds(index):
    with pytest.raises(ValueError, match="index space"):
        km.assign(_one_centroid([1.0, 2.0]), (np.array([index]), np.array([1.0])))


@pytest.mark.parametrize("indices", [[0, 0], [1, 0]])
def test_assign_rejects_indices_that_do_not_strictly_increase(indices):
    # As a dense row, ([0, 0], [1.0, 2.0]) is (2, 0), at distance 1.0 from
    # (1, 0); a norm summed over both values would report 2.0.
    with pytest.raises(ValueError, match="strictly increasing"):
        km.assign(_one_centroid([1.0, 0.0]), (indices, [1.0, 2.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_assign_matches_dense_zero_fill(seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 12)
    mask = rng.random(d) < 0.6
    idx = np.flatnonzero(mask)
    vals = rng.normal(0, 3, idx.size)
    centroid = rng.normal(0, 3, d)
    dense = np.zeros(d)
    dense[idx] = vals
    expect = float(((dense - centroid) ** 2).sum())
    assert oracle.sq_euclidean((idx, vals), centroid) == pytest.approx(expect, abs=1e-12)
    _, dist = km.assign(_one_centroid(centroid), (idx, vals))
    # the expansion cancels the two squared norms, so it errs by their rounding
    assert dist == pytest.approx(expect, abs=1e-14 * (vals @ vals + centroid @ centroid))


def test_assign_returns_exact_distance(mk_matrix):
    m = _toy_matrix(mk_matrix, [[0.0], [1.0], [10.0], [11.0]])
    model = km.fit(m, km.KMeansConfig(n_clusters=2, seed=0))
    label, dist = km.assign(model, (np.array([0]), np.array([9.0])))
    assert model.centroids[label, 0] == pytest.approx(10.5)
    assert dist == pytest.approx(2.25)


def test_assign_tie_goes_to_lowest_index():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    model = km.ClusterModel(
        centroids=centroids,
        assignments=np.array([0, 1]),
        sse=0.0,
    )
    label, dist = km.assign(model, (np.array([1]), np.array([2.0])))
    # both centroids are at squared distance 1 + 4 = 5 from (0, 2)
    assert label == 0
    assert dist == pytest.approx(5.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_assign_is_argmin_of_sq_euclidean(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    centroids = rng.normal(0, 2, (k, d))
    model = km.ClusterModel(
        centroids=centroids,
        assignments=np.zeros(1, dtype=np.int64),
        sse=0.0,
    )
    mask = rng.random(d) < 0.7
    idx = np.flatnonzero(mask)
    row = (idx, rng.normal(0, 2, idx.size))
    label, dist = km.assign(model, row)
    dists = np.array([oracle.sq_euclidean(row, c) for c in centroids])
    assert label == int(np.argmin(dists))
    assert dist == pytest.approx(dists[label], abs=1e-9)


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path, mk_matrix):
    rng = np.random.default_rng(2)
    m = mk_matrix(rng.uniform(1, 5, (25, 5)))
    model = km.fit(m, km.KMeansConfig(n_clusters=4, seed=6))
    path = tmp_path / "model.txt"
    km.save_model(model, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("coldstart-kmeans v1 4 5 6 ")
    loaded = km.load_model(path, m)
    np.testing.assert_array_equal(loaded.centroids, model.centroids)
    np.testing.assert_array_equal(loaded.assignments, model.assignments)
    assert loaded.sse == model.sse
    assert loaded.seed == model.seed


def test_load_model_rejects_garbage(tmp_path, mk_matrix):
    p = tmp_path / "bad.txt"
    p.write_text("not a model\n")
    m = mk_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="coldstart-kmeans"):
        km.load_model(p, m)


def _labels_case(kernel):
    """A 400 x 80 matrix that takes ``kernel``, and a 40-cluster fit on it."""
    rng = np.random.default_rng(5)
    share = 0.6 if kernel == "dense" else 0.05
    values = np.round(rng.uniform(-10, 10, (400, 80)), 2)
    m = _matrix_of(sparse.csr_matrix(np.where(rng.random((400, 80)) < share, values, 0.0)))
    model = km.fit(m, km.KMeansConfig(n_clusters=40, restarts=2, max_steps=10, seed=3))
    assert model.kernel == kernel
    return m, model


@pytest.mark.parametrize("kernel", ["csr", "dense"])
def test_labels_key_survives_save_and_load_and_names_centroids_and_input(kernel, tmp_path):
    m, model = _labels_case(kernel)
    km.save_model(model, tmp_path / "model.txt")
    loaded = km.load_model(tmp_path / "model.txt", m)
    key = km.labels_key(model.centroids, "input-1")
    assert km.labels_key(loaded.centroids, "input-1") == key
    assert km.labels_key(model.centroids, "input-2") != key
    moved = model.centroids.copy()
    moved[7, 3] = np.nextafter(moved[7, 3], np.inf)
    assert km.labels_key(moved, "input-1") != key


@pytest.mark.parametrize("kernel", ["csr", "dense"])
def test_saved_labels_equal_what_load_model_derives(kernel, tmp_path, monkeypatch):
    m, model = _labels_case(kernel)
    km.save_model(model, tmp_path / "model.txt")
    derived = km.load_model(tmp_path / "model.txt", m)
    # Saving writes the fit's own labels: it builds no rows and assigns none.
    monkeypatch.setattr(km, "_kernel_rows", None)
    monkeypatch.setattr(km, "_assign_all", None)
    km.save_labels(model, tmp_path / "labels.bin", "key-1")
    (saved,) = read_records(tmp_path / "labels.bin", km.labels_key(model.centroids, "key-1"), 1)
    assert saved.dtype == np.int64
    assert np.array_equal(saved, model.assignments)
    assert np.array_equal(saved, derived.assignments)
    # Under the key it was saved with, the file is taken and no row is reassigned.
    loaded = km.load_model(tmp_path / "model.txt", m, labels=(tmp_path / "labels.bin", "key-1"))
    assert np.array_equal(loaded.assignments, saved)
    assert not loaded.assignments.flags.writeable
    assert loaded.kernel == kernel


def test_saved_labels_skip_the_fits_last_repair(tmp_path, mk_matrix):
    # With four equal rows and k = 4, the repair gives one of them a cluster of
    # its own on the same spot as another; nearest-centroid ties go to the
    # lower index, so the fit's labels, the saved ones and the loaded ones all
    # leave that cluster empty.
    m = mk_matrix([[1.0], [1.0], [1.0], [1.0], [9.0], [9.5]])
    model = km.fit(m, km.KMeansConfig(n_clusters=4, seed=0))
    assert len(set(model.assignments.tolist())) < 4
    km.save_model(model, tmp_path / "model.txt")
    km.save_labels(model, tmp_path / "labels.bin", "key-1")
    (saved,) = read_records(tmp_path / "labels.bin", km.labels_key(model.centroids, "key-1"), 1)
    assert np.array_equal(saved, model.assignments)
    assert np.array_equal(saved, km.load_model(tmp_path / "model.txt", m).assignments)


def test_labels_under_another_key_or_missing_are_reassigned_silently(tmp_path):
    m, model = _labels_case("csr")
    km.save_model(model, tmp_path / "model.txt")
    want = km.load_model(tmp_path / "model.txt", m).assignments
    path = tmp_path / "labels.bin"
    write_records(path, km.labels_key(model.centroids, "key-1"), [(want + 1) % model.n_clusters])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in ("key-2", "key-1"):
            got = km.load_model(tmp_path / "model.txt", m, labels=(path, key)).assignments
            assert np.array_equal(got, want) == (key == "key-2")
        path.unlink()
        got = km.load_model(tmp_path / "model.txt", m, labels=(path, "key-1")).assignments
        assert np.array_equal(got, want)


def test_damaged_labels_file_warns_and_is_reassigned(tmp_path):
    m, model = _labels_case("csr")
    km.save_model(model, tmp_path / "model.txt")
    want = km.load_model(tmp_path / "model.txt", m).assignments
    k, path = model.n_clusters, tmp_path / "labels.bin"
    key = km.labels_key(model.centroids, "key")
    write_records(path, key, [want])
    whole = path.read_bytes()
    damaged = [whole[: len(whole) // 2], whole + b"\0"]
    for labels in (want.astype(np.int32), want[:-1], want.reshape(-1, 1), want - 1, want + k):
        write_records(path, key, [labels])
        damaged.append(path.read_bytes())
    for data in damaged:
        path.write_bytes(data)
        with pytest.warns(UserWarning, match="unreadable labels file"):
            got = km.load_model(tmp_path / "model.txt", m, labels=(path, "key"))
        assert np.array_equal(got.assignments, want)


def test_sse_recompute_matches_fit(mk_matrix):
    rng = np.random.default_rng(8)
    m = mk_matrix(rng.uniform(1, 5, (30, 4)))
    model = km.fit(m, km.KMeansConfig(n_clusters=3, seed=0))
    assert km.sse(model, m) == pytest.approx(model.sse, rel=1e-12)


# ---------------------------------------------------------------- config validation

@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_clusters": 0},
        {"n_clusters": 2, "restarts": 0},
        {"n_clusters": 2, "max_steps": 0},
        {"n_clusters": 2, "conv_tol": -1.0},
    ],
)
def test_kmeans_config_validation(kwargs):
    with pytest.raises(ValueError):
        km.KMeansConfig(**kwargs)
