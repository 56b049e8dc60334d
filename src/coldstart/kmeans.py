"""Seedable k-means over rating rows with squared-Euclidean distance.

Unrated dimensions enter distances and centroid means as 0.0. Rows meet
centroids through one product kernel, chosen once per matrix from its fill
ratio: a dense array multiplied by BLAS when at least ``DENSE_FILL`` of the
cells hold a rating, the CSR matrix otherwise. The k-means++ init, every Lloyd
assignment, the empty-cluster repair and ``_nearest`` all go through it, and
every distance comes from one expansion, ``_sq_dists``: (-2·x·c + ‖x‖²) +
‖c‖². A model's ``assignments`` are each row's nearest centroid, from one
``_nearest`` pass that ``fit`` and ``load_model`` make alike. ``save_labels``
writes them keyed by what they depend on: the centroids' bytes and the
caller's key for the input (``labels_key``); a loaded model that reads them
there needs no kernel, and so on a CSR matrix no scipy. Row
norms, like every other per-row sum, are a segment sum in storage order
(``dataset.segment_sums``), so ``fit``, ``load_model``, ``sse``,
Davies-Bouldin and the ``BY_ITEM_INDEX`` prefix replay of a whole row all
see the same norm for it. Centroid means are always a sum over the matrix's
own CSR arrays, each (item, cluster) cell adding its members in storage
order, so they do not depend on the kernel, and the dense kernel needs no
scipy at all.

Every pass over the stored ratings (row norms, per-row dots, the dense fill
and the mean update) runs one block of ``_ROW_BLOCK`` whole rows at a time,
so its temporaries take memory by the block, not by the matrix, and give the
same bytes as one pass over the whole matrix.

Multi-restart fits are deterministic for a fixed seed regardless of the worker
thread count: restarts are the only parallel level, each one runs whole on one
thread, and the best is picked in restart order. OpenBLAS is held to one
thread while k-means runs, because its thread count changes the last bits of
some products.
"""

from __future__ import annotations

import ctypes
import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import RatingMatrix, read_records, segment_ids, segment_sums, write_records

# Fill ratio (ratings / cells) from which rows are multiplied as a dense
# array. Measured with one BLAS thread on random grids (2-vCPU Xeon, OpenBLAS
# 0.3.31): a whole fit (1 restart, 10 steps) crosses over at about 0.08 fill
# on 12,500 x 100 with k = 250 and 0.16 on 5,000 x 1,200 with k = 100; at
# 0.25 dense wins on both (1.7x and 1.3x). The k-means++ matrix-vector
# products alone cross over only at 0.3-0.45. Above 0.25 the dense array
# takes at most 32 bytes per rating, against 12 for CSR.
DENSE_FILL = 0.25

_CHUNK = 8192  # CSR rows per distance block
# Dense rows per distance block: 0.5 MB of distances at k = 250. 8,192-row
# blocks raised jester-fit's peak RSS by 10-40 MB (they land on thread heaps).
_DENSE_CHUNK = 256
# Rows per block of a per-rating pass (row norms, per-row dots, the dense
# fill, the mean update): about 3.4 MB of temporaries per block at 100
# ratings a row. On jester-fit 4,096-row blocks raised the peak RSS from 80.5
# to 95.9 MB, and 256-row blocks lowered it only to 77.0 MB.
_ROW_BLOCK = 1024

MODEL_FORMAT = "coldstart-kmeans v1"
LABELS_FORMAT = "coldstart-labels v1"


@dataclass(frozen=True)
class KMeansConfig:
    """Fit parameters: `restarts` independent runs of at most `max_steps` Lloyd steps each."""

    n_clusters: int
    restarts: int = 10
    max_steps: int = 100
    conv_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be > 0")


class RestartRecord(NamedTuple):
    """How one restart's Lloyd run ended.

    `steps` counts mean updates; `stop` is "labels_stable" (an assignment
    repeated the previous one), "shift_below_tol" (no centroid moved by
    `conv_tol` or more) or "max_steps"; `sse` is the run's final SSE.
    """

    steps: int
    stop: str
    sse: float


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted model: dense centroids, per-user assignments and the total SSE.

    `assignments` holds each row's nearest centroid (ties to the lower
    index), fitted or loaded. `sse` is the winning restart's final Lloyd
    SSE, as ``save_model`` writes it. `step_sse` is populated only when the
    fit was asked to collect it: one tuple of per-step SSE values per
    executed restart, in restart order. `restarts` holds one
    `RestartRecord` per restart, in restart order; it is None for a loaded
    model. `kernel` names the product kernel that assigned the rows
    ("dense" or "csr"). Both are None for a model built by hand.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    sse: float
    seed: int = 0
    step_sse: tuple[tuple[float, ...], ...] | None = None
    restarts: tuple[RestartRecord, ...] | None = None
    kernel: str | None = None

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.centroids.shape[1])

    @cached_property
    def centroid_sq_norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.centroids, self.centroids)


def n_clusters_from_coeff(n_users: int, k_coeff: int) -> int:
    """Cluster count rule: user count divided by the coefficient, rounded up, clamped to [1, n_users]."""
    if n_users < 1 or k_coeff < 1:
        raise ValueError("n_users and k_coeff must be >= 1")
    return min(max(-(-n_users // k_coeff), 1), n_users)


def _sq_dists(
    dots: np.ndarray, xnorms: np.ndarray, cnorms: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances from dot products and squared norms: (-2·dots + ‖x‖²) + ‖c‖².

    The operands broadcast: a rows x k block takes ``xnorms[:, None]`` and
    one norm per centroid; one column of dots per row takes both norms per
    row. ``out=dots`` works in place, so a block needs no second buffer.
    The result is not clamped: the expansion can dip below 0 by the
    rounding of the norms it cancels.
    """
    d = np.multiply(dots, -2.0, out=out)
    d += xnorms
    d += cnorms
    return d


def _row_blocks(m: RatingMatrix):
    """Blocks of ``_ROW_BLOCK`` whole rows, in row order.

    Yields (rows, ratings, seg): the block's row slice, its slice of the
    stored ratings, and each of those ratings' row within the block. A row
    never spans two blocks, so a per-row ``segment_sums`` over a block adds
    the same terms in the same order as one over the whole matrix.
    """
    for lo in range(0, m.n_users, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, m.n_users)
        ptr = m.indptr[lo : hi + 1]
        yield slice(lo, hi), slice(int(ptr[0]), int(ptr[-1])), segment_ids(ptr)


def _row_sq_norms(m: RatingMatrix) -> np.ndarray:
    norms = np.empty(m.n_users)
    for rows, ratings, seg in _row_blocks(m):
        v = m.values[ratings]
        norms[rows] = segment_sums(seg, v * v, rows.stop - rows.start)
    return norms


def fill_ratio(m: RatingMatrix) -> float:
    """Share of the user x item cells that hold a rating."""
    cells = m.n_users * m.n_items
    return m.n_ratings / cells if cells else 0.0


def _kernel(m: RatingMatrix) -> str:
    """The product kernel for ``m``'s rows: "dense" from ``DENSE_FILL`` filled up, else "csr"."""
    return "dense" if fill_ratio(m) >= DENSE_FILL else "csr"


def _kernel_rows(m: RatingMatrix):
    """The rows as the product kernel takes them, and the kernel's name.

    The CSR kernel takes a ``scipy.sparse.csr_matrix`` over ``m``'s own
    arrays. The dense array is byte for byte that matrix's ``toarray()``,
    which sums each rating into zeros: adding 0.0 turns a stored -0.0 into
    0.0 as that sum does.
    """
    if _kernel(m) == "dense":
        X = np.zeros((m.n_users, m.n_items))
        for rows, ratings, seg in _row_blocks(m):
            X[rows][seg, m.indices[ratings]] = m.values[ratings]
        X += 0.0
        return X, "dense"
    # Imported here so that commands that build no CSR matrix never load scipy.
    from scipy import sparse

    return sparse.csr_matrix((m.values, m.indices, m.indptr), shape=(m.n_users, m.n_items)), "csr"


def _dense_rows(X, rows) -> np.ndarray:
    """The given rows of a dense or CSR matrix as a dense 2-D array."""
    return X[rows] if isinstance(X, np.ndarray) else X[rows].toarray()


@cache
def _openblas_set_threads():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy, or None.

    Despite its name it sets the process-wide thread count; it returns the
    previous count.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
        return fn
    return None


def blas_thread_cap_found() -> bool:
    """Whether k-means can hold OpenBLAS to one thread (else it runs at its own count)."""
    return _openblas_set_threads() is not None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the block, then restore its count.

    The count decides how OpenBLAS splits a product, and a cell at the edge
    of a split can come out different in its last bits. With one thread every
    product is the same for any ``threads`` and any OPENBLAS_NUM_THREADS, and
    restarts stay the only parallel level. The count is process-wide, so the
    block is entered from the thread that starts the work, not per worker.
    """
    set_threads = _openblas_set_threads()
    if set_threads is None:
        yield
        return
    previous = set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _assign_all(X, xnorms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row of a dense or CSR matrix and the distance to it.

    Ties go to the lowest index; BLAS can round two exactly tied distances
    apart, so on a dense matrix that holds for the computed distances.
    Rows are taken in blocks (`_DENSE_CHUNK` dense, `_CHUNK` CSR) only to
    bound the distance block's memory.
    """
    n = X.shape[0]
    step = _DENSE_CHUNK if isinstance(X, np.ndarray) else _CHUNK
    cnorms = np.einsum("ij,ij->i", centroids, centroids)
    labels = np.empty(n, dtype=np.intp)
    dists = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = X[lo:hi] @ centroids.T
        _sq_dists(d, xnorms[lo:hi, None], cnorms, out=d)
        labels[lo:hi] = np.argmin(d, axis=1)
        dists[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    np.maximum(dists, 0.0, out=dists)
    return labels, dists


def _nearest(X, xnorms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Every row's nearest centroid, ties to the lower index, as read-only int64 labels."""
    with _one_blas_thread():
        labels, _ = _assign_all(X, xnorms, centroids)
    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    return labels


def _repair_empty(
    X,
    labels: np.ndarray,
    dists: np.ndarray,
    centroids: np.ndarray,
) -> None:
    """Turn each empty cluster into a singleton at the point farthest from its centroid (in place)."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        movable = counts[labels] > 1
        if not movable.any():
            break
        p = int(np.flatnonzero(movable)[np.argmax(dists[movable])])
        counts[labels[p]] -= 1
        labels[p] = j
        counts[j] = 1
        centroids[j] = _dense_rows(X, [p])[0]
        dists[p] = 0.0


def _cell_blocks(m: RatingMatrix, labels: np.ndarray, k: int):
    """Each ``_row_blocks`` block's (item, cluster) cells, ``item * k + label``, and values.

    ``np.add.at`` of every block, in order, into one flat items x k array
    adds each cell's members in storage order from 0.0, as one ``np.bincount``
    over the whole matrix does; adding up per-block bincounts rounds
    differently.
    """
    for rows, ratings, seg in _row_blocks(m):
        cells = m.indices[ratings].astype(np.intp)
        cells *= k
        cells += labels[rows][seg]
        yield cells, m.values[ratings]


def _cluster_means(m: RatingMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    d = m.n_items
    flat = np.zeros(d * k)
    for cells, values in _cell_blocks(m, labels, k):
        np.add.at(flat, cells, values)
    # The (k, d) transpose is F-ordered like the sparse product it replaced;
    # the einsum centroid norms, and so the SSE, depend on that layout.
    sums = flat.reshape(d, k).T
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0  # empty clusters keep a zero centroid; repair handles them
    return sums / counts[:, None]


def _init_centroids(X, xnorms: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2 sampling against the nearest already-chosen center."""
    n, d = X.shape
    centroids = np.zeros((k, d))
    d2 = np.full(n, np.inf)  # to the nearest chosen center; the first pick is uniform
    for j in range(k):
        total = d2.sum()
        if j == 0 or total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[j] = _dense_rows(X, [pick])[0]
        c = centroids[j]
        d2 = np.minimum(d2, np.maximum(_sq_dists(X @ c, xnorms, c @ c), 0.0))
    return centroids


def _lloyd(
    X,
    m: RatingMatrix,
    xnorms: np.ndarray,
    centroids: np.ndarray,
    cfg: KMeansConfig,
) -> tuple[np.ndarray, list[float], RestartRecord]:
    """One Lloyd run. Returns (centroids, per-step SSE, how it ended).

    `X` holds the rows for the product kernel; the mean update reads the
    same rows from `m`. Every step assigns and repairs first, so the last
    SSE belongs to the returned centroids.
    """
    labels = None
    shift = np.inf
    history: list[float] = []
    for step in range(cfg.max_steps + 1):
        new_labels, dists = _assign_all(X, xnorms, centroids)
        _repair_empty(X, new_labels, dists, centroids)
        history.append(float(dists.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            stop = "labels_stable"
        elif shift < cfg.conv_tol:
            stop = "shift_below_tol"
        elif step == cfg.max_steps:
            stop = "max_steps"
        else:
            stop = None
        if stop is not None:
            return centroids, history, RestartRecord(step, stop, history[-1])
        labels = new_labels
        new_centroids = _cluster_means(m, labels, centroids.shape[0])
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids


def fit(
    m: RatingMatrix,
    cfg: KMeansConfig,
    *,
    threads: int = 1,
    collect_step_sse: bool = False,
) -> ClusterModel:
    """Best-of-restarts k-means fit; deterministic for a fixed config and seed.

    Restart r draws its k-means++ initial centroids from seed + r; the run
    with the lowest final SSE wins (ties go to the earlier restart). Within a
    run, assignment and mean updates alternate until assignments stop
    changing, the largest centroid displacement drops below `conv_tol`, or
    `max_steps` is reached. Empty clusters are repaired by promoting the
    point farthest from its centroid to a singleton cluster. Restarts run on
    up to `threads` worker threads, each restart whole on one thread, so the
    result is the same for any thread count. The model's `assignments` are
    each row's nearest final centroid, from one more pass; its `sse` is the
    winner's final Lloyd SSE.
    """
    if m.n_users < 1:
        raise ValueError("cannot fit on an empty matrix")
    if cfg.n_clusters > m.n_users:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds n_users={m.n_users}")

    X, kernel = _kernel_rows(m)
    xnorms = _row_sq_norms(m)

    def run(r: int):
        rng = np.random.default_rng(cfg.seed + r)
        centroids0 = _init_centroids(X, xnorms, cfg.n_clusters, rng)
        return _lloyd(X, m, xnorms, centroids0, cfg)

    # Results arrive in restart order; each is dropped once compared, so only
    # the best run and those still in flight are held.
    best_sse, centroids = 0.0, None
    histories, records = [], []
    with (
        _one_blas_thread(),
        ThreadPoolExecutor(max_workers=min(max(threads, 1), cfg.restarts)) as ex,
    ):
        for c, history, record in ex.map(run, range(cfg.restarts)):
            histories.append(tuple(history))
            records.append(record)
            if centroids is None or record.sse < best_sse:  # ties: the earlier restart
                best_sse, centroids = record.sse, c
        # C order, as load_model reads them: a product's last bits can depend on the layout.
        centroids = centroids.copy()
        centroids.flags.writeable = False
        # On a worker, whose heap still holds the Lloyd steps' freed blocks:
        # on the main thread this pass raised movielens-sweep's peak RSS by 7 MB.
        labels = ex.submit(_nearest, X, xnorms, centroids).result()
    return ClusterModel(
        centroids=centroids,
        assignments=labels,
        sse=best_sse,
        seed=cfg.seed,
        step_sse=tuple(histories) if collect_step_sse else None,
        restarts=tuple(records),
        kernel=kernel,
    )


def assign(
    model: ClusterModel, row: tuple[np.ndarray, np.ndarray]
) -> tuple[int, float]:
    """Nearest centroid for one sparse (item indices, values) row and its squared distance.

    Unrated items count as 0.0, as in ``fit``, and ties go to the lowest
    cluster index. The item indices must strictly increase, as within a
    ``RatingMatrix`` row.
    """
    indices, values = row
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(indices) and (indices.min() < 0 or indices.max() >= model.n_items):
        raise ValueError("row index space does not match the model")
    if np.any(np.diff(indices) <= 0):
        raise ValueError("item indices must be strictly increasing")
    x = np.zeros((1, model.n_items))
    x[0, indices] = values
    xnorm = segment_sums(np.zeros(len(values), dtype=np.intp), values * values, 1)
    labels, dists = _assign_all(x, xnorm, model.centroids)
    return int(labels[0]), float(dists[0])


def _assigned_sq_dists(model: ClusterModel, m: RatingMatrix) -> np.ndarray:
    """Squared distance of every row to its assigned centroid, from row-order dots and norms."""
    if m.n_items != model.n_items:
        raise ValueError("matrix item space does not match the model")
    if m.n_users != len(model.assignments):
        raise ValueError("matrix user count does not match the model assignments")
    a = model.assignments
    dots = np.empty(m.n_users)
    for rows, ratings, seg in _row_blocks(m):
        terms = m.values[ratings] * model.centroids[a[rows][seg], m.indices[ratings]]
        dots[rows] = segment_sums(seg, terms, rows.stop - rows.start)
    return np.maximum(_sq_dists(dots, _row_sq_norms(m), model.centroid_sq_norms[a]), 0.0)


def sse(model: ClusterModel, m: RatingMatrix) -> float:
    """Recompute the total within-cluster squared distance under the model's assignments."""
    return float(_assigned_sq_dists(model, m).sum())


def save_model(model: ClusterModel, path: str | Path) -> None:
    """Write the versioned text format; 17 significant digits round-trip float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{MODEL_FORMAT} {model.n_clusters} {model.n_items} "
            f"{model.seed} {model.sse:.17g}\n"
        )
        np.savetxt(fh, model.centroids, fmt="%.17g")


def labels_key(centroids: np.ndarray, input_key: str) -> str:
    """sha256 of a format tag, the centroids' shape and C-order bytes, and ``input_key``.

    ``save_model``'s centroids read back bit for bit, so a fitted model and
    the same model loaded give one key, and any changed centroid changes it.
    """
    c = np.ascontiguousarray(centroids, dtype=np.float64)
    h = hashlib.sha256(f"{LABELS_FORMAT} {c.shape[0]} {c.shape[1]}\n".encode())
    h.update(c)
    h.update(input_key.encode())
    return h.hexdigest()


def save_labels(model: ClusterModel, path: str | Path, input_key: str) -> None:
    """Write ``model.assignments`` to ``path``, replacing it.

    ``input_key`` names the input the model's rows were read from; the file
    is keyed by ``labels_key`` of it and the centroids. These are the labels
    ``load_model`` derives on that input from the saved model, and it takes
    them from ``path`` instead.
    """
    write_records(path, labels_key(model.centroids, input_key), [model.assignments])


def _read_labels(
    path: str | Path, input_key: str, centroids: np.ndarray, n: int
) -> np.ndarray | None:
    """The labels ``save_labels`` stored at ``path`` for ``centroids`` on ``input_key``, else None.

    None also when the file is damaged or its labels do not fit the ``k``
    centroids and ``n`` rows; then it warns.
    """
    k = len(centroids)
    try:
        records = read_records(path, labels_key(centroids, input_key), 1)
        if records is None:
            return None
        (labels,) = records
        if labels.dtype != np.int64 or labels.shape != (n,):
            raise ValueError(f"expected {n} int64 labels, got {labels.dtype} {labels.shape}")
        if n and not (0 <= labels.min() and labels.max() < k):
            raise ValueError(f"a label lies outside [0, {k})")
    except (OSError, ValueError) as e:
        warnings.warn(f"ignoring unreadable labels file {path}: {e}", stacklevel=3)
        return None
    labels.flags.writeable = False
    return labels


def load_model(
    path: str | Path, m: RatingMatrix, *, labels: tuple[str | Path, str] | None = None
) -> ClusterModel:
    """Read a persisted model and derive per-user assignments on the given matrix.

    The assignments are each row's nearest saved centroid, the labels
    ``fit`` gave the model. With ``labels``, a (path, input key) pair, they
    are read from the file ``save_labels`` wrote for these centroids on that
    input; when it is missing, holds another key or is damaged (the last
    with a warning), they are derived.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 6 or " ".join(header[:2]) != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
        k, d, seed = int(header[2]), int(header[3]), int(header[4])
        file_sse = float(header[5])
        centroids = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if centroids.shape != (k, d):
        raise ValueError(f"centroid block is {centroids.shape}, header says {(k, d)}")
    if m.n_items != d:
        raise ValueError("matrix item space does not match the model file")
    assignments = _read_labels(*labels, centroids, m.n_users) if labels else None
    if assignments is None:
        assignments = _nearest(_kernel_rows(m)[0], _row_sq_norms(m), centroids)
    centroids.flags.writeable = False
    return ClusterModel(
        centroids=centroids,
        assignments=assignments,
        sse=file_sse,
        seed=seed,
        kernel=_kernel(m),
    )
