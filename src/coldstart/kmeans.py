"""Seedable k-means over rating rows with squared-Euclidean distance.

Unrated dimensions enter distances and centroid means as 0.0. Rows meet
centroids through one product kernel, chosen once per matrix from its fill
ratio: a dense array multiplied by BLAS when at least ``DENSE_FILL`` of the
cells hold a rating, the CSR matrix otherwise. The k-means++ init, every Lloyd
assignment, the empty-cluster repair and ``load_model``'s reassignment all go
through it. Centroid means are always a CSR segment sum, so they do not depend
on the kernel.

Multi-restart fits are deterministic for a fixed seed regardless of the worker
thread count: restarts are the only parallel level, each one runs whole on one
thread, and the best is picked in restart order. OpenBLAS is held to one
thread while k-means runs, because its thread count changes the last bits of
some products.
"""

from __future__ import annotations

import ctypes
import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .dataset import RatingMatrix

# Fill ratio (ratings / cells) from which rows are multiplied as a dense
# array. Measured with one BLAS thread on random grids (2-vCPU Xeon, OpenBLAS
# 0.3.31): a whole fit (1 restart, 10 steps) crosses over at about 0.08 fill
# on 12,500 x 100 with k = 250 and 0.16 on 5,000 x 1,200 with k = 100; at
# 0.25 dense wins on both (1.7x and 1.3x). The k-means++ matrix-vector
# products alone cross over only at 0.3-0.45. Above 0.25 the dense array
# takes at most 32 bytes per rating, against 12 for CSR.
DENSE_FILL = 0.25

_CHUNK = 8192  # CSR rows per distance block
# Dense rows per distance block: 2 MB of distances at k = 250. 8,192-row
# blocks raised jester-fit's peak RSS by 10-40 MB (they land on thread heaps).
_DENSE_CHUNK = 1024

MODEL_FORMAT = "coldstart-kmeans v1"


@dataclass(frozen=True)
class KMeansConfig:
    """Fit parameters: `restarts` independent runs of at most `max_steps` Lloyd steps each."""

    n_clusters: int
    restarts: int = 10
    max_steps: int = 100
    conv_tol: float = 1e-6
    seed: int = 0
    init: str = "kmeanspp"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be > 0")
        if self.init not in ("kmeanspp", "random_points"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted model: dense centroids, per-user assignments and the total SSE.

    `step_sse` is populated only when the fit was asked to collect it: one
    tuple of per-step SSE values per executed restart, in restart order.
    `kernel` names the product kernel that assigned the rows ("dense" or
    "csr"); it is None for a model built by hand.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    sse: float
    config_fingerprint: str
    seed: int = 0
    step_sse: tuple[tuple[float, ...], ...] | None = None
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


def _row_sq_norms(m: RatingMatrix) -> np.ndarray:
    sq = np.concatenate([[0.0], np.cumsum(m.values**2)])
    return sq[m.indptr[1:]] - sq[m.indptr[:-1]]


def fill_ratio(m: RatingMatrix) -> float:
    """Share of the user x item cells that hold a rating."""
    cells = m.n_users * m.n_items
    return m.n_ratings / cells if cells else 0.0


def _kernel_rows(m: RatingMatrix, csr: sparse.csr_matrix):
    """The rows as the product kernel takes them, and the kernel's name."""
    if fill_ratio(m) >= DENSE_FILL:
        return csr.toarray(), "dense"
    return csr, "csr"


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
        d *= -2.0
        d += xnorms[lo:hi, None]
        d += cnorms
        labels[lo:hi] = np.argmin(d, axis=1)
        dists[lo:hi] = d[np.arange(hi - lo), labels[lo:hi]]
    np.maximum(dists, 0.0, out=dists)
    return labels, dists


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


def _cluster_means(X: sparse.csr_matrix, labels: np.ndarray, k: int) -> np.ndarray:
    d = X.shape[1]
    # Item-major bins: each cell sums its members in ascending row order.
    bins = X.indices.astype(np.int64) * k + np.repeat(labels, np.diff(X.indptr))
    # The (k, d) transpose is F-ordered like the sparse product it replaced;
    # the einsum centroid norms, and so the SSE, depend on that layout.
    sums = np.bincount(bins, weights=X.data, minlength=d * k).reshape(d, k).T
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0  # empty clusters keep a zero centroid; repair handles them
    return sums / counts[:, None]


def _init_centroids(
    X, xnorms: np.ndarray, k: int, rng: np.random.Generator, init: str
) -> np.ndarray:
    n, d = X.shape
    if init == "random_points":
        picks = rng.choice(n, size=k, replace=False)
        return _dense_rows(X, picks)

    # k-means++: D^2 sampling against the nearest already-chosen center.
    centroids = np.zeros((k, d))
    first = int(rng.integers(n))
    centroids[0] = _dense_rows(X, [first])[0]
    c = centroids[0]
    d2 = np.maximum(xnorms - 2.0 * (X @ c) + c @ c, 0.0)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[j] = _dense_rows(X, [pick])[0]
        c = centroids[j]
        d2 = np.minimum(d2, np.maximum(xnorms - 2.0 * (X @ c) + c @ c, 0.0))
    return centroids


def _lloyd(
    X,
    csr: sparse.csr_matrix,
    xnorms: np.ndarray,
    centroids: np.ndarray,
    cfg: KMeansConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """One Lloyd run. Returns (centroids, labels, per-point distances, per-step SSE).

    `X` holds the rows for the product kernel, `csr` the same rows for the
    mean update. Every step assigns and repairs first, so the returned labels
    and distances always belong to the returned centroids.
    """
    labels = None
    shift = np.inf
    history: list[float] = []
    for step in range(cfg.max_steps + 1):
        new_labels, dists = _assign_all(X, xnorms, centroids)
        _repair_empty(X, new_labels, dists, centroids)
        history.append(float(dists.sum()))
        if (
            step == cfg.max_steps
            or shift < cfg.conv_tol
            or (labels is not None and np.array_equal(new_labels, labels))
        ):
            return centroids, new_labels, dists, history
        labels = new_labels
        new_centroids = _cluster_means(csr, labels, centroids.shape[0])
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids


def _fingerprint(cfg: KMeansConfig, m: RatingMatrix) -> str:
    h = hashlib.sha256()
    h.update(repr(cfg).encode())
    h.update(m.content_digest().encode())
    return h.hexdigest()[:16]


def fit(
    m: RatingMatrix,
    cfg: KMeansConfig,
    *,
    threads: int = 1,
    collect_step_sse: bool = False,
) -> ClusterModel:
    """Best-of-restarts k-means fit; deterministic for a fixed config and seed.

    Restart r draws its initial centroids from seed + r; the run with the
    lowest final SSE wins (ties go to the earlier restart). Within a run,
    assignment and mean updates alternate until assignments stop changing,
    the largest centroid displacement drops below `conv_tol`, or `max_steps`
    is reached. Empty clusters are repaired by promoting the point farthest
    from its centroid to a singleton cluster. Restarts run on up to `threads`
    worker threads, each restart whole on one thread, so the result is the
    same for any thread count.
    """
    if m.n_users < 1:
        raise ValueError("cannot fit on an empty matrix")
    if cfg.n_clusters > m.n_users:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds n_users={m.n_users}")

    csr = m.to_csr()
    X, kernel = _kernel_rows(m, csr)
    xnorms = _row_sq_norms(m)

    def run(r: int):
        rng = np.random.default_rng(cfg.seed + r)
        centroids0 = _init_centroids(X, xnorms, cfg.n_clusters, rng, cfg.init)
        return _lloyd(X, csr, xnorms, centroids0, cfg)

    # Results arrive in restart order; each is dropped once compared, so only
    # the best run and those still in flight are held.
    best_sse, centroids, labels = 0.0, None, None
    histories = []
    with (
        _one_blas_thread(),
        ThreadPoolExecutor(max_workers=min(max(threads, 1), cfg.restarts)) as ex,
    ):
        for c, lab, dists, history in ex.map(run, range(cfg.restarts)):
            histories.append(tuple(history))
            run_sse = float(dists.sum())
            if centroids is None or run_sse < best_sse:  # ties: the earlier restart
                best_sse, centroids, labels = run_sse, c, lab
    centroids = centroids.copy()
    centroids.flags.writeable = False
    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    return ClusterModel(
        centroids=centroids,
        assignments=labels,
        sse=best_sse,
        config_fingerprint=_fingerprint(cfg, m),
        seed=cfg.seed,
        step_sse=tuple(histories) if collect_step_sse else None,
        kernel=kernel,
    )


def assign(
    model: ClusterModel, row: tuple[np.ndarray, np.ndarray]
) -> tuple[int, float]:
    """Nearest-centroid cluster for one sparse row; ties go to the lowest cluster index."""
    indices, values = row
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(indices) and (indices.min() < 0 or indices.max() >= model.n_items):
        raise ValueError("row index space does not match the model")
    dots = model.centroids[:, indices] @ values if len(indices) else np.zeros(model.n_clusters)
    d = model.centroid_sq_norms - 2.0 * dots + float(values @ values)
    j = int(np.argmin(d))
    return j, sq_euclidean((indices, values), model.centroids[j])


def sse(model: ClusterModel, m: RatingMatrix) -> float:
    """Recompute the total within-cluster squared distance under the model's assignments."""
    if m.n_items != model.n_items:
        raise ValueError("matrix item space does not match the model")
    if m.n_users != len(model.assignments):
        raise ValueError("matrix user count does not match the model assignments")
    X = m.to_csr()
    xnorms = _row_sq_norms(m)
    total = 0.0
    for j in range(model.n_clusters):
        members = np.flatnonzero(model.assignments == j)
        if len(members) == 0:
            continue
        c = model.centroids[j]
        dots = X[members] @ c
        total += float(
            np.maximum(xnorms[members] - 2.0 * dots + c @ c, 0.0).sum()
        )
    return total


def save_model(model: ClusterModel, path: str | Path) -> None:
    """Write the versioned text format; 17 significant digits round-trip float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{MODEL_FORMAT} {model.n_clusters} {model.n_items} "
            f"{model.seed} {model.sse:.17g}\n"
        )
        for c in model.centroids:
            fh.write(" ".join(f"{x:.17g}" for x in c) + "\n")


def load_model(path: str | Path, m: RatingMatrix) -> ClusterModel:
    """Read a persisted model and re-derive per-user assignments on the given matrix."""
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
    X, kernel = _kernel_rows(m, m.to_csr())
    with _one_blas_thread():
        labels, _ = _assign_all(X, _row_sq_norms(m), centroids)
    centroids.flags.writeable = False
    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    h.update(m.content_digest().encode())
    return ClusterModel(
        centroids=centroids,
        assignments=labels,
        sse=file_sse,
        config_fingerprint=h.hexdigest()[:16],
        seed=seed,
        kernel=kernel,
    )
