"""Prefix-assignment experiment: success and quality curves, breakpoint, intersection.

The cluster model is fit once on full histories and frozen; each user's rating
prefix of length t is assigned against those fixed centroids and compared with
the assignment of the full row. ``prefix_replay`` labels every prefix of every
selected user in one walk over their ratings, keeping running dots with the
centroids and running norms, so the cost is one pass over the ratings plus one
users x k argmin per t. Each curve runs its own replay; every step of it is
row-wise, so a user's labels do not depend on which other users share the
replay. It runs on one thread, so the curves never depend on the run's
thread count.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .dataset import BY_ITEM_INDEX, PrefixOrdering, RatingMatrix, _gather_rows
from .errors import DegenerateModelError, ParseError
from .kmeans import ClusterModel, _sq_dists
from .quality import davies_bouldin

SEGMENTED_LINEAR = "segmented_linear"
KNEEDLE = "kneedle"
EXP_TANGENT = "exp_tangent"

# Points each side of a breakpoint candidate needs, so a curve needs twice as many.
BREAKPOINT_MIN_SIDE = 4


class SuccessPoint(NamedTuple):
    t: int
    success_fraction: float
    n_evaluated: int


class QualityPoint(NamedTuple):
    t: int
    current_quality_mean: float
    reference_quality_mean: float


@dataclass(frozen=True)
class SuccessCurve:
    """Fraction of users whose length-t prefix lands in their final cluster.

    Only users with at least t ratings contribute at t; the curve stops once
    nobody is left to evaluate.
    """

    points: tuple[SuccessPoint, ...]


@dataclass(frozen=True)
class QualityCurve:
    """Mean signed cluster-quality term of prefix-assigned vs final clusters.

    Prefixes saturate at each user's history length, so every user contributes
    at every t and the two series coincide exactly once t covers the longest
    history.
    """

    points: tuple[QualityPoint, ...]


class LineFit(NamedTuple):
    slope: float
    intercept: float
    sse: float


@dataclass(frozen=True)
class BreakpointReport:
    t_star: int
    method: str
    left_fit: LineFit
    right_fit: LineFit
    total_sse: float


@dataclass(frozen=True)
class IntersectionReport:
    """Where the fitted quality curve meets the reference.

    `position` places `t_cross` against the observed prefix lengths:
    "before" the first (the fit is already above the reference there),
    "within" them, or "beyond" the last. A crossing that cannot be placed
    (NaN, from a NaN in the curve) counts as "beyond". When the fit does not
    rise (slope <= 0, or a flat series) the curves do not cross: `position` is
    "none", `t_cross` is None and `log_fit` is still the fit.
    """

    log_fit: tuple[float, float]  # (a, b) of y = a + b*ln t
    reference_level: float
    t_cross: float | None
    position: str

    @property
    def extrapolated(self) -> bool:
        return self.position in ("before", "beyond")


@dataclass(frozen=True, eq=False)
class PrefixReplay:
    """Labels of every user's rating prefixes against a frozen model.

    Row j belongs to the caller's ``users[j]`` (duplicates and order as
    given). ``labels[t - 1, j]`` is the label of that user's first
    min(t, history) ratings for t = 1..t_max, and ``final[j]`` the label of
    the whole history, read from the same running sums, so a saturated
    prefix carries exactly the final label.
    """

    lengths: np.ndarray
    labels: np.ndarray
    final: np.ndarray


def prefix_replay(
    model: ClusterModel,
    m: RatingMatrix,
    users,
    t_max: int,
    ordering: PrefixOrdering = BY_ITEM_INDEX,
) -> PrefixReplay:
    """Assign every prefix of every user's history to the frozen centroids.

    One walk over the ratings in prefix order: step t adds each user's t-th
    rating v at item i to a running dot with every centroid (v times column i
    of the centroids) and v squared to a running norm, and takes the nearest
    centroid from those sums. Users are walked longest history first, so the
    users still adding ratings at step t are a leading block of rows. A
    whole history's norm is summed in the order ``kmeans`` sums row norms,
    so under ``BY_ITEM_INDEX`` the final labels see the norms ``fit`` and
    ``load_model`` see.
    """
    users = np.asarray(users, dtype=np.int64)
    if users.size == 0:
        raise ValueError("user list is empty")
    if users.min() < 0 or users.max() >= m.n_users:
        raise ValueError("user index out of range")
    if m.n_items != model.n_items:
        raise ValueError("matrix item space does not match the model")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if ordering.kind == "by_timestamp" and m.timestamps is None:
        raise ValueError("by_timestamp ordering needs a matrix with timestamps")
    lengths = m.indptr[users + 1] - m.indptr[users]
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    pos, seg = _gather_rows(m.indptr, users[order])
    if ordering.kind == "by_timestamp":
        pos = pos[np.lexsort((m.indices[pos], m.timestamps[pos], seg))]
    starts = np.cumsum(lens) - lens
    top = int(lens[0])
    # reach[t]: how many users hold at least t ratings, for t = 0..top + 1
    reach = np.searchsorted(-lens, -np.arange(top + 2), side="right")

    ct = np.ascontiguousarray(model.centroids.T)
    cnorms = model.centroid_sq_norms
    n = len(users)
    dots = np.zeros((n, model.n_clusters))
    norms = np.zeros(n)
    labels = np.empty((t_max, n), dtype=np.intp)
    final = np.empty(n, dtype=np.intp)
    for t in range(top + 1):
        act, done = reach[t], reach[t + 1]  # rows done..act end their history at t
        if t:
            e = pos[starts[:act] + (t - 1)]
            v = m.values[e]
            dots[:act] += v[:, None] * ct[m.indices[e]]
            norms[:act] += v * v
        if 1 <= t <= t_max:
            d = _sq_dists(dots[:act], norms[:act, None], cnorms)
            labels[t - 1, :act] = np.argmin(d, axis=1)
            final[done:act] = labels[t - 1, done:act]
        elif done < act:
            d = _sq_dists(dots[done:act], norms[done:act, None], cnorms)
            final[done:act] = np.argmin(d, axis=1)
    saturated = lens[None, :] < np.arange(1, t_max + 1)[:, None]
    np.copyto(labels, final, where=saturated)

    back = np.empty_like(order)
    back[order] = np.arange(n)
    return PrefixReplay(lengths, labels[:, back], final[back])


def success_curve(
    model: ClusterModel,
    m: RatingMatrix,
    users,
    t_max: int,
    ordering: PrefixOrdering = BY_ITEM_INDEX,
) -> SuccessCurve:
    """Per-prefix-length agreement with the final cluster over users with >= t ratings."""
    replay = prefix_replay(model, m, users, t_max, ordering)
    lens = replay.lengths
    points = []
    for t in range(1, min(t_max, int(lens.max())) + 1):
        active = lens >= t
        frac = float((replay.labels[t - 1][active] == replay.final[active]).mean())
        points.append(SuccessPoint(t, frac, int(active.sum())))
    return SuccessCurve(points=tuple(points))


def quality_curve(
    model: ClusterModel,
    m: RatingMatrix,
    users,
    t_max: int,
    ordering: PrefixOrdering = BY_ITEM_INDEX,
) -> QualityCurve:
    """Mean signed quality of prefix-assigned clusters versus final clusters.

    Every user contributes at every t with a prefix capped at their history
    length, so the reference series is constant and the current series meets
    it exactly at saturation.
    """
    replay = prefix_replay(model, m, users, t_max, ordering)
    terms = davies_bouldin(model, m).per_cluster_db_term
    ref_terms = terms[replay.final]
    if np.isnan(ref_terms).any():
        raise DegenerateModelError("a final cluster has no usable quality term")
    reference = float(np.mean(-ref_terms))
    points = []
    for t in range(1, t_max + 1):
        cur_terms = terms[replay.labels[t - 1]]
        if np.isnan(cur_terms).any():
            raise DegenerateModelError(
                f"prefix assignment at t={t} reached a cluster with no quality term"
            )
        points.append(QualityPoint(t, float(np.mean(-cur_terms)), reference))
    return QualityCurve(points=tuple(points))


def split_by_min_count(m: RatingMatrix) -> tuple[int, np.ndarray]:
    """The dataset's minimum rating count and the users holding exactly that many."""
    lengths = m.row_lengths()
    mn = int(lengths.min())
    return mn, np.flatnonzero(lengths == mn)


def _ols_line(t: np.ndarray, y: np.ndarray) -> LineFit:
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    return LineFit(float(slope), float(intercept), float(resid @ resid))


def _exp_tangent_model(t: np.ndarray, amp: float, tau: float, knee: float) -> np.ndarray:
    """Exponential rise that continues along its own tangent beyond the knee."""
    head = amp * (1.0 - np.exp(-t / tau))
    slope = amp / tau * np.exp(-knee / tau)
    y_knee = amp * (1.0 - np.exp(-knee / tau))
    return np.where(t <= knee, head, y_knee + slope * (t - knee))


def _fit_exp_tangent(t: np.ndarray, y: np.ndarray, candidates: list[int]):
    """Best integer knee for the joint exponential-plus-tangent model.

    The tangent graft is C1-smooth, so no line-based split can see it; the
    knee is only identifiable through the exponential's global shape, which
    this joint least-squares fit uses.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

    best = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        for ts in candidates:
            p0 = (max(float(y.max()), 1e-9), max(ts / 3.0, 1.0))
            try:
                params, _ = curve_fit(
                    lambda tt, amp, tau: _exp_tangent_model(tt, amp, tau, ts),
                    t,
                    y,
                    p0=p0,
                    maxfev=2000,
                )
            except RuntimeError:
                continue
            resid = y - _exp_tangent_model(t, params[0], params[1], ts)
            total = float(resid @ resid)
            if best is None or total < best[0]:
                best = (total, ts, float(params[0]), float(params[1]))
    if best is None:
        raise ValueError("exp_tangent fit failed at every candidate knee")
    return best


def detect_breakpoint(curve: SuccessCurve, method: str = SEGMENTED_LINEAR) -> BreakpointReport:
    """Locate the prefix length where curve growth changes regime.

    The search spans the whole curve. segmented_linear scans every integer
    candidate t* strictly between the first and the last point's t, fits an
    ordinary least-squares line to the points at t < t* and another to the
    points from t* on, and keeps the candidate with the smallest summed SSE
    (ties to the smallest t*); it pinpoints slope discontinuities.
    kneedle takes the point farthest from the chord between the curve's
    endpoints after min-max normalization. exp_tangent jointly fits an
    exponential rise grafted onto its own tangent at the knee — the right
    model when the regime change is smooth rather than a slope break.
    All methods require at least ``BREAKPOINT_MIN_SIDE`` points on each side
    of every candidate.

    For segmented_linear, total_sse is left SSE + right SSE; for the other
    methods the side fits are descriptive and total_sse is the chosen
    model's own residual SSE (kneedle reports the two-line total).
    """
    if method not in (SEGMENTED_LINEAR, KNEEDLE, EXP_TANGENT):
        raise ValueError(f"unknown method {method!r}")
    t = np.array([p.t for p in curve.points], dtype=np.float64)
    y = np.array([p.success_fraction for p in curve.points], dtype=np.float64)
    # Candidate split points: enough points on each side, strictly inside the curve.
    # The left segment is t < t*, the right t >= t*: on a continuous hinge the
    # knee point lies on both lines, and this split makes the smallest zero-SSE
    # candidate the knee itself.
    side = BREAKPOINT_MIN_SIDE
    candidates = [
        int(ts)
        for ts in t
        if t[0] < ts < t[-1] and (t < ts).sum() >= side and (t >= ts).sum() >= side
    ]
    if not candidates:
        raise ValueError(
            "too few points for breakpoint detection "
            f"(need >= {side} on each side of a candidate)"
        )

    if method == SEGMENTED_LINEAR:
        totals = []
        for ts in candidates:
            left = t < ts
            totals.append(_ols_line(t[left], y[left]).sse + _ols_line(t[~left], y[~left]).sse)
        # ties go to the smallest t*; "tie" tolerates float dust so that the
        # exactly-recoverable cases (piecewise-linear, flat) stay deterministic
        min_total = min(totals)
        tol = 1e-9 * (1.0 + min_total)
        t_star = next(ts for ts, total in zip(candidates, totals) if total <= min_total + tol)
    elif method == EXP_TANGENT:
        total, t_star, amp, tau = _fit_exp_tangent(t, y, candidates)
    else:
        tn = (t - t[0]) / (t[-1] - t[0])
        span = y.max() - y.min()
        yn = (y - y.min()) / span if span > 0 else np.zeros_like(y)
        # distance from each normalized point to the endpoint chord
        dx, dy = tn[-1] - tn[0], yn[-1] - yn[0]
        norm = np.hypot(dx, dy)
        dist = np.abs(dx * (yn - yn[0]) - dy * (tn - tn[0])) / norm
        allowed = np.isin(t, candidates)
        dist = np.where(allowed, dist, -np.inf)
        t_star = int(t[int(np.argmax(dist))])

    left = t < t_star
    lf = _ols_line(t[left], y[left])
    if method == EXP_TANGENT:
        # the grafted tangent itself, as a line in t
        slope = amp / tau * np.exp(-t_star / tau)
        y_knee = amp * (1.0 - np.exp(-t_star / tau))
        resid = y[~left] - (y_knee + slope * (t[~left] - t_star))
        rf = LineFit(float(slope), float(y_knee - slope * t_star), float(resid @ resid))
    else:
        rf = _ols_line(t[~left], y[~left])
        total = lf.sse + rf.sse
    return BreakpointReport(t_star, method, lf, rf, total)


def regression_intersection(curve: QualityCurve) -> IntersectionReport:
    """Where the log-fit of the current series reaches the reference level.

    Fits y = a + b*ln t to the current series; a non-positive b means the
    series is not converging upward, and the report's position is "none". So
    does a flat series, whose fitted b is 0 only up to rounding, of either
    sign. A fit already above the reference at the first observed t crosses
    "before" it.
    """
    if len(curve.points) < 3:
        raise ValueError("need at least 3 points to fit the regression")
    t = np.array([p.t for p in curve.points], dtype=np.float64)
    cur = np.array([p.current_quality_mean for p in curve.points])
    ref = float(np.mean([p.reference_quality_mean for p in curve.points]))
    b, a = np.polyfit(np.log(t), cur, 1)
    log_fit = (float(a), float(b))
    if b <= 0 or cur.min() == cur.max():
        return IntersectionReport(log_fit, ref, t_cross=None, position="none")
    exponent = (ref - a) / b
    t_cross = float(np.exp(np.clip(exponent, -745.0, 709.0)))
    if exponent > 709.0:
        t_cross = float("inf")
    if t[0] <= t_cross <= t[-1]:
        position = "within"
    elif t_cross < t[0]:
        position = "before"
    else:
        position = "beyond"
    return IntersectionReport(log_fit, ref, t_cross, position)


def _write_points(points, point_type, dest: str | Path) -> None:
    """The point type's fields, then each value cast to its column's type (numpy scalars too)."""
    kinds = get_type_hints(point_type)
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(point_type._fields)
        w.writerows([kinds[f](v) for f, v in zip(point_type._fields, p)] for p in points)


def _read_points(source: str | Path, point_type) -> tuple:
    """The points ``_write_points`` wrote, skipping blank and ``#`` lines.

    Bytes that are not UTF-8, a field longer than ``csv.field_size_limit()``,
    a wrong header, a row without exactly one value of its column's type per
    field, a float that is NaN or infinite, or a ``t`` below 1 or not above
    the previous row's raise ``ParseError`` naming the file and the 1-based
    line. Neither curve writer emits a non-finite value.
    """
    kinds, fields = get_type_hints(point_type), point_type._fields
    data = Path(source).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{source}: not UTF-8 text: {e}", data.count(b"\n", 0, e.start) + 1) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    except csv.Error as e:
        raise ParseError(f"{source}: {e}", reader.line_num) from None
    line, header = rows[0] if rows else (None, [])
    if header != list(fields):
        raise ParseError(f"{source}: header {','.join(header)} is not {','.join(fields)}", line)
    points = []
    for line, row in rows[1:]:
        try:
            p = point_type(*(kinds[f](v) for f, v in zip(fields, row, strict=True)))
        except ValueError as e:
            raise ParseError(f"{source}: row {','.join(row)} does not fit the header: {e}", line) from None
        for f in fields:
            if kinds[f] is float and not math.isfinite(getattr(p, f)):
                raise ParseError(f"{source}: {f} = {getattr(p, f)} is not finite", line)
        previous = points[-1].t if points else 0
        if p.t <= previous:
            order = "below 1" if p.t < 1 else f"not above the previous row's t = {previous}"
            raise ParseError(f"{source}: t = {p.t} is {order}", line)
        points.append(p)
    return tuple(points)


def write_success_csv(curve: SuccessCurve, dest: str | Path) -> None:
    _write_points(curve.points, SuccessPoint, dest)


def read_success_csv(source: str | Path) -> SuccessCurve:
    """The curve ``write_success_csv`` wrote; ``ParseError`` on a malformed header or row."""
    return SuccessCurve(points=_read_points(source, SuccessPoint))


def write_quality_csv(curve: QualityCurve, dest: str | Path) -> None:
    _write_points(curve.points, QualityPoint, dest)


def read_quality_csv(source: str | Path) -> QualityCurve:
    """The curve ``write_quality_csv`` wrote; ``ParseError`` on a malformed header or row."""
    return QualityCurve(points=_read_points(source, QualityPoint))


def write_breakpoint_report(report: BreakpointReport, dest: str | Path) -> None:
    """Plain-text key=value block consumed by humans and the run summary."""
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(f"t_star={report.t_star}\n")
        fh.write(f"method={report.method}\n")
        fh.write(f"left_slope={report.left_fit.slope!r}\n")
        fh.write(f"right_slope={report.right_fit.slope!r}\n")
        fh.write(f"total_sse={report.total_sse!r}\n")
