import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import experiment_oracle as oracle
from conftest import matrix_from_dense
from coldstart import experiment as xp
from coldstart.dataset import BY_ITEM_INDEX, BY_TIMESTAMP
from coldstart.errors import ParseError
from coldstart.kmeans import ClusterModel, KMeansConfig, fit


def _curve(ts, ys, n=100):
    pts = tuple(
        xp.SuccessPoint(int(t), float(y), n) for t, y in zip(ts, ys)
    )
    return xp.SuccessCurve(pts)


# ---------------------------------------------------------------- success curve

def test_success_curve_toy(mk_matrix):
    # user 3 has a single rating; user 2's 1-prefix is pulled into the
    # low-norm cluster by the zero-filled unrated dimension
    m = mk_matrix(
        [
            [1.0, 1.0],
            [1.2, 0.9],
            [9.0, 9.0],
            [1.1, np.nan],
        ]
    )
    model = fit(m, KMeansConfig(n_clusters=2, seed=0))
    sc = xp.success_curve(model, m, [0, 1, 2, 3], t_max=5)
    assert sc.points == (
        xp.SuccessPoint(1, 0.75, 4),
        xp.SuccessPoint(2, 1.0, 3),
    )


def test_success_curve_saturates_at_full_history(mk_matrix):
    rng = np.random.default_rng(0)
    dense = np.where(rng.random((12, 8)) < 0.7, rng.uniform(1, 5, (12, 8)), np.nan)
    dense[np.isnan(dense).all(axis=1), 0] = 3.0
    m = mk_matrix(dense)
    model = fit(m, KMeansConfig(n_clusters=3, seed=1))
    users = list(range(12))
    sc = xp.success_curve(model, m, users, t_max=20)
    max_len = int(m.row_lengths().max())
    assert sc.points[-1].t == max_len
    # every user's own-length prefix is their whole row, so the curve's
    # last point (where only the longest histories remain) must be 1.0
    assert sc.points[-1].success_fraction == 1.0
    fractions = [p.success_fraction for p in sc.points]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    evaluated = [p.n_evaluated for p in sc.points]
    assert evaluated == sorted(evaluated, reverse=True)


def test_success_curve_ordering_matters(mk_matrix):
    # timestamps reverse the item order for one user, changing their 1-prefix
    m = mk_matrix(
        [[1.0, 9.0], [1.1, 8.9], [9.0, 1.0]],
        timestamps=[[1, 2], [1, 2], [2, 1]],
    )
    model = fit(m, KMeansConfig(n_clusters=2, seed=0))
    by_idx = xp.success_curve(model, m, [0, 1, 2], 2, BY_ITEM_INDEX)
    by_ts = xp.success_curve(model, m, [0, 1, 2], 2, BY_TIMESTAMP)
    assert by_idx.points[0] != by_ts.points[0]


def test_success_curve_by_timestamp_requires_timestamps(mk_matrix):
    m = mk_matrix([[1.0, 2.0]] * 4)
    model = fit(m, KMeansConfig(n_clusters=2, seed=0))
    with pytest.raises(ValueError, match="timestamp"):
        xp.success_curve(model, m, [0, 1], 2, BY_TIMESTAMP)


def test_success_curve_validates_users(mk_matrix):
    m = mk_matrix([[1.0, 2.0]] * 4)
    model = fit(m, KMeansConfig(n_clusters=2, seed=0))
    with pytest.raises(ValueError):
        xp.success_curve(model, m, [9], 2)
    with pytest.raises(ValueError):
        xp.success_curve(model, m, [], 2)
    with pytest.raises(ValueError):
        xp.success_curve(model, m, [0], 0)


# ---------------------------------------------------------------- quality curve

def _three_tier_matrix(mk_matrix):
    rows = [
        [1.0, 1.0, 1.0],
        [1.2, 0.8, 1.1],
        [0.9, 1.1, 0.9],
        [1.1, 1.0, 1.2],
        [6.0, 6.0, 6.0],
        [6.3, 5.8, 6.1],
        [5.9, 6.2, 5.7],
        [12.0, 12.0, 12.0],
        [11.7, 12.2, 12.1],
        [12.3, 11.9, 11.8],
    ]
    return mk_matrix(rows)


def test_quality_curve_reference_constant_and_saturation_exact(mk_matrix):
    m = _three_tier_matrix(mk_matrix)
    model = fit(m, KMeansConfig(n_clusters=3, seed=0))
    users = list(range(m.n_users))
    qc = xp.quality_curve(model, m, users, t_max=6)
    refs = {p.reference_quality_mean for p in qc.points}
    assert len(refs) == 1
    # prefixes cap at each user's history, so from t = 3 on the prefix IS the
    # full row and the two series coincide bit for bit
    for p in qc.points:
        if p.t >= 3:
            assert p.current_quality_mean == p.reference_quality_mean
    # short prefixes of the high-norm users land in the middle cluster,
    # whose quality term differs
    assert qc.points[0].current_quality_mean != qc.points[0].reference_quality_mean


def test_quality_curve_runs_past_saturation(mk_matrix):
    m = _three_tier_matrix(mk_matrix)
    model = fit(m, KMeansConfig(n_clusters=3, seed=0))
    qc = xp.quality_curve(model, m, list(range(m.n_users)), t_max=9)
    assert len(qc.points) == 9  # every user contributes at every t


# ---------------------------------------------------------------- prefix replay vs CSR oracle

def _replay_case(seed):
    """A matrix with timestamp ties and empty rows, centroids with an exact duplicate, and users.

    Ratings are half-points, where sums are exact and ties are real, or
    two-decimal Jester values, where the two replays round differently. The
    last centroid repeats an earlier one. Users repeat and come unsorted, and
    t_max falls anywhere from 1 to past the longest history.
    """
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 40)), int(rng.integers(1, 30))
    if rng.random() < 0.5:
        values = rng.integers(-20, 21, (n_users, n_items)) / 2.0
    else:
        values = np.round(rng.uniform(-10, 10, (n_users, n_items)), 2)
    fill = float(rng.choice([0.1, 0.4, 0.8, 1.0]))
    dense = np.where(rng.random((n_users, n_items)) < fill, values, np.nan)
    m = matrix_from_dense(dense, timestamps=rng.integers(0, 4, (n_users, n_items)))
    centroids = np.concatenate([
        rng.integers(-20, 21, (int(rng.integers(1, 12)), n_items)) / 2.0,  # grid points
        np.nan_to_num(dense[rng.integers(0, n_users, 2)]),  # centroids on rows
    ])
    centroids = np.concatenate([centroids, centroids[[rng.integers(0, len(centroids))]]])
    model = ClusterModel(
        centroids=centroids,
        assignments=np.zeros(n_users, dtype=np.int64),
        sse=0.0,
    )
    users = rng.integers(0, n_users, int(rng.integers(1, 2 * n_users + 1)))
    return model, m, users, int(rng.integers(1, n_items + 3))


def _unexplained(model, rows, got):
    """Rows where ``got`` differs from the oracle's label without a near tie there, and the near-tie count.

    A near tie: the oracle's two smallest distances are within 1e-9 of
    each other, relative to the squared norms the distance expansion
    cancels (a row on a centroid has a distance near 0 but a rounding error
    of the norms' size).
    """
    d, xnorms = oracle.distances(model, *rows)
    want = np.argmin(d, axis=1)
    two = np.argpartition(d, 1, axis=1)[:, :2]
    first, second = np.take_along_axis(d, two, axis=1).T
    scale = xnorms + model.centroid_sq_norms[two].max(axis=1)
    near = np.abs(second - first) <= 1e-9 * scale
    differ = got != want
    return differ & ~near, int((differ & near).sum())


@given(st.integers(0, 2**32 - 1), st.sampled_from([BY_ITEM_INDEX, BY_TIMESTAMP]))
@settings(max_examples=200, deadline=None)
def test_prefix_replay_matches_csr_oracle(seed, ordering):
    model, m, users, t_max = _replay_case(seed)
    replay = xp.prefix_replay(model, m, users, t_max, ordering)
    lens = m.indptr[users + 1] - m.indptr[users]
    assert replay.lengths.tolist() == lens.tolist()
    assert replay.labels.shape == (t_max, len(users))
    dup = model.n_clusters - 1  # an exact tie with an earlier centroid goes to that one
    assert dup not in replay.final and dup not in replay.labels
    assert dup not in oracle.final_labels(model, m, users)
    near_ties = 0
    wrong, n = _unexplained(model, oracle.final_rows(m, users), replay.final)
    assert not wrong.any()
    near_ties += n
    for t, want in oracle.prefix_labels(model, m, users, t_max, ordering):
        assert dup not in want
        wrong, n = _unexplained(model, oracle.prefix_rows(m, users, t, ordering), replay.labels[t - 1])
        assert not wrong.any(), t
        near_ties += n
        # a saturated prefix is the whole history, from the same sums
        assert (replay.labels[t - 1][lens <= t] == replay.final[lens <= t]).all()
    event(f"near-tie label differences: {near_ties}")


@pytest.mark.parametrize("ordering", [BY_ITEM_INDEX, BY_TIMESTAMP])
def test_prefix_replay_matches_csr_oracle_at_jester_scale(ordering):
    rng = np.random.default_rng(11)
    values = np.round(rng.uniform(-10, 10, (400, 100)), 2)
    dense = np.where(rng.random((400, 100)) < 0.66, values, np.nan)
    m = matrix_from_dense(dense, timestamps=rng.integers(0, 50, (400, 100)))
    model = fit(m, KMeansConfig(n_clusters=40, restarts=1, max_steps=5, seed=3))
    users = rng.choice(400, 60, replace=False)
    replay = xp.prefix_replay(model, m, users, 100, ordering)
    near_ties = 0
    wrong, n = _unexplained(model, oracle.final_rows(m, users), replay.final)
    assert not wrong.any()
    near_ties += n
    for t in range(1, 101):
        wrong, n = _unexplained(model, oracle.prefix_rows(m, users, t, ordering), replay.labels[t - 1])
        assert not wrong.any(), t
        near_ties += n
    assert near_ties <= 0.01 * replay.labels.size  # the tolerance hides no systematic error


@pytest.mark.parametrize("ordering", [BY_ITEM_INDEX, BY_TIMESTAMP], ids=["by_item", "by_time"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_replay_of_two_cohorts_together_is_their_separate_replays(ordering, seed):
    # Every replay step is row-wise, so a user's labels do not depend on who
    # else is replayed with them: each curve can replay its own cohort.
    model, m, a, t_max = _replay_case(seed)
    b = np.random.default_rng(seed).permutation(a)[: len(a) // 2 + 1]  # overlaps a
    both = np.concatenate([a, b])
    t_max = max(t_max, int(m.row_lengths()[both].min()) + 1)  # some history ends before t_max
    joint = xp.prefix_replay(model, m, both, t_max, ordering)
    for cohort, cols in ((a, slice(0, len(a))), (b, slice(len(a), None))):
        alone = xp.prefix_replay(model, m, cohort, t_max, ordering)
        assert np.array_equal(joint.labels[:, cols], alone.labels)
        assert np.array_equal(joint.final[cols], alone.final)


# ---------------------------------------------------------------- cohort split

def test_split_by_min_count(mk_matrix):
    m = mk_matrix(
        [
            [1.0, 2.0, np.nan],
            [1.0, np.nan, np.nan],
            [3.0, np.nan, np.nan],
            [1.0, 2.0, 3.0],
        ]
    )
    mn, exact = xp.split_by_min_count(m)
    assert mn == 1
    assert exact.tolist() == [1, 2]


# ---------------------------------------------------------------- breakpoint detection

def test_segmented_linear_recovers_piecewise_exactly():
    t = np.arange(1, 61)
    y = np.where(t < 25, 0.5 + 0.02 * (t - 25.0), 0.5 + 0.001 * (t - 25.0))
    rep = xp.detect_breakpoint(_curve(t, y))
    assert rep.method == xp.SEGMENTED_LINEAR
    assert rep.t_star == 25
    assert rep.total_sse == pytest.approx(0.0, abs=1e-18)
    assert rep.left_fit.slope == pytest.approx(0.02)
    assert rep.right_fit.slope == pytest.approx(0.001)


def test_segmented_linear_flat_curve_ties_to_smallest():
    rep = xp.detect_breakpoint(_curve(range(1, 21), [0.5] * 20))
    assert rep.t_star == 5  # smallest candidate with 4 points on the left


def test_detect_breakpoint_needs_enough_points():
    with pytest.raises(ValueError, match="too few"):
        xp.detect_breakpoint(_curve(range(1, 8), np.linspace(0, 1, 7)))
    with pytest.raises(ValueError, match="method"):
        xp.detect_breakpoint(_curve(range(1, 21), [0.5] * 20), method="zigzag")


def test_kneedle_matches_chord_oracle():
    t = np.arange(1, 41, dtype=float)
    y = 1.0 - np.exp(-t / 6.0)
    rep = xp.detect_breakpoint(_curve(t, y), method=xp.KNEEDLE)
    # independent chord computation on the normalized curve
    tn = (t - t[0]) / (t[-1] - t[0])
    yn = (y - y.min()) / (y.max() - y.min())
    dist = np.abs(tn * (yn[-1] - yn[0]) - yn * (tn[-1] - tn[0]) + 0.0)
    chord = np.abs(
        (tn[-1] - tn[0]) * (yn - yn[0]) - (yn[-1] - yn[0]) * (tn - tn[0])
    ) / np.hypot(tn[-1] - tn[0], yn[-1] - yn[0])
    inside = (t >= 5) & (t <= 37)  # candidate window for 40 points
    expect = int(t[np.argmax(np.where(inside, chord, -np.inf))])
    assert rep.t_star == expect
    assert rep.method == xp.KNEEDLE


def test_exp_tangent_finds_smooth_knee():
    rng = np.random.default_rng(3)
    t = np.arange(1, 61, dtype=float)
    y = xp._exp_tangent_model(t, 0.8, 10.0, 25) + rng.normal(0, 0.005, t.size)
    rep = xp.detect_breakpoint(_curve(t, y), method=xp.EXP_TANGENT)
    assert 22 <= rep.t_star <= 28
    # the reported right fit is the tangent line at the knee
    assert rep.right_fit.slope == pytest.approx(0.8 / 10.0 * np.exp(-rep.t_star / 10.0), rel=0.3)


# Every field of each method's report on three seeded noisy curves, pinned as
# its repr, so that a change to how the side lines are fitted shows in the bits.
_PINNED_REPORTS = [
    (0, xp.SEGMENTED_LINEAR,
     "BreakpointReport(t_star=8, method='segmented_linear', "
     "left_fit=LineFit(slope=0.09015821854764193, intercept=0.1680244165355417, sse=0.009067938232200113), "
     "right_fit=LineFit(slope=0.0025809395542760547, intercept=0.8200766812296002, sse=0.0133818271287509), "
     "total_sse=0.022449765360951012)"),
    (0, xp.KNEEDLE,
     "BreakpointReport(t_star=8, method='kneedle', "
     "left_fit=LineFit(slope=0.09015821854764193, intercept=0.1680244165355417, sse=0.009067938232200113), "
     "right_fit=LineFit(slope=0.0025809395542760547, intercept=0.8200766812296002, sse=0.0133818271287509), "
     "total_sse=0.022449765360951012)"),
    (0, xp.EXP_TANGENT,
     "BreakpointReport(t_star=24, method='exp_tangent', "
     "left_fit=LineFit(slope=0.02349646594184082, intercept=0.47936617194417264, sse=0.2441428166842727), "
     "right_fit=LineFit(slope=0.0005369973772457393, intercept=0.8823165208050215, sse=0.0006445140225594803), "
     "total_sse=0.002297904090411133)"),
    (1, xp.SEGMENTED_LINEAR,
     "BreakpointReport(t_star=11, method='segmented_linear', "
     "left_fit=LineFit(slope=0.06410926420825587, intercept=0.14712811623405053, sse=0.013944274415169483), "
     "right_fit=LineFit(slope=0.0038840298065308068, intercept=0.7692122733376865, sse=0.013563784535809323), "
     "total_sse=0.027508058950978805)"),
    (1, xp.KNEEDLE,
     "BreakpointReport(t_star=12, method='kneedle', "
     "left_fit=LineFit(slope=0.05974846549991805, intercept=0.1645713110674019, sse=0.020219740988800902), "
     "right_fit=LineFit(slope=0.0034736050508552404, intercept=0.7817986325117374, sse=0.010030296918846184), "
     "total_sse=0.030250037907647086)"),
    (1, xp.EXP_TANGENT,
     "BreakpointReport(t_star=37, method='exp_tangent', "
     "left_fit=LineFit(slope=0.015409090524994317, intercept=0.47798135524562024, sse=0.4348618581019672), "
     "right_fit=LineFit(slope=0.00030518307140782236, intercept=0.8858720192425734, sse=0.00026929119326168547), "
     "total_sse=0.0034334787363167834)"),
    (2, xp.SEGMENTED_LINEAR,
     "BreakpointReport(t_star=12, method='segmented_linear', "
     "left_fit=LineFit(slope=0.05657308740294902, intercept=0.10226641461598071, sse=0.011516680562181475), "
     "right_fit=LineFit(slope=0.0060244504024678505, intercept=0.6857392257807944, sse=0.01784923949703888), "
     "total_sse=0.029365920059220355)"),
    (2, xp.KNEEDLE,
     "BreakpointReport(t_star=15, method='kneedle', "
     "left_fit=LineFit(slope=0.04750061851340912, intercept=0.14445999374849605, sse=0.02980601888110502), "
     "right_fit=LineFit(slope=0.004608446180616606, intercept=0.7300993694210165, sse=0.007145127359017073), "
     "total_sse=0.03695114624012209)"),
    (2, xp.EXP_TANGENT,
     "BreakpointReport(t_star=37, method='exp_tangent', "
     "left_fit=LineFit(slope=0.017942202236319076, intercept=0.38267208594837815, sse=0.373163356958288), "
     "right_fit=LineFit(slope=0.0010965702101231182, intercept=0.8505381358504859, sse=0.00023175403066584186), "
     "total_sse=0.003523246681474339)"),
]


@pytest.mark.parametrize("seed, method, want", _PINNED_REPORTS)
def test_breakpoint_reports_are_pinned(seed, method, want):
    rng = np.random.default_rng(seed)
    t = np.arange(1, 41)
    y = 0.9 * (1.0 - np.exp(-t / (4.0 + 2 * seed))) + rng.normal(0, 0.01, t.size)
    assert repr(xp.detect_breakpoint(_curve(t, y), method)) == want


# ---------------------------------------------------------------- quality intersection

def _quality(ts, cur, ref):
    pts = tuple(
        xp.QualityPoint(int(t), float(c), float(ref)) for t, c in zip(ts, cur)
    )
    return xp.QualityCurve(pts)


def test_regression_intersection_closed_form():
    t = np.arange(1, 41)
    cur = -7.5 + 1.0 * np.log(t)
    rep = xp.regression_intersection(_quality(t, cur, -3.58857))
    a, b = rep.log_fit
    assert a == pytest.approx(-7.5, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)
    assert rep.t_cross == pytest.approx(np.exp(3.91143), abs=1e-6)
    assert abs(rep.t_cross - 50.0) <= 0.1
    assert rep.extrapolated  # 50 lies beyond the last observed t of 40


def test_regression_intersection_inside_range_not_extrapolated():
    t = np.arange(1, 101)
    cur = -7.5 + 1.0 * np.log(t)
    rep = xp.regression_intersection(_quality(t, cur, -3.58857))
    assert not rep.extrapolated
    assert rep.t_cross == pytest.approx(49.97, abs=0.01)


def test_regression_intersection_with_nan_reference_is_extrapolated():
    t = np.arange(1, 41)
    rep = xp.regression_intersection(_quality(t, -7.5 + np.log(t), float("nan")))
    assert np.isnan(rep.t_cross)
    assert rep.position == "beyond"
    assert rep.extrapolated


@pytest.mark.parametrize(
    "n, slope",
    [
        (30, -0.5),
        (20, 0.0),  # polyfit's slope: +1.7e-17
        (30, 0.0),  # polyfit's slope: -1.4e-17
    ],
    ids=["falling", "flat-rounds-up", "flat-rounds-down"],
)
def test_regression_intersection_without_a_rise_reports_no_crossing(n, slope):
    t = np.arange(1, n + 1)
    cur = -1.0 + slope * np.log(t)
    rep = xp.regression_intersection(_quality(t, cur, -0.5))
    assert rep.position == "none"
    assert rep.t_cross is None
    assert rep.extrapolated is False
    b, a = np.polyfit(np.log(t.astype(np.float64)), cur, 1)
    assert rep.log_fit == (a, b)


def test_regression_intersection_needs_three_points():
    with pytest.raises(ValueError):
        xp.regression_intersection(_quality([1, 2], [0.1, 0.2], 1.0))


# ---------------------------------------------------------------- CSV round trips

def test_success_csv_round_trip(tmp_path):
    curve = _curve([1, 2, 3, 4], [0.0, 0.25, 0.5, 1.0], n=8)
    path = tmp_path / "success.csv"
    xp.write_success_csv(curve, path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,success_fraction,n_evaluated"
    back = xp.read_success_csv(path)
    assert back == curve


def test_quality_csv_round_trip(tmp_path):
    curve = _quality([1, 2, 3], [-1.5, -1.2, -1.0], -0.9)
    path = tmp_path / "quality.csv"
    xp.write_quality_csv(curve, path)
    assert path.read_text().splitlines()[0] == (
        "t,current_quality_mean,reference_quality_mean"
    )
    back = xp.read_quality_csv(path)
    assert back == curve


def test_csv_round_trip_of_numpy_scalars(tmp_path):
    success = xp.SuccessCurve((xp.SuccessPoint(np.int64(1), np.float64(0.25), np.intp(8)),))
    quality = xp.QualityCurve((xp.QualityPoint(np.int64(1), np.float64(-2.0), np.float64(-0.5)),))
    xp.write_success_csv(success, tmp_path / "success.csv")
    xp.write_quality_csv(quality, tmp_path / "quality.csv")
    assert (tmp_path / "success.csv").read_text().splitlines()[1] == "1,0.25,8"
    assert (tmp_path / "quality.csv").read_text().splitlines()[1] == "1,-2.0,-0.5"
    assert xp.read_success_csv(tmp_path / "success.csv") == success
    assert xp.read_quality_csv(tmp_path / "quality.csv") == quality


def test_read_success_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError, match="header a,b,c is not t,success_fraction,n_evaluated") as e:
        xp.read_success_csv(p)
    assert e.value.line_no == 1


def test_breakpoint_report_file(tmp_path):
    t = np.arange(1, 61)
    y = np.where(t < 25, 0.5 + 0.02 * (t - 25.0), 0.5 + 0.001 * (t - 25.0))
    rep = xp.detect_breakpoint(_curve(t, y))
    dest = tmp_path / "threshold.txt"
    xp.write_breakpoint_report(rep, dest)
    lines = dest.read_text().splitlines()
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == ["t_star", "method", "left_slope", "right_slope", "total_sse"]
    assert lines[0] == "t_star=25"
    assert lines[1] == "method=segmented_linear"
