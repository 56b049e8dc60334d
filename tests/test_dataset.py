import dataclasses
import io
import math
import warnings
from unittest import mock

import dataset_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldstart import dataset as ds
from coldstart.errors import EmptyResultError, ParseError, RatingRangeError
from conftest import matrix_from_dense


# ---------------------------------------------------------------- normalization

def test_identity_scheme_endpoints():
    assert ds.IDENTITY_1_TO_5.normalize(1.0) == 1.0
    assert ds.IDENTITY_1_TO_5.normalize(5.0) == 5.0
    assert ds.IDENTITY_1_TO_5.normalize(3.0) == 3.0


def test_jester_affine_endpoints():
    assert ds.JESTER_AFFINE.normalize(-10.0) == 1.0
    assert ds.JESTER_AFFINE.normalize(10.0) == 5.0
    assert ds.JESTER_AFFINE.normalize(0.0) == pytest.approx(3.0)


@pytest.mark.parametrize("raw", [-10.001, 10.001, 99.0])
def test_jester_affine_out_of_range(raw):
    with pytest.raises(RatingRangeError):
        ds.JESTER_AFFINE.normalize(raw)


@given(
    st.tuples(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
)
def test_jester_affine_monotone_into_target(pair):
    a, b = sorted(pair)
    fa = ds.JESTER_AFFINE.normalize(a)
    fb = ds.JESTER_AFFINE.normalize(b)
    assert 1.0 <= fa <= fb <= 5.0
    if b - a > 1e-9:  # strict once the gap is resolvable in float
        assert fb > fa


# ---------------------------------------------------------------- movielens parsing

ML_SAMPLE = """\
3::10::4::978300760
1::10::5::978302109
1::20::3::978301968

3::20::1::978300275
"""


def test_parse_movielens_roundtrip():
    events = ds.parse_movielens(io.StringIO(ML_SAMPLE))
    assert events.n_ratings == 4
    assert events.user_ids.tolist() == [3, 1, 1, 3]
    assert events.item_ids.tolist() == [10, 10, 20, 20]
    assert events.values.tolist() == [4.0, 5.0, 3.0, 1.0]
    assert events.timestamps.tolist() == [978300760, 978302109, 978301968, 978300275]
    m = ds.build_matrix(events)
    assert m.n_users == 2 and m.n_items == 2
    assert m.user_ids.tolist() == [1, 3]
    assert m.item_ids.tolist() == [10, 20]
    idx, vals = oracle.row(m, 0)  # user 1
    assert idx.tolist() == [0, 1]
    assert vals.tolist() == [5.0, 3.0]
    assert m.timestamps is not None
    assert oracle.row_timestamps(m, 1).tolist() == [978300760, 978300275]


@pytest.mark.parametrize(
    "line",
    ["1::2::3", "1::2::3::4::5", "x::2::3::4", "1::2::y::4", "-1::2::3::4"],
)
def test_parse_movielens_malformed(line):
    with pytest.raises(ParseError) as exc:
        ds.parse_movielens(io.StringIO(line + "\n"))
    assert exc.value.line_no == 1


def test_parse_movielens_rating_range():
    with pytest.raises(RatingRangeError):
        ds.parse_movielens(io.StringIO("1::2::6::4\n"))


# ---------------------------------------------------------------- jester parsing

def _jester_line(count, cells):
    row = [str(count)] + [str(c) for c in cells]
    return ",".join(row)


def test_parse_jester_grid():
    cells0 = [99.0] * 100
    cells0[0], cells0[5] = -10.0, 10.0
    cells1 = [99.0] * 100
    cells1[5] = 0.0
    text = "\n".join([_jester_line(2, cells0), _jester_line(1, cells1)]) + "\n"
    m = ds.parse_jester(io.StringIO(text))
    assert m.n_users == 2 and m.n_items == 100
    idx, vals = oracle.row(m, 0)
    assert idx.tolist() == [0, 5]
    np.testing.assert_allclose(vals, [1.0, 5.0])
    idx, vals = oracle.row(m, 1)
    assert idx.tolist() == [5]
    np.testing.assert_allclose(vals, [3.0])


def test_parse_jester_with_user_id_column():
    cells = [99.0] * 100
    cells[3] = 2.5
    text = "7," + _jester_line(1, cells) + "\n"
    m = ds.parse_jester(io.StringIO(text))
    assert m.user_ids.tolist() == [7]
    assert oracle.row(m, 0)[0].tolist() == [3]


def test_parse_jester_tab_delimited():
    cells = [99.0] * 100
    cells[0] = 1.0
    text = _jester_line(1, cells).replace(",", "\t") + "\n"
    m = ds.parse_jester(io.StringIO(text))
    assert m.n_ratings == 1


def test_parse_jester_count_mismatch_warns():
    cells = [99.0] * 100
    cells[0] = 1.0
    text = _jester_line(5, cells) + "\n"
    with pytest.warns(UserWarning, match="declared 5"):
        m = ds.parse_jester(io.StringIO(text))
    assert m.n_ratings == 1


def test_parse_jester_bad_field_count():
    with pytest.raises(ParseError) as exc:
        ds.parse_jester(io.StringIO("1,2,3\n"))
    assert "101 or 102" in str(exc.value)


# ---------------------------------------------------------------- build_matrix

def _events(users, items, values, timestamps=None):
    return ds.RatingEvents(
        user_ids=np.asarray(users, dtype=np.int64),
        item_ids=np.asarray(items, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        timestamps=None if timestamps is None else np.asarray(timestamps, dtype=np.int64),
    )


def test_build_matrix_dedup_keep_last():
    m = ds.build_matrix(_events([0, 0], [0, 0], [2.0, 4.0], [7, 5]))
    assert m.values.tolist() == [4.0]
    assert m.timestamps.tolist() == [5]  # arrival order decides, not the timestamp


@pytest.mark.parametrize(
    "columns, error",
    [
        (([-1], [0], [3.0]), ValueError),
        (([0], [-1], [3.0]), ValueError),
        (([0, 1], [0, 0], [3.0, 5.5]), RatingRangeError),
        (([0], [0], [np.nan]), RatingRangeError),
    ],
)
def test_events_reject_negative_ids_and_values_off_the_scale(columns, error):
    with pytest.raises(error):
        _events(*columns)


@pytest.mark.parametrize("value", [5.5, 0.0, -np.inf, np.nan])
def test_events_word_an_off_scale_value_as_normalize_does(value):
    with pytest.raises(RatingRangeError) as expected:
        ds.IDENTITY_1_TO_5.normalize(np.array([3.0, value]))
    with pytest.raises(RatingRangeError) as got:
        _events([0, 1], [0, 0], [3.0, value])
    assert str(got.value) == str(expected.value)


def test_build_matrix_rows_sorted_and_ids_compacted():
    m = ds.build_matrix(_events([9, 9, 4], [30, 10, 20], [1.0, 2.0, 3.0]))
    assert m.user_ids.tolist() == [4, 9]
    assert m.item_ids.tolist() == [10, 20, 30]
    idx, vals = oracle.row(m, 1)
    assert idx.tolist() == [0, 2]
    assert vals.tolist() == [2.0, 1.0]


def test_build_matrix_empty_is_empty():
    m = ds.build_matrix(_events([], [], []))
    assert m.n_users == 0 and m.n_ratings == 0
    assert m.timestamps is None
    # An empty log still carries its (empty) timestamp column.
    m = ds.build_matrix(ds.parse_movielens(io.StringIO("")))
    assert (m.n_users, m.n_items, m.n_ratings) == (0, 0, 0)
    assert m.timestamps.dtype == np.int64 and len(m.timestamps) == 0


# ---------------------------------------------------------------- filtering / sampling

def test_filter_min_ratings(mk_matrix):
    dense = [[1.0, 2.0, 3.0], [4.0, np.nan, np.nan], [np.nan, 5.0, 1.0]]
    m = mk_matrix(dense, np.arange(9).reshape(3, 3))
    out = ds.filter_min_ratings(m, 2)
    assert out.n_users == 2
    assert out.user_ids.tolist() == [0, 2]
    assert out.n_items == m.n_items
    assert out.indptr.dtype == np.int64 and out.indptr.tolist() == [0, 3, 5]
    assert out.indices.dtype == np.int32 and out.indices.tolist() == [0, 1, 2, 1, 2]
    assert out.values.tolist() == [1.0, 2.0, 3.0, 5.0, 1.0]
    assert out.timestamps.tolist() == [0, 1, 2, 7, 8]
    assert ds.filter_min_ratings(m, 1) is m
    with pytest.raises(EmptyResultError):
        ds.filter_min_ratings(m, 4)


def test_sample_users_reproducible(mk_matrix):
    m = mk_matrix(np.ones((30, 3)))
    a = ds.sample_users(m, 10, seed=42)
    b = ds.sample_users(m, 10, seed=42)
    assert a == b
    assert len(set(a)) == 10
    c = ds.sample_users(m, 5, seed=42, among=[1, 3, 5, 7, 9, 11])
    assert set(c) <= {1, 3, 5, 7, 9, 11}
    with pytest.raises(ValueError):
        ds.sample_users(m, 31, seed=0)


# ---------------------------------------------------------------- segment sums

@st.composite
def _segments(draw):
    """Rows of half-point values (exact squares and sums) or two-decimal Jester values.

    The rows are framed by empty ones, and hypothesis puts empty and
    one-rating rows anywhere between.
    """
    denom = draw(st.sampled_from([2.0, 100.0]))
    value = st.integers(-1000, 1000).map(lambda v: v / 100.0) if denom == 100.0 else (
        st.integers(-20, 20).map(lambda v: v / 2.0)
    )
    rows = draw(st.lists(st.lists(value, max_size=12), max_size=20))
    return denom, [[], *rows, []]


@given(_segments(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_segment_sums_match_fsum(case, squared):
    denom, rows = case
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    weights = np.array([v for r in rows for v in r], dtype=np.float64)
    if squared:
        weights = weights * weights
    got = ds.segment_sums(ds.segment_ids(indptr), weights, len(rows))
    assert got.dtype == np.float64 and got.shape == (len(rows),)
    for r, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
        terms = weights[lo:hi]
        exact = math.fsum(terms)
        if denom == 2.0:  # quarter-point squares and half-point values add exactly
            assert got[r] == exact
        else:  # a sum of n terms in order errs by under (n - 1) u sum|terms|
            assert abs(got[r] - exact) <= len(terms) * math.ulp(math.fsum(np.abs(terms)))


# ---------------------------------------------------------------- prefixes

def test_prefix_by_item_index(mk_matrix):
    m = mk_matrix([[5.0, np.nan, 3.0, 1.0]])
    idx, vals = oracle.prefix(m, 0, 2, ds.BY_ITEM_INDEX)
    assert idx.tolist() == [0, 2]
    assert vals.tolist() == [5.0, 3.0]
    idx, vals = oracle.prefix(m, 0, 99, ds.BY_ITEM_INDEX)
    assert idx.tolist() == [0, 2, 3]


def test_prefix_by_timestamp(mk_matrix):
    # item 3 was rated first, then item 0, then item 2
    m = mk_matrix(
        [[5.0, np.nan, 3.0, 1.0]],
        timestamps=[[20, 0, 30, 10]],
    )
    idx, vals = oracle.prefix(m, 0, 2, ds.BY_TIMESTAMP)
    assert idx.tolist() == [0, 3]
    assert vals.tolist() == [5.0, 1.0]


def test_prefix_by_timestamp_requires_timestamps(mk_matrix):
    m = mk_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError, match="timestamp"):
        oracle.prefix(m, 0, 1, ds.BY_TIMESTAMP)


def test_prefixes_are_nested(mk_matrix):
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((4, 12)) < 0.6, rng.uniform(1, 5, (4, 12)), np.nan)
    ts = rng.permutation(4 * 12).reshape(4, 12)
    m = mk_matrix(dense, timestamps=ts)
    for ordering in (ds.BY_ITEM_INDEX, ds.BY_TIMESTAMP):
        for u in range(m.n_users):
            prev: set[int] = set()
            for t in range(1, m.row_lengths()[u] + 1):
                idx, _ = oracle.prefix(m, u, t, ordering)
                cur = set(idx.tolist())
                assert len(cur) == t
                assert prev <= cur
                prev = cur


# ---------------------------------------------------------------- canonical export

def test_export_canonical_csv(mk_matrix):
    m = mk_matrix([[1.5, np.nan], [np.nan, 4.0]], timestamps=[[7, 0], [0, 9]])
    buf = io.StringIO()
    ds.export_canonical_csv(m, buf)
    assert buf.getvalue() == (
        "user_id,item_id,value,timestamp\n"
        "0,0,1.5,7\n"
        "1,1,4.0,9\n"
    )


def test_export_canonical_csv_without_timestamps(mk_matrix):
    m = mk_matrix([[2.0]])
    buf = io.StringIO()
    ds.export_canonical_csv(m, buf)
    assert buf.getvalue().splitlines()[1] == "0,0,2.0,"


# ---------------------------------------------------------------- parsers vs line-by-line oracles

def _outcome(parse, text, block=None, source=None):
    """(result or exception, warnings) of parsing ``text``, reading ``block`` bytes at a time.

    ``block`` replaces ``_TEXT_BLOCK``, the size of each read (in characters
    from a text stream) before the reader cuts back to the last newline; the
    default if None. ``source`` is what ``parse`` reads ``text`` from; a text
    stream if None.
    """
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
        ds, "_TEXT_BLOCK", block or ds._TEXT_BLOCK
    ):
        warnings.simplefilter("always")
        try:
            result = parse(io.StringIO(text) if source is None else source)
        except Exception as e:  # noqa: BLE001 - compared with the oracle's
            result = e
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_matrix(a, b):
    assert (a.n_users, a.n_items) == (b.n_users, b.n_items)
    for name in ("indptr", "indices", "values", "user_ids", "item_ids", "timestamps"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    assert str(got) == str(want)
    assert getattr(got, "line_no", None) == getattr(want, "line_no", None)


def _assert_same_jester(text, block, source=None):
    got, got_warnings = _outcome(ds.parse_jester, text, block, source)
    want, want_warnings = _outcome(oracle.parse_jester, text)
    assert got_warnings == want_warnings
    if isinstance(want, Exception):
        _assert_same_error(got, want)
    else:
        _assert_same_matrix(got, want)


def _assert_same_movielens(text, block, source=None):
    got, got_warnings = _outcome(ds.parse_movielens, text, block, source)
    want, want_warnings = _outcome(oracle.parse_movielens, text)
    assert got_warnings == want_warnings == []
    if isinstance(want, Exception):
        _assert_same_error(got, want)
        return
    assert got.n_ratings == len(want)
    for name, field in zip(ds._EVENT_ROW.names, oracle.Event._fields):
        column = np.asarray([getattr(e, field) for e in want], dtype=ds._EVENT_ROW[name])
        x = getattr(got, name)
        assert x.dtype == column.dtype and x.tobytes() == column.tobytes(), name
    _assert_same_matrix(ds.build_matrix(got), oracle.build_matrix(want))


def _source(kind, text, tmp_path):
    """``text`` as a parser's input: a text stream, a bytes stream or a file path."""
    if kind == "text":
        return io.StringIO(text)
    if kind == "bytes":
        return io.BytesIO(text.encode())
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    return path


_SENTINELS = ["99", "99.0", "99.00000000001"]
_RATINGS = ["-10", "10", "10.0", "-10.00", "0", "2.5", " 3.25 ", "-0.0", "7.13", "1e1"]
_BAD_CELLS = ["10.01", "-10.5", "nan", "NaN", "inf", "-inf", "1e400", "x", "", "1.2.3", "99.5"]


@st.composite
def jester_grids(draw):
    """Jester text: mostly well-formed rows, some with one corruption, some blank lines."""
    with_id = draw(st.booleans())
    delimiter = draw(st.sampled_from([",", "\t"]))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", " \t "])))
            continue
        cells = [draw(st.sampled_from(_SENTINELS)) for _ in range(3)] + ["99"] * 97
        for j in draw(st.lists(st.integers(0, 99), max_size=6, unique=True)):
            cells[j] = draw(st.one_of(st.sampled_from(_RATINGS), st.floats(-10, 10).map(repr)))
        observed = sum(abs(float(c) - 99.0) >= 1e-9 for c in cells)
        count = draw(st.sampled_from([str(observed), f"{observed}.0", f"{observed}.7"]))
        fields = [count] + cells
        if with_id:
            fields.insert(0, draw(st.sampled_from(["7", "-3", "4.9", "0"])))
        fault = draw(st.sampled_from([None] * 6 + ["cell", "count", "short", "long", "head"]))
        if fault == "cell":
            fields[-1 - draw(st.integers(0, 99))] = draw(st.sampled_from(_BAD_CELLS))
        elif fault == "count":
            fields[int(with_id)] = draw(
                st.sampled_from([str(observed + 1), str(observed - 1), "nan", "inf", "-inf", "x"])
            )
        elif fault == "short":
            fields.pop()
        elif fault == "long":
            fields.append("99")
        elif fault == "head":
            fields[0] = draw(st.sampled_from(["nan", "inf", "-inf", "x", ""]))
        lines.append(delimiter.join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


_BLOCKS = st.sampled_from([1, 2, 3, None])  # bytes per read; None: the default


@settings(max_examples=300, deadline=None)
@given(jester_grids(), _BLOCKS)
def test_parse_jester_matches_line_by_line_oracle(text, block):
    _assert_same_jester(text, block)


def _grid_line(count, cells, sep=","):
    return sep.join([str(count)] + [str(c) for c in cells])


_ROW = [3.5, -10, 10] + [99] * 97  # three rated cells


_JESTER_CASES = [
    "",
    "\n  \n\t\n",
    _grid_line(3, _ROW) + "\n   \n\n" + _grid_line(3, _ROW) + "\n",
    " \t \n" + _grid_line(3, _ROW, "\t") + "\n" + _grid_line(3, _ROW, "\t"),
    "12," + _grid_line(3, _ROW) + "\n-4," + _grid_line(3, _ROW),
    _grid_line(3, _ROW) + "\n" + _grid_line(3, _ROW[:99]),
    _grid_line(3, _ROW) + "\n" + _grid_line(3, _ROW + [99]),
    _grid_line(3, _ROW[:98]),
    "\n \r\n\t\n" + _grid_line(3, _ROW[:98]) + "\n",
    _grid_line(4, _ROW) + "\n" + _grid_line(3, _ROW[:3] + ["nan"] + _ROW[4:]),
    _grid_line(3, _ROW) + "\n" + _grid_line(4, _ROW[:3] + ["inf"] + _ROW[4:]),
    _grid_line(3, _ROW) + "\n" + _grid_line(4, _ROW[:3] + ["-inf"] + _ROW[4:]),
    _grid_line(4, _ROW[:3] + [10.5] + _ROW[4:]) + "\n" + _grid_line(3, _ROW[:99] + ["x"]),
    _grid_line(5, _ROW) + "\n" + _grid_line(2, _ROW) + "\n" + _grid_line(3, _ROW[:50]),
    _grid_line(5, _ROW) + "\n" + _grid_line("nan", _ROW) + "\n" + _grid_line(1, _ROW),
    "inf," + _grid_line(3, _ROW),
    _grid_line(3, _ROW) + "\n" + _grid_line(3, _ROW).replace(",", "\t"),
]


@pytest.mark.parametrize("text", _JESTER_CASES)
@pytest.mark.parametrize("block", [1, 2, None])
def test_parse_jester_cases_match_oracle(text, block):
    _assert_same_jester(text, block)


@pytest.mark.parametrize("text", _JESTER_CASES)
@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_parse_jester_reads_a_path_or_bytes_like_text(text, kind, tmp_path):
    _assert_same_jester(text, None, _source(kind, text, tmp_path))


@st.composite
def movielens_logs(draw):
    """MovieLens text: small id ranges (so duplicate pairs occur), some faults, blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        fields = [
            str(draw(st.integers(0, 4))),
            str(draw(st.integers(0, 4))),
            draw(st.sampled_from(["1", "2", "3.5", "4.0", "5", "1.25", " 4 "])),
            str(draw(st.integers(-5, 2**40))),
        ]
        fault = draw(st.sampled_from([None] * 8 + ["value", "id", "int", "fields", "colon"]))
        if fault == "value":
            fields[2] = draw(st.sampled_from(["0.5", "5.5", "6", "-1", "nan", "inf", "x", ""]))
        elif fault == "id":
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(["-1", "-7"]))
        elif fault == "int":
            bad = draw(st.sampled_from(["1.0", "1e3", "x", ""]))
            fields[draw(st.sampled_from([0, 1, 3]))] = bad
        elif fault == "fields":
            fields = fields[:3] if draw(st.booleans()) else fields + ["9"]
        line = "::".join(fields)
        if fault == "colon":
            line = line.replace("::", ":", 1)
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(movielens_logs(), _BLOCKS)
def test_parse_movielens_matches_line_by_line_oracle(text, block):
    _assert_same_movielens(text, block)


_MOVIELENS_CASES = [
    "",
    "\n \n\t\n",
    "1::2::3::4\n\n  \n2::2::4.5::5\n",
    "1:2::3::4\n",
    "1::2:::3::4\n",
    "1::2::3\n",
    "1::2::3::4::5\n",
    "1::2::3::4\n-1::2::3::4\n",
    "1::2::3::4\n1::-2::3::4\n1::2::x::4\n",
    "1::2::6::4\n1::2\n",
    "1::2::nan::4\n",
    "1::2::inf::4\n",
    "1::2::3::4\n1::2::5::6\n3::1::1::2\n1::2::2::9\n",
    "1 :: 2 :: 3 :: 4\n",
    "+1::2::3::-4\n",
    "1::2::3::4.0\n",
]


@pytest.mark.parametrize("text", _MOVIELENS_CASES)
@pytest.mark.parametrize("block", [1, 2, None])
def test_parse_movielens_cases_match_oracle(text, block):
    _assert_same_movielens(text, block)


@pytest.mark.parametrize("text", _MOVIELENS_CASES)
@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_parse_movielens_reads_a_path_or_bytes_like_text(text, kind, tmp_path):
    _assert_same_movielens(text, None, _source(kind, text, tmp_path))


def test_parse_jester_rejects_id_beyond_int64():
    # The line-by-line parser accepted this id, then overflowed converting it.
    text = "\n\n1e20," + _grid_line(3, _ROW) + "\n"
    with pytest.raises(ParseError, match="unparseable numeric field") as exc:
        ds.parse_jester(io.StringIO(text))
    assert exc.value.line_no == 3


@pytest.mark.parametrize("field", ["1_0", "99999999999999999999"])
def test_parse_movielens_names_line_of_number_numpy_rejects(field):
    # The line-by-line parser accepted both; the long id then overflowed in build_matrix.
    with pytest.raises(ParseError, match="unparseable field") as exc:
        ds.parse_movielens(io.StringIO(f"1::2::3::4\n\n{field}::2::3::4\n"))
    assert exc.value.line_no == 3


# Each text puts a block boundary, at some block size, inside "::", inside
# "\r\n", inside a multi-byte character (two or three UTF-8 bytes: "\xa0",
# "\u3000", "é") and just before a last line without a newline. Every block
# size from 1 to past the end is tried, so every such boundary is.
_BOUNDARY_MOVIELENS = [
    "1::2::3::4\r\n5::6::4.5::7\r\n\r\n8::9::1::10",
    "1::2::3::4\n\u3000\n5::6::2::7\n",
    "\xa01::2::3::4\xa0\n5::6::2::7",
    "1::2::3::4\n5::6::\u00e9::7\n",
    "1::2::3::4\r\n5::6::9::7\r\n",
]
_BOUNDARY_JESTER = [
    _grid_line(3, _ROW) + "\r\n\r\n" + _grid_line(3, _ROW),
    _grid_line(3, _ROW) + "\n\u3000\n" + _grid_line(2, _ROW) + "\n",
    _grid_line(3, _ROW) + "\n" + _grid_line(3, _ROW[:99] + ["\u00e9"]),
]


@pytest.mark.parametrize("kind", ["text", "bytes", "path"])
@pytest.mark.parametrize("text", _BOUNDARY_MOVIELENS, ids=range(len(_BOUNDARY_MOVIELENS)))
def test_parse_movielens_at_every_block_boundary_matches_oracle(text, kind, tmp_path):
    for block in range(1, len(text.encode()) + 2):
        _assert_same_movielens(text, block, _source(kind, text, tmp_path))


@pytest.mark.parametrize("kind", ["text", "bytes", "path"])
@pytest.mark.parametrize("text", _BOUNDARY_JESTER, ids=range(len(_BOUNDARY_JESTER)))
def test_parse_jester_at_every_block_boundary_matches_oracle(text, kind, tmp_path):
    for block in range(1, len(text.encode()) + 2):
        _assert_same_jester(text, block, _source(kind, text, tmp_path))


_CLEAN_MOVIELENS = [ML_SAMPLE, ML_SAMPLE.replace("\n", "\r\n"), ML_SAMPLE.rstrip("\n")]
_CLEAN_JESTER = [
    _grid_line(3, _ROW) + "\n\n" + _grid_line(3, _ROW),
    "\n" + "\r\n".join("12," + _grid_line(3, _ROW) for _ in range(40)) + "\r\n",
    "\n".join(_grid_line(3, _ROW, "\t") for _ in range(40)),
]


@pytest.mark.parametrize("block", [1, 7, 100, None])
def test_clean_texts_parse_without_per_line_code(block):
    # Only _nonblank_lines runs Python per line; a clean block never needs it.
    with mock.patch.object(ds, "_nonblank_lines", side_effect=AssertionError):
        for text in _CLEAN_MOVIELENS:
            _assert_same_movielens(text, block)
        for text in _CLEAN_JESTER:
            _assert_same_jester(text, block)


# ---------------------------------------------------------------- matrix structure


def _in_row_order_by_isin(indices, indptr):
    """The earlier form of validate's within-row check: every fall or repeat starts a row."""
    breaks = np.flatnonzero(np.diff(indices) <= 0) + 1
    return bool(np.all(np.isin(breaks, indptr[1:-1])))


@st.composite
def csr_layouts(draw):
    """Rows of item indices, each sorted and distinct or drawn as it comes, maybe framed by empty rows."""
    n_items = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.lists(st.integers(0, n_items - 1), max_size=5))
        rows.append(sorted(set(row)) if draw(st.booleans()) else row)
    return n_items, [*draw(st.sampled_from([[], [[]]])), *rows, *draw(st.sampled_from([[], [[]]]))]


_LAYOUT_CASES = [
    (3, [[], [0, 2], []]),  # empty first and last rows
    (4, [[2, 3], [0, 1]]),  # a drop across a row boundary: accepted
    (4, [[3], [], [3]]),  # a repeat across an empty row: accepted
    (3, [[0, 1, 1]]),  # a repeat inside a row: rejected
    (3, [[], [2, 0], []]),  # a drop inside a row: rejected
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(_LAYOUT_CASES), csr_layouts()))
def test_validate_row_order_matches_isin_form(layout):
    n_items, rows = layout
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    indices = np.asarray([i for r in rows for i in r], dtype=np.int32)
    m = ds.RatingMatrix(
        n_users=len(rows),
        n_items=n_items,
        indptr=indptr,
        indices=indices,
        values=np.ones(len(indices)),
        user_ids=np.arange(len(rows), dtype=np.int64),
        item_ids=np.arange(n_items, dtype=np.int64),
    )
    try:
        m.validate()
        accepted = True
    except ValueError as e:
        assert str(e) == "item indices must be strictly increasing within each row"
        accepted = False
    assert accepted == _in_row_order_by_isin(indices, indptr)
    assert accepted == all(r == sorted(set(r)) for r in rows)


# ---------------------------------------------------------------- matrix handoff file

_HANDOFF_INPUTS = {
    # the middle row is all 99s: a user with no ratings
    "jester": lambda: ds.parse_jester(io.StringIO("\n".join([
        _jester_line(2, [-10.0, 99.0, 2.5] + [99.0] * 97),
        _jester_line(0, [99.0] * 100),
        _jester_line(1, [99.0] * 99 + [10.0]),
    ]) + "\n")),
    "movielens": lambda: ds.build_matrix(ds.parse_movielens(io.StringIO(ML_SAMPLE))),
}


@pytest.mark.parametrize("dataset", sorted(_HANDOFF_INPUTS))
def test_written_matrix_reads_back_as_parsed(dataset, tmp_path):
    m = _HANDOFF_INPUTS[dataset]()
    path = tmp_path / "matrix.bin"
    ds.write_matrix(m, path, "key-1")
    got = ds.read_matrix(path, "key-1")
    assert (got.n_users, got.n_items) == (m.n_users, m.n_items)
    for name in ("indptr", "indices", "values", "user_ids", "item_ids", "timestamps"):
        want, have = getattr(m, name), getattr(got, name)
        if want is None:
            assert have is None, name
        else:
            assert have.dtype == want.dtype and np.array_equal(have, want), name
    assert (m.timestamps is None) == (dataset == "jester")
    assert m.row_lengths()[1] == (0 if dataset == "jester" else 2)
    # The bytes depend only on the matrix and the key, and no temporary file stays.
    again = tmp_path / "again.bin"
    ds.write_matrix(got, again, "key-1")
    assert again.read_bytes() == path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.bin", "matrix.bin"]


def test_matrix_under_another_key_or_missing_reads_as_none(tmp_path):
    path = tmp_path / "matrix.bin"
    assert ds.read_matrix(path, "key-1") is None
    ds.write_matrix(_HANDOFF_INPUTS["movielens"](), path, "key-1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ds.read_matrix(path, "key-2") is None


def test_damaged_matrix_file_warns_and_reads_as_none(tmp_path):
    path = tmp_path / "matrix.bin"
    ds.write_matrix(_HANDOFF_INPUTS["movielens"](), path, "key-1")
    whole = path.read_bytes()
    for damaged in (whole[:40], whole[: len(whole) // 2], whole[:-1], whole + b"\0", b"junk"):
        path.write_bytes(damaged)
        with pytest.warns(UserWarning, match="unreadable matrix file"):
            assert ds.read_matrix(path, "key-1") is None


def test_matrix_file_failing_validation_is_not_used(tmp_path, mk_matrix):
    m = mk_matrix(np.array([[1.0, np.nan], [np.nan, 2.0]]))
    path = tmp_path / "matrix.bin"
    # item index 2 in a 2-item space
    ds.write_matrix(dataclasses.replace(m, indices=np.array([0, 2], dtype=np.int32)), path, "k")
    with pytest.warns(UserWarning, match="item index out of range"):
        assert ds.read_matrix(path, "k") is None


# ---------------------------------------------------------------- export vs csv.writer

def _export_both(m, block):
    """The export and the csv.writer oracle's text of ``m``, ``block`` bytes per block."""
    got, want = io.StringIO(), io.StringIO()
    with mock.patch.object(ds, "_TEXT_BLOCK", block):
        ds.export_canonical_csv(m, got)
    oracle.export_canonical_csv(m, want)
    return got.getvalue(), want.getvalue()


@pytest.mark.parametrize("with_timestamps", [False, True])
def test_export_blocks_match_csv_writer(with_timestamps, mk_matrix):
    # 17-digit reprs, both zeros, and rows of 0-6 ratings that straddle the
    # block and window boundaries (one row per block at 1, 7 and 27 bytes;
    # blocks of up to 9 rows in windows of 12 and 41 rows at 100 and 333);
    # ids are not row indices.
    vals = [0.1 + 0.2, 1 / 3, 2.0, -0.0, 0.0, 4.999999999999999, 1e-300, 123456.789]
    rng = np.random.default_rng(5)
    dense = np.full((9, 8), np.nan)
    for u, n in enumerate([3, 0, 6, 5, 1, 0, 4, 2, 6]):
        cols = rng.choice(8, size=n, replace=False)
        dense[u, cols] = rng.choice(vals, size=n)
    ts = rng.integers(-10, 2**40, size=dense.shape) if with_timestamps else None
    m = mk_matrix(dense, timestamps=ts)
    m = dataclasses.replace(
        m, user_ids=np.arange(9) * 11 - 20, item_ids=np.arange(8) + 100
    )
    assert m.n_ratings == 27
    for block in (1, 7, 27, 100, 333, 65536):
        got, want = _export_both(m, block)
        assert got == want
    assert "0.30000000000000004" in got and ",-0.0," in got and ",0.0," in got


_INT64 = st.integers(-(2**63), 2**63 - 1)
_EXPORT_VALUES = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1 + 0.2, 1 / 3]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def export_matrices(draw):
    """Up to 60 ratings over up to 10 users (rows may be empty), ids anywhere in int64."""
    n_items = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sets(st.integers(0, n_items - 1)), max_size=10))
    n = sum(map(len, rows))
    stamps = draw(st.none() | st.lists(_INT64, min_size=n, max_size=n))
    return ds.RatingMatrix(
        n_users=len(rows),
        n_items=n_items,
        indptr=np.cumsum([0] + [len(r) for r in rows]),
        indices=np.asarray([i for r in rows for i in sorted(r)], dtype=np.int32),
        values=np.asarray(draw(st.lists(_EXPORT_VALUES, min_size=n, max_size=n)), dtype=float),
        user_ids=np.asarray(
            draw(st.lists(_INT64, min_size=len(rows), max_size=len(rows), unique=True)),
            dtype=np.int64,
        ),
        item_ids=np.asarray(
            draw(st.lists(_INT64, min_size=n_items, max_size=n_items, unique=True)),
            dtype=np.int64,
        ),
        timestamps=None if stamps is None else np.asarray(stamps, dtype=np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(export_matrices(), st.sampled_from([1, 7, 100, 333, ds._TEXT_BLOCK]))
def test_export_matches_csv_writer(m, block):
    m.validate()
    got, want = _export_both(m, block)
    assert got == want


@pytest.mark.parametrize("n_users", [0, 3])
def test_export_of_matrix_without_ratings_is_the_header(n_users, mk_matrix):
    m = mk_matrix(np.full((n_users, 2), np.nan))
    got, want = _export_both(m, ds._TEXT_BLOCK)
    assert got == want == "user_id,item_id,value,timestamp\n"
