"""Rating-data ingestion: event logs and dense rating grids into one sparse matrix form.

Two source layouts are supported: MovieLens-style ``user::item::rating::timestamp``
event logs and Jester-style delimiter-separated rating grids with a 99.0
"not rated" sentinel. Both are normalized onto a common [1, 5] scale so the
clustering and quality code paths are shared.

Both parsers read the input text in blocks of about ``_PARSE_BLOCK`` bytes,
each cut after its last newline, and pass each block to one ``np.loadtxt``
call, which skips empty lines. The numeric columns are checked with array
operations, so no Python code runs per line or rating: ``parse_movielens``
returns ``RatingEvents`` columns, which ``build_matrix`` sorts and
deduplicates. Only when a call fails (a line holding only whitespace fails
it too), or a row fails a check, does a line-by-line scan of that block run,
to name the first bad line. ``export_canonical_csv`` writes a matrix back
out as text gathered from per-field tables into byte grids, with no Python
code per row. ``write_matrix`` stores a parsed matrix under a caller's key
and ``read_matrix`` gives it back only under that key, so that a later
process can skip the parse. Both go through ``write_records`` and ``read_records``,
a keyed stream of ``.npy`` records that any other handoff file can share.
"""

from __future__ import annotations

import codecs
import io
import os
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .errors import EmptyResultError, ParseError, RatingRangeError

JESTER_SENTINEL = 99.0
_SENTINEL_TOL = 1e-9

TARGET_MIN = 1.0
TARGET_MAX = 5.0


@dataclass(frozen=True)
class NormalizationScheme:
    """Affine map from a source rating range onto the common [1, 5] scale."""

    kind: str
    source_min: float
    source_max: float

    def out_of_range(self, raw: float | np.ndarray) -> np.ndarray:
        """True where a raw rating lies outside the source range; NaN counts as outside."""
        raw = np.asarray(raw)
        return ~((self.source_min <= raw) & (raw <= self.source_max))

    def normalize(self, raw: float | np.ndarray, line_no: int | None = None) -> float | np.ndarray:
        """Map a raw rating, or an array of them elementwise, onto [1, 5].

        Raises RatingRangeError naming the first value (in C order) outside
        the source range, and ``line_no`` when the caller knows the line.
        """
        bad = self.out_of_range(raw)
        if bad.any():
            first = raw if np.ndim(raw) == 0 else float(raw[bad][0])
            raise RatingRangeError(
                f"rating {first!r} outside [{self.source_min}, {self.source_max}] "
                f"for scheme {self.kind}",
                line_no,
            )
        span = self.source_max - self.source_min
        return (raw - self.source_min) / span * (TARGET_MAX - TARGET_MIN) + TARGET_MIN


IDENTITY_1_TO_5 = NormalizationScheme("identity_1_to_5", 1.0, 5.0)
JESTER_AFFINE = NormalizationScheme("jester_affine", -10.0, 10.0)


@dataclass(frozen=True, eq=False)
class RatingEvents:
    """Rating events as parallel columns, in arrival order.

    ``parse_movielens`` returns this and ``build_matrix`` reads its arrays.
    ``timestamps`` is None when the events carry none. Ids must be
    non-negative and values already on the [1, 5] scale.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        if self.n_ratings and (self.user_ids.min() < 0 or self.item_ids.min() < 0):
            raise ValueError("negative user or item id")
        IDENTITY_1_TO_5.normalize(self.values)

    @property
    def n_ratings(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class PrefixOrdering:
    """Deterministic total order over one user's ratings; ties break by ascending item."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("by_timestamp", "by_item_index"):
            raise ValueError(f"unknown ordering kind {self.kind!r}")


BY_TIMESTAMP = PrefixOrdering("by_timestamp")
BY_ITEM_INDEX = PrefixOrdering("by_item_index")


@dataclass(frozen=True, eq=False)
class RatingMatrix:
    """Sparse users x items rating matrix in CSR layout.

    ``indices``/``values`` hold the per-user rows back to back, delimited by
    ``indptr``; item indices are strictly increasing within a row, so absence
    of an index is the rated-mask. ``user_ids``/``item_ids`` map row/column
    indices back to the original identifiers. ``timestamps`` is aligned with
    ``values`` when the source carried per-rating timestamps, else None.

    Matrices built by the parsers hold values in [1, 5]; the structure itself
    permits arbitrary finite values so toy inputs can be assembled directly.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    user_ids: np.ndarray
    item_ids: np.ndarray
    timestamps: np.ndarray | None = None

    @property
    def n_ratings(self) -> int:
        return int(self.values.shape[0])

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if self.indptr.shape != (self.n_users + 1,):
            raise ValueError("indptr length does not match n_users")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.values):
            raise ValueError("indptr does not span the value array")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values length mismatch")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.n_items):
            raise ValueError("item index out of range")
        if self.timestamps is not None and len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values length mismatch")
        if len(self.user_ids) != self.n_users or len(self.item_ids) != self.n_items:
            raise ValueError("id map length mismatch")
        # Strict increase within every row (also rules out duplicate items):
        # each step must rise unless a row starts at the later of its two entries.
        if len(self.indices) > 1:
            ok = np.diff(self.indices) > 0
            starts = self.indptr[1:-1]
            ok[starts[(0 < starts) & (starts < len(self.indices))] - 1] = True
            if not ok.all():
                raise ValueError("item indices must be strictly increasing within each row")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite rating value")


def _assemble(
    lengths: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    user_ids: np.ndarray,
    item_ids: np.ndarray,
    timestamps: np.ndarray | None = None,
) -> RatingMatrix:
    """The validated RatingMatrix whose rows hold ``lengths`` of the ratings, in order."""
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    m = RatingMatrix(
        len(lengths), len(item_ids), indptr, indices, values, user_ids, item_ids, timestamps
    )
    m.validate()
    return m


# Bytes of input read per block (characters, from a text stream), before the
# block is cut back to its last newline and handed to one np.loadtxt call.
# The size bounds every buffer the parse makes and frees at any input size.
# One whole-input call freed a 10 MB grid on jester-fit, which raised glibc's
# dynamic mmap threshold, and the later k-means fit then peaked about 20 MB
# higher. At 128 KiB the largest buffer is the 4-bytes-per-character copy of
# the block that io.StringIO makes for np.loadtxt, 512 KB; a block holds
# about 230 jester-fit rows, a 190 KB grid. The parse took about as long at
# 32, 64 and 256 KiB.
_PARSE_BLOCK = 1 << 17


def _read_text(source: str | Path | IO) -> Iterator[str]:
    """The text of ``source`` in pieces of at most ``_PARSE_BLOCK`` characters.

    A path is read as UTF-8 with universal newlines. A bytes stream goes
    through an incremental UTF-8 decoder, so a piece may end inside a
    multi-byte character.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from iter(partial(fh.read, _PARSE_BLOCK), "")
        return
    decoder = codecs.getincrementaldecoder("utf-8")()
    while piece := source.read(_PARSE_BLOCK):
        yield piece if isinstance(piece, str) else decoder.decode(piece)
    decoder.decode(b"", final=True)  # a truncated character at the end raises


def _text_blocks(source: str | Path | IO) -> Iterator[tuple[str, int]]:
    """Blocks of whole lines of ``source``, each with its first line's 1-based number.

    Each block ends after the last newline of its pieces; only the last may
    end without one. Blocks that hold nothing but whitespace are skipped.
    """
    first, head = 1, []
    for piece in _read_text(source):
        cut = piece.rfind("\n") + 1
        if not cut:  # a line longer than a piece
            head.append(piece)
            continue
        text = "".join([*head, piece[:cut]])
        head = [piece[cut:]]
        if not text.isspace():
            yield text, first
        first += text.count("\n")
    text = "".join(head)
    if text and not text.isspace():
        yield text, first


def _nonblank_lines(text: str, first: int) -> tuple[list[str], np.ndarray]:
    """The stripped non-blank lines of a block and their 1-based line numbers.

    This is the one place a parse runs Python per line: only for a block
    that np.loadtxt rejects, or to name the line of a row that fails a check.
    """
    lines = [line.strip() for line in text.split("\n")]
    line_nos = np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + first
    return [s for s in lines if s], line_nos


def _first_nonblank_line(text: str, first: int) -> tuple[str, int]:
    """The first non-blank line of a block, stripped, and its 1-based line number."""
    rest = text.lstrip()
    return rest.partition("\n")[0].strip(), first + text.count("\n", 0, len(text) - len(rest))


# np.loadtxt splits on one character; a longer delimiter is mapped onto this one.
_UNIT_SEPARATOR = "\x1f"


def _load_rows(
    text: str,
    first: int,
    delimiter: str,
    dtype: np.dtype,
    message: Callable[[str], str],
) -> tuple[np.ndarray, ParseError | None]:
    """Parse the non-blank lines of a block into a 1-D array of ``dtype`` rows.

    One ``np.loadtxt`` call reads the whole block, skipping empty lines.
    Returns the rows and None when every line parses. When the call fails
    (a line that holds only whitespace fails it too), the block's stripped
    non-blank lines are tried together and then one at a time, to find the
    first one np.loadtxt rejects; the rows before it come back with that
    line's ParseError, worded by ``message``, which the caller raises unless
    its own checks fail on an earlier row.
    """

    sep = delimiter if len(delimiter) == 1 else _UNIT_SEPARATOR

    def load(part: str) -> np.ndarray:
        if sep != delimiter:  # one replace per call; "::" cannot span a newline
            part = part.replace(delimiter, sep)
        return np.loadtxt(io.StringIO(part), dtype=dtype, delimiter=sep, comments=None, ndmin=1)

    try:
        return load(text), None
    except ValueError as e:
        failure = e
    lines, line_nos = _nonblank_lines(text, first)
    try:
        return load("\n".join(lines)), None
    except ValueError:
        pass
    for r, line in enumerate(lines):
        try:
            load(line)
        except ValueError:
            rows = load("\n".join(lines[:r])) if r else np.empty(0, dtype=dtype)
            return rows, ParseError(message(line), int(line_nos[r]))
    raise failure


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


# One parsed MovieLens line; the field names are those of RatingEvents.
_EVENT_ROW = np.dtype(
    [
        ("user_ids", np.int64),
        ("item_ids", np.int64),
        ("values", np.float64),
        ("timestamps", np.int64),
    ]
)


def _movielens_line_error(line: str) -> str:
    n_fields = len(line.split("::"))
    if n_fields != 4:
        return f"expected 4 '::'-separated fields, got {n_fields}"
    return f"unparseable field in {line!r}"


def parse_movielens(source: str | Path | IO) -> RatingEvents:
    """Parse ``user::item::rating::timestamp`` lines into rating events.

    Ratings must lie in [1, 5] and pass through unchanged. Blank lines are
    ignored; anything else malformed raises ParseError with its line number.
    """
    blocks = [np.empty(0, dtype=_EVENT_ROW)]
    for text, first in _text_blocks(source):
        rows, error = _load_rows(text, first, "::", _EVENT_ROW, _movielens_line_error)
        negative = (rows["user_ids"] < 0) | (rows["item_ids"] < 0)
        r = min(_first(negative), _first(IDENTITY_1_TO_5.out_of_range(rows["values"])))
        if r < len(rows):
            lines, line_nos = _nonblank_lines(text, first)
            if negative[r]:
                raise ParseError(f"negative id in {lines[r]!r}", int(line_nos[r]))
            IDENTITY_1_TO_5.normalize(rows["values"][r : r + 1], int(line_nos[r]))
        if error is not None:
            raise error
        blocks.append(rows)
    return RatingEvents(
        **{name: np.concatenate([b[name] for b in blocks]) for name in _EVENT_ROW.names}
    )


def _detect_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def parse_jester(source: str | Path | IO) -> RatingMatrix:
    """Parse a Jester-style rating grid into a sparse matrix.

    Every row carries a declared rating count followed by 100 rating cells
    (an optional leading user-id field is also accepted); cells equal to the
    99.0 sentinel are unrated and omitted from the sparse row, the rest are
    mapped from [-10, 10] onto [1, 5]. Fields are tab-separated when the
    first non-blank line holds a tab, else comma-separated. A declared count
    that disagrees with the observed count warns.
    """
    width = 101
    user_ids, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    indices, values = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.float64)]

    def line_error(line: str) -> str:
        n_fields = len(line.split(delimiter))
        if n_fields != width:
            return f"expected {width} fields, got {n_fields}"
        return "unparseable numeric field"

    for text, first in _text_blocks(source):
        if len(counts) == 1:  # the first non-blank line fixes the layout
            line, line_no = _first_nonblank_line(text, first)
            delimiter = _detect_delimiter(line)
            width = len(line.split(delimiter))
            if width not in (101, 102):
                raise ParseError(
                    f"expected 101 or 102 fields (count [+ user id] + 100 ratings), got {width}",
                    line_no,
                )
        # One subarray field, so every block must have the first line's width.
        row = np.dtype([("fields", np.float64, (width,))])
        grid, error = _load_rows(text, first, delimiter, row, line_error)
        grid = grid["fields"]
        head, cells = grid[:, : width - 100], grid[:, width - 100 :]
        # The user id and declared count must convert to int64 (NaN and inf do not).
        bad_head = ~np.all(np.abs(head) < 2.0**63, axis=1)
        rated = ~(np.abs(cells - JESTER_SENTINEL) < _SENTINEL_TOL)
        bad_cell = np.any(JESTER_AFFINE.out_of_range(cells) & rated, axis=1)
        declared, observed = head[:, -1], rated.sum(axis=1)
        mismatch = ~bad_head & (np.trunc(declared) != observed)

        # Rows are checked in file order, so the first failing row decides.
        r = min(_first(bad_head), _first(bad_cell))
        if r < len(grid) or mismatch.any():
            line_nos = _nonblank_lines(text, first)[1]
        for w in np.flatnonzero(mismatch[:r]):
            warnings.warn(
                f"line {line_nos[w]}: declared {int(declared[w])} ratings but found {observed[w]}",
                stacklevel=2,
            )
        if r < len(grid):
            line_no = int(line_nos[r])
            if bad_head[r]:
                raise ParseError("unparseable numeric field", line_no)
            JESTER_AFFINE.normalize(cells[r, rated[r]], line_no)
        if error is not None:
            raise error

        if width == 102:
            user_ids.append(head[:, 0].astype(np.int64))
        counts.append(observed)
        indices.append(np.broadcast_to(np.arange(100, dtype=np.int32), rated.shape)[rated])
        values.append(JESTER_AFFINE.normalize(cells[rated]))

    counts = np.concatenate(counts)
    user_ids = np.concatenate(user_ids) if width == 102 else np.arange(len(counts), dtype=np.int64)
    # Rebinding frees the per-block pieces before the row offsets are made; the
    # benchmark's jester-fit pipeline then peaked about 0.9 MB lower in k-means.
    indices, values = np.concatenate(indices), np.concatenate(values)
    return _assemble(counts, indices, values, user_ids, np.arange(100, dtype=np.int64))


def build_matrix(events: RatingEvents) -> RatingMatrix:
    """Assemble the ``RatingEvents`` that ``parse_movielens`` returns into a RatingMatrix.

    Users and items are numbered in ascending id order. A (user, item) pair
    rated more than once keeps its last rating in arrival order. No events
    give a 0 x 0 matrix.
    """
    users, items, vals, tstamps = events.user_ids, events.item_ids, events.values, events.timestamps
    user_ids, u_idx = np.unique(users, return_inverse=True)
    item_ids, i_idx = np.unique(items, return_inverse=True)

    # Sort by (user, item) as one int64 key; a stable sort keeps each run of
    # a repeated pair in arrival order, and its last entry is the one kept.
    pair = u_idx * len(item_ids) + i_idx
    order = np.argsort(pair, kind="stable")
    keep = np.ones(events.n_ratings, dtype=bool)
    keep[:-1] = np.diff(pair[order]) != 0
    order = order[keep]
    u_idx, i_idx, vals = u_idx[order], i_idx[order], vals[order]
    if tstamps is not None:
        tstamps = tstamps[order]

    counts = np.bincount(u_idx, minlength=len(user_ids))
    return _assemble(counts, i_idx.astype(np.int32), vals, user_ids, item_ids, tstamps)


# Tag of the handoff file's layout and of the parse it stores: callers hash
# it into the key, so bump it whenever either changes.
MATRIX_FORMAT = "coldstart-matrix v2"
_NO_TIMESTAMPS = "none"


def write_records(path: str | Path, key: str, records: Sequence[np.ndarray]) -> None:
    """Write ``key`` and then ``records`` as ``.npy`` records, replacing ``path`` atomically.

    The bytes depend on nothing but the key and the records, and hold no
    pickle: ``np.savez`` is not used because its zip entries carry
    wall-clock times.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for record in (np.array(key), *records):
                np.save(fh, record, allow_pickle=False)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_records(path: str | Path, key: str, n: int) -> list[np.ndarray] | None:
    """The ``n`` records ``write_records`` stored at ``path`` under ``key``, else None.

    None when the file is missing (its directory too, or a file in its
    directory's place) or holds another key. A damaged file (a record that
    cannot be read, or bytes after the last one) raises ``ValueError`` or
    ``OSError``; checking what the records hold is the caller's job.
    """
    try:
        fh = open(path, "rb")
    except (FileNotFoundError, NotADirectoryError):
        return None
    with fh:
        if _text_record(np.lib.format.read_array(fh, allow_pickle=False)) != key:
            return None
        records = [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(n)]
        if fh.read(1):
            raise ValueError("trailing bytes after the last record")
    return records


def _text_record(record: np.ndarray) -> str:
    if record.ndim != 0 or record.dtype.kind != "U":
        raise ValueError(f"expected a text record, got {record.dtype} of shape {record.shape}")
    return str(record)


def write_matrix(m: RatingMatrix, path: str | Path, key: str) -> None:
    """Write ``m`` under ``key`` with ``write_records``, replacing ``path`` atomically.

    The records after the key are ``indptr``, ``indices``, ``values``,
    ``user_ids``, ``item_ids`` and the timestamps (or the string "none").
    """
    timestamps = np.array(_NO_TIMESTAMPS) if m.timestamps is None else m.timestamps
    write_records(path, key, (m.indptr, m.indices, m.values, m.user_ids, m.item_ids, timestamps))


def read_matrix(path: str | Path, key: str) -> RatingMatrix | None:
    """The matrix ``write_matrix`` stored at ``path`` under ``key``, else None.

    None when the file is missing or holds another key. A file that cannot
    be read or fails ``RatingMatrix.validate`` warns and gives None, so that
    the caller parses the input instead.
    """
    try:
        records = read_records(path, key, 6)
        if records is None:
            return None
        indptr, indices, values, user_ids, item_ids, timestamps = records
        if timestamps.dtype.kind == "U":
            if _text_record(timestamps) != _NO_TIMESTAMPS:
                raise ValueError(f"timestamp record holds {timestamps!r}")
            timestamps = None
        m = RatingMatrix(
            n_users=len(indptr) - 1,
            n_items=len(item_ids),
            indptr=indptr,
            indices=indices,
            values=values,
            user_ids=user_ids,
            item_ids=item_ids,
            timestamps=timestamps,
        )
        m.validate()
    except (OSError, ValueError, TypeError, IndexError) as e:
        warnings.warn(f"ignoring unreadable matrix file {path}: {e}", stacklevel=2)
        return None
    return m


def segment_ids(indptr: np.ndarray) -> np.ndarray:
    """Each stored entry's segment (row of a CSR matrix, column of a CSC one), in storage order."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def segment_sums(segments: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-segment sums of ``weights``, each added from 0.0 in storage order; 0.0 for an empty segment.

    ``segments`` comes from ``segment_ids``. Every row norm, per-row dot and
    per-column total is taken this way: a sum stays as exact as its own terms
    allow, where a difference of one running sum over all entries carries the
    rounding error of everything stored before the segment.
    """
    return np.bincount(segments, weights=weights, minlength=n).astype(np.float64, copy=False)


def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions of the given compressed rows, back to back, and each entry's slot in ``rows``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    out_ptr = np.concatenate([[0], np.cumsum(lens)])
    seg = segment_ids(out_ptr)
    return np.arange(len(seg)) - out_ptr[seg] + starts[seg], seg


def _subset(m: RatingMatrix, rows: np.ndarray, lengths: np.ndarray, take: np.ndarray) -> RatingMatrix:
    """``m``'s ``rows`` holding only the ratings at ``take``, ``lengths`` of them per row; items unchanged.

    ``take`` is a mask over ``m``'s ratings or their positions in row order.
    """
    timestamps = None if m.timestamps is None else m.timestamps[take]
    return _assemble(
        lengths, m.indices[take], m.values[take], m.user_ids[rows], m.item_ids, timestamps
    )


def filter_min_ratings(m: RatingMatrix, min_count: int) -> RatingMatrix:
    """Keep only users with at least ``min_count`` ratings; item space unchanged."""
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    lengths = m.row_lengths()
    keep = np.flatnonzero(lengths >= min_count)
    if len(keep) == 0:
        raise EmptyResultError(f"no user has >= {min_count} ratings")
    if len(keep) == m.n_users:
        return m
    return _subset(m, keep, lengths[keep], _gather_rows(m.indptr, keep)[0])


def sample_users(
    m: RatingMatrix, n: int, seed: int, among: list[int] | None = None
) -> list[int]:
    """Draw n distinct user indices uniformly without replacement, reproducibly.

    ``among`` restricts the population to the given user indices (e.g. the
    minimum-history-eligible subset) while keeping indices in m's space.
    """
    population = np.asarray(among if among is not None else np.arange(m.n_users))
    if n > len(population):
        raise ValueError(f"cannot sample {n} users from {len(population)}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(population), size=n, replace=False)
    return [int(population[i]) for i in picked]


# Bytes per block of canonical.csv text, counted at the widest a row can be,
# so that every buffer a block or window makes (gathered fields, the padded
# grid, its mask, the text, the window's int64 index arrays) stays within it
# for any id and value widths, below the about 0.3 MB of text per 16,384-row
# block the per-row writer freed on Jester. Buffers freed before a k-means fit
# move its peak RSS (the FOUND: entry on fit's peak memory in CHANGES.md);
# 256 KiB read 2.1 MB higher on one jester-fit seed, 0.4 MB lower on another.
_EXPORT_BLOCK = 1 << 17


class _TextTable:
    """``fmt`` of each distinct value seen so far, as NUL-padded uint8 rows sorted by bit pattern.

    Values are told apart by bit pattern, so 0.0 and -0.0 keep their own text.
    """

    def __init__(self, dtype: type, fmt: Callable[[object], str]):
        self.dtype, self.fmt = dtype, fmt
        self.bits = np.empty(0, dtype=np.int64)
        self.text = np.empty(0, dtype=np.bytes_)

    def __call__(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The table and each element's row in it, formatting only the values not seen before."""
        bits = np.ascontiguousarray(column, dtype=self.dtype).view(np.int64)
        distinct, which = np.unique(bits, return_inverse=True)
        new = np.setdiff1d(distinct, self.bits, assume_unique=True)
        if len(new):
            merged = np.concatenate([self.bits, new])
            order = np.argsort(merged)
            self.bits = merged[order]
            self.text = np.concatenate([self.text, self._format(new)])[order]
        return self._table(), np.searchsorted(self.bits, distinct)[which]

    def _table(self) -> np.ndarray:
        return self.text.view(np.uint8).reshape(len(self.text), self.text.itemsize)

    def _format(self, bits: np.ndarray) -> np.ndarray:
        return np.asarray([self.fmt(x) for x in bits.view(self.dtype).tolist()], dtype=np.bytes_)


def export_canonical_csv(m: RatingMatrix, dest: str | Path | IO[str]) -> None:
    """Write the canonical ``user_id,item_id,value,timestamp`` export (empty timestamp if absent).

    Values are written as ``repr(float)``, ids and timestamps as ``str(int)``,
    and no Python code runs per row. Each field's text, with the separator
    that follows it, is made once per distinct id or value in the matrix and
    once per distinct timestamp in each window of ``_EXPORT_BLOCK // 8``
    rows, into NUL-padded uint8 tables. Each block of at most
    ``_EXPORT_BLOCK`` bytes gathers its fields from those tables into one
    grid, which is written without its NULs.
    """
    stamped = m.timestamps is not None
    users, user_of = _TextTable(np.int64, "{},".format)(m.user_ids)
    items, item_of = _TextTable(np.int64, "{},".format)(m.item_ids)
    value_text = _TextTable(np.float64, ("{!r}," if stamped else "{!r},\n").format)
    # A float64 repr is at most 24 characters ("-2.2250738585072014e-308"), an int64 20.
    widest = users.shape[1] + items.shape[1] + (46 if stamped else 26)
    window, block = max(1, _EXPORT_BLOCK // 8), max(1, _EXPORT_BLOCK // widest)

    def _write(fh) -> None:
        fh.write("user_id,item_id,value,timestamp\n")
        for lo in range(0, m.n_ratings, window):
            hi = min(lo + window, m.n_ratings)
            rows = np.searchsorted(m.indptr, np.arange(lo, hi), side="right") - 1
            fields = [(users, user_of[rows]), (items, item_of[m.indices[lo:hi]])]
            fields.append(value_text(m.values[lo:hi]))
            if stamped:
                fields.append(_TextTable(np.int64, "{}\n".format)(m.timestamps[lo:hi]))
            for a in range(0, hi - lo, block):
                # np.take gathers whole table rows several times faster than indexing.
                grid = np.hstack([np.take(t, of[a : a + block], axis=0) for t, of in fields])
                fh.write(grid[grid != 0].tobytes().decode("ascii"))

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(dest)
