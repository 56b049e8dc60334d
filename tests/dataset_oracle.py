"""Line-by-line reference versions of the parsers, ``build_matrix``, the export and ``prefix``.

These are the per-rating Python implementations that ``coldstart.dataset``
replaced with array code. The MovieLens parser here returns one ``Event``
per line, and ``build_matrix`` assembles those events with a dict. The
differential tests hold the array versions to them: the same columns,
matrix and warnings, or the same exception, message and line number. One
deliberate difference is folded in: a user id or declared count of ``inf``
in a Jester grid is a ``ParseError`` here, where the original let
``int(float("inf"))``'s OverflowError escape.

The array parsers follow ``np.loadtxt`` where it and Python's ``int()`` and
``float()`` disagree, so the generated inputs avoid those spellings: an id
or count beyond int64 and digits with ``_`` or outside ASCII are rejected
(the originals accepted them, and an id beyond int64 then overflowed), and
numbers padded with the control characters ``\x1c``-``\x1f`` are accepted.

``row`` and ``row_timestamps`` read one user's slice of a matrix, and
``prefix`` is the one-user form of the prefixes that
``experiment.prefix_replay`` walks for whole cohorts; the unit tests pin the
prefix orderings on it.
"""

from __future__ import annotations

import csv
import warnings
from collections import defaultdict
from pathlib import Path
from typing import IO, Iterator, NamedTuple

import numpy as np

from coldstart.dataset import (
    BY_ITEM_INDEX,
    IDENTITY_1_TO_5,
    JESTER_AFFINE,
    JESTER_SENTINEL,
    NormalizationScheme,
    PrefixOrdering,
    RatingMatrix,
    _SENTINEL_TOL,
)
from coldstart.errors import ParseError, RatingRangeError


def _iter_lines(source: str | Path | IO) -> Iterator[str]:
    """The lines of a path (UTF-8, universal newlines), a text stream or a bytes stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    for line in source:
        yield line.decode("utf-8") if isinstance(line, bytes) else line


def _normalize(raw: float, scheme: NormalizationScheme) -> float:
    if not (scheme.source_min <= raw <= scheme.source_max):
        raise RatingRangeError(
            f"rating {raw!r} outside [{scheme.source_min}, {scheme.source_max}] "
            f"for scheme {scheme.kind}"
        )
    span = scheme.source_max - scheme.source_min
    return (raw - scheme.source_min) / span * (5.0 - 1.0) + 1.0


class Event(NamedTuple):
    """One parsed MovieLens line."""

    user_id: int
    item_id: int
    value: float
    timestamp: int


def parse_movielens(source: str | Path | IO) -> list[Event]:
    """Parse ``user::item::rating::timestamp`` lines into rating events.

    Ratings must lie in [1, 5] and pass through unchanged. Blank lines are
    ignored; anything else malformed raises ParseError with its line number.
    """
    events: list[Event] = []
    for line_no, line in enumerate(_iter_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError(f"expected 4 '::'-separated fields, got {len(parts)}", line_no)
        try:
            user = int(parts[0])
            item = int(parts[1])
            raw = float(parts[2])
            ts = int(parts[3])
        except ValueError:
            raise ParseError(f"unparseable field in {line!r}", line_no) from None
        if user < 0 or item < 0:
            raise ParseError(f"negative id in {line!r}", line_no)
        try:
            value = _normalize(raw, IDENTITY_1_TO_5)
        except RatingRangeError as e:
            raise RatingRangeError(str(e), line_no) from None
        events.append(Event(user, item, value, ts))
    return events


def build_matrix(events: list[Event]) -> RatingMatrix:
    """Assemble events into a matrix: ids in ascending order, the last rating of a pair kept."""
    last = {(e.user_id, e.item_id): e for e in events}
    rows = defaultdict(list)
    for (user, item), e in last.items():
        rows[user].append(e)
    user_ids = sorted(rows)
    item_ids = sorted({item for _, item in last})
    column = {item: j for j, item in enumerate(item_ids)}
    indptr, indices, values, timestamps = [0], [], [], []
    for user in user_ids:
        for e in sorted(rows[user], key=lambda e: e.item_id):
            indices.append(column[e.item_id])
            values.append(e.value)
            timestamps.append(e.timestamp)
        indptr.append(len(values))
    m = RatingMatrix(
        n_users=len(user_ids),
        n_items=len(item_ids),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int32),
        values=np.asarray(values, dtype=np.float64),
        user_ids=np.asarray(user_ids, dtype=np.int64),
        item_ids=np.asarray(item_ids, dtype=np.int64),
        timestamps=np.asarray(timestamps, dtype=np.int64),
    )
    m.validate()
    return m


def _detect_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def parse_jester(source: str | Path | IO) -> RatingMatrix:
    """Parse a Jester-style rating grid into a sparse matrix.

    Every row carries a declared rating count followed by 100 rating cells
    (an optional leading user-id field is also accepted); cells equal to the
    99.0 sentinel are unrated and omitted from the sparse row, the rest are
    mapped from [-10, 10] onto [1, 5]. A declared count that disagrees with
    the observed count warns.
    """
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    user_ids: list[int] = []
    delimiter: str | None = None
    expected_fields: int | None = None

    for line_no, line in enumerate(_iter_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        if delimiter is None:
            delimiter = _detect_delimiter(line)
        fields = [f.strip() for f in line.split(delimiter)]
        if expected_fields is None:
            if len(fields) not in (101, 102):
                raise ParseError(
                    f"expected 101 or 102 fields (count [+ user id] + 100 ratings), "
                    f"got {len(fields)}",
                    line_no,
                )
            expected_fields = len(fields)
        if len(fields) != expected_fields:
            raise ParseError(
                f"expected {expected_fields} fields, got {len(fields)}", line_no
            )
        try:
            if expected_fields == 102:
                user_id = int(float(fields[0]))
                declared = int(float(fields[1]))
                cells = fields[2:]
            else:
                user_id = len(user_ids)
                declared = int(float(fields[0]))
                cells = fields[1:]
            raw_cells = [float(c) for c in cells]
        except (ValueError, OverflowError):  # OverflowError: an inf id or count; see module docstring
            raise ParseError(f"unparseable numeric field", line_no) from None

        row_start = len(values)
        for item_idx, raw in enumerate(raw_cells):
            if abs(raw - JESTER_SENTINEL) < _SENTINEL_TOL:
                continue
            try:
                values.append(_normalize(raw, JESTER_AFFINE))
            except RatingRangeError as e:
                raise RatingRangeError(str(e), line_no) from None
            indices.append(item_idx)
        observed = len(values) - row_start
        if observed != declared:
            warnings.warn(
                f"line {line_no}: declared {declared} ratings but found {observed}", stacklevel=2
            )
        user_ids.append(user_id)
        indptr.append(len(values))

    m = RatingMatrix(
        n_users=len(user_ids),
        n_items=100,
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int32),
        values=np.asarray(values, dtype=np.float64),
        user_ids=np.asarray(user_ids, dtype=np.int64),
        item_ids=np.arange(100, dtype=np.int64),
    )
    m.validate()
    return m


def export_canonical_csv(m: RatingMatrix, dest: str | Path | IO[str]) -> None:
    """Write the canonical ``user_id,item_id,value,timestamp`` export (empty timestamp if absent)."""

    def _write(fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["user_id", "item_id", "value", "timestamp"])
        for u in range(m.n_users):
            lo, hi = m.indptr[u], m.indptr[u + 1]
            uid = m.user_ids[u]
            for p in range(lo, hi):
                ts = "" if m.timestamps is None else int(m.timestamps[p])
                w.writerow([uid, m.item_ids[m.indices[p]], repr(float(m.values[p])), ts])

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(dest)


def row(m: RatingMatrix, user: int) -> tuple[np.ndarray, np.ndarray]:
    """One user's sparse row as (item_indices, values) views."""
    lo, hi = m.indptr[user], m.indptr[user + 1]
    return m.indices[lo:hi], m.values[lo:hi]


def row_timestamps(m: RatingMatrix, user: int) -> np.ndarray | None:
    """One user's rating timestamps, aligned with ``row``; None when the matrix has none."""
    if m.timestamps is None:
        return None
    return m.timestamps[m.indptr[user] : m.indptr[user + 1]]


def prefix(
    m: RatingMatrix,
    user: int,
    t: int,
    ordering: PrefixOrdering = BY_ITEM_INDEX,
) -> tuple[np.ndarray, np.ndarray]:
    """First min(t, history) ratings of a user under ``ordering``, as an item-sorted sparse row.

    ``by_timestamp`` needs the matrix's per-rating timestamps. Prefixes are
    nested: the result for t1 is a subset of the result for any t2 >= t1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    idx, vals = row(m, user)
    take = min(t, len(idx))

    if ordering.kind == "by_item_index":
        sel = np.arange(take)
    else:
        ts = row_timestamps(m, user)
        if ts is None:
            raise ValueError("by_timestamp ordering requires timestamps")
        # Tie-break on item index; np.lexsort's last key is primary.
        order = np.lexsort((idx, ts))
        sel = np.sort(order[:take])
    return idx[sel].copy(), vals[sel].copy()
