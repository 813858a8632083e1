"""Discrete probability measures for delivery tasks and transport agents.

Agents form a weighted point cloud in R^n; tasks are weighted
origin-destination pairs, so each task atom lives in R^{2n}.  Both kinds of
measure are normalized to total mass 1 on construction and are immutable
afterwards.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import AllZero, DimensionMismatch, NegativeWeight, OutOfRange, ParseError

EARTH_RADIUS_M = 6371000.0

COORD_LIMIT = 1e100
"""Largest |coordinate| a measure accepts (nan and inf are outside too).

A trip cost, and each term of its split about the agents' mean, is then at
most 24 dim L^2 for L = COORD_LIMIT, and each sum the solvers form holds at
most m + n such terms: assignment path sums, the LP's duals, the re-solve's
c - u - v, the exact lift mu.alpha + nu.beta + 2 c_hat, the certificate's
u + v - c.  For any instance that fits in memory these stay
below about 1e215, so no later step needs an overflow check.
"""
_RANGE = f"[-{COORD_LIMIT:g}, {COORD_LIMIT:g}]"

_SUM_TOL = 1e-12


def _checked_total(w: np.ndarray) -> float:
    """Sum of a weight vector that is non-empty, nonnegative, finite and not all zero."""
    if w.size == 0:
        raise AllZero("empty weight vector")
    if (w < 0.0).any():
        raise NegativeWeight(f"negative weight at position {int(np.argmax(w < 0.0))}")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        total = float(w.sum())
    if not math.isfinite(total):
        raise ParseError(f"weights sum to {total!r}: a weight is nan or inf, or the sum overflows")
    if total <= 0.0:
        raise AllZero("all weights are zero")
    return total


def _check_ids(ids, count: int) -> None:
    if ids is not None and len(ids) != count:
        raise DimensionMismatch(f"{len(ids)} ids for {count} atoms")
    repeated = [label for label, times in Counter(ids or ()).items() if times > 1]
    if repeated:
        raise ParseError(f"duplicate ids: {', '.join(map(repr, repeated))}")


def normalize(weights) -> np.ndarray:
    """Scale nonnegative weights so they sum to 1.

    Raises NegativeWeight if any entry is negative, AllZero if no entry
    is strictly positive, and ParseError if the sum is not finite.
    """
    w = np.asarray(weights, dtype=float).ravel()
    return w / _checked_total(w)


def _prepare_weights(weights, count: int) -> tuple[np.ndarray, float]:
    """Validate and normalize, keeping already-normalized vectors bit-identical."""
    if weights is None:
        return np.full(count, 1.0 / count), float(count)
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != count:
        raise DimensionMismatch(f"{w.size} weights for {count} atoms")
    total = _checked_total(w)
    if abs(total - 1.0) <= _SUM_TOL:
        return w.copy(), total
    return w / total, total


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud in R^n with total mass 1, coordinates within ``COORD_LIMIT``.

    ``ids`` are optional labels carried through from CSV ingestion;
    ``raw_total`` records the weight sum seen before normalization.
    """

    points: np.ndarray
    weights: np.ndarray | None = None
    ids: tuple[str, ...] | None = None
    raw_total: float = field(init=False, default=1.0)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise DimensionMismatch("a measure needs at least one point")
        outside = ~(np.abs(pts) <= COORD_LIMIT)
        if outside.any():
            raise OutOfRange(f"coordinate {float(pts[outside][0])!r} is outside {_RANGE}")
        w, total = _prepare_weights(self.weights, pts.shape[0])
        _check_ids(self.ids, pts.shape[0])
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "raw_total", total)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TaskSet:
    """Weighted origin-destination pairs, validated as their joint measure on R^{2n}."""

    origins: np.ndarray
    destinations: np.ndarray
    weights: np.ndarray | None = None
    ids: tuple[str, ...] | None = None
    raw_total: float = field(init=False, default=1.0)

    def __post_init__(self):
        o = np.atleast_2d(np.asarray(self.origins, dtype=float))
        d = np.atleast_2d(np.asarray(self.destinations, dtype=float))
        if o.shape != d.shape:
            raise DimensionMismatch(
                f"origins {o.shape} and destinations {d.shape} differ"
            )
        joint = DiscreteMeasure(np.hstack([o, d]), self.weights, self.ids)
        n = o.shape[1]
        object.__setattr__(self, "origins", joint.points[:, :n])
        object.__setattr__(self, "destinations", joint.points[:, n:])
        object.__setattr__(self, "weights", joint.weights)
        object.__setattr__(self, "raw_total", joint.raw_total)

    @property
    def dim(self) -> int:
        return self.origins.shape[1]

    def __len__(self) -> int:
        return self.origins.shape[0]


def project_lonlat(points, ref) -> np.ndarray:
    """Project (lon, lat) degree pairs to local planar meters.

    Equirectangular about the reference point:
        x = R (lon - lon0) cos(lat0) pi/180,  y = R (lat - lat0) pi/180
    with R = 6371000 m.  Accurate to well under 0.1% at city scale.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lon0, lat0 = float(ref[0]), float(ref[1])
    if pts.shape[1] != 2:
        raise DimensionMismatch("lon/lat points must be 2-vectors")
    pairs = np.vstack([[lon0, lat0], pts])
    outside = ~(np.abs(pairs) <= [180.0, 90.0])  # nan is outside too
    if outside.any():  # name the first offender: the reference, then the points, lon first
        row, col = divmod(int(outside.argmax()), 2)
        name, limit = (("longitude", 180), ("latitude", 90))[col]
        raise OutOfRange(f"{name} {float(pairs[row, col])} outside [-{limit}, {limit}]")
    rad = math.pi / 180.0
    x = EARTH_RADIUS_M * (pts[:, 0] - lon0) * math.cos(lat0 * rad) * rad
    y = EARTH_RADIUS_M * (pts[:, 1] - lat0) * rad
    return np.column_stack([x, y])


def _write_file(path, data: bytes) -> None:
    """Give ``path`` the contents ``data``, as ``open(path, "wb").write(data)`` would.

    The file is overwritten in place and then cut to length, never truncated
    to zero first: ext4 (``auto_da_alloc``) starts writeback when a file
    truncated to zero is closed, which makes each rewrite of a 3 KB output
    cost about 0.15-0.17 ms against 6-11 us this way (2-core Xeon VM).
    A temporary file renamed over the output costs 0.10-0.12 ms, since ext4
    does the same on a rename over a file.  Like ``open("w")`` it keeps
    the inode and the file's mode, writes through a symlink, and creates a
    missing file with mode 0o666 less the umask.  ``O_BINARY`` stops newline
    translation on Windows.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        # a pipe or a terminal reports size 0 and cannot be truncated
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_table(path, data, header_hint: str, min_columns: int, noun: str, check_width=None):
    """Rows of an ``id,<coordinates>,weight`` CSV table as (ids, coordinates, weights).

    ``data`` holds the file's bytes, or is None to read them from ``path``;
    ``path`` also names the file in error messages.  Blank and '#' lines
    are skipped.  The header must have at least ``min_columns`` columns;
    ``check_width(columns, lineno)`` may reject its coordinate count before
    any row is read.  Undecodable bytes and CSV syntax errors, such as an
    unclosed quote or text after a closing one, raise ParseError.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = []
    numbers = []  # the file's line number of each line handed to the reader

    def data_lines(lines):
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                numbers.append(lineno)
                yield line

    # newline="" splits lines as open(newline="") does: at \n, \r\n and \r only
    reader = csv.reader(data_lines(io.StringIO(text, newline="")), strict=True)
    try:
        for cells in reader:
            if reader.line_num > len(rows) + 1:
                raise csv.Error  # the row took in the next line: reported below
            rows.append((numbers[len(rows)], cells))
    except csv.Error as exc:
        if reader.line_num > len(rows) + 1:
            exc = "a quoted field runs past the end of its line"
        raise ParseError(f"malformed CSV ({exc})", row=numbers[len(rows)]) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    lineno, header = rows[0]
    header = [cell.strip() for cell in header]
    if len(header) < min_columns or header[0].lower() != "id" or header[-1].lower() != "weight":
        raise ParseError(f"expected header {header_hint}", row=lineno)
    columns = len(header) - 2
    if check_width is not None:
        check_width(columns, lineno)
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: header only, no {noun} rows")
    # One float() pass over every numeric cell, unstripped: float() strips the
    # same whitespace as str.strip() but for \x1c-\x1f, so where it reads a cell
    # it reads the stripped cell alike.  It also reads '_' and non-ASCII digits,
    # so numeric text holding them, as any other table, takes the row loop.
    values = None
    if all(len(cells) == columns + 2 for _, cells in body):
        numeric = list(chain.from_iterable(cells[1:] for _, cells in body))
        text = "".join(numeric)
        if "_" not in text and text.isascii():
            try:
                values = list(map(float, numeric))
            except ValueError:
                pass
    if values is None:  # row by row, so the first faulty row in file order is named
        values = []
        for lineno, cells in body:
            if len(cells) != columns + 2:
                raise DimensionMismatch(
                    f"line {lineno}: {len(cells) - 2} coordinate+weight columns, "
                    f"header declares {columns}"
                )
            numeric = [cell.strip() for cell in cells[1:]]
            try:
                values.extend(map(float, numeric))
            except ValueError as exc:
                raise ParseError(f"non-numeric value ({exc})", row=lineno) from None
            for cell in numeric:
                if "_" in cell or not cell.isascii():
                    raise ParseError(f"not a '.'-decimal number: {cell!r}", row=lineno)
    table = np.array(values).reshape(len(body), columns + 1)
    ids = tuple(cells[0].strip() for _, cells in body)
    return ids, np.ascontiguousarray(table[:, :-1]), table[:, -1].copy()


def _write_table(path, columns: list[str], ids, coords, weights) -> None:
    """Write an ``id,<columns>,weight`` table, floats as shortest round-trip reprs.

    An id whose first non-blank character is ``#`` is quoted, since
    ``_read_table`` skips such a line as a comment; csv writes every other
    id as it quotes any field.
    """
    rows = zip(ids, coords.tolist(), weights.tolist())
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    quoted = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC)  # the id only: the rest are floats
    writer.writerow(["id", *columns, "weight"])
    for label, row, w in rows:
        (quoted if str(label).lstrip().startswith("#") else writer).writerow([label, *row, w])
    _write_file(path, buffer.getvalue().encode("utf-8"))


def load_agents_csv(path, data: bytes | None = None) -> DiscreteMeasure:
    """Load agents from CSV with header ``id,y1,...,yn,weight``.

    Row order is preserved and ids are retained for output labeling.
    ``data``, when given, is the file's bytes, already read; ``path`` then
    only names it in error messages.
    """
    ids, points, weights = _read_table(path, data, "id,y1,...,yn,weight", 3, "agent")
    return DiscreteMeasure(points, weights, ids=ids)


def load_tasks_csv(path, data: bytes | None = None) -> TaskSet:
    """Load tasks from CSV with header ``id,o1..on,d1..dn,weight``; ``data`` as for agents."""

    def even(columns: int, lineno: int) -> None:
        if columns % 2 != 0:
            raise DimensionMismatch(
                f"line {lineno}: origin and destination arity must be equal "
                f"(header has {columns} coordinate columns)"
            )

    ids, coords, weights = _read_table(path, data, "id,o1..on,d1..dn,weight", 4, "task", even)
    n = coords.shape[1] // 2
    return TaskSet(coords[:, :n], coords[:, n:], weights, ids=ids)


def write_agents_csv(measure: DiscreteMeasure, path) -> None:
    """Write a measure in the agents CSV format (floats as shortest round-trip)."""
    columns = [f"y{k + 1}" for k in range(measure.dim)]
    ids = measure.ids or tuple(f"a{i}" for i in range(len(measure)))
    _write_table(path, columns, ids, measure.points, measure.weights)


def write_tasks_csv(tasks: TaskSet, path) -> None:
    """Write a task set in the tasks CSV format."""
    columns = [f"{end}{k + 1}" for end in "od" for k in range(tasks.dim)]
    ids = tasks.ids or tuple(f"t{i}" for i in range(len(tasks)))
    _write_table(path, columns, ids, np.hstack([tasks.origins, tasks.destinations]), tasks.weights)
