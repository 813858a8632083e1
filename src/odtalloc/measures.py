"""Discrete probability measures for delivery tasks and transport agents.

Agents form a weighted point cloud in R^n; tasks are weighted
origin-destination pairs, so each task atom lives in R^{2n}.  Both kinds of
measure are normalized to total mass 1 on construction and are immutable
afterwards.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZero, DimensionMismatch, NegativeWeight, OutOfRange, ParseError

EARTH_RADIUS_M = 6371000.0

_SUM_TOL = 1e-12


def _checked_total(w: np.ndarray) -> float:
    """Sum of a weight vector that is non-empty, nonnegative, finite and not all zero."""
    if w.size == 0:
        raise AllZero("empty weight vector")
    if np.any(w < 0.0):
        raise NegativeWeight(f"negative weight at position {int(np.argmax(w < 0.0))}")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        total = float(w.sum())
    if not np.isfinite(total):
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
    """Weighted point cloud in R^n with total mass 1.

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
        if not np.all(np.isfinite(pts)):
            raise ParseError("non-finite coordinate in measure")
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
    """Weighted origin-destination pairs; the joint atom (o_i, d_i) lives in R^{2n}."""

    origins: np.ndarray
    destinations: np.ndarray
    weights: np.ndarray | None = None
    ids: tuple[str, ...] | None = None
    raw_total: float = field(init=False, default=1.0)

    def __post_init__(self):
        o = np.atleast_2d(np.asarray(self.origins, dtype=float))
        d = np.atleast_2d(np.asarray(self.destinations, dtype=float))
        if o.size == 0:
            raise DimensionMismatch("a task set needs at least one task")
        if o.shape != d.shape:
            raise DimensionMismatch(
                f"origins {o.shape} and destinations {d.shape} differ"
            )
        if not (np.all(np.isfinite(o)) and np.all(np.isfinite(d))):
            raise ParseError("non-finite coordinate in task set")
        w, total = _prepare_weights(self.weights, o.shape[0])
        _check_ids(self.ids, o.shape[0])
        o.setflags(write=False)
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "origins", o)
        object.__setattr__(self, "destinations", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "raw_total", total)

    @property
    def dim(self) -> int:
        return self.origins.shape[1]

    def __len__(self) -> int:
        return self.origins.shape[0]


def index_pushforward(tasks: TaskSet) -> DiscreteMeasure:
    """Push each task to its index point s_i = o_i + d_i (twice the OD midpoint).

    Weights are passed through unchanged (bit-identical), one atom per task,
    so task identity is preserved by position.  Distinct tasks may map to
    the same index point; they are then interchangeable for the reduced
    objective.
    """
    return DiscreteMeasure(
        tasks.origins + tasks.destinations, tasks.weights, ids=tasks.ids
    )


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
    for lon, lat in [(lon0, lat0)] + [tuple(p) for p in pts]:
        if not (-180.0 <= lon <= 180.0):
            raise OutOfRange(f"longitude {lon} outside [-180, 180]")
        if not (-90.0 <= lat <= 90.0):
            raise OutOfRange(f"latitude {lat} outside [-90, 90]")
    rad = math.pi / 180.0
    x = EARTH_RADIUS_M * (pts[:, 0] - lon0) * math.cos(lat0 * rad) * rad
    y = EARTH_RADIUS_M * (pts[:, 1] - lat0) * rad
    return np.column_stack([x, y])


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers; blank and '#' lines skipped."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parsed = next(csv.reader([line]))
            rows.append((lineno, [cell.strip() for cell in parsed]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _parse_floats(cells: list[str], lineno: int) -> list[float]:
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise ParseError(f"non-numeric value ({exc})", row=lineno) from None


def load_agents_csv(path) -> DiscreteMeasure:
    """Load agents from CSV with header ``id,y1,...,yn,weight``.

    Row order is preserved and ids are retained for output labeling.
    """
    rows = _read_rows(path)
    lineno, header = rows[0]
    if len(header) < 3 or header[0].lower() != "id" or header[-1].lower() != "weight":
        raise ParseError("expected header id,y1,...,yn,weight", row=lineno)
    n = len(header) - 2
    ids, pts, wts = [], [], []
    for lineno, cells in rows[1:]:
        if len(cells) != n + 2:
            raise DimensionMismatch(
                f"line {lineno}: {len(cells) - 2} coordinate+weight columns, "
                f"header declares {n}"
            )
        values = _parse_floats(cells[1:], lineno)
        ids.append(cells[0])
        pts.append(values[:-1])
        wts.append(values[-1])
    if not pts:
        raise ParseError(f"{path}: header only, no agent rows")
    return DiscreteMeasure(np.array(pts), np.array(wts), ids=tuple(ids))


def load_tasks_csv(path) -> TaskSet:
    """Load tasks from CSV with header ``id,o1..on,d1..dn,weight``."""
    rows = _read_rows(path)
    lineno, header = rows[0]
    if len(header) < 4 or header[0].lower() != "id" or header[-1].lower() != "weight":
        raise ParseError("expected header id,o1..on,d1..dn,weight", row=lineno)
    coords = len(header) - 2
    if coords % 2 != 0:
        raise DimensionMismatch(
            f"line {lineno}: origin and destination arity must be equal "
            f"(header has {coords} coordinate columns)"
        )
    n = coords // 2
    ids, origins, dests, wts = [], [], [], []
    for lineno, cells in rows[1:]:
        if len(cells) != coords + 2:
            raise DimensionMismatch(
                f"line {lineno}: {len(cells) - 2} coordinate+weight columns, "
                f"header declares {coords}"
            )
        values = _parse_floats(cells[1:], lineno)
        ids.append(cells[0])
        origins.append(values[:n])
        dests.append(values[n : 2 * n])
        wts.append(values[-1])
    if not origins:
        raise ParseError(f"{path}: header only, no task rows")
    return TaskSet(np.array(origins), np.array(dests), np.array(wts), ids=tuple(ids))


def write_agents_csv(measure: DiscreteMeasure, path) -> None:
    """Write a measure in the agents CSV format (floats as shortest round-trip)."""
    n = measure.dim
    header = ["id"] + [f"y{k + 1}" for k in range(n)] + ["weight"]
    ids = measure.ids or tuple(f"a{i}" for i in range(len(measure)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(measure)):
            writer.writerow(
                [ids[i]]
                + [repr(float(x)) for x in measure.points[i]]
                + [repr(float(measure.weights[i]))]
            )


def write_tasks_csv(tasks: TaskSet, path) -> None:
    """Write a task set in the tasks CSV format."""
    n = tasks.dim
    header = (
        ["id"]
        + [f"o{k + 1}" for k in range(n)]
        + [f"d{k + 1}" for k in range(n)]
        + ["weight"]
    )
    ids = tasks.ids or tuple(f"t{i}" for i in range(len(tasks)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(tasks)):
            writer.writerow(
                [ids[i]]
                + [repr(float(x)) for x in tasks.origins[i]]
                + [repr(float(x)) for x in tasks.destinations[i]]
                + [repr(float(tasks.weights[i]))]
            )
