"""Deterministic, seeded generation of example instances.

Three scenario kinds:

- ``grid``: tasks with coincident origin/destination on the diagonal of the
  unit cube, agents equally spaced on the same diagonal; no randomness.
- ``gaussian_mixture``: origins, destinations, and agents drawn around
  configurable component means with a shared isotropic spread.
- ``city_box``: origins, destinations, and agents uniform in a bounding
  box, in meters directly or in lon/lat degrees projected to local meters.

Generation is a pure function of the ScenarioSpec: the task stream and the
agent stream are split off the seed independently (keys 0 and 1), and
within each stream every atom consumes a documented number of draws, so
equal ScenarioSpecs produce byte-identical CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .measures import DiscreteMeasure, TaskSet, project_lonlat
from .rng import RngStream, rng_stream

KINDS = ("gaussian_mixture", "grid", "city_box")

DEFAULT_BOX = (0.0, 0.0, 10000.0, 10000.0)  # 10 km x 10 km, meters


def _floats(value) -> np.ndarray | None:
    """A params value as a float array, or None when it holds no numbers of one shape."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    dim: int
    n_tasks: int
    n_agents: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}", field="kind")
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1", field="dim")
        if self.n_tasks < 1:
            raise InvalidSpec("n_tasks must be >= 1", field="n_tasks")
        if self.n_agents < 1:
            raise InvalidSpec("n_agents must be >= 1", field="n_agents")
        if not isinstance(self.params, dict):
            raise InvalidSpec("params must be a JSON object (a dict)", field="params")
        if self.kind == "gaussian_mixture":
            spread = _floats(self.params.get("spread", 1.0))
            if spread is None or spread.ndim != 0 or not spread > 0.0:
                raise InvalidSpec("spread must be positive", field="spread")
            counts = {}
            for key in ("means_origin", "means_destination", "means_agent"):
                means = _floats(self.params.get(key, [[0.0] * self.dim]))
                if means is None or means.shape[1:] != (self.dim,) or len(means) == 0:
                    raise InvalidSpec(f"{key} entries must be {self.dim}-vectors", field=key)
                counts[key] = len(means)
            if counts["means_origin"] != counts["means_destination"]:
                raise InvalidSpec(
                    "means_origin and means_destination need one entry per component",
                    field="means_destination",
                )
        if self.kind == "city_box":
            if self.dim != 2:
                raise InvalidSpec("city_box instances are 2-D", field="dim")
            box = _floats(self.params.get("box", DEFAULT_BOX))
            if box is None or box.shape != (4,):
                raise InvalidSpec("box must be [min0, min1, max0, max1]", field="box")
            if not (box[2] > box[0] and box[3] > box[1]):
                raise InvalidSpec("box corners must be ordered", field="box")
            units = self.params.get("units", "meters")
            if units not in ("meters", "degrees"):
                raise InvalidSpec("units must be 'meters' or 'degrees'", field="units")
            if units == "degrees" and not (
                -180.0 <= box[0] and box[2] <= 180.0 and -90.0 <= box[1] and box[3] <= 90.0
            ):
                raise InvalidSpec(
                    "a degree box must lie in lon [-180, 180] and lat [-90, 90]", field="box"
                )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "n_tasks": self.n_tasks,
            "n_agents": self.n_agents,
            "seed": self.seed,
            "params": self.params,
        }


def _grid(spec: ScenarioSpec):
    def diagonal(count: int) -> np.ndarray:
        steps = np.arange(count) / max(count - 1, 1)
        return np.repeat(steps[:, None], spec.dim, axis=1)

    task_points = diagonal(spec.n_tasks)
    agent_points = diagonal(spec.n_agents)
    return task_points, task_points.copy(), agent_points


def _pick_component(rng: RngStream, count: int) -> int:
    return min(int(rng.uniform() * count), count - 1)


def _gaussian_mixture(spec: ScenarioSpec):
    zero = [[0.0] * spec.dim]
    means_o = np.asarray(spec.params.get("means_origin", zero), dtype=float)
    means_d = np.asarray(spec.params.get("means_destination", zero), dtype=float)
    means_a = np.asarray(spec.params.get("means_agent", zero), dtype=float)
    spread = float(spec.params.get("spread", 1.0))
    root = rng_stream(spec.seed)
    task_rng = root.split(0)
    agent_rng = root.split(1)
    origins = np.empty((spec.n_tasks, spec.dim))
    destinations = np.empty((spec.n_tasks, spec.dim))
    for i in range(spec.n_tasks):
        component = _pick_component(task_rng, means_o.shape[0])
        origins[i] = means_o[component] + spread * np.array(task_rng.normals(spec.dim))
        destinations[i] = means_d[component] + spread * np.array(task_rng.normals(spec.dim))
    agents = np.empty((spec.n_agents, spec.dim))
    for j in range(spec.n_agents):
        component = _pick_component(agent_rng, means_a.shape[0])
        agents[j] = means_a[component] + spread * np.array(agent_rng.normals(spec.dim))
    return origins, destinations, agents


def _city_box(spec: ScenarioSpec):
    box = list(spec.params.get("box", DEFAULT_BOX))
    units = spec.params.get("units", "meters")
    low = np.array(box[:2], dtype=float)
    high = np.array(box[2:], dtype=float)

    root = rng_stream(spec.seed)
    task_rng = root.split(0)
    agent_rng = root.split(1)

    def draw(rng: RngStream) -> np.ndarray:
        u = rng.uniforms(2)
        return low + u * (high - low)

    origins = np.array([draw(task_rng) for _ in range(spec.n_tasks)])
    destinations = np.array([draw(task_rng) for _ in range(spec.n_tasks)])
    agents = np.array([draw(agent_rng) for _ in range(spec.n_agents)])
    if units == "degrees":
        ref = tuple(0.5 * (low + high))
        origins = project_lonlat(origins, ref)
        destinations = project_lonlat(destinations, ref)
        agents = project_lonlat(agents, ref)
    return origins, destinations, agents


def generate(spec: ScenarioSpec) -> tuple[TaskSet, DiscreteMeasure]:
    """Deterministic instance for a scenario spec; weights are uniform.

    Draw order within the task stream: per task, one uniform for the
    mixture component (gaussian_mixture only), then origin coordinates,
    then destination coordinates.  The agent stream is independent of the
    task count.
    """
    if spec.kind == "grid":
        origins, destinations, agents = _grid(spec)
    elif spec.kind == "gaussian_mixture":
        origins, destinations, agents = _gaussian_mixture(spec)
    else:
        origins, destinations, agents = _city_box(spec)
    task_ids = tuple(f"t{i}" for i in range(spec.n_tasks))
    agent_ids = tuple(f"a{j}" for j in range(spec.n_agents))
    tasks = TaskSet(origins, destinations, ids=task_ids)
    measure = DiscreteMeasure(agents, ids=agent_ids)
    return tasks, measure
