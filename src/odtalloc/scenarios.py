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
equal ScenarioSpecs produce byte-identical CSV files.  Each stream's draws
come from one vectorized ``uniforms`` call, in the documented order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .measures import _RANGE, COORD_LIMIT, DiscreteMeasure, TaskSet, project_lonlat
from .rng import RngStream, box_muller, rng_stream

PARAM_KEYS = {  # the ``params`` keys each kind reads; a spec with any other key is rejected
    "gaussian_mixture": ("spread", "means_origin", "means_destination", "means_agent"),
    "grid": (),
    "city_box": ("box", "units"),
}
KINDS = tuple(PARAM_KEYS)

DEFAULT_BOX = (0.0, 0.0, 10000.0, 10000.0)  # 10 km x 10 km, meters
# the largest |normal| ``box_muller`` gives: its 1 - u1 is at least 2^-53
_NORMAL_BOUND = math.sqrt(-2.0 * math.log(2.0**-53))


def _floats(value) -> np.ndarray | None:
    """A params value as a float array, or None when it holds no numbers of one shape.

    A string or bool anywhere in it gives None too: numpy would read "2" and
    True as numbers, and ``[0, True]`` as an int array.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                return None
        elif isinstance(item, (str, bool, np.bool_)):
            return None
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
        keys = PARAM_KEYS[self.kind]
        unread = sorted(self.params.keys() - keys, key=str)
        if unread:
            message = f"{self.kind} takes no key {unread[0]!r} (keys: {', '.join(keys) or 'none'})"
            raise InvalidSpec(message, field=unread[0])
        if self.kind == "gaussian_mixture":
            spread = _floats(self.params.get("spread", 1.0))
            if spread is None or spread.ndim != 0 or not 0.0 < spread < np.inf:
                raise InvalidSpec("spread must be a positive finite number", field="spread")
            counts, reach = {}, 0.0
            for key in ("means_origin", "means_destination", "means_agent"):
                means = _floats(self.params.get(key, [[0.0] * self.dim]))
                if means is None or means.shape[1:] != (self.dim,) or len(means) == 0:
                    raise InvalidSpec(f"{key} entries must be {self.dim}-vectors", field=key)
                if not (np.abs(means) <= COORD_LIMIT).all():
                    raise InvalidSpec(f"{key} entries must lie in {_RANGE}", field=key)
                counts[key] = len(means)
                reach = max(reach, float(np.abs(means).max()))
            # Python floats overflow to inf without numpy's warning
            if not reach + float(spread) * _NORMAL_BOUND <= COORD_LIMIT:
                raise InvalidSpec(
                    f"points up to {_NORMAL_BOUND:.2f} x spread from the means leave {_RANGE}",
                    field="spread",
                )
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
                raise InvalidSpec("box must be 4 numbers [min0, min1, max0, max1]", field="box")
            if not (np.abs(box) <= COORD_LIMIT).all():
                raise InvalidSpec(f"box corners must lie in {_RANGE}", field="box")
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

    return diagonal(spec.n_tasks), diagonal(spec.n_tasks), diagonal(spec.n_agents)


def _mixture_draws(rng: RngStream, count: int, sides: list[np.ndarray], spread: float):
    """``count`` atoms, one point per side around its component's mean, from one draw.

    Per atom: one uniform picks the component, then ``normals(dim)`` per side.
    """
    n_components, dim = sides[0].shape
    pairs = (dim + 1) // 2
    draws = rng.uniforms(count * (1 + 2 * pairs * len(sides))).reshape(count, -1)
    components = np.minimum((draws[:, 0] * n_components).astype(np.intp), n_components - 1)
    noise = np.array(box_muller(draws[:, 1:].ravel().tolist()))
    noise = noise.reshape(count, len(sides), 2 * pairs)[:, :, :dim]
    return [means[components] + spread * noise[:, k] for k, means in enumerate(sides)]


def _gaussian_mixture(spec: ScenarioSpec):
    zero = [[0.0] * spec.dim]
    means_o = np.asarray(spec.params.get("means_origin", zero), dtype=float)
    means_d = np.asarray(spec.params.get("means_destination", zero), dtype=float)
    means_a = np.asarray(spec.params.get("means_agent", zero), dtype=float)
    spread = float(spec.params.get("spread", 1.0))
    root = rng_stream(spec.seed)
    origins, destinations = _mixture_draws(root.split(0), spec.n_tasks, [means_o, means_d], spread)
    (agents,) = _mixture_draws(root.split(1), spec.n_agents, [means_a], spread)
    return origins, destinations, agents


def _city_box(spec: ScenarioSpec):
    low, high = np.array(spec.params.get("box", DEFAULT_BOX), dtype=float).reshape(2, 2)

    def draw(rng: RngStream, count: int) -> np.ndarray:
        points = low + rng.uniforms(2 * count).reshape(count, 2) * (high - low)
        if spec.params.get("units", "meters") == "degrees":
            return project_lonlat(points, 0.5 * (low + high))
        return points

    root = rng_stream(spec.seed)
    tasks = draw(root.split(0), 2 * spec.n_tasks)  # all origins, then all destinations
    return tasks[: spec.n_tasks], tasks[spec.n_tasks :], draw(root.split(1), spec.n_agents)


def generate(spec: ScenarioSpec) -> tuple[TaskSet, DiscreteMeasure]:
    """Deterministic instance for a scenario spec; weights are uniform.

    Draw order within the task stream: per task, one uniform for the
    mixture component, then ``normals(dim)`` for the origin and then for
    the destination (gaussian_mixture); or two uniforms per origin, then
    two per destination (city_box).  The agent stream is drawn alike, one
    point per agent, and is independent of the task count.
    """
    kinds = {"grid": _grid, "gaussian_mixture": _gaussian_mixture, "city_box": _city_box}
    origins, destinations, agents = kinds[spec.kind](spec)
    task_ids = tuple(f"t{i}" for i in range(spec.n_tasks))
    agent_ids = tuple(f"a{j}" for j in range(spec.n_agents))
    tasks = TaskSet(origins, destinations, ids=task_ids)
    measure = DiscreteMeasure(agents, ids=agent_ids)
    return tasks, measure
