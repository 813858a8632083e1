import csv
import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from odtalloc.errors import InvalidSpec
from odtalloc.measures import COORD_LIMIT, project_lonlat, write_agents_csv, write_tasks_csv
from odtalloc.rng import RngStream, rng_stream
from odtalloc.scenarios import DEFAULT_BOX, ScenarioSpec, generate


def _reference_points(spec: ScenarioSpec):
    """Origins, destinations and agents drawn point by point, in the documented order."""
    root = rng_stream(spec.seed)
    task_rng, agent_rng = root.split(0), root.split(1)
    if spec.kind == "grid":
        def diagonal(count):
            return np.array([[i / max(count - 1, 1)] * spec.dim for i in range(count)])

        return diagonal(spec.n_tasks), diagonal(spec.n_tasks), diagonal(spec.n_agents)
    if spec.kind == "gaussian_mixture":
        zero = [[0.0] * spec.dim]
        means = {key: np.asarray(spec.params.get(key, zero), dtype=float)
                 for key in ("means_origin", "means_destination", "means_agent")}
        spread = float(spec.params.get("spread", 1.0))

        def atom(rng, *keys):
            count = means[keys[0]].shape[0]
            component = min(int(rng.uniform() * count), count - 1)
            return [means[key][component] + spread * np.array(rng.normals(spec.dim))
                    for key in keys]

        pairs = [atom(task_rng, "means_origin", "means_destination") for _ in range(spec.n_tasks)]
        agents = [atom(agent_rng, "means_agent")[0] for _ in range(spec.n_agents)]
        return np.array([o for o, _ in pairs]), np.array([d for _, d in pairs]), np.array(agents)
    box = spec.params.get("box", DEFAULT_BOX)
    low, high = np.array(box[:2], dtype=float), np.array(box[2:], dtype=float)

    def point(rng):
        return low + np.array([rng.uniform(), rng.uniform()]) * (high - low)

    clouds = [np.array([point(rng) for _ in range(count)])
              for rng, count in ((task_rng, spec.n_tasks), (task_rng, spec.n_tasks),
                                 (agent_rng, spec.n_agents))]
    if spec.params.get("units", "meters") == "degrees":
        ref = tuple(0.5 * (low + high))
        clouds = [project_lonlat(cloud, ref) for cloud in clouds]
    return tuple(clouds)


def _reference_table(header, ids, coords, weights) -> bytes:
    """A tasks/agents CSV written cell by cell, each float as ``repr(float(x))``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for label, row, weight in zip(ids, coords, weights):
        writer.writerow([label, *(repr(float(x)) for x in row), repr(float(weight))])
    return buffer.getvalue().encode("utf-8")


_MIXTURE_3 = {
    "means_origin": [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [-3.0, 1.0, 2.0]],
    "means_destination": [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [9.0, 9.0, 9.0]],
    "means_agent": [[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]],
    "spread": 0.7,
}
_BULK_SPECS = [
    (kind, dim, {}) for kind in ("grid", "gaussian_mixture") for dim in (1, 2, 3)
] + [
    ("gaussian_mixture", 3, _MIXTURE_3),
    ("gaussian_mixture", 2, {"means_origin": [[0, 0], [9, 9]],
                             "means_destination": [[1, 1], [3, 3]], "spread": 2.5}),
    ("city_box", 2, {}),
    ("city_box", 2, {"box": [-0.1, 51.4, 0.1, 51.6], "units": "degrees"}),
]


class TestRngStream:
    def test_same_seed_same_stream(self):
        a = rng_stream(12345)
        b = rng_stream(12345)
        assert_array_equal(a.uniforms(1000), b.uniforms(1000), strict=True)

    def test_different_seeds_differ_early(self):
        a = rng_stream(1).uniforms(10)
        b = rng_stream(2).uniforms(10)
        assert a.tolist() != b.tolist()

    def test_uniform_range(self):
        rng = rng_stream(9)
        draws = rng.uniforms(10000)
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_counter_based_reproducibility(self):
        # draw k depends only on (seed, k), so a fresh stream replays a prefix
        first = rng_stream(77)
        prefix = [first.next_u64() for _ in range(5)]
        again = RngStream(77)
        assert [again.next_u64() for _ in range(5)] == prefix

    def test_box_muller_moments(self):
        rng = rng_stream(2024)
        draws = np.array(rng.normals(1_000_000))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_normals_consumption_aligned(self):
        # normals(2) consumes exactly two uniforms; parallel streams agree
        a = rng_stream(5)
        b = rng_stream(5)
        pair = a.normals(2)
        u1, u2 = b.uniform(), b.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        assert pair[0] == r * math.cos(2.0 * math.pi * u2)
        assert pair[1] == r * math.sin(2.0 * math.pi * u2)

    @pytest.mark.parametrize("counter", [0, 7])
    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 1000])
    def test_uniforms_match_per_draw_sequence(self, k, counter):
        batched = RngStream(2024, counter)
        single = RngStream(2024, counter)
        draws = batched.uniforms(k)
        assert draws.dtype == np.float64 and draws.shape == (k,)
        assert draws.tolist() == [single.uniform() for _ in range(k)]
        assert batched.counter == single.counter == counter + k

    def test_split_streams_are_independent_of_parent_state(self):
        parent = rng_stream(31)
        early_child = parent.split(4)
        parent.uniforms(100)
        late_child = parent.split(4)
        assert_array_equal(early_child.uniforms(10), late_child.uniforms(10), strict=True)


class TestBulkGeneration:
    @pytest.mark.parametrize("kind, dim, params", _BULK_SPECS)
    @pytest.mark.parametrize("n_tasks, n_agents", [(1, 1), (2, 31), (32, 33), (33, 32), (40, 7)])
    def test_generate_matches_point_by_point_reference(self, kind, dim, params, n_tasks, n_agents):
        # 32 points draw 64 uniforms per table: sizes on both sides of it
        for seed in (1, 123):
            spec = ScenarioSpec(kind, dim, n_tasks, n_agents, seed=seed, params=params)
            tasks, agents = generate(spec)
            origins, destinations, points = _reference_points(spec)
            assert tasks.origins.tobytes() == origins.tobytes()
            assert tasks.destinations.tobytes() == destinations.tobytes()
            assert agents.points.tobytes() == points.tobytes()

    @pytest.mark.parametrize("kind, dim, params", _BULK_SPECS)
    def test_csv_bytes_match_cell_by_cell_writer(self, tmp_path, kind, dim, params):
        tasks, agents = generate(ScenarioSpec(kind, dim, 33, 31, seed=7, params=params))
        write_tasks_csv(tasks, tmp_path / "tasks.csv")
        write_agents_csv(agents, tmp_path / "agents.csv")
        task_header = ["id"] + [f"{end}{k + 1}" for end in "od" for k in range(dim)] + ["weight"]
        coords = np.hstack([tasks.origins, tasks.destinations])
        assert (tmp_path / "tasks.csv").read_bytes() == _reference_table(
            task_header, tasks.ids, coords, tasks.weights
        )
        agent_header = ["id"] + [f"y{k + 1}" for k in range(dim)] + ["weight"]
        assert (tmp_path / "agents.csv").read_bytes() == _reference_table(
            agent_header, agents.ids, agents.points, agents.weights
        )


class TestGridScenario:
    def test_canonical_two_by_two(self):
        tasks, agents = generate(ScenarioSpec("grid", 1, 2, 2, seed=1))
        assert_allclose(tasks.origins, [[0.0], [1.0]])
        assert_allclose(tasks.destinations, [[0.0], [1.0]])
        assert_allclose(agents.points, [[0.0], [1.0]])
        assert_allclose(tasks.weights, [0.5, 0.5])

    def test_seed_ignored_for_grid(self):
        a = generate(ScenarioSpec("grid", 2, 3, 4, seed=1))
        b = generate(ScenarioSpec("grid", 2, 3, 4, seed=99))
        assert np.array_equal(a[0].origins, b[0].origins)


class TestGaussianScenario:
    def test_deterministic(self):
        spec = ScenarioSpec("gaussian_mixture", 2, 6, 5, seed=8)
        t1, a1 = generate(spec)
        t2, a2 = generate(spec)
        assert np.array_equal(t1.origins, t2.origins)
        assert np.array_equal(t1.destinations, t2.destinations)
        assert np.array_equal(a1.points, a2.points)

    def test_csv_bytes_identical(self, tmp_path):
        spec = ScenarioSpec("gaussian_mixture", 2, 6, 5, seed=8)
        for run in ("one", "two"):
            tasks, agents = generate(spec)
            write_tasks_csv(tasks, tmp_path / f"t_{run}.csv")
            write_agents_csv(agents, tmp_path / f"a_{run}.csv")
        assert (tmp_path / "t_one.csv").read_bytes() == (tmp_path / "t_two.csv").read_bytes()
        assert (tmp_path / "a_one.csv").read_bytes() == (tmp_path / "a_two.csv").read_bytes()

    def test_agent_stream_independent_of_task_count(self):
        few = generate(ScenarioSpec("gaussian_mixture", 2, 2, 5, seed=3))
        many = generate(ScenarioSpec("gaussian_mixture", 2, 30, 5, seed=3))
        assert np.array_equal(few[1].points, many[1].points)

    def test_component_means_used(self):
        params = {
            "means_origin": [[100.0, 100.0]],
            "means_destination": [[100.0, 100.0]],
            "means_agent": [[-100.0, -100.0]],
            "spread": 0.5,
        }
        tasks, agents = generate(
            ScenarioSpec("gaussian_mixture", 2, 20, 20, seed=0, params=params)
        )
        assert np.abs(tasks.origins - 100.0).max() < 5.0
        assert np.abs(agents.points + 100.0).max() < 5.0

    def test_uniform_weights(self):
        tasks, agents = generate(ScenarioSpec("gaussian_mixture", 1, 7, 4, seed=2))
        assert_allclose(tasks.weights, np.full(7, 1.0 / 7.0))
        assert_allclose(agents.weights, np.full(4, 0.25))

    def test_bad_spread(self):
        with pytest.raises(InvalidSpec) as err:
            ScenarioSpec("gaussian_mixture", 1, 2, 2, params={"spread": 0.0})
        assert err.value.field == "spread"


class TestCityBoxScenario:
    def test_meters_containment(self):
        tasks, agents = generate(ScenarioSpec("city_box", 2, 30, 30, seed=4))
        lo = np.array(DEFAULT_BOX[:2])
        hi = np.array(DEFAULT_BOX[2:])
        for cloud in (tasks.origins, tasks.destinations, agents.points):
            assert np.all(cloud >= lo) and np.all(cloud <= hi)
        assert len(tasks) == 30 and len(agents) == 30

    def test_degrees_projected_containment(self):
        box = [18.0, 59.28, 18.18, 59.37]
        spec = ScenarioSpec(
            "city_box", 2, 25, 25, seed=4, params={"box": box, "units": "degrees"}
        )
        tasks, agents = generate(spec)
        ref = (0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3]))
        corners = project_lonlat(
            [(box[0], box[1]), (box[2], box[3])], ref
        )
        for cloud in (tasks.origins, tasks.destinations, agents.points):
            assert np.all(cloud >= corners[0]) and np.all(cloud <= corners[1])

    def test_box_at_the_coordinate_limit(self):
        box = [-COORD_LIMIT, -COORD_LIMIT, COORD_LIMIT, COORD_LIMIT]
        tasks, agents = generate(ScenarioSpec("city_box", 2, 20, 20, seed=4, params={"box": box}))
        for cloud in (tasks.origins, tasks.destinations, agents.points):
            assert np.all(np.abs(cloud) <= COORD_LIMIT)

    def test_unordered_box_rejected(self):
        with pytest.raises(InvalidSpec) as err:
            ScenarioSpec("city_box", 2, 2, 2, params={"box": [1.0, 0.0, 0.0, 1.0]})
        assert err.value.field == "box"

    def test_requires_dim_two(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("city_box", 3, 2, 2)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("gaussian_mixture", [1], "params"),
            ("gaussian_mixture", {"spread": "x"}, "spread"),
            ("gaussian_mixture", {"spread": 10**400}, "spread"),
            ("gaussian_mixture", {"spread": float("inf")}, "spread"),
            ("gaussian_mixture", {"spread": 1e308}, "spread"),
            ("gaussian_mixture", {"means_agent": [[9e99, 0]], "spread": 1e99}, "spread"),
            ("gaussian_mixture", {"means_agent": [[float("nan"), 0]]}, "means_agent"),
            ("gaussian_mixture", {"means_agent": [1]}, "means_agent"),
            ("gaussian_mixture", {"means_origin": []}, "means_origin"),
            ("gaussian_mixture", {"spread": "2"}, "spread"),
            ("gaussian_mixture", {"spread": True}, "spread"),
            (
                "gaussian_mixture",
                {"means_origin": [["1", "2"]], "means_destination": [[0, 0]]},
                "means_origin",
            ),
            ("city_box", {"box": [0, 0, "a", 1]}, "box"),
            ("city_box", {"box": ["0", "0", "10", "10"]}, "box"),
            ("city_box", {"box": [0, 0, True, 1]}, "box"),
            ("city_box", {"box": [0, 0, np.True_, 1]}, "box"),
            ("city_box", {"box": np.array([0, 0, 1, 1], dtype=bool)}, "box"),
            ("city_box", {"box": np.array(["0", "0", "1", "1"])}, "box"),
            ("city_box", {"box": 5}, "box"),
            ("city_box", {"box": [0, 0, float("inf"), 1]}, "box"),
            ("city_box", {"box": [-1e308, 0, 1e308, 1]}, "box"),
            ("city_box", {"box": [0, -1e308, 1, 1e308]}, "box"),
            ("city_box", {"box": [0, 0, 200, 10], "units": "degrees"}, "box"),
            ("city_box", {"box": [0, 0, 170, 95], "units": "degrees"}, "box"),
            ("city_box", {"box": [-181, -90, 0, 0], "units": "degrees"}, "box"),
            (
                "gaussian_mixture",
                {"means_origin": [[0, 0], [1, 1]], "means_destination": [[0, 0]]},
                "means_destination",
            ),
            # a key the kind does not read, before any value is checked; the first in order
            ("grid", {"box": [0, 0, 1, 1]}, "box"),
            ("city_box", {"spread": 1.0, "means_agent": [[0, 0]], "box": 5}, "means_agent"),
            ("gaussian_mixture", {"units": "meters", "spread": "x"}, "units"),
        ],
    )
    def test_malformed_params_name_the_field(self, kind, params, field):
        with pytest.raises(InvalidSpec) as err:
            ScenarioSpec(kind, 2, 2, 2, params=params)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian_mixture", {"spread": np.float64(0.5), "means_agent": np.array([[1, 2]]),
                                  "means_origin": [np.array([0.5, 1.0])]}),
            ("city_box", {"box": np.array([0, 0, 10, 10], dtype=np.int32)}),
            ("city_box", {"box": (0, 0, np.float32(10), 10)}),
        ],
    )
    def test_numpy_numbers_generate_as_their_lists(self, kind, params):
        as_lists = {key: np.asarray(value).tolist() for key, value in params.items()}
        (tasks, agents), (tasks_ref, agents_ref) = (
            generate(ScenarioSpec(kind, 2, 3, 2, seed=4, params=p)) for p in (params, as_lists)
        )
        assert_array_equal(tasks.origins, tasks_ref.origins)
        assert_array_equal(tasks.destinations, tasks_ref.destinations)
        assert_array_equal(agents.points, agents_ref.points)

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec) as err:
            ScenarioSpec("hexagon", 2, 2, 2)
        assert err.value.field == "kind"

    def test_counts(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("grid", 1, 0, 2)
        with pytest.raises(InvalidSpec):
            ScenarioSpec("grid", 1, 2, 0)

    def test_json_round_trip_fields(self):
        spec = ScenarioSpec("grid", 1, 2, 2, seed=5)
        payload = spec.to_json()
        assert payload == {
            "kind": "grid",
            "dim": 1,
            "n_tasks": 2,
            "n_agents": 2,
            "seed": 5,
            "params": {},
        }
