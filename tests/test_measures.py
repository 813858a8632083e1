import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from odtalloc.errors import (
    AllZero,
    DimensionMismatch,
    NegativeWeight,
    OutOfRange,
    ParseError,
)
from odtalloc.measures import (
    DiscreteMeasure,
    TaskSet,
    index_pushforward,
    load_agents_csv,
    load_tasks_csv,
    normalize,
    project_lonlat,
    write_agents_csv,
    write_tasks_csv,
)


class TestNormalize:
    def test_symmetric(self):
        assert_allclose(normalize([2, 2]), [0.5, 0.5])

    def test_identity(self):
        assert_allclose(normalize([1]), [1.0])

    def test_division_by_sum(self):
        # oracle: direct division 1/4, 3/4
        assert_allclose(normalize([1, 3]), [1 / 4, 3 / 4])

    def test_sum_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.uniform(0, 5, size=rng.integers(1, 20))
            w[0] += 1e-6
            assert abs(normalize(w).sum() - 1.0) <= 1e-12

    def test_all_zero(self):
        with pytest.raises(AllZero):
            normalize([0.0, 0.0])

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            normalize([1.0, -0.5])

    @pytest.mark.parametrize("weights", [[1.0, np.nan], [1.0, np.inf], [1e308, 1e308]])
    def test_non_finite_total(self, weights):
        with pytest.raises(ParseError):
            normalize(weights)
        with pytest.raises(ParseError):
            DiscreteMeasure([[0.0], [1.0]], weights)


class TestMeasureConstruction:
    def test_dim_and_len(self):
        m = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]])
        assert m.dim == 2 and len(m) == 2
        assert_allclose(m.weights, [0.5, 0.5])

    def test_weights_normalized(self):
        m = DiscreteMeasure([[0.0], [1.0]], [1.0, 3.0])
        assert_allclose(m.weights, [0.25, 0.75])
        assert m.raw_total == 4.0

    def test_immutable(self):
        m = DiscreteMeasure([[0.0], [1.0]])
        with pytest.raises(ValueError):
            m.points[0, 0] = 5.0

    def test_duplicate_points_allowed(self):
        m = DiscreteMeasure([[1.0], [1.0]])
        assert len(m) == 2

    def test_taskset_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TaskSet([[0.0, 1.0]], [[0.0]])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            TaskSet([[0.0]], [[1.0]], [-1.0])

    def test_duplicate_ids(self):
        with pytest.raises(ParseError, match="'a'"):
            DiscreteMeasure([[0.0], [1.0]], ids=("a", "a"))
        with pytest.raises(ParseError, match="'t'"):
            TaskSet([[0.0], [1.0]], [[1.0], [0.0]], ids=("t", "t"))


class TestIndexPushforward:
    def test_sum_of_endpoints(self):
        tasks = TaskSet([[1.0]], [[0.0]])
        assert_allclose(index_pushforward(tasks).points, [[1.0]])

    def test_zero(self):
        tasks = TaskSet([[0.0, 0.0]], [[0.0, 0.0]])
        assert_allclose(index_pushforward(tasks).points, [[0.0, 0.0]])

    def test_distinct_tasks_same_index(self):
        # two distinct tasks collapsing onto one index point
        tasks = TaskSet([[0.0, 0.0], [1.0, 1.0]], [[2.0, 0.0], [1.0, -1.0]])
        idx = index_pushforward(tasks)
        assert_allclose(idx.points, [[2.0, 0.0], [2.0, 0.0]])

    def test_weights_bitwise_preserved(self):
        tasks = TaskSet([[0.0], [1.0], [2.0]], [[1.0], [2.0], [4.0]], [1, 2, 4])
        idx = index_pushforward(tasks)
        assert idx.weights.tobytes() == tasks.weights.tobytes()
        assert len(idx) == len(tasks)


class TestProjection:
    def test_reference_maps_to_origin(self):
        out = project_lonlat([(18.0, 59.0)], (18.0, 59.0))
        assert_allclose(out, [[0.0, 0.0]])

    def test_one_degree_latitude(self):
        # oracle: R * pi / 180 meters per degree of latitude
        out = project_lonlat([(10.0, 51.0)], (10.0, 50.0))
        assert_allclose(out[0, 1], 6371000.0 * math.pi / 180.0, rtol=1e-12)
        assert out[0, 0] == 0.0

    def test_longitude_shrinks_with_cos(self):
        # oracle: factor cos(60 deg) = 0.5
        out = project_lonlat([(11.0, 60.0)], (10.0, 60.0))
        assert_allclose(out[0, 0], 0.5 * 6371000.0 * math.pi / 180.0, rtol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            project_lonlat([(200.0, 10.0)], (0.0, 0.0))
        with pytest.raises(OutOfRange):
            project_lonlat([(0.0, 91.0)], (0.0, 0.0))


class TestCsvIo:
    def test_load_agents(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\na,0.0,1.0\nb,1.0,1.0\n")
        m = load_agents_csv(path)
        assert m.dim == 1 and len(m) == 2
        assert_allclose(m.weights, [0.5, 0.5])
        assert m.ids == ("a", "b")

    def test_load_single_atom_2d(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,y2,weight\na,0,0,1\n")
        m = load_agents_csv(path)
        assert m.dim == 2 and len(m) == 1
        assert_allclose(m.points, [[0.0, 0.0]])
        assert_allclose(m.weights, [1.0])

    def test_load_normalizes(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\na,0.0,1\nb,1.0,3\n")
        assert_allclose(load_agents_csv(path).weights, [0.25, 0.75])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("# comment\nid,y1,weight\n\na,0.0,1\n# more\nb,1.0,1\n")
        assert len(load_agents_csv(path)) == 2

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\na,0.0,1\nb,oops,1\n")
        with pytest.raises(ParseError) as err:
            load_agents_csv(path)
        assert err.value.row == 3

    def test_load_tasks_single(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,o1,d1,weight\nt1,1.0,0.0,1\n")
        t = load_tasks_csv(path)
        assert_allclose(t.origins, [[1.0]])
        assert_allclose(t.destinations, [[0.0]])
        assert_allclose(t.weights, [1.0])

    def test_load_tasks_symmetric_weights(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,o1,d1,weight\nt1,0,0,2\nt2,1,1,2\n")
        assert_allclose(load_tasks_csv(path).weights, [0.5, 0.5])

    def test_row_arity_mismatch(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,o1,o2,d1,d2,weight\nt1,0,0,1,1,1\nt2,0,0,1,1,1,9\n")
        with pytest.raises(DimensionMismatch):
            load_tasks_csv(path)

    def test_odd_coordinate_count(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,o1,o2,d1,weight\nt1,0,0,1,1\n")
        with pytest.raises(DimensionMismatch):
            load_tasks_csv(path)

    def test_agents_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = DiscreteMeasure(rng.normal(size=(7, 3)), rng.uniform(0.1, 2.0, 7))
        path = tmp_path / "rt.csv"
        write_agents_csv(m, path)
        back = load_agents_csv(path)
        assert back.points.tobytes() == m.points.tobytes()
        assert np.abs(back.weights - m.weights).max() <= 1e-12

    def test_tasks_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        t = TaskSet(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), rng.uniform(0.1, 1, 5))
        path = tmp_path / "rt.csv"
        write_tasks_csv(t, path)
        back = load_tasks_csv(path)
        assert back.origins.tobytes() == t.origins.tobytes()
        assert back.destinations.tobytes() == t.destinations.tobytes()
        assert np.abs(back.weights - t.weights).max() <= 1e-12
