import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from odtalloc.errors import (
    AllocationError,
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


# bodies of up to 4 rows of 3-4 cells: some match a header, most are malformed
_CSV_BODIES = st.lists(
    st.lists(
        st.sampled_from(["0", "1.5", "-2", "3", "1e308", "nan", "x", "", '"q,1"', "\xff"]),
        min_size=3,
        max_size=4,
    ).map(lambda cells: ",".join(cells) + "\n"),
    max_size=4,
).map(lambda rows: "".join(rows).encode())


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

    @pytest.mark.parametrize(
        "row", ['t2,2.0,3.0,"0.5', 't2,"2.0"1,3.0,0.5'], ids=["unclosed_quote", "text_after_quote"]
    )
    def test_malformed_quote_is_parse_error(self, tmp_path, row):
        # a lenient reader would load these as 0.5 and 2.01
        path = tmp_path / "tasks.csv"
        path.write_text(f"id,o1,d1,weight\nt1,0.0,1.0,0.5\n{row}\n")
        with pytest.raises(ParseError, match="malformed CSV") as err:
            load_tasks_csv(path)
        assert err.value.row == 3

    @pytest.mark.parametrize(
        "rows", ['t2,2.0,3.0,"0.5\nt3,1.0,1.0,0.5', 't2,2.0,3.0,"0.5\n\n# note\n"'],
        ids=["unclosed_before_a_row", "closed_on_a_later_line"],
    )
    def test_quoted_field_past_its_line_is_parse_error(self, tmp_path, rows):
        # one reader reads the whole file; a row may not take in the lines after it, which
        # a reader without the line count check would load as 0.5 in the second case
        path = tmp_path / "tasks.csv"
        path.write_text(f"id,o1,d1,weight\nt1,0.0,1.0,0.5\n{rows}\n")
        with pytest.raises(ParseError, match="malformed CSV") as err:
            load_tasks_csv(path)
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

    def test_odd_coordinate_count_reports_header_line(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("# generated\n\nid,o1,o2,d1,weight\nt1,0,0,1,1\n")
        with pytest.raises(DimensionMismatch, match="^line 3: "):
            load_tasks_csv(path)

    @pytest.mark.parametrize("loader", [load_agents_csv, load_tasks_csv])
    def test_header_only_rejected(self, tmp_path, loader):
        path = tmp_path / "only.csv"
        path.write_text("id,o1,d1,weight\n")
        with pytest.raises(ParseError, match="header only"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_agents_csv, load_tasks_csv])
    def test_non_utf8_is_parse_error(self, tmp_path, loader):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,o1,d1,weight\nt1,0,\xff,1\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_agents_csv, load_tasks_csv])
    def test_oversized_field_is_parse_error(self, tmp_path, loader):
        path = tmp_path / "big.csv"
        path.write_text("id,o1,d1,weight\n" + "x" * 200_000 + ",0,0,1\n")
        with pytest.raises(ParseError) as err:
            loader(path)
        assert err.value.row == 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from([b"", b"id,y1,weight\n", b"id,o1,d1,weight\n"]),
        st.binary(max_size=200) | _CSV_BODIES,
    )
    def test_arbitrary_bytes_load_or_raise_allocation_error(self, tmp_path_factory, head, body):
        path = tmp_path_factory.mktemp("fuzz") / "in.csv"
        path.write_bytes(head + body)
        for loader in (load_agents_csv, load_tasks_csv):
            try:
                loaded = loader(path)
            except AllocationError:
                continue
            assert len(loaded) >= 1

    def test_float_strips_no_more_than_str_strip(self):
        # the loader hands numeric cells to float() unstripped; that is sound only if
        # float() reads a padded cell as its stripped form, or rejects it
        for ch in map(chr, range(sys.maxunicode + 1)):
            if not ch.isspace():  # float() maps exactly these to spaces
                continue
            padded = ch + "1.5" + ch
            try:
                value = float(padded)
            except ValueError:
                assert ch in "\x1c\x1d\x1e\x1f"  # str.strip() strips them, float() does not
                continue
            assert value == float(padded.strip()) == 1.5

    def test_cells_padded_with_separators_still_load(self, tmp_path):
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\na,\x1c2.5\x1c, 1\u2028\nb\x1f,\u00a03,\x1e1\n")
        m = load_agents_csv(path)
        assert m.ids == ("a", "b")
        assert m.points.tolist() == [[2.5], [3.0]]
        assert m.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "rows, line, cell",
        [
            ("a,1_5,1\nb,\u0663,1_0\n", 2, "1_5"),  # '_' grouping, Arabic-Indic three
            ("a,0,1\nb,\u0663,1\n", 3, "\u0663"),
            ("a,0,1\nb,1,\uff11\n", 3, "\uff11"),  # fullwidth one
            ("a,0,1\nb, 2_0 ,1\n", 3, "2_0"),
        ],
    )
    def test_non_decimal_numbers_are_parse_errors(self, tmp_path, rows, line, cell):
        # float() reads all of these; the file format asks for '.'-decimal numbers
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError, match=f"not a '.'-decimal number: {cell!r}") as err:
            load_agents_csv(path)
        assert err.value.row == line

    def test_ids_may_hold_underscores_and_non_ascii(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,o1,d1,weight\ntâche_1,1e-3,2.5,1\n", encoding="utf-8")
        tasks = load_tasks_csv(path)
        assert tasks.ids == ("tâche_1",)
        assert tasks.origins.tolist() == [[1e-3]] and tasks.destinations.tolist() == [[2.5]]

    def test_first_faulty_row_is_named(self, tmp_path):
        # a bad value on line 3 comes before a short row on line 4
        path = tmp_path / "agents.csv"
        path.write_text("id,y1,weight\na,0,1\nb, x ,1\nc,1\n")
        with pytest.raises(ParseError, match="could not convert string to float: 'x'") as err:
            load_agents_csv(path)
        assert err.value.row == 3

    @pytest.mark.parametrize("loader", [load_agents_csv, load_tasks_csv])
    def test_loader_parses_the_bytes_given(self, tmp_path, loader):
        path = tmp_path / "absent.csv"
        loaded = loader(path, b"id,o1,d1,weight\nt1,0,1,1\n")
        assert len(loaded) == 1 and loaded.ids == ("t1",)
        with pytest.raises(ParseError, match="absent.csv: not UTF-8"):
            loader(path, b"id,o1,d1,weight\nt1,0,\xff,1\n")

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
