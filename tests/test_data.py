import csv
import gc
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from random_db import random_database

from tabletalk import schema
from tabletalk.data import (
    Database,
    RankSpec,
    Row,
    follow_join,
    load_data,
    rank_rows,
    select_tuples,
)
from tabletalk.errors import (
    DuplicateTable,
    HeaderMismatch,
    MalformedDocument,
    NotUtf8,
    RaggedRow,
    TabletalkError,
    UnknownAttribute,
    UnknownRelation,
    WrongRelation,
)

# Minimal slice: one director and their three films.
WOODY_SLICE = {
    "DIRECTOR": 'id,name,bdate,blocation\n1,Woody Allen,"December 1, 1935","Brooklyn, New York, USA"\n',
    "DIRECTED": "mid,did\n1,1\n2,1\n3,1\n",
    "MOVIE": "id,title,year\n1,Match Point,2005\n2,Melinda and Melinda,2004\n3,Anything Else,2003\n",
    "CAST": "mid,aid,role\n",
    "ACTOR": "id,name\n",
    "GENRE": "mid,genre\n",
}


@pytest.fixture()
def woody_db(movie_graph):
    return load_data(movie_graph, WOODY_SLICE)


class TestLoad:
    def test_three_movie_slice(self, woody_db):
        assert len(woody_db.table("MOVIE")) == 3
        assert woody_db.table("DIRECTOR")[0].cell("name") == "Woody Allen"

    def test_empty_csv_with_header(self, woody_db):
        assert woody_db.table("ACTOR") == []

    def test_an_empty_file_loads_as_an_empty_table(self, movie_graph, tmp_path):
        for path in (FIXTURES / "movies").glob("*.csv"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "ACTOR.csv").write_bytes(b"")
        db = load_data(movie_graph, tmp_path)
        assert db.table("ACTOR") == []
        assert load_data(movie_graph, dict(WOODY_SLICE, ACTOR="")).table("ACTOR") == []

    def test_a_relation_with_no_file_loads_as_an_empty_table(self, movie_graph, tmp_path):
        (tmp_path / "MOVIE.csv").write_text(WOODY_SLICE["MOVIE"])
        db = load_data(movie_graph, tmp_path)
        assert sorted(db.tables) == sorted(rel.name for rel in movie_graph.relations)
        assert len(db.table("MOVIE")) == 3
        assert all(db.table(rel) == [] for rel in db.tables if rel != "MOVIE")

    def test_files_other_than_csv_are_ignored(self, movie_graph, tmp_path):
        (tmp_path / "MOVIE.csv").write_text(WOODY_SLICE["MOVIE"])
        (tmp_path / "ACTOR.txt").write_text("not,a,table\n")
        (tmp_path / "SIDECHANNEL.json").write_text("{}")
        (tmp_path / "README").write_text("notes")
        db = load_data(movie_graph, tmp_path)
        assert len(db.table("MOVIE")) == 3
        assert db.table("ACTOR") == []

    def test_ragged_row_names_line(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,name\n1,Brad Pitt\n2\n"
        with pytest.raises(RaggedRow, match="line 3"):
            load_data(movie_graph, bad)

    def test_ragged_row_after_blank_lines_names_its_file_line(self, movie_graph):
        # Guard: blank lines count towards the line number, as they always did.
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,name\n1,Brad Pitt\n\n\n2,Morgan Freeman\n\n3\n4,X\n"
        with pytest.raises(RaggedRow, match="^ACTOR: row at line 7 has 1 cells, expected 2$"):
            load_data(movie_graph, bad)

    def test_header_mismatch(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,fullname\n"
        message = r"^ACTOR: header \['id', 'fullname'\] does not match declared attributes \['id', 'name'\]$"
        with pytest.raises(HeaderMismatch, match=message):
            load_data(movie_graph, bad)

    def test_each_file_resolves_its_relation_once(self, movie_graph, monkeypatch):
        names = []
        find = schema.SchemaGraph.find_relation
        monkeypatch.setattr(
            schema.SchemaGraph, "find_relation", lambda graph, name: names.append(name) or find(graph, name)
        )
        load_data(movie_graph, FIXTURES / "movies")
        assert sorted(names) == sorted(path.stem for path in (FIXTURES / "movies").glob("*.csv"))

    def test_unknown_relation_file(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["SIDECHANNEL"] = "x\n1\n"
        with pytest.raises(UnknownRelation):
            load_data(movie_graph, bad)

    def test_column_typing(self, movie_db):
        movie = movie_db.table("MOVIE")[0]
        assert movie.cell("year") == 2005
        assert movie.cell("title") == "Match Point"

    def test_empty_cell_is_null(self, movie_graph):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = "id,name\n1,\n"
        db = load_data(movie_graph, slice_)
        assert db.table("ACTOR")[0].cell("name") is None

    def test_deterministic(self, movie_graph):
        one = load_data(movie_graph, WOODY_SLICE)
        two = load_data(movie_graph, WOODY_SLICE)
        assert one == two


def _scan(db, edge, row):
    """Reference for follow_join: compare every row of the other side."""
    if row.relation == edge.from_relation:
        own, other, key = edge.from_key, edge.to_relation, edge.to_key
    else:
        own, other, key = edge.to_key, edge.from_relation, edge.from_key
    value = row.values[own]
    return [] if value is None else [r for r in db.table(other) if r.values[key] == value]


def _null_every_third_key(graph, db):
    """A copy of db whose join-key cells are null in every third row."""
    keys = {(e.from_relation, e.from_key) for e in graph.joins}
    keys |= {(e.to_relation, e.to_key) for e in graph.joins}
    tables = {}
    for name, rows in db.tables.items():
        tables[name] = [
            Row(name, {a: None if i % 3 == 1 and (name, a) in keys else v
                       for a, v in row.values.items()})
            for i, row in enumerate(rows)
        ]
    return Database(tables)


def _databases(graph, db):
    yield db
    for seed in range(6):
        rand = random_database(graph, seed, 25)
        yield rand
        yield _null_every_third_key(graph, rand)


class TestFollowJoin:
    def _edge(self, graph, frm, to):
        return next(
            e
            for e in graph.joins
            if e.from_relation == frm and e.to_relation == to
        )

    def test_woody_reaches_three_movies(self, movie_graph, woody_db):
        woody = woody_db.table("DIRECTOR")[0]
        credit_edge = self._edge(movie_graph, "DIRECTED", "DIRECTOR")
        movie_edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        credits = follow_join(woody_db, credit_edge, woody)
        movies = [
            m for credit in credits for m in follow_join(woody_db, movie_edge, credit)
        ]
        assert [m.cell("title") for m in movies] == [
            "Match Point",
            "Melinda and Melinda",
            "Anything Else",
        ]

    def test_null_key_joins_with_nothing(self, movie_graph, woody_db):
        edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        ghost = Row("DIRECTED", {"mid": None, "did": 1})
        assert follow_join(woody_db, edge, ghost) == []

    def test_no_match_is_empty(self, movie_graph, woody_db):
        edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        stray = Row("DIRECTED", {"mid": 999, "did": 1})
        assert follow_join(woody_db, edge, stray) == []

    def test_wrong_relation(self, movie_graph, woody_db):
        edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        actor = Row("ACTOR", {"id": 1, "name": "X"})
        with pytest.raises(WrongRelation):
            follow_join(woody_db, edge, actor)

    def test_results_satisfy_key_equality(self, movie_graph, movie_db):
        for edge in movie_graph.joins:
            table = movie_db.table(edge.from_relation)
            other = movie_db.table(edge.to_relation)
            for row in table:
                for match in follow_join(movie_db, edge, row):
                    assert match in other
                    assert match.cell(edge.to_key) == row.cell(edge.from_key)

    @pytest.mark.parametrize("which", ["movie", "emp"])
    def test_matches_a_scan_on_every_edge_and_row(self, which, request):
        graph = request.getfixturevalue(f"{which}_graph")
        probed = 0
        for db in _databases(graph, request.getfixturevalue(f"{which}_db")):
            for edge in graph.joins:
                for side in {edge.from_relation, edge.to_relation}:
                    own = edge.from_key if side == edge.from_relation else edge.to_key
                    blank = {a.name: None for a in graph.attributes_of(side)}
                    # Matched, unmatched and null keys, probing in either order.
                    probes = db.table(side) + [
                        Row(side, blank), Row(side, dict(blank, **{own: 987654}))
                    ]
                    for row in probes + probes[::-1]:
                        want = _scan(db, edge, row)
                        got = follow_join(db, edge, row)
                        assert [id(r) for r in got] == [id(r) for r in want]
                        probed += bool(want)
                outsider = next(
                    (r.name for r in graph.relations
                     if r.name not in (edge.from_relation, edge.to_relation)),
                    None,
                )
                if outsider is not None:
                    row = Row(outsider, {a.name: 1 for a in graph.attributes_of(outsider)})
                    with pytest.raises(WrongRelation):
                        follow_join(db, edge, row)
        assert probed > 100  # the comparison is not vacuous

    def test_returned_list_is_fresh(self, movie_graph, woody_db):
        edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        credit = woody_db.table("DIRECTED")[0]
        first = follow_join(woody_db, edge, credit)
        first.clear()
        first.append(credit)
        assert follow_join(woody_db, edge, credit) == [woody_db.table("MOVIE")[0]]

    def test_replaced_table_gets_a_new_index(self, movie_graph):
        db = load_data(movie_graph, WOODY_SLICE)
        edge = self._edge(movie_graph, "DIRECTED", "MOVIE")
        credit = db.table("DIRECTED")[0]
        assert [m.cell("title") for m in follow_join(db, edge, credit)] == ["Match Point"]
        db.tables["MOVIE"] = [
            Row("MOVIE", {"id": 1, "title": "Scoop", "year": 2006}),
            Row("MOVIE", {"id": 1, "title": "Cassandra's Dream", "year": 2007}),
        ]
        titles = [m.cell("title") for m in follow_join(db, edge, credit)]
        assert titles == ["Scoop", "Cassandra's Dream"]


FIXTURE_DIRS = {"movie": "movies", "split": "split", "emp": "emp"}


def _tied_movies():
    """Ties on year (2005, 2003) and null years, spread through the table."""
    years = [2005, None, 2003, 2005, None, 2004, 2003, 2005, None]
    return Database({
        "MOVIE": [
            Row("MOVIE", {"id": i, "title": f"T{i}" if i % 4 else None, "year": y})
            for i, y in enumerate(years)
        ]
    })


def _stable_sort(rows, attribute, descending):
    """Reference order: non-null cells sorted stably, then nulls, each in load order."""
    present = [r for r in rows if r.values[attribute] is not None]
    missing = [r for r in rows if r.values[attribute] is None]
    return sorted(present, key=lambda r: r.values[attribute], reverse=descending) + missing


class TestSelectTuples:
    def test_budget_two_year_descending(self, movie_db):
        rows = select_tuples(movie_db, "MOVIE", 2, RankSpec("year", descending=True))
        assert [r.cell("title") for r in rows] == ["Match Point", "Melinda and Melinda"]

    def test_budget_covers_whole_table(self, movie_db):
        rows = select_tuples(movie_db, "MOVIE", 99, RankSpec.load_order())
        assert len(rows) == len(movie_db.table("MOVIE"))

    def test_budget_one_ascending_over_three_rows(self, movie_graph, woody_db):
        # Independent oracle: full sort of the three-row slice.
        table = woody_db.table("MOVIE")
        expected = sorted(table, key=lambda r: r.cell("year"))[0]
        rows = select_tuples(woody_db, "MOVIE", 1, RankSpec("year"))
        assert rows == [expected]
        assert rows[0].cell("title") == "Anything Else"

    def test_prefix_of_full_sort(self, movie_db):
        tied = _tied_movies()
        for db in (movie_db, tied):
            rows = db.table("MOVIE")
            for descending in (False, True):
                rank = RankSpec("year", descending)
                full = _stable_sort(rows, "year", descending)
                for budget in range(0, len(rows) + 2):
                    picked = select_tuples(db, "MOVIE", budget, rank)
                    assert [id(r) for r in picked] == [id(r) for r in full[:budget]]
                    assert rank_rows(rows, rank, budget) == picked
        first_five = select_tuples(tied, "MOVIE", 5, RankSpec("year"))
        assert [r.cell("id") for r in first_five] == [2, 6, 5, 0, 3]

    @pytest.mark.parametrize("rank", [None, RankSpec.load_order(), RankSpec("year")])
    def test_negative_budget_selects_nothing(self, movie_db, rank):
        assert select_tuples(movie_db, "MOVIE", -1, rank) == []
        assert rank_rows(movie_db.table("MOVIE"), rank, -2) == []

    def test_unknown_attribute(self, movie_db):
        with pytest.raises(UnknownAttribute):
            select_tuples(movie_db, "MOVIE", 1, RankSpec("box_office"))

    @pytest.mark.parametrize("which", ["movie", "split", "emp", "tied"])
    def test_warm_order_is_the_full_stable_sort(self, which, request):
        if which == "tied":
            db = _tied_movies()
        else:
            db = load_data(
                request.getfixturevalue(f"{which}_graph"), FIXTURES / FIXTURE_DIRS[which]
            )
        ranked = 0
        for relation, rows in db.tables.items():
            for attribute in rows[0].values if rows else ():
                for descending in (False, True):
                    rank = RankSpec(attribute, descending)
                    want = [id(r) for r in _stable_sort(rows, attribute, descending)]
                    for budget in range(0, len(rows) + 2):
                        select_tuples(db, relation, budget, rank)
                        warm = select_tuples(db, relation, budget, rank)
                        assert [id(r) for r in warm] == want[:budget]
                        ranked += bool(warm)
        assert ranked > 10

    def test_replaced_table_gets_a_new_order(self, movie_graph):
        db = load_data(movie_graph, WOODY_SLICE)
        rank = RankSpec("year")
        assert select_tuples(db, "MOVIE", 1, rank)[0].cell("title") == "Anything Else"
        db.tables["MOVIE"] = [
            Row("MOVIE", {"id": 4, "title": "Scoop", "year": 2006}),
            Row("MOVIE", {"id": 5, "title": "Sleeper", "year": 1973}),
        ]
        titles = [r.cell("title") for r in select_tuples(db, "MOVIE", 3, rank)]
        assert titles == ["Sleeper", "Scoop"]

    def test_returned_list_is_fresh(self, movie_graph):
        db = load_data(movie_graph, WOODY_SLICE)
        rank = RankSpec("year", descending=True)
        first = select_tuples(db, "MOVIE", 3, rank)
        want = list(first)
        first.clear()
        first.append(db.table("DIRECTOR")[0])
        assert select_tuples(db, "MOVIE", 3, rank) == want
        assert [r.cell("year") for r in want] == [2005, 2004, 2003]

    def test_missing_attribute_raises_every_time_and_is_not_cached(self, movie_graph):
        db = load_data(movie_graph, WOODY_SLICE)
        for budget in (1, 0, 1):
            with pytest.raises(UnknownAttribute):
                select_tuples(db, "MOVIE", budget, RankSpec("box_office"))
        assert db._orders == {}

    def test_order_field_is_outside_init_repr_and_equality(self, movie_graph):
        with pytest.raises(TypeError):
            Database(_orders={})
        db = load_data(movie_graph, WOODY_SLICE)
        twin = load_data(movie_graph, WOODY_SLICE)
        select_tuples(db, "MOVIE", 1, RankSpec("year"))
        assert db._orders and not twin._orders
        assert db == twin
        assert "_orders" not in repr(db)


class TestColumnTyping:
    @pytest.mark.parametrize(
        "cell", ["1_000", " 7 ", "\u0663", "\u00b2", "+", "-", "+-1", "1-2", "7+", "1.0", "0x1"]
    )
    def test_only_signed_ascii_digits_make_an_integer_column(self, movie_graph, cell):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = f'id,name\n"{cell}",X\n'
        assert load_data(movie_graph, slice_).table("ACTOR")[0].cell("id") == cell

    def test_signed_digits_are_integers(self, movie_graph):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = "id,name\n-3,X\n+4,Y\n007,Z\n"
        ids = [r.cell("id") for r in load_data(movie_graph, slice_).table("ACTOR")]
        assert ids == [-3, 4, 7]

    @pytest.mark.parametrize("cells", [["12", "x"], ["-3", "x"], ["-3", "4-"], ["5", "+"]])
    def test_one_text_cell_keeps_the_column_text(self, movie_graph, cells):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = "id,name\n" + "".join(f"{c},N\n" for c in cells)
        ids = [r.cell("id") for r in load_data(movie_graph, slice_).table("ACTOR")]
        assert ids == cells

    def test_blank_cells_are_null_in_an_integer_column(self, movie_graph):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = "id,name\n,X\n-2,Y\n"
        ids = [r.cell("id") for r in load_data(movie_graph, slice_).table("ACTOR")]
        assert ids == [None, -2]


class TestSharedCells:
    """Equal cells of a loaded column are one object, typed once."""

    CAST = "mid,aid,role\n" + "".join(
        f"{1000 + i % 3},{5000 + i},{'Lead' if i % 2 else 'Extra'}\n" for i in range(30)
    )
    GENRE = "mid,genre\n" + "".join(
        f"{1000 + i % 4},{('drama', 'comedy', 'crime')[i % 3]}\n" for i in range(24)
    )

    @pytest.mark.parametrize("layout", ["mapping", "directory"])
    def test_a_repeated_value_is_one_object(self, movie_graph, tmp_path, layout):
        tables = dict(WOODY_SLICE, CAST=self.CAST, GENRE=self.GENRE)
        source = tables
        if layout == "directory":
            source = tmp_path
            for name, text in tables.items():
                (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        db = load_data(movie_graph, source)
        for relation, attribute, kind in [
            ("CAST", "mid", int), ("CAST", "role", str), ("GENRE", "genre", str),
            ("GENRE", "mid", int), ("CAST", "aid", int),
        ]:
            column = [row.cell(attribute) for row in db.table(relation)]
            assert {type(cell) for cell in column} == {kind}
            assert len({id(cell) for cell in column}) == len(set(column))
        assert len(set(row.cell("mid") for row in db.table("CAST"))) == 3

    def test_nulls_and_typing_follow_the_distinct_cells(self, movie_graph):
        source = dict(WOODY_SLICE)
        source["CAST"] = "mid,aid,role\n1000,,x\n,7,\n1000,,x\n007,7,\n"
        rows = [row.cells for row in load_data(movie_graph, source).table("CAST")]
        assert rows == [(1000, None, "x"), (None, 7, None), (1000, None, "x"), (7, 7, None)]
        assert rows[0][0] is rows[2][0] and rows[0][2] is rows[2][2]


def _copy_movies(tmp_path):
    data = tmp_path / "movies"
    data.mkdir()
    for path in (FIXTURES / "movies").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    return data


class TestEncoding:
    """Data and schema files are UTF-8, with or without a byte-order mark."""

    BOM = b"\xef\xbb\xbf"

    def test_a_byte_order_mark_is_skipped(self, movie_graph, movie_db, tmp_path):
        data = _copy_movies(tmp_path)
        for path in data.iterdir():
            path.write_bytes(self.BOM + path.read_bytes())
        assert load_data(movie_graph, data) == movie_db
        source = dict(WOODY_SLICE, MOVIE=self.BOM + WOODY_SLICE["MOVIE"].encode())
        assert load_data(movie_graph, source) == load_data(movie_graph, WOODY_SLICE)

    @pytest.mark.parametrize("bom", [b"", BOM])
    def test_a_latin1_data_file_names_file_and_offset(self, movie_graph, tmp_path, bom):
        data = _copy_movies(tmp_path)
        raw = bom + b"id,name\n1,Beyonc\xe9\n"
        (data / "ACTOR.csv").write_bytes(raw)
        path = str(data / "ACTOR.csv")
        message = f"{path}: not UTF-8 at byte offset {raw.index(0xE9)} (invalid continuation byte)"
        with pytest.raises(NotUtf8) as caught:
            load_data(movie_graph, data)
        assert str(caught.value) == message
        with pytest.raises(NotUtf8, match=f"^ACTOR: not UTF-8 at byte offset {raw.index(0xE9)} "):
            load_data(movie_graph, dict(WOODY_SLICE, ACTOR=raw))

    def test_a_latin1_schema_names_file_and_offset(self, tmp_path):
        raw = b'{"relations": [], "note": "caf\xe9"}'
        path = tmp_path / "latin1.schema.json"
        path.write_bytes(raw)
        at = raw.index(0xE9)
        with pytest.raises(MalformedDocument) as caught:
            schema.load_schema(path)
        assert str(caught.value) == f"{path}: not UTF-8 at byte offset {at} (invalid continuation byte)"
        with pytest.raises(MalformedDocument, match=f"not UTF-8 at byte offset {at + 3} "):
            schema.load_schema(self.BOM + raw)

    def test_a_schema_with_a_byte_order_mark_loads(self, movie_graph, tmp_path):
        raw = self.BOM + (FIXTURES / "movies.schema.json").read_bytes()
        path = tmp_path / "bom.schema.json"
        path.write_bytes(raw)
        assert schema.load_schema(path) == movie_graph
        assert schema.load_schema(raw) == movie_graph

    def test_a_schema_string_with_a_byte_order_mark_loads(self, movie_graph):
        text = (FIXTURES / "movies.schema.json").read_text(encoding="utf-8")
        assert schema.load_schema("\ufeff" + text) == movie_graph
        assert schema.load_schema("\ufeff  " + text) == movie_graph

    def test_a_file_reads_any_line_end_as_a_newline(self, movie_graph, tmp_path):
        # Guard: as in text mode, "\r" and "\r\n" end lines, also inside quotes.
        data = _copy_movies(tmp_path)
        (data / "ACTOR.csv").write_bytes(b'id,name\r1,"Brad\r\nPitt"\r\n2,X\r')
        cells = [row.cells for row in load_data(movie_graph, data).table("ACTOR")]
        assert cells == [(1, "Brad\nPitt"), (2, "X")]


class TestLineEnds:
    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    def test_mapping_text_reads_any_line_end_as_a_newline(self, movie_graph, encode):
        text = 'id,name\n1,"Brad\nPitt"\n2,X\n'
        tables = []
        for end in ("\n", "\r\n", "\r"):
            actor = text.replace("\n", end)
            source = dict(WOODY_SLICE, ACTOR=actor.encode() if encode else actor)
            tables.append(load_data(movie_graph, source).table("ACTOR"))
        assert [row.cells for row in tables[0]] == [(1, "Brad\nPitt"), (2, "X")]
        assert tables[1] == tables[0] and tables[2] == tables[0]


class TestMalformedCsv:
    """A record the csv module rejects is an input error that names the
    file or mapping key and the line."""

    ACTOR = "id,name\n1,X\n2," + "x" * 140_000 + "\n"
    MESSAGE = "line 3: field larger than field limit (131072)"

    def test_an_overlong_cell_names_file_and_line(self, movie_graph, tmp_path):
        limit = csv.field_size_limit()
        data = _copy_movies(tmp_path)
        (data / "ACTOR.csv").write_text(self.ACTOR, encoding="utf-8")
        with pytest.raises(TabletalkError) as caught:
            load_data(movie_graph, data)
        assert str(caught.value) == f"{data / 'ACTOR.csv'}: {self.MESSAGE}"
        with pytest.raises(TabletalkError) as caught:
            load_data(movie_graph, dict(WOODY_SLICE, ACTOR=self.ACTOR))
        assert str(caught.value) == f"ACTOR: {self.MESSAGE}"
        assert csv.field_size_limit() == limit


class TestDuplicateFiles:
    @pytest.mark.parametrize("other", ["movie.csv", "MOVIES.csv", "Movie.CSV"])
    def test_two_files_for_one_relation_are_an_error(self, movie_graph, tmp_path, other):
        data = _copy_movies(tmp_path)
        (data / other).write_text("id,title,year\n1,Other,1999\n", encoding="utf-8")
        first, second = sorted(["MOVIE.csv", other])
        with pytest.raises(DuplicateTable) as caught:
            load_data(movie_graph, data)
        assert str(caught.value) == (
            f"data files {str(data / first)!r} and {str(data / second)!r} "
            "both hold relation MOVIE"
        )

    def test_two_mapping_keys_for_one_relation_are_an_error(self, movie_graph):
        source = dict(WOODY_SLICE, movies="id,title,year\n1,Other,1999\n")
        with pytest.raises(
            DuplicateTable, match="^data files 'MOVIE' and 'movies' both hold relation MOVIE$"
        ):
            load_data(movie_graph, source)


class TestRowShape:
    def test_a_loaded_row_has_no_instance_dict(self, woody_db):
        row = woody_db.table("DIRECTOR")[0]
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.extra = 1

    def test_rows_of_a_table_share_one_position_map(self, movie_db):
        for name, rows in movie_db.tables.items():
            assert len({id(row.positions) for row in rows}) <= 1, name
        assert movie_db.table("MOVIE")[0].positions is movie_db.table("MOVIE")[-1].positions

    def test_cells_are_a_tuple_in_declared_order(self, movie_graph, woody_db):
        for name, rows in woody_db.tables.items():
            declared = [a.name for a in movie_graph.attributes_of(name)]
            for row in rows:
                assert type(row.cells) is tuple
                assert row.cells == tuple(row.cell(a) for a in declared)
                assert list(row.values) == declared
        # The CSV lists bdate before blocation; the schema declares it last.
        assert woody_db.table("DIRECTOR")[0].cells == (
            1, "Woody Allen", "Brooklyn, New York, USA", "December 1, 1935"
        )

    def test_values_is_a_fresh_copy(self, movie_graph):
        db = load_data(movie_graph, WOODY_SLICE)
        for row in (db.table("MOVIE")[0], Row("MOVIE", {"id": 1, "title": "Scoop"})):
            values = row.values
            values["title"] = "Sleeper"
            values["extra"] = 1
            assert row.values is not values
            assert row.cell("title") != "Sleeper"
            with pytest.raises(UnknownAttribute):
                row.cell("extra")

    def test_repr_equality_and_hash_are_unchanged(self, woody_db):
        row = woody_db.table("MOVIE")[0]
        assert repr(row) == (
            "Row(relation='MOVIE', values={'id': 1, 'title': 'Match Point', 'year': 2005})"
        )
        built = Row("MOVIE", {"id": 1, "title": "Match Point", "year": 2005})
        reordered = Row("MOVIE", {"year": 2005, "title": "Match Point", "id": 1})
        assert row == built == reordered
        assert row != Row("MOVIE", {"id": 1, "title": "Match Point", "year": 2006})
        assert row != Row("GENRE", {"id": 1, "title": "Match Point", "year": 2005})
        assert row != Row("MOVIE", {"id": 1, "title": "Match Point"})
        assert row != ("MOVIE", {"id": 1, "title": "Match Point", "year": 2005})
        for value in (row, built):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


def _movies_with_headers(tmp_path, spell):
    """A copy of the movie fixture whose CSV columns are rotated by one and
    whose header names are spelled by `spell`."""
    data = tmp_path / f"movies-{spell.__name__}"
    data.mkdir()
    for path in (FIXTURES / "movies").glob("*.csv"):
        with path.open(newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        with (data / path.name).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [[spell(h) for h in header[1:] + header[:1]]] + [r[1:] + r[:1] for r in body]
            )
    return data


class TestLayout:
    """Each relation's CSV layout is decided once per graph and header row."""

    @staticmethod
    def _positions(db):
        return {name: rows[0].positions for name, rows in db.tables.items() if rows}

    def test_loads_under_one_graph_share_one_position_map_per_relation(self, tmp_path):
        graph = schema.load_schema(FIXTURES / "movies.schema.json")
        loads = [load_data(graph, FIXTURES / "movies"), load_data(graph, FIXTURES / "movies"),
                 load_data(graph, _movies_with_headers(tmp_path, str.upper))]
        first = self._positions(loads[0])
        assert len(first) == 6
        for db in loads[1:]:
            assert self._positions(db).keys() == first.keys()
            for name, positions in self._positions(db).items():
                assert positions is first[name], name
        for name, positions in first.items():  # never mutated
            declared = [a.name for a in graph.attributes_of(name)]
            assert positions == {attribute: i for i, attribute in enumerate(declared)}

    @pytest.mark.parametrize("spell", [str.lower, str.upper, str.title])
    def test_rotated_columns_and_respelled_headers_load_equal_rows(
        self, movie_graph, movie_db, tmp_path, spell
    ):
        db = load_data(movie_graph, _movies_with_headers(tmp_path, spell))
        assert db == movie_db
        for name, rows in movie_db.tables.items():
            assert [row.cells for row in db.table(name)] == [row.cells for row in rows]

    def test_a_bad_header_raises_on_every_load(self):
        graph = schema.load_schema(FIXTURES / "movies.schema.json")
        bad = dict(WOODY_SLICE, ACTOR="id,fullname\n1,Brad Pitt\n")
        message = r"^ACTOR: header \['id', 'fullname'\] does not match declared attributes \['id', 'name'\]$"
        for _ in range(2):
            with pytest.raises(HeaderMismatch, match=message):
                load_data(graph, bad)
            assert load_data(graph, WOODY_SLICE).table("MOVIE")

    def test_two_graphs_from_one_schema_file_keep_their_own_layouts(self):
        graphs = [schema.load_schema(FIXTURES / "movies.schema.json") for _ in range(2)]
        dbs = [load_data(graph, FIXTURES / "movies") for graph in graphs for _ in range(2)]
        mine, again, theirs, theirs_again = map(self._positions, dbs)
        for name, positions in mine.items():
            assert again[name] is positions and theirs_again[name] is theirs[name]
            assert theirs[name] is not positions and theirs[name] == positions


class TestCollectorPause:
    """`load_data` runs with the cyclic collector off and restores the
    caller's setting on every exit."""

    @pytest.fixture(autouse=True)
    def collector_restored(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()

    def test_no_collection_runs_while_a_large_table_loads(self, movie_graph):
        source = dict(WOODY_SLICE)
        source["CAST"] = "mid,aid,role\n" + "".join(
            f"{i % 3 + 1},{i},Role {i}\n" for i in range(20_000)
        )
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()  # empties generation 0, so no call before the pause starts one
        gc.callbacks.append(hook)
        try:
            db = load_data(movie_graph, source)
        finally:
            gc.callbacks.remove(hook)
        assert len(db.table("CAST")) == 20_000
        assert starts == []
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "relation,text,error",
        [
            ("ACTOR", "id,name\n1,Brad Pitt\n2\n", RaggedRow),
            ("ACTOR", "id,fullname\n", HeaderMismatch),
            ("SIDECHANNEL", "x\n1\n", UnknownRelation),
        ],
    )
    def test_collector_is_on_again_after_an_error(self, movie_graph, relation, text, error):
        bad = dict(WOODY_SLICE)
        bad[relation] = text
        with pytest.raises(error):
            load_data(movie_graph, bad)
        assert gc.isenabled()

    def test_collector_is_on_again_after_a_missing_directory(self, movie_graph, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_data(movie_graph, str(tmp_path / "missing"))
        assert gc.isenabled()

    def test_a_callers_pause_is_kept(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,name\n2\n"
        gc.disable()
        load_data(movie_graph, WOODY_SLICE)
        assert not gc.isenabled()
        with pytest.raises(RaggedRow):
            load_data(movie_graph, bad)
        assert not gc.isenabled()


# --- loader property test ---------------------------------------------------

INT_CELLS = ["", "+4", "-3", "007", "0", "12"]
OTHER_CELLS = INT_CELLS + ["\u0661\u0662", "1_000", " 7 ", "--2", "a,b", "two\nlines", "-", "x"]


def _reference_table(graph, relation, text):
    """The documented loading rule, spelled out row by row.

    The header names every declared attribute once, in any order and
    case, around any spaces.  Blank lines are skipped; any other record
    must have one cell per header column, else RaggedRow names its line
    (counted in CSV records, so a quoted newline does not add one).  An
    empty cell is null; a column is integer when it has a non-empty cell
    and each one is an optional sign and ASCII digits.  Each row lists its
    cells in declared order.
    """
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        return []
    header = [h.strip() for h in records[0]]
    declared = [a.name for a in graph.attributes_of(relation)]
    spelled = {name.upper(): name for name in declared}
    names = [spelled.get(h.upper()) for h in header]
    if None in names or sorted(names) != sorted(declared):
        raise HeaderMismatch(
            f"{relation}: header {header} does not match declared attributes {declared}"
        )
    body = []
    for number, record in enumerate(records[1:], start=2):
        if record == []:
            continue
        if len(record) != len(header):
            raise RaggedRow(
                f"{relation}: row at line {number} has {len(record)} cells, "
                f"expected {len(header)}"
            )
        body.append(dict(zip(names, record)))
    integer = {
        name: any(row[name] for row in body)
        and all(re.fullmatch("[+-]?[0-9]+", row[name]) for row in body if row[name])
        for name in declared
    }
    return [
        {name: None if row[name] == "" else int(row[name]) if integer[name] else row[name]
         for name in declared}
        for row in body
    ]


@st.composite
def director_csvs(draw):
    """DIRECTOR CSV text: shuffled mixed-case header, typed and edge cells,
    blank and ragged lines, and now and then a header that does not fit."""
    names = draw(st.permutations(["id", "name", "blocation", "bdate"]))
    header = [
        "".join(c.upper() if draw(st.booleans()) else c for c in name) for name in names
    ]
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, 3))] = draw(st.sampled_from(["title", "ID", ""]))
    pools = [draw(st.sampled_from([INT_CELLS, OTHER_CELLS])) for _ in header]
    records = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            records.append([])  # a blank line
        elif kind == 1:
            width = draw(st.sampled_from([1, 3, 5]))
            records.append([draw(st.sampled_from(OTHER_CELLS)) for _ in range(width)])
        else:
            records.append([draw(st.sampled_from(pool)) for pool in pools])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(records)
    return out.getvalue() + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(load):
    try:
        return "rows", load()
    except TabletalkError as exc:
        return type(exc).__name__, str(exc)


@given(director_csvs())
@settings(max_examples=300, deadline=None)
def test_loader_follows_the_documented_rule(movie_graph, text):
    def typed(rows):
        return [[(name, type(v), v) for name, v in row.items()] for row in rows]

    def loaded():
        db = load_data(movie_graph, dict(WOODY_SLICE, DIRECTOR=text))
        return typed(row.values for row in db.table("DIRECTOR"))

    want = _outcome(lambda: typed(_reference_table(movie_graph, "DIRECTOR", text)))
    assert _outcome(loaded) == want
