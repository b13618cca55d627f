import pytest

from conftest import FIXTURES

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
    HeaderMismatch,
    RaggedRow,
    UnknownAttribute,
    UnknownRelation,
    WrongRelation,
)
from tabletalk.evaluator import random_database

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

    def test_ragged_row_names_line(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,name\n1,Brad Pitt\n2\n"
        with pytest.raises(RaggedRow, match="line 3"):
            load_data(movie_graph, bad)

    def test_header_mismatch(self, movie_graph):
        bad = dict(WOODY_SLICE)
        bad["ACTOR"] = "id,fullname\n"
        with pytest.raises(HeaderMismatch):
            load_data(movie_graph, bad)

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
    @pytest.mark.parametrize("cell", ["1_000", " 7 ", "\u0663", "+", "1.0", "0x1"])
    def test_only_signed_ascii_digits_make_an_integer_column(self, movie_graph, cell):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = f'id,name\n"{cell}",X\n'
        assert load_data(movie_graph, slice_).table("ACTOR")[0].cell("id") == cell

    def test_signed_digits_are_integers(self, movie_graph):
        slice_ = dict(WOODY_SLICE)
        slice_["ACTOR"] = "id,name\n-3,X\n+4,Y\n007,Z\n"
        ids = [r.cell("id") for r in load_data(movie_graph, slice_).table("ACTOR")]
        assert ids == [-3, 4, 7]
