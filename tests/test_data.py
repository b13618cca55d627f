import pytest

from tabletalk.data import RankSpec, Row, follow_join, load_data, rank_rows, select_tuples
from tabletalk.errors import (
    HeaderMismatch,
    RaggedRow,
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
        full = rank_rows(movie_db.table("MOVIE"), RankSpec("year", descending=True))
        for budget in range(0, 8):
            rows = select_tuples(
                movie_db, "MOVIE", budget, RankSpec("year", descending=True)
            )
            assert rows == full[:budget]

    def test_unknown_attribute(self, movie_db):
        with pytest.raises(UnknownAttribute):
            select_tuples(movie_db, "MOVIE", 1, RankSpec("box_office"))


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
