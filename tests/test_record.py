"""The record base: generated `__init__`, `__eq__` and `__repr__`.

Reprs reach users inside error messages (the evaluator words a failure
with `{expr!r}`), so they are pinned here as exact strings.
"""

import pytest

from tabletalk import parser
from tabletalk.ast_nodes import ColumnRef, CountStar, Query, Star
from tabletalk.data import Database, RankSpec, Row, select_tuples
from tabletalk.narrator import NarrationPlan
from tabletalk.record import Record, field
from tabletalk.rewriter import Motif
from tabletalk.schema import RelationNode, SchemaGraph

SCALAR_COMPARE = (
    "Compare(lhs=Constant(value=1), op='<', rhs=ScalarSubquery(query=Query("
    "select_items=[SelectItem(expr=CountStar(), alias=None)], "
    "from_items=[FromItem(relation='GENRE', alias='g', canonical='GENRE')], "
    "where=[Compare(lhs=ColumnRef(alias='g', column='mid', relation='GENRE', "
    "attribute='mid'), op='=', rhs=ColumnRef(alias='m', column='id', "
    "relation='MOVIE', attribute='id'))], group_by=[], having=[], order_by=[])))"
)


class Probe(Record):
    name: str
    tags: list = field(factory=list)
    note: str = field("n", shown=False)
    cache: dict = field(factory=dict, init=False, shown=False)


def one_relation_graph(**kwargs):
    return SchemaGraph([RelationNode("A", "a", "as", "x")], **kwargs)


class TestRepr:
    def test_nested_records_read_as_constructor_calls(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m "
            "where 1 < (select count(*) from GENRE g where g.mid = m.id)"
        )
        parser.resolve_names(ast, movie_graph)
        assert repr(ast.where[0]) == SCALAR_COMPARE

    def test_a_record_without_fields(self):
        assert (repr(Star()), repr(CountStar())) == ("Star()", "CountStar()")

    def test_defaults_are_listed(self):
        assert repr(NarrationPlan()) == (
            "NarrationPlan(start_relation=None, mode='auto', tuple_budget=3, "
            "rank=None, relation_filter=None)"
        )

    def test_hidden_fields_are_left_out(self):
        db = Database({"A": [Row("A", {"x": 1})]})
        select_tuples(db, "A", 1, RankSpec("x"))
        assert db._orders
        assert repr(db) == "Database(tables={'A': [Row(relation='A', values={'x': 1})]})"
        graph = one_relation_graph(compiled={"t": 1})
        graph.find_relation("A")
        assert graph._names is not None
        assert repr(graph) == (
            "SchemaGraph(relations=[RelationNode(name='A', noun_singular='a', "
            "noun_plural='as', heading_attribute='x', weight=1.0, "
            "short_template=None, long_template=None, alt_names=())], "
            "attributes=[], joins=[], join_paths=[], phrases=[], "
            "warnings=[])"
        )
        motif = Motif("SuperlativeAll", "where <= all", {"a": 1}, entry=object())
        assert repr(motif) == "Motif(kind='SuperlativeAll', anchor='where <= all', params={'a': 1})"


class TestEquality:
    def test_fields_are_compared_in_order(self):
        assert ColumnRef("m", "id") == ColumnRef("m", "id")
        assert ColumnRef("m", "id") != ColumnRef("m", "id", "MOVIE")
        assert Star() == Star()

    def test_another_class_is_never_equal(self):
        assert Star() != CountStar()
        assert ColumnRef("m", "id") != ("m", "id", None, None)

    def test_hidden_fields_are_not_compared(self):
        graph = one_relation_graph()
        graph.find_relation("A")
        assert graph == one_relation_graph(compiled={"t": 1})
        assert Motif("Division", "x", entry=object()) == Motif("Division", "x")

    def test_records_are_unhashable(self):
        for record in (Star(), ColumnRef("m", "id"), Database()):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


class TestInit:
    def test_each_instance_gets_fresh_default_lists(self):
        first, second = Query(), Query()
        first.where.append("x")
        assert second.where == []
        assert Database().tables is not Database().tables
        assert Database()._orders is not Database()._orders

    def test_a_given_value_is_kept_as_is(self):
        where = []
        assert Query(where=where).where is where

    def test_missing_and_unknown_arguments_raise(self):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'column'"):
            ColumnRef("m")
        with pytest.raises(TypeError, match="unexpected keyword argument 'table'"):
            ColumnRef("m", "id", table="MOVIE")
        with pytest.raises(TypeError, match="unexpected keyword argument '_names'"):
            SchemaGraph(_names=None)
        with pytest.raises(TypeError):
            Star(1)

    def test_field_options(self):
        probe = Probe("a", note="m")
        assert (probe.name, probe.tags, probe.note, probe.cache) == ("a", [], "m", {})
        assert repr(probe) == "Probe(name='a', tags=[])"
        assert probe == Probe("a", [])
        assert probe != Probe("a", ["t"])
