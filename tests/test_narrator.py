import csv
import gc
import io
import json

import pytest

from conftest import FIXTURES
from random_db import random_database
from tabletalk import data, narrator, schema
from tabletalk.data import RankSpec, load_data
from tabletalk.errors import UnknownStart
from tabletalk.narrator import NarrationPlan, detect_patterns, fallback_mode, narrate

WOODY_DECLARATIVE = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935. "
    "As a director, Woody Allen's work includes Match Point (2005), "
    "Melinda and Melinda (2004), and Anything Else (2003)."
)

WOODY_PROCEDURAL = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935. "
    "As a director, Woody Allen's work includes Match Point, "
    "Melinda and Melinda, Anything Else. "
    "Match Point was released in 2005. "
    "Melinda and Melinda was released in 2004. "
    "Anything Else was released in 2003."
)

SPLIT_SENTENCE = (
    "The movie M1 involves the director D1 who was born in Italy "
    "and the actor A1 who is Greek."
)


class TestPatterns:
    def test_unary_with_relay(self, movie_graph):
        patterns = detect_patterns(movie_graph, NarrationPlan(start_relation="DIRECTOR"))
        assert len(patterns) == 1
        unary = patterns[0]
        assert unary.kind == "unary"
        assert unary.relations == ["DIRECTOR", "MOVIE"]
        assert unary.relay == "DIRECTED"

    def test_split_at_movie(self, split_graph):
        patterns = detect_patterns(split_graph, NarrationPlan())
        assert [p.kind for p in patterns] == ["split"]
        assert patterns[0].relations == ["MOVIE", "DIRECTOR", "ACTOR"]

    def test_single_relation_graph_has_no_patterns(self):
        graph = schema.loads(
            json.dumps(
                {
                    "relations": [
                        {"name": "ONLY", "heading": "x", "attributes": [{"name": "x"}]}
                    ],
                    "joins": [],
                }
            )
        )
        assert detect_patterns(graph, NarrationPlan()) == []

    def test_join_pattern_on_converging_branches(self):
        doc = {
            "relations": [
                {"name": n, "heading": "k", "attributes": [{"name": "k"}]}
                for n in ("A", "B", "C", "D")
            ],
            "joins": [
                {"from": "B", "to": "A", "from_key": "k", "to_key": "k",
                 "template": '"a to b " + {B.k}'},
                {"from": "C", "to": "A", "from_key": "k", "to_key": "k",
                 "template": '"a to c " + {C.k}'},
                {"from": "D", "to": "B", "from_key": "k", "to_key": "k",
                 "template": '"b to d " + {D.k}'},
                {"from": "D", "to": "C", "from_key": "k", "to_key": "k",
                 "template": '"c to d " + {D.k}'},
            ],
        }
        # Narration edges run A->B, A->C, B->D, C->D once re-anchored.
        doc["joins"][0].update({"from": "A", "to": "B"})
        doc["joins"][1].update({"from": "A", "to": "C"})
        doc["joins"][2].update({"from": "B", "to": "D"})
        doc["joins"][3].update({"from": "C", "to": "D"})
        graph = schema.loads(json.dumps(doc))
        kinds = [p.kind for p in detect_patterns(graph, NarrationPlan(start_relation="A"))]
        assert "split" in kinds
        assert "join" in kinds

    def test_unknown_start(self, movie_graph):
        with pytest.raises(UnknownStart):
            detect_patterns(movie_graph, NarrationPlan(start_relation="NOPE"))

    def test_each_relation_visited_at_most_once(self, movie_graph, split_graph):
        for graph in (movie_graph, split_graph):
            seen = []
            for inst in detect_patterns(graph, NarrationPlan()):
                seen.extend(inst.relations[1:])
            assert len(seen) == len(set(seen))


class TestNarrate:
    def test_declarative_golden(self, movie_graph, movie_db):
        narrative = narrate(movie_graph, movie_db, NarrationPlan())
        assert narrative.text == WOODY_DECLARATIVE
        assert narrative.mode_used == "declarative"

    def test_procedural_golden(self, movie_graph, movie_db):
        narrative = narrate(
            movie_graph, movie_db, NarrationPlan(mode="procedural")
        )
        assert narrative.text == WOODY_PROCEDURAL

    def test_split_golden(self, split_graph, split_db):
        narrative = narrate(split_graph, split_db, NarrationPlan())
        assert narrative.text == SPLIT_SENTENCE

    def test_relay_contributes_no_tokens(self, movie_graph, movie_db):
        narrative = narrate(movie_graph, movie_db, NarrationPlan())
        tokens = narrative.text.split()
        assert "DIRECTED" not in narrative.text
        # DIRECTED key cells are the bare integers 1..6
        assert not any(tok in {"1", "2", "3", "4", "5", "6"} for tok in tokens)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_tuple_budget_bounds_list_length(self, movie_graph, movie_db, budget):
        narrative = narrate(
            movie_graph, movie_db, NarrationPlan(tuple_budget=budget)
        )
        titles = ["Match Point", "Melinda and Melinda", "Anything Else"]
        mentioned = [t for t in titles if t in narrative.text]
        assert len(mentioned) == budget

    def test_empty_table_gives_diagnostic(self, movie_graph):
        headers = {
            "MOVIE": "id,title,year\n",
            "GENRE": "mid,genre\n",
            "DIRECTOR": "id,name,bdate,blocation\n",
            "DIRECTED": "mid,did\n",
            "CAST": "mid,aid,role\n",
            "ACTOR": "id,name\n",
        }
        db = load_data(movie_graph, headers)
        narrative = narrate(movie_graph, db, NarrationPlan())
        assert narrative.sentences == []
        assert narrative.diagnostics

    def test_determinism(self, movie_graph, movie_db):
        plan = NarrationPlan(mode="procedural", rank=RankSpec("year", True))
        assert narrate(movie_graph, movie_db, plan) == narrate(
            movie_graph, movie_db, plan
        )

    def test_procedural_total_on_random_databases(self, movie_graph):
        for seed in range(10):
            db = random_database(movie_graph, seed, 4)
            narrative = narrate(
                movie_graph, db, NarrationPlan(mode="procedural")
            )
            assert isinstance(narrative.text, str)
            assert "{" not in narrative.text and "}" not in narrative.text

    @pytest.mark.parametrize("budget", [-1, -2])
    def test_negative_budget_narrates_like_zero(self, movie_graph, movie_db, budget):
        negative = narrate(movie_graph, movie_db, NarrationPlan(tuple_budget=budget))
        assert negative == narrate(movie_graph, movie_db, NarrationPlan(tuple_budget=0))
        assert negative.sentences == [
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
        ]

    def test_relation_filter_restricts_steps(self, movie_graph, movie_db):
        plan = NarrationPlan(relation_filter=frozenset({"DIRECTOR"}))
        narrative = narrate(movie_graph, movie_db, plan)
        assert "work includes" not in narrative.text
        assert narrative.text.startswith("Woody Allen was born")


class TestSplitVariants:
    VAPID_DOC = {
        "relations": [
            {
                "name": "MOVIE", "heading": "title", "weight": 3,
                "noun": {"singular": "movie", "plural": "movies"},
                "attributes": [
                    {"name": "title"}, {"name": "did"}, {"name": "aid"}
                ],
            },
            {
                "name": "DIRECTOR", "heading": "dname",
                "noun": {"singular": "director", "plural": "directors"},
                "attributes": [
                    {"name": "id"},
                    {"name": "dname"},
                    {
                        "name": "blocation",
                        "template": '"The director " + {DIRECTOR.dname} + " was born in " + {DIRECTOR.blocation}',
                    },
                ],
            },
            {
                "name": "ACTOR", "heading": "aname",
                "noun": {"singular": "actor", "plural": "actors"},
                "attributes": [
                    {"name": "id"},
                    {"name": "aname"},
                    {
                        "name": "nationality",
                        "template": '"The actor " + {ACTOR.aname} + " is " + {ACTOR.nationality}',
                    },
                ],
            },
        ],
        "joins": [
            {
                "from": "MOVIE", "to": "DIRECTOR", "from_key": "did", "to_key": "id",
                "template": '"The movie " + {MOVIE.title} + " involves the director " + {DIRECTOR.dname}',
            },
            {
                "from": "MOVIE", "to": "ACTOR", "from_key": "aid", "to_key": "id",
                "template": '"The movie " + {MOVIE.title} + " involves the actor " + {ACTOR.aname}',
            },
        ],
    }

    DATA = {
        "MOVIE": "title,did,aid\nM1,1,1\n",
        "DIRECTOR": "id,dname,blocation\n1,D1,Italy\n",
        "ACTOR": "id,aname,nationality\n1,A1,Greek\n",
    }

    def test_without_relative_clauses_content_comes_as_sentences(self):
        graph = schema.loads(json.dumps(self.VAPID_DOC))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan(mode="declarative"))
        assert narrative.sentences == [
            "The movie M1 involves the director D1 and the actor A1.",
            "The director D1 was born in Italy.",
            "The actor A1 is Greek.",
        ]

    def test_a_relative_clause_replaces_its_target_s_attribute_clauses(self):
        doc = json.loads(json.dumps(self.VAPID_DOC))
        doc["joins"][0]["relative_clause"] = '"who was born in " + {DIRECTOR.blocation}'
        doc["joins"][1]["relative_clause"] = '"who is " + {ACTOR.nationality}'
        graph = schema.loads(json.dumps(doc))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan(mode="declarative"))
        assert narrative.sentences == [SPLIT_SENTENCE]

    def test_branches_without_a_shared_prefix_come_as_sentences(self):
        doc = json.loads(json.dumps(self.VAPID_DOC))
        doc["joins"][1]["template"] = '"Actor " + {ACTOR.aname} + " plays in " + {MOVIE.title}'
        graph = schema.loads(json.dumps(doc))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan(mode="declarative"))
        assert narrative.sentences == [
            "The movie M1 involves the director D1.",
            "Actor A1 plays in M1.",
            "The director D1 was born in Italy.",
            "The actor A1 is Greek.",
        ]

    def test_procedural_split_spells_out_branch_content(self, split_graph, split_db):
        narrative = narrate(split_graph, split_db, NarrationPlan(mode="procedural"))
        # No attribute templates in the split fixture, so only the fused
        # branch heads appear; relative clauses are a declarative device.
        assert narrative.text == (
            "The movie M1 involves the director D1 and the actor A1."
        )


class TestFallbackMode:
    def test_movie_fixture_is_declarative(self, movie_graph):
        assert fallback_mode(movie_graph, NarrationPlan()) == "declarative"

    def test_five_untemplated_attributes_force_procedural(self):
        doc = {
            "relations": [
                {
                    "name": "WIDE",
                    "heading": "h",
                    "attributes": [{"name": "h"}]
                    + [{"name": f"a{i}"} for i in range(5)],
                }
            ],
            "joins": [],
        }
        graph = schema.loads(json.dumps(doc))
        assert fallback_mode(graph, NarrationPlan()) == "procedural"
        doc["relations"][0]["long_template"] = '"all about " + {WIDE.h}'
        graph = schema.loads(json.dumps(doc))
        assert fallback_mode(graph, NarrationPlan()) == "declarative"

    def test_empty_database_is_declarative(self, movie_graph):
        # The mode choice never looks at the data.
        assert fallback_mode(movie_graph, NarrationPlan()) == "declarative"

    def test_wide_split_forces_procedural(self):
        doc = {
            "relations": [
                {"name": "HUB", "heading": "k", "attributes": [{"name": "k"}]},
            ]
            + [
                {"name": f"B{i}", "heading": "k", "attributes": [{"name": "k"}]}
                for i in range(3)
            ],
            "joins": [
                {
                    "from": "HUB", "to": f"B{i}", "from_key": "k", "to_key": "k",
                    "template": f'"branch {i} " + {{B{i}.k}}',
                }
                for i in range(3)
            ],
        }
        graph = schema.loads(json.dumps(doc))
        assert fallback_mode(graph, NarrationPlan(start_relation="HUB")) == "procedural"


class TestDeepTraversal:
    DOC = {
        "relations": [
            {
                "name": "STUDIO", "heading": "sname", "weight": 3,
                "noun": {"singular": "studio", "plural": "studios"},
                "attributes": [{"name": "id"}, {"name": "sname"}],
            },
            {
                "name": "FILM", "heading": "title",
                "noun": {"singular": "film", "plural": "films"},
                "attributes": [
                    {"name": "id"}, {"name": "title"}, {"name": "sid"}
                ],
            },
            {
                "name": "AWARD", "heading": "aname",
                "noun": {"singular": "award", "plural": "awards"},
                "attributes": [{"name": "aname"}, {"name": "fid"}],
            },
        ],
        "joins": [
            {
                "from": "FILM", "to": "STUDIO", "from_key": "sid", "to_key": "id",
            },
            {
                "from": "AWARD", "to": "FILM", "from_key": "fid", "to_key": "id",
            },
            {
                "from": "STUDIO", "to": "FILM", "from_key": "id", "to_key": "sid",
                "template": '{STUDIO.sname} + " produced " + DEFINE L AS [i < arityOf(FILM.title)] ", " + { {FILM.title} } [i = arityOf(FILM.title)] " and " + { {FILM.title} + "." }',
            },
            {
                "from": "FILM", "to": "AWARD", "from_key": "id", "to_key": "fid",
                "template": '"The films won " + DEFINE L AS [i < arityOf(AWARD.aname)] ", " + { {AWARD.aname} } [i = arityOf(AWARD.aname)] " and " + { {AWARD.aname} + "." }',
            },
        ],
    }

    DATA = {
        "STUDIO": "id,sname\n1,Pixmount\n",
        "FILM": "id,title,sid\n1,Alpha,1\n2,Beta,1\n",
        "AWARD": "aname,fid\nBest Song,1\nBest Score,2\n",
    }

    def test_two_step_chain_narrates_both_steps(self):
        graph = schema.loads(json.dumps(self.DOC))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan())
        assert narrative.sentences == [
            "Pixmount produced Alpha and Beta.",
            "The films won Best Song and Best Score.",
        ]

    def test_budget_applies_at_every_depth(self):
        graph = schema.loads(json.dumps(self.DOC))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan(tuple_budget=1))
        assert narrative.sentences == [
            "Pixmount produced Alpha.",
            "The films won Best Song.",
        ]


class TestBeyondASplit:
    """One branch of the HUB split continues to FAR, whose three plain
    attributes need more clauses than a declarative sentence carries."""

    DOC = {
        "relations": [
            {"name": "HUB", "heading": "k",
             "attributes": [{"name": "k"}, {"name": "b1id"}, {"name": "b2id"}]},
            {"name": "B1", "heading": "name",
             "attributes": [{"name": "id"}, {"name": "name"}, {"name": "fid"}]},
            {"name": "B2", "heading": "name",
             "attributes": [{"name": "id"}, {"name": "name"}]},
            {"name": "FAR", "heading": "name",
             "attributes": [{"name": "id"}, {"name": "name"}, {"name": "x"},
                            {"name": "y"}, {"name": "z"}]},
        ],
        "joins": [
            {"from": "HUB", "to": "B1", "from_key": "b1id", "to_key": "id",
             "template": '"hub " + {HUB.k} + " has b1 " + {B1.name}'},
            {"from": "HUB", "to": "B2", "from_key": "b2id", "to_key": "id",
             "template": '"hub " + {HUB.k} + " has b2 " + {B2.name}'},
            {"from": "B1", "to": "FAR", "from_key": "fid", "to_key": "id",
             "template": '"b1 " + {B1.name} + " reaches " + {FAR.name}'},
        ],
    }

    DATA = {
        "HUB": "k,b1id,b2id\nH,1,1\n",
        "B1": "id,name,fid\n1,Bee,1\n",
        "B2": "id,name\n1,Cee\n",
        "FAR": "id,name,x,y,z\n1,Faraway,1,2,3\n",
    }

    PLAN = NarrationPlan(start_relation="HUB")

    def test_patterns_list_the_step_beyond_the_split(self):
        graph = schema.loads(json.dumps(self.DOC))
        patterns = detect_patterns(graph, self.PLAN)
        assert [(p.kind, p.relations) for p in patterns] == [
            ("split", ["HUB", "B1", "B2"]),
            ("unary", ["B1", "FAR"]),
        ]

    def test_relation_beyond_the_split_sets_the_mode(self):
        graph = schema.loads(json.dumps(self.DOC))
        assert fallback_mode(graph, self.PLAN) == "procedural"
        without_far = NarrationPlan(
            start_relation="HUB", relation_filter=frozenset({"HUB", "B1", "B2"})
        )
        assert fallback_mode(graph, without_far) == "declarative"

    @pytest.mark.parametrize("mode", ["auto", "declarative", "procedural"])
    def test_narration_stops_at_the_split(self, mode):
        graph = schema.loads(json.dumps(self.DOC))
        db = load_data(graph, self.DATA)
        narrative = narrate(graph, db, NarrationPlan(start_relation="HUB", mode=mode))
        assert narrative.sentences == ["hub H has b1 Bee and b2 Cee."]
        assert narrative.mode_used == ("procedural" if mode == "auto" else mode)

    def test_narrate_reads_each_relation_s_steps_once(self, monkeypatch):
        graph = schema.loads(json.dumps(self.DOC))
        db = load_data(graph, self.DATA)
        calls = []
        steps_from = narrator._steps_from

        def counted(graph, relation):
            calls.append(relation)
            return steps_from(graph, relation)

        monkeypatch.setattr(narrator, "_steps_from", counted)
        narrate(graph, db, self.PLAN)
        assert sorted(calls) == ["B1", "B2", "FAR", "HUB"]


class TestDuplicateTarget:
    """A reaches C twice: by a templated edge and by the path A -> B -> C."""

    DOC = {
        "relations": [
            {"name": "A", "heading": "name",
             "attributes": [{"name": "name"}, {"name": "bid"}, {"name": "cid"}]},
            {"name": "B", "heading": "name",
             "attributes": [{"name": "id"}, {"name": "name"}, {"name": "cid"}]},
            {"name": "C", "heading": "name",
             "attributes": [{"name": "id"}, {"name": "name"}]},
        ],
        "joins": [
            {"from": "A", "to": "B", "from_key": "bid", "to_key": "id"},
            {"from": "B", "to": "C", "from_key": "cid", "to_key": "id"},
            {"from": "A", "to": "C", "from_key": "cid", "to_key": "id",
             "template": '"a " + {A.name} + " sees c " + {C.name}'},
            {"path": ["A", "B", "C"],
             "template": '"a " + {A.name} + " meets b " + {B.name}'
                         ' + " and reaches c " + {C.name}'},
        ],
    }

    DATA = {"A": "name,bid,cid\n1,1,1\n", "B": "id,name,cid\n1,1,1\n", "C": "id,name\n1,1\n"}

    PLAN = NarrationPlan(start_relation="A")

    def test_the_second_step_into_c_is_a_back_step(self):
        graph = schema.loads(json.dumps(self.DOC))
        patterns = detect_patterns(graph, self.PLAN)
        assert [(p.kind, p.relations, p.relays) for p in patterns] == [
            ("join", ["A", "C"], ["B"]),
            ("unary", ["A", "C"], []),
        ]
        assert fallback_mode(graph, self.PLAN) == "declarative"

    def test_c_is_narrated_and_visited_once(self, monkeypatch):
        graph = schema.loads(json.dumps(self.DOC))
        db = load_data(graph, self.DATA)
        calls = []
        steps_from = narrator._steps_from

        def counted(graph, relation):
            calls.append(relation)
            return steps_from(graph, relation)

        monkeypatch.setattr(narrator, "_steps_from", counted)
        narrative = narrate(graph, db, self.PLAN)
        assert narrative.sentences == ["a 1 sees c 1."]
        assert calls == ["A", "C"]

    def test_a_duplicate_target_is_no_third_branch(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["joins"][0]["template"] = '"a " + {A.name} + " has b " + {B.name}'
        graph = schema.loads(json.dumps(doc))
        patterns = detect_patterns(graph, self.PLAN)
        assert [(p.kind, p.relations) for p in patterns] == [
            ("join", ["A", "C"]),
            ("split", ["A", "B", "C"]),
        ]
        assert fallback_mode(graph, self.PLAN) == "declarative"
        narrative = narrate(graph, load_data(graph, self.DATA), self.PLAN)
        assert narrative.sentences == ["a 1 has b 1 and sees c 1."]


def _scaled_movies(graph, copies):
    """The movie fixture repeated `copies` times, each copy's join keys
    shifted past the last, so the first copy narrates as the fixture does."""
    keys = {(e.from_relation, e.from_key) for e in graph.joins}
    keys |= {(e.to_relation, e.to_key) for e in graph.joins}
    texts = {}
    for path in sorted((FIXTURES / "movies").glob("*.csv")):
        relation = path.stem
        header, *rows = list(csv.reader(io.StringIO(path.read_text())))
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        for copy in range(copies):
            for cells in rows:
                writer.writerow(
                    int(cell) + 1000 * copy if (relation, name) in keys else cell
                    for name, cell in zip(header, cells)
                )
        texts[relation] = out.getvalue()
    return load_data(graph, texts)


def _warm_cell_reads(graph, plan, monkeypatch):
    """Texts and `Row.cell` counts of a warm narration on the movie
    fixture and on its 10x copy."""
    counts, texts = [], []
    for copies in (1, 10):
        db = _scaled_movies(graph, copies)
        assert len(db.table("MOVIE")) == 6 * copies
        narrate(graph, db, plan)  # builds the join indexes and rank orders
        calls = []
        cell = data.Row.cell

        def counted(row, attribute):
            calls.append(attribute)
            return cell(row, attribute)

        monkeypatch.setattr(data.Row, "cell", counted)
        texts.append(narrate(graph, db, plan).text)
        monkeypatch.setattr(data.Row, "cell", cell)
        counts.append(len(calls))
    return counts, texts


class TestFlatInTableSize:
    @pytest.mark.parametrize("mode", ["declarative", "procedural"])
    def test_warm_narration_reads_as_many_cells_at_ten_times_the_data(
        self, movie_graph, monkeypatch, mode
    ):
        plan = NarrationPlan(start_relation="DIRECTOR", mode=mode)
        counts, texts = _warm_cell_reads(movie_graph, plan, monkeypatch)
        assert texts[0] == texts[1]
        assert texts[0].startswith("Woody Allen was born")
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("mode", ["declarative", "procedural"])
    @pytest.mark.parametrize(
        "start,rank,opening",
        [
            ("DIRECTOR", RankSpec("name"), "G. Loucas was born"),
            ("MOVIE", RankSpec("year", descending=True), "Match Point was released in 2005"),
            ("MOVIE", RankSpec("year"), "King Kong was released in 1933"),
        ],
        ids=["director-by-name", "movie-by-year-desc", "movie-by-year"],
    )
    def test_warm_ranked_start_reads_as_many_cells_at_ten_times_the_data(
        self, movie_graph, monkeypatch, mode, start, rank, opening
    ):
        plan = NarrationPlan(start_relation=start, mode=mode, rank=rank)
        counts, texts = _warm_cell_reads(movie_graph, plan, monkeypatch)
        assert texts[0] == texts[1]
        assert opening in texts[0]
        assert counts[0] == counts[1]


class TestShortAndLongTemplates:
    def test_short_template_used_when_no_attribute_clauses(self):
        doc = {
            "relations": [
                {
                    "name": "DIRECTOR",
                    "heading": "name",
                    "short_template": '"The director\'s name is " + {DIRECTOR.name}',
                    "attributes": [{"name": "name"}],
                }
            ],
            "joins": [],
        }
        graph = schema.loads(json.dumps(doc))
        db = load_data(graph, {"DIRECTOR": "name\nWoody Allen\n"})
        narrative = narrate(graph, db, NarrationPlan())
        assert narrative.text == "The director's name is Woody Allen."

    def test_long_template_wins_in_declarative_mode(self):
        doc = {
            "relations": [
                {
                    "name": "R",
                    "heading": "h",
                    "long_template": '{R.h} + " spans " + {R.x} + " and " + {R.y}',
                    "attributes": [
                        {"name": "h"},
                        {"name": "x", "template": '{R.h} + " has x " + {R.x}'},
                        {"name": "y", "template": '{R.h} + " has y " + {R.y}'},
                    ],
                }
            ],
            "joins": [],
        }
        graph = schema.loads(json.dumps(doc))
        db = load_data(graph, {"R": "h,x,y\nH,1,2\n"})
        declarative = narrate(graph, db, NarrationPlan(mode="declarative"))
        assert declarative.text == "H spans 1 and 2."
        # Without a long template the clauses fuse on their shared prefix.
        procedural = narrate(graph, db, NarrationPlan(mode="procedural"))
        assert procedural.text == "H has x 1 y 2."

    def test_attribute_weight_orders_clauses(self):
        doc = {
            "relations": [
                {
                    "name": "R",
                    "heading": "h",
                    "attributes": [
                        {"name": "h"},
                        {"name": "x", "template": '{R.h} + " aaa " + {R.x}'},
                        {
                            "name": "y",
                            "weight": 5,
                            "template": '{R.h} + " bbb " + {R.y}',
                        },
                    ],
                }
            ],
            "joins": [],
        }
        graph = schema.loads(json.dumps(doc))
        db = load_data(graph, {"R": "h,x,y\nH,1,2\n"})
        narrative = narrate(graph, db, NarrationPlan(mode="declarative"))
        assert narrative.text == "H bbb 2 aaa 1."


NOTHING_TO_NARRATE = "relation {} has no clause, template or templated step to narrate"


class TestNothingToNarrate:
    @pytest.mark.parametrize("mode", ["auto", "declarative", "procedural"])
    @pytest.mark.parametrize(
        "fixture,start,named",
        [
            ("movie", "GENRE", "GENRE"),
            ("movie", "cast", "CAST"),
            ("movie", "ACTOR", "ACTOR"),
            ("movie", "DIRECTED", "DIRECTED"),
            ("split", "ACTOR", "ACTOR"),
            ("split", "DIRECTOR", "DIRECTOR"),
            ("emp", None, "EMP"),
        ],
    )
    def test_an_empty_narration_names_its_start(self, request, fixture, start, named, mode):
        graph = request.getfixturevalue(f"{fixture}_graph")
        db = request.getfixturevalue(f"{fixture}_db")
        narrative = narrate(graph, db, NarrationPlan(start_relation=start, mode=mode))
        assert narrative.sentences == []
        assert narrative.diagnostics == [NOTHING_TO_NARRATE.format(named)]

    def test_a_start_with_sentences_gets_no_note(self, split_graph, split_db):
        assert narrate(split_graph, split_db, NarrationPlan()).diagnostics == []

    def test_steps_left_out_by_the_filter_are_named(self, split_graph, split_db):
        plan = NarrationPlan(relation_filter=frozenset({"MOVIE"}))
        narrative = narrate(split_graph, split_db, plan)
        assert narrative.sentences == []
        assert narrative.diagnostics == [
            "relation MOVIE has no clause or template to narrate, "
            "and the filter excludes its steps"
        ]


def _movie_tables(**replaced):
    texts = {path.stem: path.read_text() for path in (FIXTURES / "movies").glob("*.csv")}
    texts.update(replaced)
    return texts


class TestFollow:
    def test_a_row_reached_from_two_relay_rows_is_narrated_once(self, movie_graph):
        # Two DIRECTED rows credit Woody Allen with Match Point; the budget
        # admits every movie reached.
        directed = (FIXTURES / "movies" / "DIRECTED.csv").read_text() + "1,1\n"
        db = load_data(movie_graph, _movie_tables(DIRECTED=directed))
        plan = NarrationPlan(mode="declarative", tuple_budget=10)
        narrative = narrate(movie_graph, db, plan)
        assert narrative.sentences[:2] == [
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935.",
            "As a director, Woody Allen's work includes Match Point (2005), "
            "Melinda and Melinda (2004), and Anything Else (2003).",
        ]

    def test_a_path_template_reads_its_relay_rows(self, movie_db):
        doc = json.loads((FIXTURES / "movies.schema.json").read_text())
        path = next(j for j in doc["joins"] if "path" in j)
        path["template"] = (
            '{DIRECTOR.name} + " is credited with movie " + {DIRECTED.mid} + '
            '", " + {MOVIE.title}'
        )
        graph = schema.loads(json.dumps(doc))
        narrative = narrate(graph, movie_db, NarrationPlan(mode="declarative"))
        assert narrative.sentences[1] == "Woody Allen is credited with movie 1, Match Point."


class TestSkippedStepNotes:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_zero_budget_note_names_the_budget(self, movie_graph, movie_db, budget):
        narrative = narrate(movie_graph, movie_db, NarrationPlan(tuple_budget=budget))
        assert narrative.diagnostics == [
            "tuple budget 0 admits no MOVIE tuples from DIRECTOR; step skipped"
        ]

    def test_a_zero_budget_skips_each_split_branch_by_name(self, split_graph, split_db):
        narrative = narrate(split_graph, split_db, NarrationPlan(tuple_budget=0))
        assert narrative.sentences == []
        assert narrative.diagnostics == [
            f"tuple budget 0 admits no {rel} tuples from MOVIE; branch skipped"
            for rel in ("DIRECTOR", "ACTOR")
        ]

    @pytest.mark.parametrize("budget", [0, 3])
    def test_an_unreachable_step_says_so_at_any_budget(self, movie_graph, budget):
        db = load_data(movie_graph, _movie_tables(DIRECTED="mid,did\n"))
        narrative = narrate(movie_graph, db, NarrationPlan(tuple_budget=budget))
        assert narrative.sentences == [
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
        ]
        assert narrative.diagnostics == [
            "no MOVIE tuples reachable from DIRECTOR; step skipped"
        ]


def _plans(graph, ranks, relation_filter=None, budgets=range(4)):
    """Every start (and the default) in each mode, each budget, each rank."""
    starts = [None] + [rel.name for rel in graph.relations]
    return [
        NarrationPlan(start_relation=start, mode=mode, tuple_budget=budget, rank=rank,
                      relation_filter=relation_filter)
        for start in starts
        for mode in ("auto", "declarative", "procedural")
        for budget in budgets
        for rank in ranks
    ]


def _answers(graph, db, plan, first):
    """narrate, detect_patterns and fallback_mode of `plan`, starting with
    the call at index `first` (mod 3), so each can be the one that meets
    a fresh graph."""
    calls = [lambda: narrate(graph, db, plan), lambda: detect_patterns(graph, plan),
             lambda: fallback_mode(graph, plan)]
    answers = [None] * 3
    for k in range(3):
        answers[(first + k) % 3] = calls[(first + k) % 3]()
    return answers


FIXTURE_RANKS = {
    "movies": [RankSpec("id", True), RankSpec("name"), RankSpec("year", True),
               RankSpec("title", True)],
    "split": [RankSpec("title", True), RankSpec("dname")],
    "emp": [RankSpec("sal", True), RankSpec("name")],
}


class TestSchemaFacts:
    """The narrator derives each relation's facts once per graph."""

    def test_a_second_narration_derives_nothing(self, monkeypatch):
        graph = schema.load_schema(FIXTURES / "movies.schema.json")
        db = load_data(graph, FIXTURES / "movies")
        plan = NarrationPlan(mode="procedural")
        derived, looked_up = [], []

        def counting(module, name, log):
            original = getattr(module, name)

            def counted(*args):
                log.append((name, args[1]))
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        for name in ("_derive", "_derive_steps"):
            counting(narrator, name, derived)
        for name in ("attributes_of", "key_attributes", "joins_between"):
            counting(schema.SchemaGraph, name, looked_up)
        first = narrate(graph, db, plan)
        assert sorted(derived) == [
            ("_derive", "DIRECTOR"), ("_derive", "MOVIE"),
            ("_derive_steps", "DIRECTOR"), ("_derive_steps", "MOVIE"),
        ]
        assert looked_up
        del derived[:], looked_up[:]
        assert narrate(graph, db, plan) == first
        assert derived == []
        assert looked_up == []

    @pytest.mark.parametrize("name", ["movies", "split", "emp"])
    def test_warm_and_fresh_graphs_narrate_alike(self, name):
        path = FIXTURES / f"{name}.schema.json"
        graph = schema.load_schema(path)
        db = load_data(graph, FIXTURES / name)
        ranks = [None, RankSpec.load_order()] + FIXTURE_RANKS[name]
        names = [rel.name for rel in graph.relations]
        # Each relation alone, and one spelled in lower case beside an unknown name.
        filters = [frozenset([n]) for n in names] + [frozenset([names[0].lower(), "NOPE"])]
        plans = _plans(graph, ranks)
        plans += [p for f in filters for p in _plans(graph, ranks, f, budgets=[3])]
        for i, plan in enumerate(plans):
            once = _answers(graph, db, plan, i)
            assert _answers(graph, db, plan, i + 1) == once
            assert _answers(schema.load_schema(path), db, plan, i) == once

    def test_graphs_keep_their_own_facts(self):
        doc = TestDeepTraversal.DOC
        other = json.loads(json.dumps(doc))
        other["joins"][2]["template"] = '{STUDIO.sname} + " made " + {FILM.title}'
        awards = "The films won Best Song and Best Score."
        texts = [["Pixmount produced Alpha and Beta.", awards], ["Pixmount made Alpha.", awards]]
        docs = [json.dumps(doc), json.dumps(other)]
        live = [schema.loads(text) for text in docs]
        assert [graph.narration for graph in live] == [{}, {}]
        for i in range(6):
            graph = live[i % 2]
            db = load_data(graph, TestDeepTraversal.DATA)
            assert narrate(graph, db, NarrationPlan()).sentences == texts[i % 2]
            gc.collect()
        # The facts live on each graph, not in a table that a graph loaded
        # later at a freed graph's address could read.
        for graph in live:
            assert sorted(graph.narration) == ["AWARD", "FILM", "STUDIO"]
        # A graph freed before the next is loaded may leave it its address.
        for i in range(6):
            graph = schema.loads(docs[i % 2])
            db = load_data(graph, TestDeepTraversal.DATA)
            assert narrate(graph, db, NarrationPlan()).sentences == texts[i % 2]
            del graph, db
            gc.collect()


class TestRecipes:
    """Each start's traversal, rank resolution and mode verdict are derived
    once per graph, relation filter and rank."""

    @staticmethod
    def _fresh():
        graph = schema.load_schema(FIXTURES / "movies.schema.json")
        return graph, load_data(graph, FIXTURES / "movies")

    @staticmethod
    def _counted(monkeypatch):
        """A log of the calls to `_traversal` and `find_attribute`."""
        calls = []
        traversal = narrator._traversal
        find_attribute = schema.SchemaGraph.find_attribute
        monkeypatch.setattr(narrator, "_traversal",
                            lambda *args: calls.append("_traversal") or traversal(*args))
        monkeypatch.setattr(schema.SchemaGraph, "find_attribute",
                            lambda *args: calls.append("find_attribute") or find_attribute(*args))
        return calls

    def test_each_plan_key_is_resolved_once(self, monkeypatch):
        graph, db = self._fresh()
        calls = self._counted(monkeypatch)
        ranks = [None] + FIXTURE_RANKS["movies"]
        for budget in range(-1, 4):
            for mode in ("auto", "declarative", "procedural"):
                for rank in ranks:
                    plan = NarrationPlan(mode=mode, tuple_budget=budget, rank=rank)
                    narrate(graph, db, plan)
                    detect_patterns(graph, plan)
                    fallback_mode(graph, plan)
        ranked = len(FIXTURE_RANKS["movies"])
        assert calls.count("_traversal") == len(ranks)
        assert calls.count("find_attribute") == ranked * len(graph.relations)

    def test_spellings_of_one_name_share_a_recipe(self, monkeypatch):
        graph, db = self._fresh()
        calls = self._counted(monkeypatch)
        plans = [
            NarrationPlan(start_relation=start, rank=rank)
            for start in ("director", "DIRECTOR", "Director")
            for rank in (RankSpec("YEAR"), RankSpec("year"), RankSpec("Year"))
        ]
        texts = {narrate(graph, db, plan).text for plan in plans}
        assert len(texts) == 1
        assert calls.count("_traversal") == 1
        assert calls.count("find_attribute") == len(graph.relations)
        assert len({id(narrator._recipe(graph, plan)) for plan in plans}) == 1
        # An alternative name of the start, and a filter in another case.
        movies = NarrationPlan(start_relation="movies", relation_filter=frozenset(["genre"]))
        movie = NarrationPlan(start_relation="MOVIE", relation_filter=frozenset(["GENRE"]))
        assert narrator._recipe(graph, movies) is narrator._recipe(graph, movie)

    def test_an_unknown_start_raises_every_time(self):
        graph, db = self._fresh()
        empty = schema.loads(json.dumps({"relations": []}))
        for _ in range(3):
            for g, plan in ((graph, NarrationPlan(start_relation="NOPE")), (empty, NarrationPlan())):
                with pytest.raises(UnknownStart):
                    narrate(g, db, plan)
                with pytest.raises(UnknownStart):
                    detect_patterns(g, plan)
                with pytest.raises(UnknownStart):
                    fallback_mode(g, plan)

    @pytest.mark.parametrize("start", [None, "DIRECTOR", "MOVIE", "ACTOR"])
    def test_a_rank_attribute_that_no_relation_declares_narrates_in_load_order(self, start):
        graph, db = self._fresh()
        for mode in ("declarative", "procedural"):
            for descending in (False, True):
                plan = NarrationPlan(start_relation=start, mode=mode,
                                     rank=RankSpec("nope", descending))
                unranked = NarrationPlan(start_relation=start, mode=mode,
                                         rank=RankSpec.load_order())
                assert narrate(graph, db, plan) == narrate(graph, db, unranked)
                # Unknown spellings add no recipe.
                assert narrator._recipe(graph, plan) is narrator._recipe(graph, unranked)


@pytest.mark.parametrize("texts,expected", [
    (["Woody Allen directed Scoop"], "Woody Allen directed Scoop"),
    (["Woody Allen directed Scoop", "Scarlett Johansson played in Scoop"], None),
    (["The movie Scoop was made", "The movie Scoop was praised"], None),
    (["Woody Allen directed", "Woody Allen directed Scoop"], None),
    (
        ["Woody Allen directed Scoop", "Woody Allen directed Match Point"],
        "Woody Allen directed Scoop and Match Point",
    ),
], ids=["single", "no_prefix", "prefix_without_subject", "empty_remainder", "fused"])
def test_fuse_split_fuses_only_on_a_prefix_naming_the_subject(texts, expected):
    assert narrator.fuse_split(texts, "Woody Allen") == expected
