"""Unit tests for the RDF triple store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semweb.rdf import BNode, Graph, Literal, URIRef

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


class TestTerms:
    def test_uriref_is_a_string(self):
        term = uri("a")
        assert term == EX + "a"
        assert isinstance(term, str)

    def test_uriref_n3(self):
        assert uri("a").n3() == f"<{EX}a>"

    def test_bnode_n3(self):
        assert BNode("b0").n3() == "_:b0"

    def test_literal_plain(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype is None
        assert lit.n3() == '"hello"'

    def test_literal_int(self):
        lit = Literal(42)
        assert lit.to_python() == 42
        assert lit.datatype == Literal.XSD_INTEGER

    def test_literal_float_roundtrip(self):
        lit = Literal(0.125)
        assert lit.to_python() == 0.125
        assert lit.datatype == Literal.XSD_DOUBLE

    def test_literal_bool(self):
        assert Literal(True).to_python() is True
        assert Literal(False).to_python() is False

    def test_literal_bool_not_confused_with_int(self):
        # bool is a subclass of int; make sure True maps to xsd:boolean.
        assert Literal(True).datatype == Literal.XSD_BOOLEAN

    def test_literal_language_tag(self):
        lit = Literal("Buch", language="de")
        assert lit.n3() == '"Buch"@de'

    def test_literal_rejects_datatype_and_language(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=Literal.XSD_STRING, language="en")

    def test_literal_equality_and_hash(self):
        assert Literal("a") == Literal("a")
        assert Literal("a") != Literal("a", language="en")
        assert hash(Literal(1)) == hash(Literal(1))

    def test_literal_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"

    def test_literal_escaping_in_n3(self):
        lit = Literal('say "hi"\nplease\t\\now')
        n3 = lit.n3()
        assert "\n" not in n3
        assert '\\"' in n3
        assert "\\n" in n3
        assert "\\t" in n3
        assert "\\\\" in n3


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert len(graph) == 0
        assert list(graph) == []

    def test_add_and_contains(self):
        graph = Graph()
        triple = (uri("s"), uri("p"), uri("o"))
        graph.add(triple)
        assert triple in graph
        assert len(graph) == 1

    def test_add_duplicate_is_noop(self):
        graph = Graph()
        triple = (uri("s"), uri("p"), Literal("x"))
        graph.add(triple)
        graph.add(triple)
        assert len(graph) == 1

    def test_add_returns_self_for_chaining(self):
        graph = Graph()
        result = graph.add((uri("s"), uri("p"), uri("o")))
        assert result is graph

    def test_constructor_with_triples(self):
        triples = [(uri("s"), uri("p"), Literal(i)) for i in range(3)]
        graph = Graph(triples)
        assert len(graph) == 3

    def test_rejects_literal_subject(self):
        with pytest.raises(TypeError):
            Graph().add((Literal("x"), uri("p"), uri("o")))

    def test_rejects_bnode_predicate(self):
        with pytest.raises(TypeError):
            Graph().add((uri("s"), BNode("b"), uri("o")))

    def test_rejects_plain_string_object(self):
        with pytest.raises(TypeError):
            Graph().add((uri("s"), uri("p"), "plain"))

    def test_bnode_subject_allowed(self):
        graph = Graph()
        graph.add((BNode("b"), uri("p"), Literal(1)))
        assert len(graph) == 1

    def test_graph_equality(self):
        t = (uri("s"), uri("p"), uri("o"))
        assert Graph([t]) == Graph([t])
        assert Graph([t]) != Graph()

    def test_graph_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())

    def test_copy_is_independent(self):
        graph = Graph([(uri("s"), uri("p"), uri("o"))])
        clone = graph.copy()
        clone.add((uri("s2"), uri("p"), uri("o")))
        assert len(graph) == 1
        assert len(clone) == 2


class TestPatternMatching:
    @pytest.fixture
    def graph(self) -> Graph:
        graph = Graph()
        graph.add((uri("alice"), uri("knows"), uri("bob")))
        graph.add((uri("alice"), uri("knows"), uri("carol")))
        graph.add((uri("bob"), uri("knows"), uri("carol")))
        graph.add((uri("alice"), uri("name"), Literal("Alice")))
        return graph

    def test_fully_bound_hit(self, graph):
        pattern = (uri("alice"), uri("knows"), uri("bob"))
        assert list(graph.triples(pattern)) == [pattern]

    def test_fully_bound_miss(self, graph):
        pattern = (uri("bob"), uri("knows"), uri("alice"))
        assert list(graph.triples(pattern)) == []

    def test_sp_pattern(self, graph):
        matches = set(graph.triples((uri("alice"), uri("knows"), None)))
        assert matches == {
            (uri("alice"), uri("knows"), uri("bob")),
            (uri("alice"), uri("knows"), uri("carol")),
        }

    def test_po_pattern(self, graph):
        matches = list(graph.triples((None, uri("knows"), uri("carol"))))
        assert len(matches) == 2
        assert {m[0] for m in matches} == {uri("alice"), uri("bob")}

    def test_so_pattern(self, graph):
        matches = list(graph.triples((uri("alice"), None, uri("bob"))))
        assert matches == [(uri("alice"), uri("knows"), uri("bob"))]

    def test_s_only(self, graph):
        assert len(list(graph.triples((uri("alice"), None, None)))) == 3

    def test_p_only(self, graph):
        assert len(list(graph.triples((None, uri("knows"), None)))) == 3

    def test_o_only(self, graph):
        assert len(list(graph.triples((None, None, uri("carol"))))) == 2

    def test_unbound(self, graph):
        assert len(list(graph.triples())) == 4

    def test_subjects_distinct(self, graph):
        subjects = list(graph.subjects(uri("knows")))
        assert sorted(subjects) == [uri("alice"), uri("bob")]

    def test_objects(self, graph):
        objects = set(graph.objects(uri("alice"), uri("knows")))
        assert objects == {uri("bob"), uri("carol")}

    def test_predicates(self, graph):
        predicates = set(graph.predicates(uri("alice")))
        assert predicates == {uri("knows"), uri("name")}

    def test_value_returns_object(self, graph):
        assert graph.value(uri("alice"), uri("name")) == Literal("Alice")

    def test_value_default(self, graph):
        assert graph.value(uri("dave"), uri("name"), default=Literal("?")) == Literal("?")

    def test_value_returns_subject(self, graph):
        found = graph.value(None, uri("name"), Literal("Alice"))
        assert found == uri("alice")

    def test_value_requires_one_unbound(self, graph):
        with pytest.raises(ValueError):
            graph.value(uri("a"), uri("b"), uri("c"))
        with pytest.raises(ValueError):
            graph.value(None, None, uri("c"))


class TestRemoval:
    def test_remove_exact(self):
        t = (uri("s"), uri("p"), uri("o"))
        graph = Graph([t])
        assert graph.remove(t) == 1
        assert len(graph) == 0

    def test_remove_pattern(self):
        graph = Graph()
        for i in range(5):
            graph.add((uri("s"), uri("p"), Literal(i)))
        graph.add((uri("s"), uri("q"), Literal(0)))
        removed = graph.remove((uri("s"), uri("p"), None))
        assert removed == 5
        assert len(graph) == 1

    def test_remove_missing_returns_zero(self):
        graph = Graph()
        assert graph.remove((uri("x"), None, None)) == 0

    def test_indexes_consistent_after_removal(self):
        graph = Graph()
        graph.add((uri("s"), uri("p"), uri("o")))
        graph.add((uri("s"), uri("p"), uri("o2")))
        graph.remove((uri("s"), uri("p"), uri("o")))
        assert list(graph.objects(uri("s"), uri("p"))) == [uri("o2")]
        assert list(graph.subjects(uri("p"), uri("o"))) == []

    def test_readd_after_remove(self):
        t = (uri("s"), uri("p"), uri("o"))
        graph = Graph([t])
        graph.remove(t)
        graph.add(t)
        assert t in graph


class TestSetOperations:
    def test_union(self):
        a = Graph([(uri("s"), uri("p"), Literal(1))])
        b = Graph([(uri("s"), uri("p"), Literal(2))])
        assert len(a | b) == 2

    def test_difference(self):
        t1 = (uri("s"), uri("p"), Literal(1))
        t2 = (uri("s"), uri("p"), Literal(2))
        assert set(Graph([t1, t2]) - Graph([t2])) == {t1}

    def test_intersection(self):
        t1 = (uri("s"), uri("p"), Literal(1))
        t2 = (uri("s"), uri("p"), Literal(2))
        assert set(Graph([t1, t2]) & Graph([t2])) == {t2}

    def test_update(self):
        a = Graph([(uri("s"), uri("p"), Literal(1))])
        b = Graph([(uri("s"), uri("p"), Literal(2))])
        a.update(b)
        assert len(a) == 2


@given(
    st.lists(
        st.tuples(
            st.sampled_from([uri(c) for c in "abcde"]),
            st.sampled_from([uri(p) for p in "pqr"]),
            st.sampled_from([uri(o) for o in "xyz"] + [Literal(i) for i in range(3)]),
        ),
        max_size=40,
    )
)
def test_graph_behaves_like_triple_set(triples):
    """Property: a Graph is observationally equivalent to a set of triples."""
    graph = Graph(triples)
    reference = set(triples)
    assert len(graph) == len(reference)
    assert set(graph) == reference
    for s, p, o in reference:
        assert (s, p, o) in graph
        assert (s, p, o) in set(graph.triples((s, None, None)))
        assert (s, p, o) in set(graph.triples((None, p, None)))
        assert (s, p, o) in set(graph.triples((None, None, o)))


@given(
    st.lists(
        st.tuples(
            st.sampled_from([uri(c) for c in "abc"]),
            st.sampled_from([uri(p) for p in "pq"]),
            st.sampled_from([Literal(i) for i in range(4)]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_remove_then_rescan_consistent(triples):
    """Property: removing any one triple leaves all indexes consistent."""
    graph = Graph(triples)
    victim = triples[0]
    graph.remove(victim)
    reference = set(triples) - {victim}
    assert set(graph) == reference
    for s, p, o in reference:
        assert o in set(graph.objects(s, p))


# -- differential: the indexes against a plain set of triples ----------------

_SUBJECTS = [uri("a"), uri("b"), BNode("b0")]
_PREDICATES = [uri("p"), uri("q")]
# uri("a") is a subject too; Literal(1) and Literal("1") differ by datatype.
_OBJECTS = [uri("a"), uri("x"), Literal(1), Literal("1"), Literal(2)]
_triple = st.tuples(
    st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)
_pattern = st.tuples(
    st.none() | st.sampled_from(_SUBJECTS),
    st.none() | st.sampled_from(_PREDICATES),
    st.none() | st.sampled_from(_OBJECTS),
)
_write = st.one_of(
    st.tuples(st.just("add"), _triple),
    st.tuples(st.just("remove"), _pattern),
    st.tuples(st.just("update"), st.lists(_triple, max_size=4), st.booleans()),
)


def _matches(triple, pattern) -> bool:
    return all(term is None or term == part for term, part in zip(pattern, triple))


def _distinct(items: list) -> set:
    assert len(items) == len(set(items)), items
    return set(items)


def _assert_answers_match(graph: Graph, reference: set) -> None:
    assert set(graph) == reference
    assert len(graph) == len(reference)
    for s in [None, *_SUBJECTS]:
        for p in [None, *_PREDICATES]:
            for o in [None, *_OBJECTS]:
                pattern = (s, p, o)
                matched = {t for t in reference if _matches(t, pattern)}
                assert _distinct(list(graph.triples(pattern))) == matched, pattern
                if s is None:
                    assert _distinct(list(graph.subjects(p, o))) == {t[0] for t in matched}
                if o is None:
                    assert _distinct(list(graph.objects(s, p))) == {t[2] for t in matched}
                if p is None:
                    assert _distinct(list(graph.predicates(s, o))) == {t[1] for t in matched}
                if pattern.count(None) == 1:
                    completions = {t[pattern.index(None)] for t in matched}
                    value = graph.value(s, p, o)
                    assert (value in completions) if completions else value is None


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(_write, max_size=20))
def test_graph_answers_match_a_triple_set_after_every_write(writes):
    """Random ``add`` / ``remove(pattern)`` / ``update`` interleavings: after
    each write, every pattern of ``triples()``, ``subjects``, ``objects``,
    ``predicates`` and ``value`` equals a filter over the triple set."""
    graph = Graph()
    reference: set = set()
    for write in writes:
        if write[0] == "add":
            graph.add(write[1])
            reference.add(write[1])
        elif write[0] == "remove":
            doomed = {t for t in reference if _matches(t, write[1])}
            assert graph.remove(write[1]) == len(doomed)
            reference -= doomed
        else:
            _, triples, as_graph = write
            graph.update(Graph(triples) if as_graph else triples)
            reference.update(triples)
        _assert_answers_match(graph, reference)
