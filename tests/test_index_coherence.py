"""Differential tests for the indexes behind ``Dataset``, ``TrustGraph``
and ``ProfileStore``.

``Dataset`` answers ``ratings_of`` / ``trust_of`` / ``raters_of`` from
per-agent, per-source and per-product index dicts, and ``TrustGraph``
keeps its per-node positive views until the next mutation and splices
its packed ``TrustMatrix`` on every write.  Both are
caches over the plain maps, so both are checked against a brute-force
rebuild after every step of a random interleaving of the mutation paths
the repository uses, and the spliced pack also over sixty writes to a
thousand-node graph.  Bounded Appleseed slices its horizon out of that
cached pack, so the slice is checked the same way, against packing the
``within_horizon`` sub-graph.  ``ProfileStore`` keeps its packed
``ProfileMatrix`` across writes by splicing the written agent's row, so
it is checked against a fresh store's pack after every write.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import ProfileStore
from repro.core.taxonomy import Taxonomy
from repro.datasets import stream_trust_edges
from repro.obs import MetricsRegistry, collecting
from repro.perf.kernels import similarity_many
from repro.perf.matrix import ProfileMatrix
from repro.perf.trustmatrix import TrustMatrix, horizon_slice
from repro.trust.engine import rank_many
from repro.trust.graph import TrustGraph

_AGENTS = [f"http://index.example.org/a{i}" for i in range(5)]
_PRODUCTS = [f"isbn:{i}" for i in range(4)]
_values = st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0])
_agent = st.sampled_from(_AGENTS)
_product = st.sampled_from(_PRODUCTS)
_pair = st.tuples(_agent, _agent).filter(lambda pair: pair[0] != pair[1])

_dataset_steps = st.one_of(
    st.tuples(st.just("add_rating"), _agent, _product, _values),
    st.tuples(st.just("add_trust"), _pair, _values),
    st.tuples(st.just("add_agent"), _agent),
    st.tuples(st.just("remove_rating"), _agent, _product),
    st.tuples(st.just("remove_trust"), _pair),
    st.tuples(st.just("remove_agent"), _agent),
    st.tuples(st.just("restrict"), st.frozensets(_agent)),
    st.tuples(st.just("construct")),
    st.tuples(st.just("copy")),
    st.tuples(st.just("edit_answer"), _agent),
)


def _contents(dataset: Dataset) -> tuple[list[object], ...]:
    """Everything a dataset holds, in its iteration order."""
    return (
        list(dataset.agents.items()),
        list(dataset.products.items()),
        list(dataset.trust.items()),
        list(dataset.ratings.items()),
    )


def _assert_index_matches_scan(dataset: Dataset) -> None:
    """Each index answer equals the scan of the full maps, order included."""
    ratings, trust = dataset.ratings.items(), dataset.trust.items()
    assert all(key == (r.agent, r.product) for key, r in ratings)
    assert all(key == (s.source, s.target) for key, s in trust)
    for agent in _AGENTS:
        scan = [(product, r.value) for (a, product), r in ratings if a == agent]
        assert list(dataset.ratings_of(agent).items()) == scan
        scan = [(target, s.value) for (source, target), s in trust if source == agent]
        assert list(dataset.trust_of(agent).items()) == scan
    for product in _PRODUCTS:
        scan = [(agent, r.value) for (agent, p), r in ratings if p == product]
        assert list(dataset.raters_of(product).items()) == scan


def _start() -> Dataset:
    dataset = Dataset()
    for uri in _AGENTS:
        dataset.add_agent(Agent(uri=uri))
    for identifier in _PRODUCTS:
        dataset.add_product(Product(identifier=identifier))
    return dataset


def _apply(dataset: Dataset, step: tuple, originals: list) -> Dataset:
    """One step; returns the dataset later steps work on."""
    kind = step[0]
    if kind == "add_rating":
        dataset.add_rating(Rating(agent=step[1], product=step[2], value=step[3]))
    elif kind == "add_trust":
        (source, target), value = step[1], step[2]
        dataset.add_trust(TrustStatement(source=source, target=target, value=value))
    elif kind == "add_agent":
        dataset.add_agent(Agent(uri=step[1]))
    elif kind in ("remove_rating", "remove_trust", "remove_agent"):
        args = step[1] if kind == "remove_trust" else step[1:]
        present = {
            "remove_rating": tuple(args) in dataset.ratings,
            "remove_trust": tuple(args) in dataset.trust,
            "remove_agent": args[0] in dataset.agents,
        }[kind]
        if present:
            getattr(dataset, kind)(*args)
        else:
            before = _contents(dataset)
            with pytest.raises(KeyError):
                getattr(dataset, kind)(*args)
            assert _contents(dataset) == before
    elif kind == "restrict":
        kept = step[1]
        subset = dataset.restricted_to_agents(kept)
        assert set(subset.agents) == kept & set(dataset.agents)
        return subset
    elif kind == "construct":
        return Dataset(
            agents=dict(dataset.agents),
            products=dict(dataset.products),
            trust=dict(dataset.trust),
            ratings=dict(dataset.ratings),
        )
    elif kind == "copy":
        clone = dataset.copy()
        assert _contents(clone) == _contents(dataset)
        originals.append((dataset, _contents(dataset)))
        return clone
    elif kind == "edit_answer":
        dataset.ratings_of(step[1])["isbn:edited"] = 1.0
        dataset.trust_of(step[1])["http://index.example.org/edited"] = 1.0
    return dataset


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_dataset_steps, max_size=40))
def test_dataset_index_matches_a_scan_after_every_step(steps):
    dataset = _start()
    originals: list = []
    _assert_index_matches_scan(dataset)
    for step in steps:
        dataset = _apply(dataset, step, originals)
        _assert_index_matches_scan(dataset)
    # A copy shares no index row with its original: writes to the copy
    # left every original as it was.
    for original, contents in originals:
        assert _contents(original) == contents
        _assert_index_matches_scan(original)


class TestDatasetViews:
    def test_item_writes_raise(self, tiny_dataset):
        key = next(iter(tiny_dataset.ratings))
        edge = next(iter(tiny_dataset.trust))
        with pytest.raises(TypeError):
            tiny_dataset.ratings[key] = tiny_dataset.ratings[key]
        with pytest.raises(TypeError):
            del tiny_dataset.ratings[key]
        with pytest.raises(TypeError):
            tiny_dataset.trust[edge] = tiny_dataset.trust[edge]
        with pytest.raises(TypeError):
            del tiny_dataset.trust[edge]
        with pytest.raises(AttributeError):
            tiny_dataset.ratings.pop(key)

    def test_constructor_copies_its_maps(self, tiny_dataset):
        ratings = dict(tiny_dataset.ratings)
        dataset = Dataset(agents=dict(tiny_dataset.agents), ratings=ratings)
        ratings.clear()
        assert dataset.ratings == tiny_dataset.ratings

    def test_remove_agent_drops_both_trust_sides(self, tiny_dataset):
        carol = "http://example.org/carol"
        removed = tiny_dataset.remove_agent(carol)
        assert removed.uri == carol
        assert all(carol not in key for key in tiny_dataset.trust)
        assert tiny_dataset.ratings_of(carol) == {}
        assert carol not in tiny_dataset.raters_of("isbn:2")
        tiny_dataset.validate()


# -- the packed trust matrix --------------------------------------------------

_NODES = [f"n{i}" for i in range(6)]
_node = st.sampled_from(_NODES)
_edge = st.tuples(_node, _node).filter(lambda pair: pair[0] != pair[1])
_graph_steps = st.one_of(
    st.tuples(st.just("add_node"), _node),
    st.tuples(st.just("add_edge"), _edge, _values),
    st.tuples(st.just("remove_edge"), _edge),
    st.tuples(st.just("read")),
)


def _assert_same_matrix(left: TrustMatrix, right: TrustMatrix) -> None:
    assert left.ids == right.ids
    assert left.index == right.index
    for name in TrustMatrix.__slots__:
        if name in ("ids", "index"):
            continue
        mine, theirs = getattr(left, name), getattr(right, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name


def _mutate(graph: TrustGraph, step: tuple) -> bool:
    """Apply one step; whether it changed the graph."""
    kind = step[0]
    if kind == "add_node":
        fresh = step[1] not in graph
        graph.add_node(step[1])
        return fresh
    if kind == "add_edge":
        (source, target), weight = step[1], step[2]
        graph.add_edge(source, target, weight)
        return True
    if kind == "remove_edge":
        source, target = step[1]
        if graph.weight(source, target) is None:
            with pytest.raises(KeyError):
                graph.remove_edge(source, target)
            return False
        graph.remove_edge(source, target)
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_graph_steps, max_size=30))
def test_packed_equals_a_fresh_pack_after_every_step(steps):
    """The graph packs once; each write splices the held pack into a copy
    equal to a fresh pack and leaves the pack handed out before it as it
    was."""
    graph = TrustGraph()
    graph.add_node(_NODES[0])
    with collecting(MetricsRegistry()) as registry:
        packs = registry.counter("trust.matrix.packs")
        splices = registry.counter("trust.matrix.splices")
        packed = graph.packed()
        for step in steps:
            before, fresh = splices.value, TrustMatrix.from_graph(graph)
            changed = _mutate(graph, step)
            _assert_same_matrix(packed, fresh)
            packed = graph.packed()
            _assert_same_matrix(packed, TrustMatrix.from_graph(graph))
            assert splices.value == before + (1 if changed else 0)
            assert graph.packed() is packed
            assert packs.value == 1


def _rebuilt(graph: TrustGraph) -> TrustGraph:
    """*graph* built fresh from its nodes and ``edges()``, in their order."""
    fresh = TrustGraph()
    for node in graph.nodes():
        fresh.add_node(node)
    for source, target, weight in graph.edges():
        fresh.add_edge(source, target, weight)
    return fresh


def test_sixty_writes_to_a_thousand_node_graph_keep_pack_and_ranks_fresh():
    """New edges, overwrites, removals, edges to and from brand-new nodes,
    and a mid-row edge flipped positive -> negative -> zero -> positive:
    after each write the held pack equals the pack of a graph built
    fresh from the same statements, and so do the writer's ranks."""
    graph = TrustGraph.from_edges(stream_trust_edges(1_000))
    nodes = list(graph.nodes())
    rng = random.Random(24)
    flipper = next(node for node in nodes if graph.out_degree(node) >= 5)
    row = list(graph.successors(flipper).items())
    middle = next(target for target, weight in row[1:-1] if weight > 0.0)
    flips = {10: -0.6, 25: 0.0, 40: 0.8}
    registry = MetricsRegistry()
    graph.packed()
    for step in range(60):
        weight = round(rng.uniform(-1.0, 1.0), 3)
        source = rng.choice(nodes)
        statements = list(graph.successors(source))
        with collecting(registry):
            if step in flips:
                source = flipper
                graph.add_edge(flipper, middle, flips[step])
            elif step % 4 == 0 or not statements:
                target = rng.choice(nodes)
                while target == source or target in statements:
                    target = rng.choice(nodes)
                graph.add_edge(source, target, weight)
            elif step % 4 == 1:
                graph.add_edge(source, rng.choice(statements), weight)
            elif step % 4 == 2:
                graph.remove_edge(source, rng.choice(statements))
            elif step % 8 == 3:
                graph.add_edge(source, f"fresh-{step}", weight)
            else:
                graph.add_edge(f"fresh-{step}", source, weight)
                source = f"fresh-{step}"
            held = graph.packed()
            ranks = rank_many(graph, [source])
        fresh = _rebuilt(graph)
        _assert_same_matrix(held, fresh.packed())
        assert ranks == rank_many(fresh, [source])
    assert middle in graph.positive_successors(flipper)
    assert len(graph) > len(nodes)
    assert registry.counter("trust.matrix.packs").value == 0
    assert registry.counter("trust.matrix.splices").value == 60


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(_node, min_size=1, unique=True),
    edges=st.lists(st.tuples(_edge, _values), max_size=20),
    steps=st.lists(st.tuples(_graph_steps, st.integers(1, 4)), max_size=20),
)
def test_horizon_slice_equals_a_packed_horizon_graph(nodes, edges, steps):
    """Every source's horizon, sliced out of the cached whole-graph pack,
    equals packing the ``within_horizon`` sub-graph, after every step.

    Nodes are added in a drawn order before the edges, so a BFS level's
    discovery order and the sliced negative edges' order differ from
    node-index order, as the slice must not assume they agree.
    """
    graph = TrustGraph()
    for node in nodes:
        graph.add_node(node)
    for (source, target), weight in edges:
        graph.add_edge(source, target, weight)
    _assert_slices_match(graph, range(1, 5))
    for step, depth in steps:
        _mutate(graph, step)
        _assert_slices_match(graph, [depth])


def _assert_slices_match(graph: TrustGraph, depths: Iterable[int]) -> None:
    packed = graph.packed()
    for depth in depths:
        for source in graph.nodes():
            _assert_same_matrix(
                horizon_slice(packed, packed.index[source], depth),
                TrustMatrix.from_graph(graph.within_horizon(source, depth)),
            )


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_graph_steps, max_size=30))
def test_positive_successors_follow_every_edge_write(steps):
    graph = TrustGraph()
    graph.add_node(_NODES[0])
    for step in steps:
        held = {node: graph.positive_successors(node) for node in _NODES}
        contents = {node: dict(view) for node, view in held.items()}
        _mutate(graph, step)
        for node in _NODES:
            # A view handed out before the write is never resized by it.
            assert held[node] == contents[node]
            view = graph.positive_successors(node)
            assert view == {
                target: weight
                for target, weight in graph.successors(node).items()
                if weight > 0.0
            }
            assert graph.positive_successors(node) is view


# -- the packed profile matrix ------------------------------------------------

_MEMBERS = [f"http://profile.example.org/a{i}" for i in range(6)]
_member = st.sampled_from(_MEMBERS)
#: Leaf topics; each product is classified under one or two of them.
_LEAVES = {"t0": ["t0a", "t0b"], "t1": ["t1a"], "t2": ["t2a", "t2b"]}
_CLASSES = [("t0a",), ("t0b", "t1a"), ("t2a",), ("t2b",), ("t1a",), ("t0a", "t2b")]
_SHELF = [f"isbn:p{i}" for i in range(len(_CLASSES))]
_shelf = st.sampled_from(_SHELF)
_score = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
_profile_steps = st.one_of(
    st.tuples(st.just("add_rating"), _member, _shelf, _score),
    st.tuples(st.just("remove_rating"), _member, _shelf),
    st.tuples(st.just("add_agent"), _member),
    st.tuples(st.just("remove_agent"), _member),
    st.tuples(st.just("add_trust"), _member, _member, _score),
)


def _builder() -> TaxonomyProfileBuilder:
    taxonomy = Taxonomy("books")
    for branch, leaves in _LEAVES.items():
        taxonomy.add_topic(branch, "books")
        for leaf in leaves:
            taxonomy.add_topic(leaf, branch)
    # Signed, rating-weighted profiles: every drawn value shapes the row,
    # and opposite ratings on one topic leave explicit 0.0 entries.
    return TaxonomyProfileBuilder(
        taxonomy, product_weighting="rating", negative_mode="signed"
    )


def _write(dataset: Dataset, step: tuple) -> str:
    """Apply one write; returns the agent whose profile it may change."""
    kind, agent = step[0], step[1]
    if kind == "add_rating":
        dataset.add_rating(Rating(agent=agent, product=step[2], value=step[3]))
    elif kind == "remove_rating" and (agent, step[2]) in dataset.ratings:
        dataset.remove_rating(agent, step[2])
    elif kind == "add_agent":
        dataset.add_agent(Agent(uri=agent))
    elif kind == "remove_agent" and agent in dataset.agents:
        dataset.remove_agent(agent)
    elif kind == "add_trust" and agent != step[2]:
        dataset.add_trust(TrustStatement(source=agent, target=step[2], value=step[3]))
    return agent


def _rows(matrix: ProfileMatrix) -> list[list[tuple[str, float]]]:
    """Each row's ``(topic, value)`` entries, in entry order."""
    topics = matrix.vocabulary.topics
    bounds = zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist())
    return [
        [
            (topics[col], value)
            for col, value in zip(
                matrix.indices[lo:hi].tolist(), matrix.values[lo:hi].tolist()
            )
        ]
        for lo, hi in bounds
    ]


def _assert_same_profiles(
    mine: ProfileMatrix, fresh: ProfileMatrix, target: dict[str, float]
) -> None:
    assert mine.ids == fresh.ids
    assert _rows(mine) == _rows(fresh)
    for name in ("entry_row", "support", "row_sum", "row_sumsq", "row_norm"):
        assert np.array_equal(getattr(mine, name), getattr(fresh, name)), name
    for measure in ("pearson", "cosine"):
        for domain in ("union", "intersection"):
            assert np.array_equal(
                similarity_many(target, mine, measure=measure, domain=domain),
                similarity_many(target, fresh, measure=measure, domain=domain),
            ), (measure, domain)


@settings(max_examples=100, deadline=None)
@given(
    members=st.sets(_member, min_size=1),
    ratings=st.lists(st.tuples(_member, _shelf, _score), max_size=8),
    steps=st.lists(st.tuples(_profile_steps, _member), max_size=20),
)
def test_profile_matrix_equals_a_fresh_pack_after_every_step(members, ratings, steps):
    """A write and ``invalidate(agent)`` splice one row; the packed matrix
    then equals a fresh store's pack row for row and scores bit for bit
    alike, whatever columns its new topics were given."""
    dataset = Dataset()
    for uri in sorted(members):
        dataset.add_agent(Agent(uri=uri))
    for identifier, topics in zip(_SHELF, _CLASSES):
        dataset.add_product(Product(identifier=identifier, descriptors=frozenset(topics)))
    for agent, product, value in ratings:
        dataset.add_rating(Rating(agent=agent, product=product, value=value))
    builder = _builder()
    store = ProfileStore(dataset, builder)
    packed = store.matrix()
    for step, target in steps:
        store.invalidate(_write(dataset, step))
        assert store.matrix() is packed
        fresh = ProfileStore(dataset, builder)
        _assert_same_profiles(packed, fresh.matrix(), fresh.profile(target))
