"""Property tests for the vectorized trust engines (repro.trust.engine).

The dict-based metrics are the oracle; the packed-CSR numpy engines must
agree with them within 1e-9 on continuous ranks and *exactly* on every
discrete output (membership sets, iteration counts, convergence flags,
Advogato accepted sets).  Hypothesis drives both engines over random
graphs that include the awkward shapes: dangling sinks, disconnected
sources, all-negative edge sets, weight-zero statements.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import ProfileStore, PureCFRecommender, SemanticWebRecommender
from repro.core.similarity import top_similar
from repro.core.taxonomy import figure1_fragment
from repro.obs import MetricsRegistry, collecting
from repro.trust.advogato import Advogato
from repro.trust.appleseed import Appleseed
from repro.trust.engine import rank_many
from repro.trust.graph import TrustGraph
from repro.trust.pagerank import PersonalizedPageRank

# -- strategies --------------------------------------------------------------

_NODES = [f"http://t.example.org/n{i:02d}" for i in range(14)]

#: Weights rounded to 3 decimals; zero stays possible (a stated-but-flat
#: trust value is neither positive nor negative and must drop out of
#: both engines identically).
_weights = st.floats(min_value=-1.0, max_value=1.0).map(lambda v: round(v, 3))


@st.composite
def trust_graphs(draw) -> tuple[TrustGraph, list[str]]:
    """Random graphs with isolated nodes, sinks and signed edges.

    Every node is added explicitly first, so nodes without any edge
    (disconnected sources, pure sinks) always occur.  Edge pairs are
    unique — re-stating an edge with a flipped sign is overwrite
    semantics, a separate (deterministic) concern from propagation.
    """
    nodes = draw(
        st.lists(st.sampled_from(_NODES), min_size=2, max_size=14, unique=True)
    )
    graph = TrustGraph()
    for node in nodes:
        graph.add_node(node)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=40,
            unique=True,
        )
    )
    for source, target in pairs:
        graph.add_edge(source, target, draw(_weights))
    return graph, nodes


def _dense_graph(seed: int = 97, n: int = 60, edges: int = 300) -> TrustGraph:
    """A fixed seeded graph for the sweep tests."""
    rng = random.Random(seed)
    nodes = [f"http://t.example.org/d{i:03d}" for i in range(n)]
    graph = TrustGraph()
    for node in nodes:
        graph.add_node(node)
    seen: set[tuple[str, str]] = set()
    while len(seen) < edges:
        source, target = rng.sample(nodes, 2)
        if (source, target) in seen:
            continue
        seen.add((source, target))
        weight = round(rng.uniform(-1.0, 1.0), 3) or 0.5
        graph.add_edge(source, target, weight)
    return graph


def _assert_rank_parity(python, vectorized, tolerance: float = 1e-9) -> None:
    for agent in sorted(set(python.ranks) | set(vectorized.ranks)):
        assert vectorized.ranks.get(agent, 0.0) == pytest.approx(
            python.ranks.get(agent, 0.0), abs=tolerance
        )


#: Metric configurations covering every branch the kernel specializes.
APPLESEED_CONFIGS = [
    {},
    {"normalization": "nonlinear"},
    {"backward_propagation": False},
    {"distrust_mode": "one_step"},
    {"spreading_factor": 0.5, "convergence_threshold": 0.001},
    {"max_depth": 2},
    {"max_iterations": 3},
    {"max_depth": 2, "distrust_mode": "one_step"},
    {"max_depth": 3, "normalization": "nonlinear"},
]


# -- appleseed parity --------------------------------------------------------


@pytest.mark.parametrize("config", APPLESEED_CONFIGS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_appleseed_numpy_matches_oracle(config, data):
    """Ranks agree within 1e-9; discrete outputs agree exactly."""
    graph, nodes = data.draw(trust_graphs())
    source = data.draw(st.sampled_from(nodes))
    python = Appleseed(engine="python", **config).compute(graph, source)
    vectorized = Appleseed(engine="auto", **config).compute(graph, source)
    _assert_rank_parity(python, vectorized)
    assert vectorized.iterations == python.iterations
    assert vectorized.converged == python.converged
    assert vectorized.neighborhood(0.0) == python.neighborhood(0.0)
    assert vectorized.ranks.keys() == python.ranks.keys()  # zero-rank frontier too
    assert len(vectorized.history) == len(python.history)
    for numpy_delta, python_delta in zip(vectorized.history, python.history):
        assert numpy_delta == pytest.approx(python_delta, abs=1e-9)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_pagerank_numpy_matches_oracle(data):
    graph, nodes = data.draw(trust_graphs())
    source = data.draw(st.sampled_from(nodes))
    python = PersonalizedPageRank(engine="python").compute(graph, source)
    vectorized = PersonalizedPageRank(engine="auto").compute(graph, source)
    _assert_rank_parity(python, vectorized)
    assert vectorized.iterations == python.iterations
    assert vectorized.converged == python.converged


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_advogato_numpy_matches_oracle_exactly(data):
    """Flow networks are built in identical order, so the accepted set
    (which depends on arc insertion order, not just capacities) must be
    *equal*, not merely close."""
    graph, nodes = data.draw(trust_graphs())
    seed = data.draw(st.sampled_from(nodes))
    target_size = data.draw(st.integers(min_value=1, max_value=20))
    python = Advogato(target_size=target_size, engine="python").compute(graph, seed)
    vectorized = Advogato(target_size=target_size, engine="auto").compute(graph, seed)
    assert vectorized.accepted == python.accepted
    assert vectorized.total_flow == python.total_flow
    assert vectorized.capacities == python.capacities


# -- directed edge cases -----------------------------------------------------


class TestEdgeCases:
    def _both(self, graph, source, **config):
        python = Appleseed(engine="python", **config).compute(graph, source)
        vectorized = Appleseed(engine="auto", **config).compute(graph, source)
        _assert_rank_parity(python, vectorized)
        assert vectorized.neighborhood(0.0) == python.neighborhood(0.0)
        assert vectorized.ranks.keys() == python.ranks.keys()
        return python

    def test_dangling_sink_absorbs_energy(self):
        graph = TrustGraph.from_edges([("a", "b", 0.9)])
        result = self._both(graph, "a")
        assert result.ranks["b"] > 0.0

    def test_tiny_nonlinear_weight_keeps_the_source_quota_exact(self):
        # The source's denominator was once (w**2 + 1) - 1, which lost the
        # low digits of w**2 = 1e-6 and put b's rank 2.7e-8 off the oracle.
        graph = TrustGraph.from_edges([("a", "b", 0.001)])
        result = self._both(graph, "a", normalization="nonlinear")
        assert result.ranks["b"] > 0.0

    def test_last_sweep_keeps_its_zero_rank_frontier(self):
        # Nodes first reached in the capped last sweep hold no rank yet,
        # but the oracle keeps them as keys; so must the kernel.
        graph = TrustGraph.from_edges(
            [("a", "b", 0.8), ("b", "c", 0.8), ("b", "d", 0.8), ("c", "e", 0.8)]
        )
        for config in ({}, {"backward_propagation": False}, {"max_depth": 2}):
            result = self._both(graph, "a", max_iterations=2, **config)
            assert {"c", "d"} <= result.ranks.keys() - result.neighborhood(0.0)

    def test_disconnected_source_ranks_nobody(self):
        graph = TrustGraph.from_edges([("a", "b", 0.9)])
        graph.add_node("loner")
        result = self._both(graph, "loner")
        assert result.ranks == {}
        assert result.converged

    def test_all_negative_edges_rank_nobody(self):
        graph = TrustGraph.from_edges(
            [("a", "b", -0.9), ("a", "c", -0.4), ("b", "c", -1.0)]
        )
        result = self._both(graph, "a", distrust_mode="one_step")
        assert result.neighborhood(0.0) == set()

    def test_self_loops_are_rejected(self):
        graph = TrustGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "a", 0.5)

    def test_matrix_rejects_self_loops(self):
        from repro.perf.trustmatrix import TrustMatrix

        with pytest.raises(ValueError):
            TrustMatrix.from_edges([("a", "a", 0.5)])

    def test_edge_back_to_source_matches_oracle(self):
        # A real positive edge pointing at the source is replaced by the
        # virtual backward edge in the oracle's quota; the kernel must
        # not double-count it.
        graph = TrustGraph.from_edges(
            [("a", "b", 0.8), ("b", "a", 0.9), ("b", "c", 0.6)]
        )
        self._both(graph, "a")


# -- engine values -----------------------------------------------------------


class TestResolver:
    def test_metric_constructors_validate_engine(self, tiny_dataset):
        """Every API with an ``engine`` takes exactly "auto" and "python"."""
        graph = TrustGraph.from_dataset(tiny_dataset)
        taxonomy = figure1_fragment()
        store = ProfileStore(tiny_dataset, TaxonomyProfileBuilder(taxonomy))
        source = sorted(tiny_dataset.agents)[0]
        apis = [
            Appleseed,
            PersonalizedPageRank,
            Advogato,
            NeighborhoodFormation,
            lambda engine: SemanticWebRecommender(
                dataset=tiny_dataset, graph=graph, profiles=store, engine=engine
            ),
            lambda engine: SemanticWebRecommender.from_dataset(
                tiny_dataset, taxonomy, engine=engine
            ),
            lambda engine: PureCFRecommender(
                dataset=tiny_dataset, profiles=store, engine=engine
            ),
            lambda engine: top_similar({}, {}, engine=engine),
            lambda engine: rank_many(graph, [source], engine=engine),
        ]
        for api in apis:
            for engine in ("numpy", "fortran"):
                with pytest.raises(ValueError):
                    api(engine=engine)


# -- multi-source sweeps -----------------------------------------------------


class TestRankMany:
    def test_numpy_sweep_matches_oracle_sweep(self):
        graph = _dense_graph()
        sources = sorted(graph.nodes())[:8]
        oracle = rank_many(graph, sources, engine="python")
        vectorized = rank_many(graph, sources, engine="auto")
        for python, numpy_result in zip(oracle, vectorized):
            assert numpy_result.source == python.source
            _assert_rank_parity(python, numpy_result)
            assert numpy_result.iterations == python.iterations

    def test_max_depth_sweep_slices_one_shared_pack(self):
        """Each source's horizon is sliced from one pack of the graph, and
        every result equals a per-source compute."""
        graph = _dense_graph()
        sources = sorted(graph.nodes())[:4]
        metric = Appleseed(max_depth=2)
        with collecting(MetricsRegistry()) as registry:
            swept = rank_many(graph, sources, metric=metric, engine="auto")
        assert registry.counter("trust.matrix.packs").value == 1
        for result in swept:
            direct = Appleseed(max_depth=2, engine="auto").compute(
                graph, result.source
            )
            assert result == direct

    def test_unknown_source_rejected(self):
        graph = _dense_graph()
        with pytest.raises(KeyError):
            rank_many(graph, ["http://t.example.org/ghost"])


# -- bounded queries ---------------------------------------------------------


def test_bounded_computes_share_one_pack_across_trust_writes():
    """Bounded queries slice the graph's cached pack: one pack for any
    number of them, kept across a trust write by splicing it, and every
    answer after the write equal bit for bit to one on a rebuilt graph."""
    graph = _dense_graph()
    sources = sorted(graph.nodes())[:10]
    metric = Appleseed(max_depth=3, engine="auto")
    with collecting(MetricsRegistry()) as registry:
        packs = registry.counter("trust.matrix.packs")
        for source in sources:
            metric.compute(graph, source)
        assert packs.value == 1
        graph.add_edge(sources[0], sources[1], 0.7)
        after = [metric.compute(graph, source) for source in sources]
        assert packs.value == 1
    rebuilt = TrustGraph.from_edges(graph.edges())
    assert after == [metric.compute(rebuilt, source) for source in sources]
