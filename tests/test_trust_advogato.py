"""Unit tests for the Advogato group trust metric."""

from __future__ import annotations

import pytest

from repro.evaluation.attacks import inject_sybil_region
from repro.trust.advogato import Advogato
from repro.trust.graph import TrustGraph


def chain_graph() -> TrustGraph:
    return TrustGraph.from_edges(
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)]
    )


def star_graph(n: int = 10) -> TrustGraph:
    graph = TrustGraph()
    for i in range(n):
        graph.add_edge("hub", f"spoke{i}", 1.0)
    return graph


class TestParameters:
    def test_invalid_target_size(self):
        with pytest.raises(ValueError):
            Advogato(target_size=0)

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError):
            Advogato(capacities=[])

    def test_unknown_seed_rejected(self):
        with pytest.raises(KeyError):
            Advogato().compute(chain_graph(), "ghost")


class TestCertification:
    def test_seed_always_accepted(self):
        result = Advogato(target_size=10).compute(chain_graph(), "a")
        assert "a" in result.accepted

    def test_chain_accepted_with_capacity(self):
        result = Advogato(capacities=[8, 4, 2, 1]).compute(chain_graph(), "a")
        assert {"a", "b"} <= result.accepted

    def test_isolated_seed(self):
        graph = TrustGraph()
        graph.add_node("alone")
        result = Advogato().compute(graph, "alone")
        assert result.accepted == {"alone"}

    def test_accepted_subset_of_reachable(self):
        graph = chain_graph()
        graph.add_edge("x", "y", 1.0)  # disconnected component
        result = Advogato(target_size=50).compute(graph, "a")
        assert result.accepted <= graph.reachable_from("a")

    def test_star_accepts_spokes_up_to_capacity(self):
        result = Advogato(capacities=[20, 1]).compute(star_graph(10), "hub")
        # Hub consumes 1 unit, each accepted spoke 1: all 10 spokes fit
        # within the hub's 19 forwardable units.
        assert len(result.accepted) == 11

    def test_capacity_bounds_acceptance(self):
        result = Advogato(capacities=[4, 1]).compute(star_graph(10), "hub")
        # Seed capacity 4: hub + 3 forwarded units.
        assert len(result.accepted) == 4

    def test_total_flow_equals_accepted_count(self):
        result = Advogato(target_size=10).compute(chain_graph(), "a")
        assert result.total_flow == len(result.accepted)

    def test_distrust_edges_ignored(self):
        graph = TrustGraph.from_edges([("a", "b", 1.0), ("a", "m", -0.9)])
        result = Advogato(target_size=10).compute(graph, "a")
        assert "m" not in result.accepted

    def test_capacities_recorded_per_node(self):
        result = Advogato(capacities=[9, 3, 1]).compute(chain_graph(), "a")
        assert result.capacities["a"] == 9
        assert result.capacities["b"] == 3
        assert result.capacities["c"] == 1
        assert result.capacities["d"] == 1  # last value extends

    def test_derived_capacities_decay(self):
        result = Advogato(target_size=100).compute(star_graph(20), "hub")
        assert result.capacities["hub"] == 100
        assert result.capacities["spoke0"] < 100


class TestAttackResistance:
    """The defining property: acceptance is bounded by the honest->sybil cut."""

    def _honest_graph(self) -> TrustGraph:
        graph = TrustGraph()
        for i in range(20):
            graph.add_edge(f"h{i}", f"h{(i + 1) % 20}", 1.0)
            graph.add_edge(f"h{i}", f"h{(i + 3) % 20}", 1.0)
        return graph

    def test_no_bridges_no_sybils(self, tiny_dataset):
        region = inject_sybil_region(tiny_dataset, n_sybils=20, n_bridges=0, seed=1)
        graph = TrustGraph.from_dataset(region.dataset)
        result = Advogato(target_size=30).compute(graph, sorted(tiny_dataset.agents)[0])
        assert not (result.accepted & region.sybils)

    def test_sybil_acceptance_bounded_by_bridge_count(self, tiny_dataset):
        region = inject_sybil_region(tiny_dataset, n_sybils=40, n_bridges=2, seed=2)
        graph = TrustGraph.from_dataset(region.dataset)
        seed_agent = sorted(tiny_dataset.agents)[0]
        result = Advogato(target_size=30).compute(graph, seed_agent)
        accepted_sybils = result.accepted & region.sybils
        # Flow into the sybil region is bounded by the bridge arcs times
        # the per-node capacity at the bridge level; with level capacities
        # decaying to 1 the bound is small even though 40 sybils exist.
        assert len(accepted_sybils) <= 2 * max(result.capacities.values())
        assert len(accepted_sybils) < 40
