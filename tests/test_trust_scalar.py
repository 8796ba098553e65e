"""Unit tests for the scalar trust metric baselines."""

from __future__ import annotations

import pytest

from repro.trust.graph import TrustGraph
from repro.trust.scalar import multiplicative_path_trust, scalar_neighborhood


def graph() -> TrustGraph:
    return TrustGraph.from_edges(
        [
            ("a", "b", 0.9),
            ("b", "c", 0.8),
            ("a", "c", 0.5),
            ("c", "d", 1.0),
            ("a", "x", -0.9),
        ]
    )


class TestMultiplicativePath:
    def test_direct_edge(self):
        trust = multiplicative_path_trust(graph(), "a")
        assert trust["b"] == pytest.approx(0.9)

    def test_best_path_wins(self):
        trust = multiplicative_path_trust(graph(), "a")
        # a->b->c = 0.72 beats direct a->c = 0.5.
        assert trust["c"] == pytest.approx(0.72)

    def test_attenuation_along_chain(self):
        trust = multiplicative_path_trust(graph(), "a")
        assert trust["d"] == pytest.approx(0.72 * 1.0)
        assert trust["d"] <= trust["c"]

    def test_distrust_not_followed(self):
        trust = multiplicative_path_trust(graph(), "a")
        assert "x" not in trust

    def test_source_not_included(self):
        assert "a" not in multiplicative_path_trust(graph(), "a")

    def test_max_depth(self):
        trust = multiplicative_path_trust(graph(), "a", max_depth=1)
        assert set(trust) == {"b", "c"}
        # Depth 1 only sees the direct (weaker) edge to c.
        assert trust["c"] == pytest.approx(0.5)

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            multiplicative_path_trust(graph(), "a", max_depth=0)

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            multiplicative_path_trust(graph(), "ghost")

    def test_values_within_unit_interval(self):
        trust = multiplicative_path_trust(graph(), "a")
        assert all(0.0 < v <= 1.0 for v in trust.values())

    def test_monotone_under_prefix(self):
        """Trust in a node never exceeds trust in the best predecessor."""
        g = graph()
        trust = multiplicative_path_trust(g, "a")
        for node, value in trust.items():
            predecessors = [
                trust.get(p, 1.0 if p == "a" else 0.0) * w
                for p, w in g.predecessors(node).items()
                if w > 0
            ]
            assert value == pytest.approx(max(predecessors))


class TestScalarNeighborhood:
    def test_threshold_strict(self):
        scores = {"a": 0.5, "b": 0.2, "c": 0.20001}
        assert scalar_neighborhood(scores, 0.2) == {"a", "c"}

    def test_empty(self):
        assert scalar_neighborhood({}, 0.1) == set()
