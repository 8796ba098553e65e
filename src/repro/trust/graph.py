"""The web of trust: a sparse directed graph of signed trust statements.

Every agent ``a_i`` contributes a partial trust function ``t_i`` (§3.1);
collectively these form a directed, weighted graph with weights in
``[-1, +1]``.  Positive weights denote trust, negative explicit distrust,
values near zero weak trust.  The graph is the substrate both group trust
metrics (Appleseed, Advogato) operate on.

Because the Semantic Web scenario forbids global knowledge, Appleseed
"operates on partial trust graph information, exploring the social
network within predefined ranges only" (§3.2): a bounded query sees only
the ball of a bounded radius around its source.  The packed engine
slices that ball out of the graph's cached pack
(:func:`repro.perf.trustmatrix.horizon_slice`); :meth:`within_horizon`
copies it out as a sub-graph for the dict oracle and the scalar metrics.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Optional

from ..core.models import validate_score

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.models import Dataset
    from ..perf.trustmatrix import TrustMatrix

__all__ = ["TrustGraph"]


class TrustGraph:
    """Directed graph of trust statements with O(1) successor access.

    Edges carry a single weight; re-adding an edge overwrites (a newer
    published trust statement supersedes the old one).  Nodes exist as
    soon as they appear on either end of an edge or are added explicitly,
    so agents that state no trust and receive none can still be queried.

    One writer at a time, and no reader while it writes (DESIGN.md's
    concurrency contract): :meth:`edges` and :meth:`within_horizon`
    iterate the live adjacency dicts, and the memoized views below are
    plain attributes that each mutator drops.
    """

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, float]] = {}
        # Positive-only successor views, built on demand and memoized.
        # The group trust metrics call :meth:`positive_successors` inside
        # their innermost loops (once per node per Appleseed quota, once
        # per node per BFS level), and filtering the full adjacency dict
        # there allocated a fresh dict per call — the single hottest
        # allocation in the python engine.  Edge mutations drop the
        # touched node's view.
        self._pos_succ: dict[str, dict[str, float]] = {}
        # The packed CSR of the whole graph (see :meth:`packed`), kept
        # until the next mutation: queries on an unchanged graph share
        # one pack instead of repacking per call.
        self._packed: TrustMatrix | None = None

    # -- construction -----------------------------------------------------

    def add_node(self, node: str) -> None:
        """Ensure *node* exists (idempotent)."""
        if not node:
            raise ValueError("node identifier must be non-empty")
        if node not in self._succ:
            self._insert_node(node)

    def _insert_node(self, node: str) -> None:
        """Add a node the graph lacks."""
        self._succ[node] = {}
        self._pos_succ.pop(node, None)
        self._packed = None

    def add_edge(self, source: str, target: str, weight: float) -> None:
        """State ``t_source(target) = weight``; overwrites a prior statement."""
        if source == target:
            raise ValueError("self-trust edges are not allowed")
        if not source or not target:
            raise ValueError("node identifier must be non-empty")
        weight = validate_score(weight, "trust weight")
        if source not in self._succ:
            self._insert_node(source)
        if target not in self._succ:
            self._insert_node(target)
        self._succ[source][target] = weight
        self._pos_succ.pop(source, None)
        self._packed = None

    def remove_edge(self, source: str, target: str) -> None:
        """Retract a trust statement; missing edges raise :class:`KeyError`."""
        del self._succ[source][target]
        self._pos_succ.pop(source, None)
        self._packed = None

    @classmethod
    def from_dataset(cls, dataset: "Dataset") -> "TrustGraph":
        """Build the community trust graph from a :class:`Dataset`."""
        graph = cls()
        for agent in dataset.agents:
            graph.add_node(agent)
        for statement in dataset.iter_trust():
            graph.add_edge(statement.source, statement.target, statement.value)
        return graph

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, float]]) -> "TrustGraph":
        """Build a graph from ``(source, target, weight)`` tuples."""
        graph = cls()
        for source, target, weight in edges:
            graph.add_edge(source, target, weight)
        return graph

    # -- accessors -----------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[str]:
        return iter(self._succ)

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def edges(self) -> Iterator[tuple[str, str, float]]:
        for source, targets in self._succ.items():
            for target, weight in targets.items():
                yield (source, target, weight)

    def weight(self, source: str, target: str) -> Optional[float]:
        """The stated trust weight, or ``None`` for ⊥ (no statement)."""
        return self._succ.get(source, {}).get(target)

    def successors(self, node: str) -> Mapping[str, float]:
        """All outgoing statements of *node* (read-only view semantics)."""
        return self._succ.get(node, {})

    def predecessors(self, node: str) -> Mapping[str, float]:
        """All incoming statements about *node*.

        No trust metric reads a node's incoming statements, so the graph
        keeps no in-adjacency: this scans every node's successors, O(edges).
        """
        return {
            source: targets[node]
            for source, targets in self._succ.items()
            if node in targets
        }

    def positive_successors(self, node: str) -> dict[str, float]:
        """Outgoing statements with strictly positive weight.

        Group trust metrics propagate along trust, never along distrust;
        a negative statement must not lend its target any energy.  The
        returned mapping is a *cached view* memoized per node (edge
        mutations invalidate it) — callers must copy before modifying (as
        :class:`Appleseed` does when adding its virtual backward edge).
        """
        view = self._pos_succ.get(node)
        if view is None:
            view = {
                target: weight
                for target, weight in self._succ.get(node, {}).items()
                if weight > 0.0
            }
            self._pos_succ[node] = view
        return view

    def packed(self, pack: Callable[["TrustGraph"], "TrustMatrix"]) -> "TrustMatrix":
        """The packed matrix of the graph as it stands.

        *pack* builds it on the first call after a mutation; later calls
        return the same read-only matrix until :meth:`add_node`,
        :meth:`add_edge` or :meth:`remove_edge` drops it.
        """
        matrix = self._packed
        if matrix is None:
            matrix = pack(self)
            self._packed = matrix
        return matrix

    def out_degree(self, node: str) -> int:
        return len(self._succ.get(node, {}))

    def in_degree(self, node: str) -> int:
        return len(self.predecessors(node))

    # -- partial exploration ----------------------------------------------------

    def within_horizon(self, source: str, max_depth: int) -> "TrustGraph":
        """The sub-graph reachable from *source* within *max_depth* hops.

        Only edges between discovered nodes are retained.  Traversal
        follows positive edges (distrust does not extend one's horizon)
        but negative edges *between* discovered nodes are kept so distrust
        post-processing still sees them.  The python Appleseed oracle
        explores through this copy; the packed engine slices the same
        horizon out of :meth:`packed` instead, equal to packing this
        sub-graph.
        """
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if source not in self._succ:
            raise KeyError(f"unknown source agent {source!r}")
        depth = {source: 0}
        queue: deque[str] = deque([source])
        while queue:
            node = queue.popleft()
            if depth[node] >= max_depth:
                continue
            for target in self.positive_successors(node):
                if target not in depth:
                    depth[target] = depth[node] + 1
                    queue.append(target)
        subgraph = TrustGraph()
        for node in depth:
            subgraph.add_node(node)
        for node in depth:
            for target, weight in self._succ[node].items():
                if target in depth:
                    subgraph.add_edge(node, target, weight)
        return subgraph

    def bfs_levels(self, source: str) -> dict[str, int]:
        """Shortest positive-path hop distance from *source* to each node.

        Used by Advogato's level-based capacity assignment.
        """
        if source not in self._succ:
            raise KeyError(f"unknown source agent {source!r}")
        levels = {source: 0}
        queue: deque[str] = deque([source])
        while queue:
            node = queue.popleft()
            for target in self.positive_successors(node):
                if target not in levels:
                    levels[target] = levels[node] + 1
                    queue.append(target)
        return levels

    def reachable_from(self, source: str) -> set[str]:
        """Nodes reachable from *source* along positive edges (incl. source)."""
        return set(self.bfs_levels(source))

    def __repr__(self) -> str:
        return f"TrustGraph(nodes={len(self)}, edges={self.edge_count()})"
