"""CSR-packed trust adjacency + vectorized group-metric kernels.

The trust counterpart of :mod:`repro.perf.matrix`: where that module
packs taxonomy profiles for the similarity hot path, this one packs the
web of trust so whole Appleseed sweeps, PageRank power steps and
Advogato level scans phrase as numpy array operations instead of dict
loops.  A :class:`TrustMatrix` interns node identifiers into dense
indices and stores

* the **positive** edges (the only ones energy propagates along) in CSR
  form — row offsets ``indptr``, column indices ``indices``, weights
  ``weights`` — with per-row order equal to the graph's
  ``positive_successors`` dict order, so traversal-order-sensitive
  consumers (Advogato's max-flow network) reproduce the dict engines
  arc for arc;
* a separate flat **negative-edge slice** (``neg_src``/``neg_dst``/
  ``neg_weights``) for the one-step distrust discount, which must see
  distrust statements even though spreading ignores them.

No pack is ever mutated.  A write to a graph that holds a pack replaces
it with a spliced copy (:meth:`TrustMatrix.spliced`): the written
node's row re-read, any new nodes appended, and every array equal to a
fresh :meth:`TrustMatrix.from_graph` of the graph as it now stands.

The kernels below mirror :mod:`repro.trust` step by step — quota
splitting, decay, backward-propagation injection, convergence residual —
and are held to the same contract as :mod:`repro.perf.kernels`: the dict
implementations are the oracle, agreement within 1e-9, discrete outputs
(accepted sets, BFS orders) identical.  :func:`horizon_slice` cuts a
bounded Appleseed's horizon out of the whole graph's pack, equal array
for array to packing ``TrustGraph.within_horizon``'s sub-graph.  Each
metric of :mod:`repro.trust` drives these kernels from its
``_compute_packed`` method, beside its dict oracle; this module imports
the trust package for typing only (``TYPE_CHECKING``), so the layering
contract's ``trust -> perf`` edge stays one-directional.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from .matrix import _splice

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime perf->trust edge
    from ..trust.graph import TrustGraph

__all__ = [
    "TrustMatrix",
    "appleseed_spread",
    "bfs_order_levels",
    "distrust_discount",
    "gather_rows",
    "horizon_slice",
    "level_capacities",
    "pagerank_power",
]


class TrustMatrix:
    """Packed, read-only view of a :class:`~repro.trust.graph.TrustGraph`.

    Node order follows the graph's insertion order (``graph.nodes()``),
    per-row target order follows ``positive_successors`` — both are load
    bearing for reproducing the dict engines' traversal orders.  The
    structure is immutable, so every source of a multi-source sweep
    reads the same pack, and a trust write makes a spliced copy
    (:meth:`spliced`) instead of changing the pack in place.
    """

    __slots__ = (
        "ids",
        "index",
        "indptr",
        "indices",
        "weights",
        "edge_src",
        "neg_src",
        "neg_dst",
        "neg_weights",
    )

    def __init__(
        self,
        ids: list[str],
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        neg_src: np.ndarray,
        neg_dst: np.ndarray,
        neg_weights: np.ndarray,
    ) -> None:
        self.ids = ids
        self.index = {node: i for i, node in enumerate(ids)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        #: Flat source index per positive edge (CSR row expansion) — the
        #: scatter side of every bincount kernel below.
        self.edge_src = np.repeat(
            np.arange(len(ids), dtype=np.int64), np.diff(indptr)
        )
        self.neg_src = neg_src
        self.neg_dst = neg_dst
        self.neg_weights = neg_weights

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nnz(self) -> int:
        """Number of packed positive edges."""
        return int(self.indices.size)

    def out_degrees(self) -> np.ndarray:
        """Positive out-degree per node (CSR row lengths)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The positive targets and weights of node *i* (array views)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    @classmethod
    def from_graph(cls, graph: "TrustGraph") -> "TrustMatrix":
        """Pack *graph*; node and per-row orders mirror its dict orders."""
        ids = list(graph.nodes())
        index = {node: i for i, node in enumerate(ids)}
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        col: list[int] = []
        wgt: list[float] = []
        neg_src: list[int] = []
        neg_dst: list[int] = []
        neg_w: list[float] = []
        for i, node in enumerate(ids):
            positives, negatives = _read_row(graph, node)
            indptr[i + 1] = indptr[i] + len(positives)
            col += map(index.__getitem__, positives)
            wgt += positives.values()
            if negatives:
                neg_src += [i] * len(negatives)
                neg_dst += map(index.__getitem__, negatives)
                neg_w += negatives.values()
        return cls(
            ids=ids,
            indptr=indptr,
            indices=np.asarray(col, dtype=np.int64),
            weights=np.asarray(wgt, dtype=np.float64),
            neg_src=np.asarray(neg_src, dtype=np.int64),
            neg_dst=np.asarray(neg_dst, dtype=np.int64),
            neg_weights=np.asarray(neg_w, dtype=np.float64),
        )

    def spliced(self, graph: "TrustGraph", node: str) -> "TrustMatrix":
        """A copy of the pack with *node*'s row re-read from *graph* and
        the nodes *graph* has gained appended as empty rows.

        The pack must be a :meth:`from_graph` pack of *graph* (or a
        splice of one) from before a write that changed only *node*'s
        statements and added nodes.  The copy then equals
        ``TrustMatrix.from_graph(graph)`` array for array: an overwritten
        statement keeps its dict position in the re-read row, the
        negative slice stays grouped by ascending source so *node*'s
        group is one ``searchsorted`` range, and new nodes follow
        ``graph.nodes()`` order.  The python work is O(row); the numpy
        work copies the positive arrays, and the negative slice only when
        *node* has or had distrust statements.  ``ids`` and ``index`` are
        shared with this pack unless *graph* gained nodes.
        """
        ids, index = self.ids, self.index
        gained = len(graph) - len(ids)
        if gained:
            fresh = list(itertools.islice(graph.nodes(), len(ids), None))
            index = dict(index)
            index.update(zip(fresh, itertools.count(len(ids))))
            ids = ids + fresh
        i = index[node]
        positives, negatives = _read_row(graph, node)
        indptr = np.concatenate(
            (self.indptr, np.full(gained, self.indptr[-1], dtype=np.int64))
        )
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        indptr[i + 1 :] += len(positives) - (hi - lo)
        matrix = copy.copy(self)
        matrix.ids, matrix.index, matrix.indptr = ids, index, indptr
        matrix.edge_src, matrix.indices, matrix.weights = _splice_edges(
            (self.edge_src, self.indices, self.weights), lo, hi, i, positives, index
        )
        start, stop = np.searchsorted(self.neg_src, (i, i + 1)).tolist()
        if stop > start or negatives:
            matrix.neg_src, matrix.neg_dst, matrix.neg_weights = _splice_edges(
                (self.neg_src, self.neg_dst, self.neg_weights),
                start,
                stop,
                i,
                negatives,
                index,
            )
        return matrix

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, float]],
        nodes: Iterable[str] | None = None,
    ) -> "TrustMatrix":
        """Pack a stream of ``(source, target, weight)`` statements.

        Streaming sibling of :meth:`from_graph` for generator-produced
        communities too large to materialize as dict-of-dicts: interning
        happens on the fly and the CSR is assembled with one stable
        argsort.  Each ordered pair must appear at most once (generators
        guarantee this; :class:`~repro.trust.graph.TrustGraph` handles
        the overwrite semantics for mutable graphs).  *nodes* optionally
        pre-seeds the id intern table (for agents with no statements).
        """
        index: dict[str, int] = {}
        ids: list[str] = []

        def intern(node: str) -> int:
            slot = index.get(node)
            if slot is None:
                slot = len(ids)
                index[node] = slot
                ids.append(node)
            return slot

        if nodes is not None:
            for node in nodes:
                intern(node)
        src: list[int] = []
        dst: list[int] = []
        wgt: list[float] = []
        for source, target, weight in edges:
            if source == target:
                raise ValueError("self-trust edges are not allowed")
            src.append(intern(source))
            dst.append(intern(target))
            wgt.append(weight)
        n = len(ids)
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        w_arr = np.asarray(wgt, dtype=np.float64)
        positive = w_arr > 0.0
        negative = w_arr < 0.0
        pos_src, pos_dst, pos_w = src_arr[positive], dst_arr[positive], w_arr[positive]
        # Stable sort keeps statement order within each row, matching the
        # insertion order a TrustGraph built from the same stream has.
        order = np.argsort(pos_src, kind="stable")
        pos_src, pos_dst, pos_w = pos_src[order], pos_dst[order], pos_w[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pos_src, minlength=n), out=indptr[1:])
        return cls(
            ids=ids,
            indptr=indptr,
            indices=pos_dst,
            weights=pos_w,
            neg_src=src_arr[negative],
            neg_dst=dst_arr[negative],
            neg_weights=w_arr[negative],
        )


def _read_row(
    graph: "TrustGraph", node: str
) -> tuple[Mapping[str, float], Mapping[str, float]]:
    """*node*'s statements as packed: its positive ones in
    ``positive_successors`` order, then its negative ones in statement
    order, each mapping target to weight.

    A weight ``> 0.0`` is positive, ``< 0.0`` negative, and ``0.0`` is in
    neither.  :meth:`TrustMatrix.from_graph` and
    :meth:`TrustMatrix.spliced` both read rows here, so a spliced row
    is the row a fresh pack holds.
    """
    positives = graph.positive_successors(node)
    statements = graph.successors(node)
    if len(statements) == len(positives):  # all positive: the common row
        return positives, {}
    return positives, {
        target: weight for target, weight in statements.items() if weight < 0.0
    }


def _splice_edges(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    start: int,
    stop: int,
    source: int,
    statements: Mapping[str, float],
    index: Mapping[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copies of parallel ``(source, target, weight)`` edge arrays with
    ``[start:stop]`` replaced by *source*'s *statements*, in their order."""
    count = len(statements)
    middle = (
        np.full(count, source, dtype=np.int64),
        np.fromiter(map(index.__getitem__, statements), dtype=np.int64, count=count),
        np.fromiter(statements.values(), dtype=np.float64, count=count),
    )
    src, dst, weights = (
        _splice(array, start, stop, part) for array, part in zip(arrays, middle)
    )
    return src, dst, weights


def _row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The flat CSR positions of *rows*' entries, row after row, and the
    length of each row.

    Vectorized ranges-to-flat expansion: the positions equal
    ``np.concatenate([np.arange(indptr[r], indptr[r+1]) for r in rows])``
    without the per-row python loop.
    """
    counts = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(indptr[rows], counts) + within, counts


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR slices of *rows*, preserving row order."""
    positions, _ = _row_positions(indptr, rows)
    return indices[positions]


def horizon_slice(matrix: TrustMatrix, source: int, max_depth: int) -> TrustMatrix:
    """The packed *max_depth*-hop positive horizon of node *source*.

    Equals ``TrustMatrix.from_graph(graph.within_horizon(s, max_depth))``
    array for array when *matrix* is ``graph``'s pack: nodes in BFS
    discovery order, source first; each row keeps its edges into the
    horizon in the whole graph's row order; the negative edges with both
    ends inside are grouped by their new source, each source's in
    statement order.  The work tracks the horizon's rows plus one mask
    over the negative slice, not the whole graph's edges.
    """
    order, _ = bfs_order_levels(matrix, source, max_depth)
    size = order.size
    remap = np.full(len(matrix), -1, dtype=np.int64)
    remap[order] = np.arange(size, dtype=np.int64)
    positions, counts = _row_positions(matrix.indptr, order)
    targets = remap[matrix.indices[positions]]
    inside = targets >= 0
    rows = np.repeat(np.arange(size, dtype=np.int64), counts)[inside]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    neg_src, neg_dst = remap[matrix.neg_src], remap[matrix.neg_dst]
    kept = np.flatnonzero((neg_src >= 0) & (neg_dst >= 0))
    # Stable: a source's distrust statements keep their statement order.
    kept = kept[np.argsort(neg_src[kept], kind="stable")]
    return TrustMatrix(
        ids=[matrix.ids[i] for i in order.tolist()],
        indptr=indptr,
        indices=targets[inside],
        weights=matrix.weights[positions[inside]],
        neg_src=neg_src[kept],
        neg_dst=neg_dst[kept],
        neg_weights=matrix.neg_weights[kept],
    )


def appleseed_spread(
    matrix: TrustMatrix,
    source: int,
    injection: float,
    spreading_factor: float,
    convergence_threshold: float,
    max_iterations: int,
    normalization: str = "linear",
    backward_propagation: bool = True,
) -> tuple[np.ndarray, np.ndarray, int, bool, list[float]]:
    """Whole-graph Appleseed sweeps: one gather and one ``np.bincount``
    over the positive edges per sweep, membership marked after the loop.

    Step-for-step mirror of ``Appleseed._compute_python``: per sweep,
    every energized node keeps ``(1 - d)`` of its energy as rank
    (source excluded), forwards ``d`` split over its positive edges plus
    the virtual backward edge to the source, and the loop terminates on
    two consecutive sub-threshold residuals or full dissipation.  An
    idle node's edges add ``+0.0`` in edge order, so every sum has the
    bits of summing the live edges alone.  Returns ``(rank, members,
    iterations, converged, history)`` where ``members`` indexes the
    oracle's rank-dict keyset (source included) so zero-rank frontier
    entries survive.
    """
    n = len(matrix)
    d = spreading_factor
    weights = matrix.weights if normalization == "linear" else matrix.weights**2
    edge_src, edge_dst = matrix.edge_src, matrix.indices
    # Quota denominators: sum of (possibly squared) positive weights,
    # plus the weight-1 backward edge for every node except the source.
    # The backward weight is 1.0 under both normalizations (1**2 == 1),
    # and it *replaces* any real positive edge to the source — the
    # oracle's quota dict assigns ``edges[source] = 1.0`` over whatever
    # statement was there, so those real weights must not count twice.
    # Add the backward weight only where it belongs rather than to every
    # node and back off the source: ``(w + 1) - 1`` drops the low digits
    # of a tiny w (a squared weight of 1e-6).
    if backward_propagation:
        to_source = edge_dst == source
        if bool(to_source.any()):
            weights = weights.copy()
            weights[to_source] = 0.0
        backward = np.ones(n)
        backward[source] = 0.0
        den = np.bincount(edge_src, weights=weights, minlength=n) + backward
    else:
        den = np.bincount(edge_src, weights=weights, minlength=n)
    # No quota (edgeless source; dead end without backward edges): no share.
    forwards = den > 0.0
    safe_den = np.where(forwards, den, 1.0)
    dead = np.flatnonzero(~forwards)

    rank = np.zeros(n)
    member = np.zeros(n, dtype=bool)
    energy = np.zeros(n)
    energy[source] = injection
    history: list[float] = []
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        active = energy > 0.0
        member |= active
        # Energies are never negative, so an idle node keeps 0.0.
        kept = (1.0 - d) * energy
        kept[source] = 0.0  # source rank is a backward-edge artifact
        rank += kept
        max_delta = float(kept.max(initial=0.0))
        contrib = d * energy
        contrib /= safe_den
        if dead.size:
            contrib[dead] = 0.0
        outgoing = np.bincount(
            edge_dst, weights=weights * contrib[edge_src], minlength=n
        )
        if backward_propagation:
            # Every forwarding node except the source returns its
            # backward share (weight 1 / den) to the source.
            contrib[source] = 0.0
            outgoing[source] += contrib.sum()
        history.append(max_delta)
        # Convergence requires TWO consecutive sub-threshold sweeps —
        # see the oracle for why one sweep can alias energy parked at
        # the source.  The dissipation check runs on the *new* energy,
        # after the residual check, exactly as the dict loop orders it.
        if (
            iterations > 1
            and max_delta <= convergence_threshold
            and history[-2] <= convergence_threshold
        ):
            converged = True
            break
        if not bool((active & forwards).any()):  # energy fully dissipated
            converged = True
            break
        energy = outgoing
    member[edge_dst[(member & forwards)[edge_src]]] = True
    member[source] = True
    return rank, member, iterations, converged, history


def distrust_discount(
    matrix: TrustMatrix,
    source: int,
    rank: np.ndarray,
    member: np.ndarray,
    spreading_factor: float,
) -> np.ndarray:
    """One vectorized round of non-transitive distrust discounting.

    The oracle applies ``max(0, rank - penalty)`` per accuser
    *sequentially*; because every penalty is non-negative that equals a
    single ``max(0, rank - total_penalty)``, so one scatter-add over the
    negative-edge slice reproduces it exactly.
    """
    if matrix.neg_src.size == 0:
        return rank
    accuser = rank.copy()
    others = member.copy()
    others[source] = False
    peak = float(rank[others].max(initial=0.0))
    accuser[source] = peak or 1.0
    penalty = spreading_factor * np.bincount(
        matrix.neg_dst,
        weights=-matrix.neg_weights * accuser[matrix.neg_src],
        minlength=len(matrix),
    )
    adjusted = rank.copy()
    adjusted[others] = np.maximum(0.0, rank[others] - penalty[others])
    return adjusted


def pagerank_power(
    matrix: TrustMatrix,
    source: int,
    alpha: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, int, bool]:
    """Personalized PageRank power iteration over the positive CSR.

    Mass never leaves the component reachable from *source* (teleport
    and dangling mass both return there), so iterating over the full
    node set is algebraically identical to the oracle's restriction to
    ``reachable_from(source)``.
    """
    n = len(matrix)
    edge_src, edge_dst, weights = matrix.edge_src, matrix.indices, matrix.weights
    row_total = np.bincount(edge_src, weights=weights, minlength=n)
    spreading = row_total > 0.0
    inverse = np.zeros(n)
    inverse[spreading] = 1.0 / row_total[spreading]

    rank = np.zeros(n)
    rank[source] = 1.0
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        contrib = alpha * rank * inverse
        fresh = np.bincount(
            edge_dst, weights=weights * contrib[edge_src], minlength=n
        )
        dangling = float(rank[~spreading].sum())
        fresh[source] += (1.0 - alpha) + alpha * dangling
        delta = float(np.abs(fresh - rank).sum())
        rank = fresh
        if delta <= tolerance:
            converged = True
            break
    return rank, iterations, converged


def bfs_order_levels(
    matrix: TrustMatrix, source: int, max_depth: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """BFS discovery order and hop levels along positive edges.

    Returns ``(order, level)`` where *order* lists reached node indices
    in exactly the order a deque BFS iterating ``positive_successors``
    discovers them — Advogato's flow network and the horizon slice are
    construction-order sensitive, so first-occurrence order is part of
    the contract, not a nicety.  *level* maps every node to its hop
    count (-1 unreached).  With *max_depth*, the BFS stops after that
    many hops: the last level is reached but not expanded.
    """
    n = len(matrix)
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    chunks = [frontier]
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        targets = gather_rows(matrix.indptr, matrix.indices, frontier)
        targets = targets[level[targets] < 0]
        if targets.size == 0:
            break
        # First-occurrence dedupe, order preserved: np.unique sorts by
        # value, so re-sort the unique values by first appearance.
        uniq, first = np.unique(targets, return_index=True)
        fresh = uniq[np.argsort(first, kind="stable")]
        depth += 1
        level[fresh] = depth
        chunks.append(fresh)
        frontier = fresh
    return np.concatenate(chunks), level


def level_capacities(
    matrix: TrustMatrix,
    order: np.ndarray,
    level: np.ndarray,
    target_size: int,
    min_decay: float,
) -> list[int]:
    """Advogato per-level capacities, decaying by observed branching.

    Vector mirror of ``Advogato._level_capacities``: each level's
    capacity divides the previous one by the mean positive out-degree of
    the previous level's out-going members (floored at *min_decay*),
    never dropping below 1.
    """
    reached_levels = level[order]
    max_level = int(reached_levels.max(initial=0))
    degrees = matrix.out_degrees()[order]
    sequence = [target_size]
    for current in range(max_level):
        outgoing = degrees[(reached_levels == current) & (degrees > 0)]
        branching = (
            float(outgoing.sum()) / outgoing.size if outgoing.size else min_decay
        )
        decay = max(min_decay, branching)
        sequence.append(max(1, int(sequence[-1] / decay)))
    return sequence
