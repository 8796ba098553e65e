"""Packed profile matrices for the vectorized similarity engine.

The pure-Python similarity path (:mod:`repro.core.similarity`) computes
Pearson/cosine one ``dict`` pair at a time — O(|profile|) hashing per
pair, re-done for every principal.  At community scale (§2's
"computational complexity" research issue) the same work phrases as a
handful of matrix-vector products over a packed representation:

* :class:`TopicVocabulary` interns topic identifiers into dense column
  indices, shared across matrices so profiles from different sources
  line up;
* :class:`ProfileMatrix` packs one community's sparse profiles into a
  dense float64 matrix plus a *support mask*, with row sums, squared
  sums, norms and support sizes precomputed once, and an inverted
  topic→rows index used to prune zero-overlap candidates before any
  kernel runs.

The mask records *key presence*, not non-zero value: a profile may carry
an explicit ``0.0`` score, which counts toward the union/intersection
domains of :mod:`repro.core.similarity` but contributes nothing to dot
products.  Keeping presence separate is what lets the vectorized kernels
reproduce the dict-based oracle exactly.

Dense storage is deliberate at the community sizes the experiments run
(hundreds to low thousands of agents, taxonomy vocabularies of a few
thousand topics): BLAS-backed matmuls beat scipy-free CSR emulation, and
the support mask plays the CSR indptr/indices role for domain
bookkeeping.  The cost grows faster than the community, though: a
dense-plus-mask pack measured 52 MB at 910 agents and 253 MB at 2,275,
and would need about 2.6 GB at the paper's 9,100 (ROADMAP item 3).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ProfileMatrix", "TopicVocabulary"]


class TopicVocabulary:
    """Interns topic identifiers into dense column indices.

    Intern order defines the column order; lookups are dict-speed.  A
    vocabulary can be shared by several matrices (e.g. one per community
    shard) so their columns stay aligned.
    """

    __slots__ = ("_index",)

    def __init__(self, topics: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        for topic in topics:
            self.intern(topic)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, topic: str) -> bool:
        return topic in self._index

    def intern(self, topic: str) -> int:
        """Column index for *topic*, assigning the next free one if new."""
        index = self._index.get(topic)
        if index is None:
            index = len(self._index)
            self._index[topic] = index
        return index

    def index_of(self, topic: str) -> int | None:
        """Column index for *topic*, or ``None`` when never interned."""
        return self._index.get(topic)

    @property
    def topics(self) -> list[str]:
        """All interned topics in column order."""
        return list(self._index)


class ProfileMatrix:
    """One community's sparse profiles packed into dense numpy arrays.

    Rows follow ``ids`` (sorted identifier order by default, for
    determinism); columns follow the vocabulary's intern order.  All
    per-row aggregates the similarity kernels need are precomputed here
    so repeated ``*_many`` calls against the same community do no
    per-profile Python work at all.
    """

    def __init__(
        self,
        ids: Sequence[str],
        vocabulary: TopicVocabulary,
        dense: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        self.ids: list[str] = list(ids)
        self.vocabulary = vocabulary
        self.dense = dense
        self.mask = mask
        self._row_of = {identifier: i for i, identifier in enumerate(self.ids)}
        if len(self._row_of) != len(self.ids):
            raise ValueError("profile identifiers must be unique")
        # Per-row aggregates over each profile's own coordinates.
        self.support = mask.sum(axis=1)  # key count (presence, not non-zero)
        self.row_sum = dense.sum(axis=1)
        self.row_sumsq = (dense * dense).sum(axis=1)
        self.row_norm = np.sqrt(self.row_sumsq)
        # Lazy derived views, built on first use; the matrix never
        # changes after construction, so they never go stale.
        self._dense_sq: np.ndarray | None = None
        self._topic_rows: list[np.ndarray] | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_profiles(
        cls,
        profiles: Mapping[str, Mapping[str, float]],
        vocabulary: TopicVocabulary | None = None,
        ids: Sequence[str] | None = None,
    ) -> "ProfileMatrix":
        """Pack *profiles* (id -> sparse vector) into a matrix.

        Row order is ``sorted(profiles)`` unless *ids* is given.  Passing
        a shared *vocabulary* aligns columns with other matrices; new
        topics are interned as encountered.
        """
        row_ids = sorted(profiles) if ids is None else list(ids)
        vocab = vocabulary if vocabulary is not None else TopicVocabulary()
        entries: list[tuple[int, int, float]] = []
        for row, identifier in enumerate(row_ids):
            for topic, value in profiles[identifier].items():
                entries.append((row, vocab.intern(topic), float(value)))
        dense = np.zeros((len(row_ids), len(vocab)))
        mask = np.zeros((len(row_ids), len(vocab)))
        for row, col, value in entries:
            dense[row, col] = value
            mask[row, col] = 1.0
        return cls(row_ids, vocab, dense, mask)

    # -- shape and lookups ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def width(self) -> int:
        """Number of columns (may trail a shared, still-growing vocabulary)."""
        return self.dense.shape[1]

    def row_index(self, identifier: str) -> int:
        """Row of *identifier*; raises :class:`KeyError` when absent."""
        return self._row_of[identifier]

    def rows_for(self, identifiers: Iterable[str]) -> np.ndarray:
        """Row indices for *identifiers*, in the given order."""
        return np.array(
            [self._row_of[identifier] for identifier in identifiers], dtype=np.intp
        )

    @property
    def dense_sq(self) -> np.ndarray:
        """Elementwise square of the value matrix (lazy, cached).

        Needed by intersection-domain kernels, whose norms/variances run
        over co-rated coordinates only.
        """
        if self._dense_sq is None:
            self._dense_sq = self.dense * self.dense
        return self._dense_sq

    # -- inverted index -------------------------------------------------------

    def _inverted_index(self) -> list[np.ndarray]:
        if self._topic_rows is None:
            self._topic_rows = [
                np.flatnonzero(self.mask[:, col]) for col in range(self.width)
            ]
        return self._topic_rows

    def overlapping_rows(self, profile: Mapping[str, float]) -> np.ndarray:
        """Rows whose support shares at least one key with *profile*.

        This is the pre-kernel pruning step: for measures where zero
        support overlap implies similarity exactly 0.0 (cosine in either
        domain, intersection-domain Pearson), only these rows need a
        kernel evaluation.
        """
        index = self._inverted_index()
        cols = [
            col
            for topic in profile
            if (col := self.vocabulary.index_of(topic)) is not None
            and col < self.width
        ]
        if not cols:
            return np.empty(0, dtype=np.intp)
        return np.unique(np.concatenate([index[col] for col in cols]))
