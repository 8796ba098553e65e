"""Packed profile matrices for the vectorized similarity engine.

The pure-Python similarity path (:mod:`repro.core.similarity`) computes
Pearson/cosine one ``dict`` pair at a time — O(|profile|) hashing per
pair, re-done for every principal.  At community scale (§2's
"computational complexity" research issue) the same work phrases as a
handful of per-row sums over a packed representation:

* :class:`TopicVocabulary` interns topic identifiers into column
  indices, shared across matrices so profiles from different sources
  line up;
* :class:`ProfileMatrix` packs one community's sparse profiles as CSR
  rows named as in :class:`~repro.perf.trustmatrix.TrustMatrix`, with
  row sums, squared sums, norms and support sizes precomputed.

An entry records *key presence*, not a non-zero value: a profile may
carry an explicit ``0.0`` score, which counts toward the
union/intersection domains of :mod:`repro.core.similarity` but
contributes nothing to dot products.  Keeping those entries is what lets
the vectorized kernels reproduce the dict-based oracle exactly.

Each row keeps its entries in its profile's dict order and every per-row
sum, here and in :mod:`repro.perf.kernels`, runs in that order.  A row's
numbers therefore do not depend on which columns its topics were given,
so :meth:`ProfileMatrix.splice` can replace one row in place and leave a
matrix that scores bit for bit like a fresh pack of the same profiles.
Storage tracks the entries, not the vocabulary: at §4.1's scale (9,100
agents over 17,707 used topics) that is 1.24M entries.
"""

from __future__ import annotations

import bisect
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


def _splice(array: np.ndarray, start: int, stop: int, middle: np.ndarray) -> np.ndarray:
    """A copy of *array* with ``[start:stop]`` replaced by *middle*."""
    return np.concatenate((array[:start], middle, array[stop:]))


class ProfileMatrix:
    """One community's sparse profiles packed as CSR rows.

    Rows follow ``ids`` (sorted identifier order by default, for
    determinism).  Row *i*'s entries sit at ``indptr[i]:indptr[i + 1]``
    of ``indices`` (vocabulary columns) and ``values``, in its profile's
    dict order; ``entry_row`` names each entry's row, the scatter side
    of every per-row bincount.  ``support`` (key count, presence not
    non-zero), ``row_sum``, ``row_sumsq`` and ``row_norm`` are the
    per-row aggregates the kernels need, so repeated ``*_many`` calls
    against the same community do no per-profile Python work at all.
    """

    def __init__(
        self,
        ids: Sequence[str],
        vocabulary: TopicVocabulary,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.ids: list[str] = list(ids)
        self.vocabulary = vocabulary
        #: Columns this matrix can hold (may trail a shared, still-growing
        #: vocabulary); a target topic at or past it overlaps no row.
        self.width = len(vocabulary)
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self._row_of = {identifier: i for i, identifier in enumerate(self.ids)}
        if len(self._row_of) != len(self.ids):
            raise ValueError("profile identifiers must be unique")
        # entry_row is the scatter side of the bincounts, which add each
        # row's entries in entry order: a row's aggregates are the same
        # whether it is packed alone or with others.
        rows = len(self.ids)
        self.entry_row = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
        self.support = np.bincount(self.entry_row, minlength=rows)
        self.row_sum = np.bincount(self.entry_row, weights=values, minlength=rows)
        self.row_sumsq = np.bincount(
            self.entry_row, weights=values * values, minlength=rows
        )
        self.row_norm = np.sqrt(self.row_sumsq)

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
        rows = [profiles[identifier] for identifier in row_ids]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(profile) for profile in rows])
        total = int(indptr[-1])
        indices = np.fromiter(
            (vocab.intern(topic) for profile in rows for topic in profile),
            dtype=np.int64,
            count=total,
        )
        values = np.fromiter(
            (value for profile in rows for value in profile.values()),
            dtype=np.float64,
            count=total,
        )
        return cls(row_ids, vocab, indptr, indices, values)

    def splice(self, identifier: str, profile: Mapping[str, float] | None) -> None:
        """Make *identifier*'s row hold *profile*, in place.

        The row is replaced when present and inserted at its sorted
        position when not; ``None`` deletes it (a no-op without one).
        Topics new to the vocabulary are interned.  The work is one
        O(entries) copy of the arrays, and the matrix afterwards holds
        the ids, entries and aggregates a fresh pack of the same
        profiles would; only column numbers may differ.
        """
        row = self._row_of.get(identifier)
        old = 0 if row is None else 1
        new = 0 if profile is None else 1
        if not old and not new:
            return
        if row is None:
            row = bisect.bisect_left(self.ids, identifier)
        lo, hi = int(self.indptr[row]), int(self.indptr[row + old])
        part = ProfileMatrix.from_profiles(
            {} if profile is None else {identifier: profile}, self.vocabulary
        )
        shift = part.nnz - (hi - lo)
        self.width = len(self.vocabulary)
        self.indptr = _splice(self.indptr, row + 1, row + 1 + old, part.indptr[1:] + lo)
        self.indptr[row + 1 + new :] += shift
        self.indices = _splice(self.indices, lo, hi, part.indices)
        self.values = _splice(self.values, lo, hi, part.values)
        self.entry_row = _splice(self.entry_row, lo, hi, part.entry_row + row)
        self.entry_row[hi + shift :] += new - old
        self.support = _splice(self.support, row, row + old, part.support)
        self.row_sum = _splice(self.row_sum, row, row + old, part.row_sum)
        self.row_sumsq = _splice(self.row_sumsq, row, row + old, part.row_sumsq)
        self.row_norm = _splice(self.row_norm, row, row + old, part.row_norm)
        self.ids[row : row + old] = [identifier] * new
        if old != new:
            self._row_of.pop(identifier, None)
            for i in range(row, len(self.ids)):
                self._row_of[self.ids[i]] = i

    # -- shape and lookups ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nnz(self) -> int:
        """Number of packed entries."""
        return int(self.indices.size)

    def row_index(self, identifier: str) -> int:
        """Row of *identifier*; raises :class:`KeyError` when absent."""
        return self._row_of[identifier]

    def rows_for(self, identifiers: Iterable[str]) -> np.ndarray:
        """Row indices for *identifiers*, in the given order."""
        return np.array(
            [self._row_of[identifier] for identifier in identifiers], dtype=np.intp
        )
