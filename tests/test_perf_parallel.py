"""Determinism of the parallel experiment runner.

The whole point of :class:`~repro.perf.parallel.ParallelExperimentRunner`
is that parallelism is a pure scheduling choice: any worker count must
produce results byte-identical to the serial loop.  Process-pool tests
are kept small — spawning workers dominates their runtime.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recommender import PopularityRecommender
from repro.evaluation.experiments import run_ex05_profile_overlap
from repro.evaluation.protocol import evaluate_recommender, holdout_split
from repro.obs import Tracer, get_tracer, tracing
from repro.perf.parallel import (
    ParallelExperimentRunner,
    derive_seed,
    split_evenly,
)


def _square(value: int) -> int:
    return value * value


def _seeded_draw(item: int, seed: int) -> tuple[int, float]:
    return item, random.Random(seed).random()


def _tracer_kind(_: int) -> str:
    return type(get_tracer()).__name__


class TestSplitEvenly:
    @settings(max_examples=100, deadline=None)
    @given(
        items=st.lists(st.integers(), max_size=40),
        parts=st.integers(min_value=1, max_value=12),
    )
    def test_partition_properties(self, items, parts):
        chunks = split_evenly(items, parts)
        # Concatenation in chunk order restores the original sequence …
        assert [x for chunk in chunks for x in chunk] == items
        # … no chunk is empty, at most `parts` of them exist …
        assert all(chunks for chunks in chunks)
        assert len(chunks) <= parts
        # … and sizes are balanced within one item.
        if chunks:
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1

    def test_empty_items(self):
        assert split_evenly([], 4) == []


class TestDeriveSeed:
    def test_deterministic_and_index_sensitive(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)


class TestRunner:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ParallelExperimentRunner(mode="threads")
        with pytest.raises(ValueError):
            ParallelExperimentRunner(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExperimentRunner(chunksize=0)

    def test_serial_map_preserves_order(self):
        runner = ParallelExperimentRunner(mode="serial")
        assert runner.map(_square, [3, 1, 2]) == [9, 1, 4]
        assert runner.effective_workers() == 1

    def test_process_map_matches_serial(self, finishes):
        items = list(range(7))
        serial = ParallelExperimentRunner(mode="serial").map(_square, items)
        runner = ParallelExperimentRunner(max_workers=2, mode="process")
        assert finishes(lambda: runner.map(_square, items)) == serial

    def test_map_seeded_is_schedule_independent(self, finishes):
        items = list(range(6))
        serial = ParallelExperimentRunner(mode="serial").map_seeded(
            _seeded_draw, items, seed=42
        )
        runner = ParallelExperimentRunner(max_workers=3, mode="process")
        parallel = finishes(lambda: runner.map_seeded(_seeded_draw, items, seed=42))
        assert parallel == serial
        # Seeds derive from (seed, index): same item at another index draws
        # differently, so results encode position, not worker identity.
        assert len({draw for _, draw in serial}) == len(serial)

    def test_map_chunked_flattens_in_order(self):
        runner = ParallelExperimentRunner(mode="serial")
        result = runner.map_chunked(lambda chunk: [x + 1 for x in chunk], [1, 2, 3, 4])
        assert result == [2, 3, 4, 5]

    def test_pool_workers_run_on_the_null_tracer(self, finishes):
        # Spawned workers start from a fresh interpreter; forked ones
        # would inherit the parent's live Tracer binding.
        runner = ParallelExperimentRunner(max_workers=2, mode="process")
        with tracing(Tracer()):
            kinds = finishes(lambda: runner.map(_tracer_kind, [0, 1]))
        assert kinds == ["NullTracer", "NullTracer"]


class TestParallelEvaluation:
    """Experiment outputs must be byte-identical under any worker count."""

    def test_evaluate_recommender_parallel_identical(self, small_community, finishes):
        split = holdout_split(
            small_community.dataset, per_user=3, min_ratings=8, max_users=12, seed=3
        )
        recommender = PopularityRecommender(dataset=split.train)
        serial = evaluate_recommender("pop", recommender, split, top_n=10)
        parallel = finishes(
            lambda: evaluate_recommender(
                "pop",
                recommender,
                split,
                top_n=10,
                runner=ParallelExperimentRunner(max_workers=2, mode="process"),
            )
        )
        assert parallel == serial

    def test_ex05_parallel_identical(self, small_community, finishes):
        serial = run_ex05_profile_overlap(small_community, n_pairs=80)
        parallel = finishes(
            lambda: run_ex05_profile_overlap(
                small_community,
                n_pairs=80,
                runner=ParallelExperimentRunner(max_workers=2, mode="process"),
            )
        )
        assert parallel.render() == serial.render()
