"""Kernel/oracle agreement: the numpy engine against the dict-based oracle.

The contract of :mod:`repro.perf` is that choosing an engine is a
performance decision, never a semantic one: both engines must produce
the same rankings, and values within 1e-9, on every input.  These tests
enforce that contract with hypothesis-generated profiles, adversarial
degenerate cases, and full generated communities.

Value grids are dyadic (multiples of 0.25) where exactness matters:
sums and means over such values are exact in binary floating point, so
degenerate cutoffs (zero variance) agree bit-for-bit between the
one-pass kernel algebra and the two-pass oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import TaxonomyProfileBuilder, product_profile
from repro.core.recommender import ProfileStore
from repro.core.similarity import cosine, pearson, top_similar
from repro.perf.kernels import similarity_many
from repro.perf.matrix import ProfileMatrix, TopicVocabulary

TOL = 1e-9

_TOPICS = [f"t{i}" for i in range(10)]
_dyadic = st.integers(min_value=-8, max_value=8).map(lambda i: i * 0.25)
_profiles = st.dictionaries(st.sampled_from(_TOPICS), _dyadic, max_size=10)

_COMBOS = [
    ("pearson", "union"),
    ("pearson", "intersection"),
    ("cosine", "union"),
    ("cosine", "intersection"),
]


#: Every measure/domain pair under every ``top_similar`` limit, the
#: non-positive ones included; unlimited cases keep their plain ids.
_RANKING_CASES = [
    pytest.param(
        measure,
        domain,
        limit,
        id=f"{measure}-{domain}" + ("" if limit is None else f"-limit{limit}"),
    )
    for limit in (None, 3, 0, -1)
    for measure, domain in _COMBOS
]


def _oracle(measure: str):
    return pearson if measure == "pearson" else cosine


def _canonical(ranking):
    """A ranking modulo last-bit score noise.

    Mathematically equal scores can differ in the last bit between
    engines, flipping ``(-score, id)`` tie order; rounding to the 1e-9
    agreement bound and re-sorting makes the comparison well-defined.
    """
    rounded = [(identifier, round(score, 9)) for identifier, score in ranking]
    rounded.sort(key=lambda kv: (-kv[1], kv[0]))
    return rounded


class TestKernelOracleAgreement:
    @pytest.mark.parametrize("measure,domain", _COMBOS)
    @settings(max_examples=60, deadline=None)
    @given(
        target=_profiles,
        candidates=st.lists(_profiles, min_size=1, max_size=8),
    )
    def test_matches_oracle_on_generated_profiles(
        self, measure, domain, target, candidates
    ):
        ids = [f"a{i}" for i in range(len(candidates))]
        matrix = ProfileMatrix.from_profiles(dict(zip(ids, candidates)), ids=ids)
        values = similarity_many(target, matrix, measure=measure, domain=domain)
        oracle = _oracle(measure)
        for identifier, profile, value in zip(ids, candidates, values):
            assert value == pytest.approx(
                oracle(target, profile, domain), abs=TOL
            ), (identifier, target, profile)

    @pytest.mark.parametrize("measure,domain", _COMBOS)
    def test_adversarial_degenerate_profiles_exact(self, measure, domain):
        candidates = {
            "empty": {},
            "singleton": {"t0": 1.0},
            "constant": {"t0": 0.5, "t1": 0.5, "t2": 0.5},
            "zero-scores": {"t0": 0.0, "t1": 0.0},
            "negative": {"t0": -1.0, "t1": 0.75, "t2": -0.25},
            "disjoint": {"t8": 1.0, "t9": 0.25},
        }
        targets = [
            {},
            {"t0": 1.0},
            {"t0": 0.25, "t1": -0.5, "t2": 1.75},
            {"t0": 0.5, "t1": 0.5},  # zero variance on a dyadic grid
            {"t0": 0.0, "t3": 0.0},  # explicit zeros still occupy the domain
        ]
        matrix = ProfileMatrix.from_profiles(candidates)
        oracle = _oracle(measure)
        for target in targets:
            values = similarity_many(target, matrix, measure=measure, domain=domain)
            for identifier, value in zip(matrix.ids, values):
                expected = oracle(target, candidates[identifier], domain)
                assert value == pytest.approx(expected, abs=TOL), (identifier, target)
                if expected == 0.0:
                    # Dyadic grids make every degenerate cutoff (empty
                    # domain, zero variance, zero norm) exact: when the
                    # oracle says 0.0, the kernel must say +0.0 too.
                    assert value == 0.0 and not np.signbit(value), (
                        identifier,
                        target,
                    )

    @pytest.mark.parametrize("measure,domain", _COMBOS)
    def test_out_of_vocabulary_target_topics(self, measure, domain):
        """Target coordinates the matrix never saw still shape the domain."""
        candidates = {"a": {"t0": 1.0, "t1": 0.5}, "b": {"t1": 0.25}}
        matrix = ProfileMatrix.from_profiles(candidates)
        target = {"t0": 0.75, "zz-unseen": 1.5, "zz-other": -0.5}
        values = similarity_many(target, matrix, measure=measure, domain=domain)
        oracle = _oracle(measure)
        for identifier, value in zip(matrix.ids, values):
            assert value == pytest.approx(
                oracle(target, candidates[identifier], domain), abs=TOL
            )

    @pytest.mark.parametrize("measure,domain", _COMBOS)
    def test_signed_negative_profiles_from_builder(self, measure, domain, figure1):
        """Signed-mode taxonomy profiles (negative scores) agree too."""
        from repro.core.models import Product

        products = {
            f"isbn:{i}": Product(
                identifier=f"isbn:{i}", title=f"b{i}", descriptors=frozenset({topic})
            )
            for i, topic in enumerate(["Algebra", "Calculus", "Physics", "Literature"])
        }
        builder = TaxonomyProfileBuilder(figure1, negative_mode="signed")
        ratings = [
            {"isbn:0": 1.0, "isbn:1": -1.0},
            {"isbn:1": -1.0, "isbn:2": -1.0},
            {"isbn:0": 1.0, "isbn:2": 1.0, "isbn:3": -1.0},
            {"isbn:3": 1.0},
        ]
        profiles = {
            f"agent{i}": builder.build(r, products) for i, r in enumerate(ratings)
        }
        assert any(min(p.values(), default=0.0) < 0.0 for p in profiles.values())
        matrix = ProfileMatrix.from_profiles(profiles)
        oracle = _oracle(measure)
        for target in profiles.values():
            values = similarity_many(target, matrix, measure=measure, domain=domain)
            for identifier, value in zip(matrix.ids, values):
                assert value == pytest.approx(
                    oracle(target, profiles[identifier], domain), abs=TOL
                )


class TestCommunityAgreement:
    """Engine agreement over full generated communities, both representations."""

    @pytest.mark.parametrize("measure,domain", _COMBOS)
    def test_taxonomy_profiles(self, small_community, measure, domain):
        store = ProfileStore(
            small_community.dataset, TaxonomyProfileBuilder(small_community.taxonomy)
        )
        agents = sorted(small_community.dataset.agents)
        profiles = {agent: store.profile(agent) for agent in agents}
        matrix = ProfileMatrix.from_profiles(profiles)
        for target_agent in agents[:5]:
            target = profiles[target_agent]
            values = similarity_many(target, matrix, measure=measure, domain=domain)
            oracle = _oracle(measure)
            for identifier, value in zip(matrix.ids, values):
                assert value == pytest.approx(
                    oracle(target, profiles[identifier], domain), abs=TOL
                )

    @pytest.mark.parametrize("measure,domain", _COMBOS)
    def test_product_vectors(self, small_community, measure, domain):
        dataset = small_community.dataset
        agents = sorted(dataset.agents)
        profiles = {a: product_profile(dataset.ratings_of(a)) for a in agents}
        matrix = ProfileMatrix.from_profiles(profiles)
        for target_agent in agents[:5]:
            target = profiles[target_agent]
            values = similarity_many(target, matrix, measure=measure, domain=domain)
            oracle = _oracle(measure)
            for identifier, value in zip(matrix.ids, values):
                assert value == pytest.approx(
                    oracle(target, profiles[identifier], domain), abs=TOL
                )

    @pytest.mark.parametrize("measure,domain,limit", _RANKING_CASES)
    def test_top_similar_rankings_agree(self, small_community, measure, domain, limit):
        store = ProfileStore(
            small_community.dataset, TaxonomyProfileBuilder(small_community.taxonomy)
        )
        agents = sorted(small_community.dataset.agents)
        profiles = {agent: store.profile(agent) for agent in agents}
        for target_agent in agents[:3]:
            target = profiles[target_agent]
            py = top_similar(
                target, profiles, measure=measure, domain=domain, limit=limit, engine="python"
            )
            nu = top_similar(
                target, profiles, measure=measure, domain=domain, limit=limit, engine="auto"
            )
            assert _canonical(py) == _canonical(nu)

    def test_ex19_table_reports_engine_parity(self):
        """EX19's max|delta| column stays inside the parity bound (sizes shrunk)."""
        from repro.evaluation.experiments_perf import run_ex19_engine

        table = run_ex19_engine(sizes=(40, 80), principals=3)
        assert [row[0] for row in table.rows] == ["40", "80"]
        assert all(float(row[-1]) < TOL for row in table.rows)


class TestProfileMatrix:
    def test_vocabulary_interning_is_stable(self):
        vocab = TopicVocabulary(["a", "b"])
        assert vocab.intern("a") == 0
        assert vocab.intern("c") == 2
        assert vocab.index_of("b") == 1
        assert vocab.index_of("zz") is None
        assert vocab.topics == ["a", "b", "c"]
        assert "c" in vocab and "zz" not in vocab

    def test_mask_records_presence_not_value(self):
        matrix = ProfileMatrix.from_profiles({"a": {"t0": 0.0, "t1": 2.0}})
        assert matrix.support[0] == 2  # the explicit 0.0 still counts
        assert matrix.row_sum[0] == 2.0
        assert matrix.row_sumsq[0] == 4.0

    def test_rows_follow_sorted_ids_by_default(self):
        matrix = ProfileMatrix.from_profiles({"b": {"x": 1.0}, "a": {"y": 2.0}})
        assert matrix.ids == ["a", "b"]
        assert matrix.rows_for(["b"])[0] == 1
        assert list(matrix.rows_for(["b", "a"])) == [1, 0]
        with pytest.raises(KeyError):
            matrix.rows_for(["zz"])

    def test_shared_vocabulary_aligns_columns(self):
        vocab = TopicVocabulary()
        first = ProfileMatrix.from_profiles({"a": {"x": 1.0}}, vocabulary=vocab)
        second = ProfileMatrix.from_profiles(
            {"b": {"y": 2.0, "x": 3.0}}, vocabulary=vocab
        )
        assert first.width == 1  # built before "y" existed; stays consistent
        assert second.width == 2
        row = dict(zip(second.indices.tolist(), second.values.tolist()))
        assert row[vocab.index_of("x")] == 3.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ProfileMatrix.from_profiles({"a": {"t": 1.0}}, ids=["a", "a"])

    def test_storage_tracks_entries_not_the_vocabulary(self):
        vocab = TopicVocabulary(f"t{i}" for i in range(100_000))
        matrix = ProfileMatrix.from_profiles(
            {"a": {"t1": 1.0, "t99999": 2.0}, "b": {"t5": 0.5}}, vocabulary=vocab
        )
        assert matrix.width == 100_000
        assert similarity_many({"t5": 1.0}, matrix, measure="cosine").tolist() == [
            0.0,
            1.0,
        ]
        # Every array held: a few per entry or row, where two dense rows
        # would take 1.6 MB.
        held = [value for value in vars(matrix).values() if isinstance(value, np.ndarray)]
        assert sum(array.nbytes for array in held) < 1_000
