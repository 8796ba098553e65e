"""repro bench driver: schema, same-seed determinism, sanctioned writer."""

from __future__ import annotations

import json

import pytest

from repro.evaluation.benchtrack import (
    BENCH_SCHEMA,
    MEASUREMENT_FIELDS,
    PHASES,
    default_sizes,
    run_bench,
    strip_bench_measurements,
    validate_bench,
    write_bench,
)
from repro.obs import strip_durations, validate_trace

#: One tiny rung keeps the driver tests fast; the document shape is the
#: same at every size.
SIZES = (24,)


@pytest.fixture(scope="module")
def bench_run():
    return run_bench(sizes=SIZES, seed=7, queries=2, trust_sources=2, smoke=True)


class TestDriver:
    def test_document_is_schema_valid(self, bench_run):
        document, records = bench_run
        assert validate_bench(document) == []
        assert validate_trace(records, strict_durations=True) == []

    def test_document_covers_every_size_and_phase(self, bench_run):
        document, _ = bench_run
        assert document["schema"] == BENCH_SCHEMA
        assert [entry["agents"] for entry in document["sizes"]] == list(SIZES)
        for entry in document["sizes"]:
            assert sorted(entry["phases"]) == sorted(PHASES)
            for timing in entry["phases"].values():
                assert timing["wall_ms"] >= timing["dominant_self_ms"] >= 0.0
                assert timing["spans"] >= 1

    def test_same_seed_runs_agree_modulo_measurements(self, bench_run):
        document_a, records_a = bench_run
        document_b, records_b = run_bench(
            sizes=SIZES, seed=7, queries=2, trust_sources=2, smoke=True
        )
        assert strip_durations(records_a) == strip_durations(records_b)
        projected_a = strip_bench_measurements(document_a)
        projected_b = strip_bench_measurements(document_b)
        # dominant_span is deterministic in principle but timing-derived;
        # drop it too so this test never flakes on a noisy runner.
        for projected in (projected_a, projected_b):
            for entry in projected["sizes"]:
                for timing in entry["phases"].values():
                    timing.pop("dominant_span")
        assert projected_a == projected_b

    def test_strip_removes_exactly_the_measurement_fields(self, bench_run):
        document, _ = bench_run
        projected = strip_bench_measurements(document)
        timing = projected["sizes"][0]["phases"]["build"]
        assert not set(MEASUREMENT_FIELDS) & set(timing)
        assert {"dominant_span", "spans"} <= set(timing)
        # projection, not mutation
        assert "wall_ms" in document["sizes"][0]["phases"]["build"]

    @pytest.mark.parametrize("sizes", [(), (100, 100), (200, 100)])
    def test_rejects_malformed_size_ladders(self, sizes):
        with pytest.raises(ValueError, match="strictly ascending"):
            run_bench(sizes=sizes)

    def test_default_sizes_follow_the_smoke_flag(self):
        assert default_sizes() == (100, 200, 400)
        assert default_sizes(smoke=True) == (60, 120)


class TestValidate:
    def _valid(self):
        return {
            "schema": BENCH_SCHEMA,
            "smoke": True,
            "seed": 1,
            "queries": 2,
            "trust_sources": 2,
            "sizes": [
                {
                    "agents": 10,
                    "phases": {
                        phase: {
                            "wall_ms": 1.0,
                            "dominant_span": f"bench.{phase}",
                            "dominant_self_ms": 0.5,
                            "spans": 2,
                        }
                        for phase in PHASES
                    },
                }
            ],
        }

    def test_accepts_a_valid_document(self):
        assert validate_bench(self._valid()) == []

    def test_collects_every_finding(self):
        document = self._valid()
        document["schema"] = "repro-bench/0"
        document["seed"] = "nope"
        document["sizes"][0]["phases"]["build"]["wall_ms"] = -1.0
        document["sizes"][0]["phases"]["trust"]["dominant_span"] = ""
        errors = validate_bench(document)
        assert len(errors) == 4
        assert any("schema" in error for error in errors)
        assert any("seed" in error for error in errors)
        assert any("wall_ms" in error for error in errors)
        assert any("dominant_span" in error for error in errors)

    def test_rejects_out_of_order_and_incomplete_sizes(self):
        document = self._valid()
        document["sizes"].append(json.loads(json.dumps(document["sizes"][0])))
        del document["sizes"][1]["phases"]["query"]
        errors = validate_bench(document)
        assert any("ascending" in error for error in errors)
        assert any("phases" in error for error in errors)

    def test_non_object_document(self):
        assert validate_bench([]) == ["document is not an object"]


class TestWriteBench:
    def test_round_trips_through_disk(self, tmp_path, bench_run):
        document, _ = bench_run
        path = write_bench(document, tmp_path / "BENCH_scale.json")
        assert json.loads(path.read_text(encoding="utf-8")) == document
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_refuses_an_invalid_document(self, tmp_path):
        target = tmp_path / "BENCH_scale.json"
        with pytest.raises(ValueError, match="refusing to write"):
            write_bench({"schema": "wrong"}, target)
        assert not target.exists()
