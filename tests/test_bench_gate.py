"""scripts/check_bench_regression.py: exit codes and span attribution."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GATE = REPO_ROOT / "scripts" / "check_bench_regression.py"

from repro.evaluation.benchtrack import BENCH_SCHEMA, PHASES  # noqa: E402


def document(scale=1.0, sizes=(100, 400)):
    walls = {"build": 150.0, "query": 300.0, "trust": 40.0}
    dominants = {
        "build": "profiles.pack",
        "query": "bench.query",
        "trust": "appleseed.compute",
    }
    return {
        "schema": BENCH_SCHEMA,
        "seed": 42,
        "queries": 5,
        "trust_sources": 8,
        "sizes": [
            {
                "agents": agents,
                "phases": {
                    phase: {
                        "wall_ms": round(walls[phase] * scale * agents / 100, 3),
                        "dominant_span": dominants[phase],
                        "dominant_self_ms": round(
                            0.7 * walls[phase] * scale * agents / 100, 3
                        ),
                        "spans": 5,
                    }
                    for phase in PHASES
                },
            }
            for agents in sizes
        ],
    }


def run_gate(*args):
    return subprocess.run(
        [sys.executable, str(GATE), *args], capture_output=True, text=True
    )


class TestGate:
    def test_identical_documents_pass(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document()))
        result = run_gate(str(baseline), "--baseline", str(baseline))
        assert result.returncode == 0, result.stderr
        assert "no regressions" in result.stdout

    def test_doctored_phase_fails_with_dominant_span_attribution(self, tmp_path):
        # The acceptance check: inflate one phase 2x and the gate must
        # fail naming the phase's dominant span.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document()))
        doctored_doc = document()
        build = doctored_doc["sizes"][1]["phases"]["build"]
        build["wall_ms"] *= 2
        build["dominant_self_ms"] *= 2
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doctored_doc))
        result = run_gate(str(doctored), "--baseline", str(baseline))
        assert result.returncode == 1
        assert "REGRESSION: 400 agents, build" in result.stdout
        assert "dominant span now: profiles.pack" in result.stdout

    def test_noise_below_threshold_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document()))
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps(document(scale=1.2)))  # +20% < +50% allowance
        result = run_gate(str(noisy), "--baseline", str(baseline))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_schema_only_validates_without_a_baseline(self, tmp_path):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(document()))
        result = run_gate(str(candidate), "--schema-only")
        assert result.returncode == 0
        assert "schema ok" in result.stdout

    def test_invalid_document_exits_2_listing_every_finding(self, tmp_path):
        broken_doc = document()
        broken_doc["schema"] = "wrong"
        broken_doc["seed"] = "nope"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(broken_doc))
        result = run_gate(str(broken), "--schema-only")
        assert result.returncode == 2
        assert "schema" in result.stderr and "seed" in result.stderr

    def test_disjoint_size_ladders_warn_and_pass(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document(sizes=(100, 400))))
        smoke = tmp_path / "smoke.json"
        smoke.write_text(json.dumps(document(sizes=(60,))))
        result = run_gate(str(smoke), "--baseline", str(baseline))
        assert result.returncode == 0
        assert "nothing to gate" in result.stdout

    def test_committed_baseline_is_schema_valid(self):
        result = run_gate(str(REPO_ROOT / "BENCH_scale.json"), "--schema-only")
        assert result.returncode == 0, result.stderr
