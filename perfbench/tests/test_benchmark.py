"""The benchmark at a tiny size: every metric printed, runs repeatable,
stale answers caught.  Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER
from perfbench.pace import REFERENCE_S, Pace
from perfbench.workloads import END_TO_END, PLANS, TAILS, run_workload
from repro.core.recommender import SemanticWebRecommender

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool = False, seed: int = 3):
    """*name* on a community of 46 agents or a 2,000-node graph, for 0.2 s."""
    plan = replace(
        PLANS[name],
        scale=0.005 if PLANS[name].scale else 0.0,
        nodes=2_000 if PLANS[name].nodes else 0,
        setups=2,
        probe_writes=4,
        requests=600,
    )
    return run_workload(name, seed, 0.2, trace, plan=plan)


def test_benchmark_json_names_the_metrics_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(PLANS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(PLANS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    outcome = tiny_run(name, trace)
    expected = PER_LAYER if trace else END_TO_END
    result = outcome.result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {key: value["unit"] for key, value in result["metrics"].items()} == {
        key: unit for key, (unit, _) in expected.items()
    }
    printed = {line.split()[0]: line.split()[-1] for line in outcome.lines}
    for key, (unit, _) in (expected if trace else {**expected, **TAILS}).items():
        assert printed[key] == unit
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", list(PLANS))
def test_same_seed_gives_same_digest_and_counts(name):
    def fingerprint(outcome):
        return [line for line in outcome.lines if line.startswith(("digest", "counts"))]

    first = fingerprint(tiny_run(name))
    assert len(first) == 2
    assert fingerprint(tiny_run(name)) == first
    assert fingerprint(tiny_run(name, trace=True)) == first
    assert fingerprint(tiny_run(name, seed=4)) != first


def test_setup_samples_leave_out_oracles_and_traced_reads_stand_apart():
    samples = next(line for line in tiny_run("churn", trace=True).lines if line.startswith("samples:"))
    counts = dict((kind, int(n)) for n, kind in (part.split(" ", 1) for part in samples[9:].split(", ")))
    # The two timed setups only: not the serving state's own, nor the three oracles.
    assert counts["setups"] == 2
    # Churn traces whole cycles: one write and two reads each.
    assert counts["traced reads"] == 2 * counts["traced updates"] > 0
    assert counts["reads"] == 2 * counts["updates"] > 0


def test_a_write_without_invalidation_fails_the_answer_check(monkeypatch):
    monkeypatch.setattr(SemanticWebRecommender, "invalidate_cache", lambda self, agent=None: None)
    outcome = tiny_run("churn")
    assert not outcome.result["correct"]
    assert outcome.result["failed"] > 0
    assert any("differs from a cold rebuild" in line for line in outcome.lines)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


class ScriptedPace(Pace):
    """Probes that read the given seconds instead of timing the loop."""

    def __init__(self, probes):
        super().__init__()
        self.script = iter(probes)

    def probe(self):
        self.last = next(self.script)
        self.probes.append(self.last)
        return self.last


def test_pace_scales_each_call_by_the_probes_around_it():
    pace = ScriptedPace([0.002, 0.004, 0.001])
    result, wall, scaled = pace.time_call(lambda: ("a", 0.030))
    assert (result, wall) == ("a", 0.030)
    assert scaled == pytest.approx(0.030 * REFERENCE_S / 0.003)
    # The probe after one call is the probe before the next.
    _, _, scaled = pace.time_call(lambda: ("b", 0.010))
    assert scaled == pytest.approx(0.010 * REFERENCE_S / 0.0025)
    assert len(pace.probes) == 3
