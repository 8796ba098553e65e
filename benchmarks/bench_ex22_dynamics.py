"""EX22 — evolving sybil attack: admission/contamination trajectory.

Regenerates the evolving-attack sweep, asserts the acceptance bounds,
and writes ``BENCH_ex22_dynamics.json`` next to the repo root so the
admission trajectory is tracked per run:

* with 0 bridges the hybrid admits no sybils and pushes nothing;
* Appleseed admission grows smoothly (never drops by more than the
  tolerance) as the bridge budget rises;
* hybrid contamination never exceeds trust-blind CF's;
* honest-user hybrid precision@N degrades smoothly, no collapse.

Set ``EX2x_SMOKE=1`` (shared by the EX20–EX23 scenario suite) for tiny
sizes with a relaxed tolerance.
"""

from __future__ import annotations

import json
import os
import pathlib

from _util import report

from repro.evaluation.scenarios import run_ex22_evolving_sybil, smooth_degradation

SMOKE = os.environ.get("EX2x_SMOKE") == "1"
TOLERANCE = 0.05 if SMOKE else 0.02
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ex22_dynamics.json"


def test_ex22_dynamics(benchmark):
    table = benchmark.pedantic(run_ex22_evolving_sybil, rounds=1, iterations=1)
    report(table)

    records = []
    for row in table.rows:
        bridges, sybils, bridge_total, admitted, hybrid_cont, cf_cont, hybrid_p = row
        records.append(
            {
                "bridges_per_epoch": int(bridges),
                "sybils": int(sybils),
                "bridges": int(bridge_total),
                "appleseed_admission": float(admitted),
                "hybrid_contamination": float(hybrid_cont),
                "cf_contamination": float(cf_cont),
                "hybrid_precision": float(hybrid_p),
            }
        )
    OUTPUT.write_text(  # legacy schema, predates repro-bench/1
        json.dumps({"smoke": SMOKE, "trajectory": records}, indent=2) + "\n"
    )

    # Zero bridges: the trust graph never reaches the ring.
    assert records[0]["bridges_per_epoch"] == 0
    assert records[0]["appleseed_admission"] == 0.0
    assert records[0]["hybrid_contamination"] == 0.0
    # Admission grows smoothly with the bridge budget.
    admission = [r["appleseed_admission"] for r in records]
    assert all(b >= a - TOLERANCE for a, b in zip(admission, admission[1:]))
    # The trust-aware hybrid is never more contaminated than blind CF.
    assert all(
        r["hybrid_contamination"] <= r["cf_contamination"] + 1e-9 for r in records
    )
    # Honest-user accuracy degrades smoothly, no collapse.
    assert smooth_degradation(
        [r["hybrid_precision"] for r in records], tolerance=TOLERANCE
    )
