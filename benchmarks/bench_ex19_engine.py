"""EX19 — similarity engine speedup: python oracle vs numpy kernels.

Regenerates the engine-comparison table, asserts the acceptance bounds
(≥5× speedup at the largest size, engines agreeing within 1e-9), and
writes ``BENCH_ex19_engine.json`` next to the repo root so the speedup
number is tracked per run.

Set ``EX19_SMOKE=1`` to run tiny sizes with the speedup assertion
relaxed — CI smoke mode on shared runners records the number without
gating on scheduler noise.
"""

from __future__ import annotations

import json
import os
import pathlib

from _util import report

from repro.evaluation.experiments_perf import run_ex19_engine

SMOKE = os.environ.get("EX19_SMOKE") == "1"
SIZES = (60, 120) if SMOKE else (100, 200, 400)
PRINCIPALS = 5 if SMOKE else 20
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ex19_engine.json"


def test_ex19_engine(benchmark):
    table = benchmark.pedantic(
        lambda: run_ex19_engine(sizes=SIZES, principals=PRINCIPALS),
        rounds=1,
        iterations=1,
    )
    report(table)

    records = []
    for row in table.rows:
        agents, topics, python_ms, numpy_ms, speedup, max_delta = row
        records.append(
            {
                "agents": int(agents),
                "topics": int(topics),
                "python_ms": float(python_ms),
                "numpy_ms": float(numpy_ms),
                "speedup": float(speedup.rstrip("x")),
                "max_delta": float(max_delta),
            }
        )
    OUTPUT.write_text(  # legacy schema, predates repro-bench/1
        json.dumps(
            {"smoke": SMOKE, "principals": PRINCIPALS, "sizes": records}, indent=2
        )
        + "\n"
    )

    # Numeric agreement is non-negotiable in any mode.
    assert all(r["max_delta"] < 1e-9 for r in records)
    # The speedup gate runs at full size only: smoke sizes sit near the
    # packing-cost break-even and shared CI runners add noise.
    if not SMOKE:
        assert records[-1]["speedup"] >= 5.0
