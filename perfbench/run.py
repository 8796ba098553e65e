"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hybrid-bounded --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run also writes its spans as JSONL under
``perfbench/traces/`` for ``repro trace top|flame|diff``.  The exit
status is 0 only when every operation succeeded and every checked
answer matched a cold rebuild.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hybrid-bounded", "hybrid-open", "churn", "trust-sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run_workload

    trace_path = None
    if args.trace:
        trace_path = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=trace_path)
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.result, sort_keys=True))
    return 0 if outcome.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
