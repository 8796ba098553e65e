"""The repository benchmark: four seeded workloads over the public API.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics.  The benchmark times calls into ``repro.core``,
``repro.trust`` and ``repro.perf`` from outside and changes no program
code.
"""
