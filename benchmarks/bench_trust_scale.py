"""Trust-propagation scaling: Appleseed from 10^3 to 10^6 agents.

Measures Appleseed's packed-CSR driver (``Appleseed._compute_packed``) on
generator-streamed webs of trust (:func:`stream_trust_edges`) far past
what the dict oracle can traverse interactively, and writes the
trajectory to ``BENCH_trust_scale.json``:

* pack time — streaming :meth:`TrustMatrix.from_edges` over the edge
  generator (no :class:`TrustGraph` materialized at any size);
* per-source Appleseed sweep time for the numpy kernel, and for the
  python oracle at the sizes where it finishes promptly (≤10^4);
* oracle parity (max |Δrank| and discrete-output equality) wherever
  both engines run.

Acceptance, asserted here in full mode: the numpy engine is ≥10× the
oracle at 10^4 agents, and the 10^6-agent sweep completes.  Set
``TRUST_SMOKE=1`` for the CI job: 10^3 agents only, parity checked,
the speedup merely recorded (shared runners sit near break-even and
add scheduler noise).
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.datasets.generators import stream_trust_edges
from repro.obs import Stopwatch
from repro.perf.trustmatrix import TrustMatrix
from repro.trust.appleseed import Appleseed
from repro.trust.graph import TrustGraph

SMOKE = os.environ.get("TRUST_SMOKE") == "1"
SIZES = (1_000,) if SMOKE else (1_000, 10_000, 100_000, 1_000_000)
#: Largest size the dict oracle is timed at (beyond this it only wastes
#: the run's budget — the 1e-9 parity contract is already pinned by the
#: hypothesis suite and re-checked here wherever the oracle runs).
ORACLE_CEILING = 10_000
N_SOURCES = 4 if SMOKE else 8
SEED = 1337
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trust_scale.json"


def _edges(n_agents: int):
    return stream_trust_edges(n_agents, seed=SEED)


def _bench_sources(matrix: TrustMatrix) -> list[str]:
    """Evenly spaced source agents, hubs and periphery both included."""
    step = max(1, len(matrix) // N_SOURCES)
    return [matrix.ids[i * step] for i in range(N_SOURCES)]


def _sweep_numpy(matrix: TrustMatrix, sources: list[str], metric: Appleseed):
    results = {}
    watch = Stopwatch()
    with watch:
        for source in sources:
            results[source] = metric._compute_packed(matrix, source, 200.0)
    return results, watch.elapsed_ms / len(sources)


def _sweep_oracle(graph: TrustGraph, sources: list[str], metric: Appleseed):
    results = {}
    watch = Stopwatch()
    with watch:
        for source in sources:
            results[source] = metric.compute(graph, source)
    return results, watch.elapsed_ms / len(sources)


def _parity(python_results, numpy_results) -> float:
    worst = 0.0
    for source, python in python_results.items():
        vectorized = numpy_results[source]
        assert vectorized.neighborhood(0.0) == python.neighborhood(0.0)
        assert vectorized.ranks.keys() == python.ranks.keys()
        assert vectorized.iterations == python.iterations
        assert vectorized.converged == python.converged
        for agent in sorted(set(python.ranks) | set(vectorized.ranks)):
            delta = abs(
                python.ranks.get(agent, 0.0) - vectorized.ranks.get(agent, 0.0)
            )
            worst = max(worst, delta)
    return worst


def test_trust_scale():
    metric = Appleseed(engine="python")
    records = []
    for n_agents in SIZES:
        watch = Stopwatch()
        with watch:
            matrix = TrustMatrix.from_edges(_edges(n_agents))
        pack_ms = watch.elapsed_ms
        sources = _bench_sources(matrix)

        numpy_results, numpy_ms = _sweep_numpy(matrix, sources, metric)
        record = {
            "agents": n_agents,
            "nodes": len(matrix),
            "edges": int(matrix.nnz + matrix.neg_weights.size),
            "pack_ms": round(pack_ms, 3),
            "numpy_ms_per_source": round(numpy_ms, 3),
            "sources": len(sources),
        }

        if n_agents <= ORACLE_CEILING:
            graph = TrustGraph.from_edges(_edges(n_agents))
            oracle_results, oracle_ms = _sweep_oracle(graph, sources, metric)
            record["oracle"] = "ok"
            record["python_ms_per_source"] = round(oracle_ms, 3)
            record["speedup"] = round(oracle_ms / numpy_ms, 2) if numpy_ms else None
            record["max_delta"] = _parity(oracle_results, numpy_results)
        else:
            # Explicit skip markers: every record carries the same key set,
            # so downstream consumers never have to guess whether a missing
            # ``speedup`` means "oracle too slow here" or a schema change.
            record["oracle"] = "skipped"
            record["python_ms_per_source"] = None
            record["speedup"] = None
            record["max_delta"] = None
        records.append(record)
        print(
            f"\n{n_agents:>9,} agents: pack {pack_ms:8.1f} ms, "
            f"numpy {numpy_ms:8.1f} ms/source"
            + (
                f", python {record['python_ms_per_source']:8.1f} ms/source "
                f"({record['speedup']}x, max|d|={record['max_delta']:.2e})"
                if record["oracle"] == "ok"
                else " (oracle skipped)"
            )
        )

    OUTPUT.write_text(  # legacy schema, predates repro-bench/1
        json.dumps({"smoke": SMOKE, "seed": SEED, "sizes": records}, indent=2) + "\n"
    )
    print(f"wrote {OUTPUT.name}")

    # Parity is non-negotiable in any mode, at every size the oracle ran.
    assert all(
        r["max_delta"] < 1e-9 for r in records if r["oracle"] == "ok"
    )
    if not SMOKE:
        at_10k = next(r for r in records if r["agents"] == 10_000)
        assert at_10k["speedup"] >= 10.0
        assert records[-1]["agents"] == 1_000_000  # the 10^6 sweep completed
