#!/usr/bin/env python3
"""Gate: a fresh ``repro bench`` document vs. the committed trajectory.

Compares a candidate ``BENCH_scale.json`` (schema ``repro-bench/1``,
written only by :func:`repro.evaluation.benchtrack.write_bench`) against
a baseline document, phase by phase at every community size both
documents declare.

The comparison is noise-aware: phase ``wall_ms`` may grow by a relative
*threshold* (default +50%) plus an absolute floor (default 20 ms) before
it counts as a regression — shared CI runners jitter far more than a
quiet workstation, and tiny phases are all jitter.  What makes a failure
*actionable* is the attribution: every reported regression names the
phase's dominant span (the span name owning the most self time inside
that phase's subtree) in both candidate and baseline, so the number
points at a line of code.  For the full picture run::

    repro trace diff baseline-trace.jsonl candidate-trace.jsonl

Exit codes: 0 ok, 1 regression, 2 schema or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.evaluation.benchtrack import PHASES, validate_bench  # noqa: E402


def _load(path: str) -> dict[str, Any] | None:
    """Parse + schema-check one document; ``None`` (and stderr) on failure."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"error: {path}: {error}", file=sys.stderr)
        return None
    errors = validate_bench(document)
    if errors:
        for problem in errors:
            print(f"invalid bench document {path}: {problem}", file=sys.stderr)
        return None
    return document


def _by_agents(document: dict[str, Any]) -> dict[int, dict[str, Any]]:
    return {entry["agents"]: entry["phases"] for entry in document["sizes"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", nargs="?", default="BENCH_scale.json",
                        help="fresh repro-bench/1 document (default: ./BENCH_scale.json)")
    parser.add_argument("--baseline", default=str(REPO_ROOT / "BENCH_scale.json"),
                        metavar="FILE", help="committed trajectory to compare against")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate the candidate's schema and exit")
    parser.add_argument("--threshold", type=float, default=0.5, metavar="REL",
                        help="relative growth allowed per phase (0.5 = +50%%)")
    parser.add_argument("--abs-floor-ms", type=float, default=20.0, metavar="MS",
                        help="absolute growth allowed on top of the threshold")
    args = parser.parse_args(argv)

    candidate = _load(args.candidate)
    if candidate is None:
        return 2
    if args.schema_only:
        sizes = ", ".join(str(entry["agents"]) for entry in candidate["sizes"])
        print(f"schema ok: {args.candidate} ({candidate['schema']}, sizes {sizes})")
        return 0
    baseline = _load(args.baseline)
    if baseline is None:
        return 2

    base_sizes = _by_agents(baseline)
    cand_sizes = _by_agents(candidate)
    shared = sorted(set(base_sizes) & set(cand_sizes))
    if not shared:
        print(
            "warning: no community size appears in both documents "
            f"(baseline {sorted(base_sizes)}, candidate {sorted(cand_sizes)}); "
            "nothing to gate"
        )
        return 0

    regressions = 0
    for agents in shared:
        for phase in PHASES:
            base = base_sizes[agents][phase]
            cand = cand_sizes[agents][phase]
            allowed = base["wall_ms"] * (1.0 + args.threshold) + args.abs_floor_ms
            ratio = (
                cand["wall_ms"] / base["wall_ms"] if base["wall_ms"] > 0 else float("inf")
            )
            if cand["wall_ms"] > allowed:
                regressions += 1
                print(
                    f"REGRESSION: {agents} agents, {phase}: "
                    f"{base['wall_ms']:.1f} ms -> {cand['wall_ms']:.1f} ms "
                    f"({ratio:.2f}x; allowed {allowed:.1f} ms)"
                )
                print(
                    f"  dominant span now: {cand['dominant_span']} "
                    f"(self {cand['dominant_self_ms']:.1f} ms); "
                    f"baseline dominant: {base['dominant_span']} "
                    f"(self {base['dominant_self_ms']:.1f} ms)"
                )
            else:
                note = ""
                if cand["dominant_span"] != base["dominant_span"]:
                    note = (
                        f"  [dominant span moved: {base['dominant_span']} -> "
                        f"{cand['dominant_span']}]"
                    )
                print(
                    f"ok: {agents} agents, {phase}: "
                    f"{base['wall_ms']:.1f} -> {cand['wall_ms']:.1f} ms "
                    f"({ratio:.2f}x){note}"
                )

    if regressions:
        print(
            f"\n{regressions} phase regression(s); rerun with --trace-out and "
            "`repro trace diff` for span-level attribution",
            file=sys.stderr,
        )
        return 1
    print(f"\nno regressions across {len(shared)} shared size(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
