"""Domain-aware static analysis for the reproduction (**reprolint**).

The paper's information model (§3.1) is built on partial functions with
hard range invariants, and the reproduction adds contracts of its own:
same-seed determinism, the 1e-9 dual-engine equivalence, caches that
stay coherent under every mutation path.  The validating constructors
and the test suite enforce most of that at runtime; this package keeps
the five static checks that each caught a real defect or alone guard a
standing invariant (``docs/ANALYSIS.md`` gives the record):

* :mod:`repro.analysis.engine` — the rule base classes and
  :func:`lint_project`, which parses every file once and runs the
  per-file and whole-program rules over it.
* :mod:`repro.analysis.rules` — the per-file rules ``RL001`` (unseeded
  randomness), ``RL002`` (exact float comparison on scores) and
  ``RL005`` (unsorted set iteration), plus the registry of graph rules.
* :mod:`repro.analysis.symbols` — module names, import records, name
  bindings and functions for every linted file (the whole-program
  substrate).
* :mod:`repro.analysis.contracts` — the declarative package layering
  contract, enforced as ``RL100``.
* :mod:`repro.analysis.effects` — interprocedural ``mutates:`` effect
  inference and the cache-coherence rule ``RL200``.  A non-``None``
  store into a registered cache field counts as a memo fill, not an
  effect, unless the same function writes the cache's backing state.

The tier-1 suite runs every rule over ``src tests benchmarks examples``
(``tests/test_analysis_graph.py::TestSelfCheck``); that test is the gate.
"""

from __future__ import annotations

from .effects import (
    DEFAULT_CACHE_REGISTRY,
    CacheCoherenceRule,
    CacheSpec,
    EffectAnalysis,
    analyze_effects,
)
from .engine import Finding, GraphRule, Rule, lint_project, lint_source
from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES
from .symbols import ProjectIndex

__all__ = [
    "CacheCoherenceRule",
    "CacheSpec",
    "DEFAULT_CACHE_REGISTRY",
    "DEFAULT_GRAPH_RULES",
    "DEFAULT_RULES",
    "EffectAnalysis",
    "Finding",
    "GraphRule",
    "ProjectIndex",
    "Rule",
    "analyze_effects",
    "lint_project",
    "lint_source",
]
