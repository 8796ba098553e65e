"""Domain-aware static analysis for the reproduction (**reprolint**).

The paper's information model (§3.1) is built on partial functions with
hard range invariants, and the reproduction adds contracts of its own:
same-seed determinism, the 1e-9 dual-engine equivalence, caches that
stay coherent under every mutation path.  The validating constructors
and the test suite enforce most of that at runtime; this package keeps
the five static checks that each caught a real defect or alone guard a
standing invariant (``docs/ANALYSIS.md`` gives the record):

* :mod:`repro.analysis.engine` — the rule registry, per-file AST visitor,
  ``# reprolint: disable=RLxxx`` suppression handling, and JSON/human
  output formatting.
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

Run it as ``repro lint <paths>`` or ``python -m repro.analysis <paths>``.
"""

from __future__ import annotations

from .effects import (
    DEFAULT_CACHE_REGISTRY,
    CacheCoherenceRule,
    CacheSpec,
    EffectAnalysis,
    analyze_effects,
)
from .engine import (
    Finding,
    GraphRule,
    LintEngine,
    Rule,
    RuleContext,
    format_findings,
    format_findings_json,
    lint_paths,
    lint_project,
    lint_source,
)
from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES, all_rule_codes
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
    "LintEngine",
    "ProjectIndex",
    "Rule",
    "RuleContext",
    "all_rule_codes",
    "analyze_effects",
    "format_findings",
    "format_findings_json",
    "lint_paths",
    "lint_project",
    "lint_source",
]
