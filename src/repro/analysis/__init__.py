"""Domain-aware static analysis for the reproduction (**reprolint**).

The paper's information model (§3.1) is built on partial functions with
hard range invariants — trust ``T: A → [-1,+1]⊥`` and ratings
``R: B → [-1,+1]⊥`` — and several subsystems (seeded fault injection,
position-derived parallel seeds, the 1e-9 dual-engine equivalence
contract) depend on invariants that no test can exhaustively check.
This package enforces them at analysis time with an AST-based lint pass:

* :mod:`repro.analysis.engine` — the rule registry, per-file AST visitor,
  ``# reprolint: disable=RLxxx`` suppression handling, and JSON/human
  output formatting.
* :mod:`repro.analysis.rules` — the domain rules (``RL001``–``RL010``),
  each keyed to a paper section or an inter-subsystem contract.

On top of the per-file pass sits **reprograph**, the whole-program
layer (``RL100``–``RL104``):

* :mod:`repro.analysis.symbols` — module names, import records, name
  bindings, functions and classified globals for every linted file.
* :mod:`repro.analysis.graph` — the module import graph, dead-module
  (``RL103``) and import-cycle (``RL104``) rules.
* :mod:`repro.analysis.contracts` — the declarative layering contract
  (``core`` imports nothing internal, ``perf``/``semweb`` sit on
  ``core``, ``trust`` on ``core`` and ``perf``, ...) enforced as ``RL100``.
* :mod:`repro.analysis.dataflow` — the §3.2/§4 taint pass (untrusted
  web content must pass ``validate_score``/``clamp_score`` before any
  scoring sink, ``RL101``) and process-pool fork-safety (``RL102``).
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 output for CI code scanning.
* :mod:`repro.analysis.baseline` — committed baselines so new findings
  fail CI while tracked legacy debt does not.
* :mod:`repro.analysis.effects` — interprocedural effect inference
  (``mutates:<Class.field>``, ``io``, ``clock``, ``rng``, ``spawns``)
  and the cache-coherence/purity rules ``RL200``–``RL203``, plus the
  ``repro lint --effects`` table (schema ``reprolint-effects/2`` with a
  per-function ``guards`` lock-set column).
* :mod:`repro.analysis.concurrency` — RacerD-style lock-set inference
  over the effect fixpoint and the concurrency-safety rules
  ``RL300``–``RL303`` (shared-state race, check-then-act, non-atomic
  invalidate/rebuild, blocking-under-guard), treating the
  :mod:`repro.util.sync` primitives (``GuardedCache``, ``AtomicSwap``,
  ``ReentrantGuard``) as sanitizers.

Run it as ``repro lint <paths>`` or ``python -m repro.analysis <paths>``;
see :mod:`docs/ANALYSIS.md <docs>` for the rule catalogue.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry, BaselineResult
from .concurrency import (
    CONCURRENT_ROOTS,
    SWAP_PUBLISHED_FIELDS,
    AtomicPublishRule,
    BlockingUnderGuardRule,
    CheckThenActRule,
    ConcurrencyAnalysis,
    SharedStateRaceRule,
    analyze_concurrency,
)
from .effects import (
    DEFAULT_CACHE_REGISTRY,
    EFFECT_TABLE_SCHEMA,
    CacheSpec,
    EffectAnalysis,
    analyze_effects,
    effect_table,
    format_effect_table,
)
from .engine import (
    Finding,
    GraphRule,
    LintEngine,
    Rule,
    RuleContext,
    format_findings,
    format_findings_json,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
)
from .rules import DEFAULT_GRAPH_RULES, DEFAULT_RULES, all_rule_codes
from .sarif import findings_to_sarif, format_findings_sarif
from .symbols import ProjectIndex

__all__ = [
    "AtomicPublishRule",
    "Baseline",
    "BaselineEntry",
    "BaselineResult",
    "BlockingUnderGuardRule",
    "CONCURRENT_ROOTS",
    "CacheSpec",
    "CheckThenActRule",
    "ConcurrencyAnalysis",
    "DEFAULT_CACHE_REGISTRY",
    "DEFAULT_GRAPH_RULES",
    "DEFAULT_RULES",
    "EFFECT_TABLE_SCHEMA",
    "EffectAnalysis",
    "Finding",
    "GraphRule",
    "LintEngine",
    "ProjectIndex",
    "Rule",
    "RuleContext",
    "SWAP_PUBLISHED_FIELDS",
    "SharedStateRaceRule",
    "all_rule_codes",
    "analyze_concurrency",
    "analyze_effects",
    "effect_table",
    "findings_to_sarif",
    "format_effect_table",
    "format_findings",
    "format_findings_json",
    "format_findings_sarif",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
]
