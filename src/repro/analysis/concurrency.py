"""Lock-set inference and the concurrency-safety rules (RL300–RL303).

The ROADMAP's next tenant is a query-serving daemon: long-lived threads
answering recommendation queries out of the caches that
:mod:`repro.analysis.effects` already tracks (``ProfileStore._cache``/
``_matrix``, ``TrustGraph._pos_succ``, the taxonomy memos).  All of that
state was written single-threaded.  This module adds the RacerD-style
compositional layer that proves which of it is safe to share: per
function, a **lock set** is inferred by walking ``with`` contexts and
the sanctioned primitives of :mod:`repro.util.sync`, and held-sets are
threaded through the call-graph fixpoint exactly as effects are — so
every report is compositional and comes with a call-chain witness.

Guard tokens are canonicalized strings:

``guard:<Class>.<attr>``
    a ``with self._guard:`` block over a typed
    :class:`~repro.util.sync.ReentrantGuard` attribute (or any attribute
    whose name says lock/guard/mutex), a ``with cache.held():`` block,
    or the *implicit* guard taken by ``cache.get_or_build``/``store``/
    ``invalidate``/``swap``/``clear`` on a sync-primitive field — the
    primitive's own critical section;
``guard:<module>.<name>`` / ``guard:local:<name>``
    module-level and function-local locks.

The meet over multiple paths is **intersection** (the "common lock"
convention): a function reached both guarded and unguarded is
effectively unguarded, and a field is consistently locked only if one
token protects every access.

On the inferred facts sit four graph rules, wired through
``lint_project``/SARIF/baseline/suppressions/``--select`` like the
RL1xx/RL2xx series:

``RL300``
    shared-state race — a :data:`DEFAULT_CACHE_REGISTRY` field is
    mutated by a function reachable from a concurrent entry point
    (:data:`CONCURRENT_ROOTS`, plus anything that directly ``spawns``)
    with an empty effective guard set;
``RL301``
    check-then-act — an ``if key not in cache:`` / ``if self._f is
    None:`` test on a registry cache field outside any guard, paired
    with an (interprocedurally reachable) unguarded fill;
``RL302``
    non-atomic invalidate/rebuild — in-place mutation of a
    publish-by-replacement field (:data:`SWAP_PUBLISHED_FIELDS`), or
    accessors of one cache field holding guard sets with no common
    token (the classic inconsistent-lock-set report);
``RL303``
    blocking-under-guard — an ``io``/``clock``/``spawns`` effect
    reachable while a guard is held (``repro.obs`` instrumentation is
    allowlisted, as in RL203).

Like every reprograph pass this is best-effort static analysis: dynamic
dispatch and untyped receivers stay unresolved, erring toward silence.
The declarative :data:`CONCURRENT_ROOTS` list is the extension point the
daemon PR will grow — registering its request handlers there puts every
cache they reach under these rules.
"""

from __future__ import annotations

import ast
import re
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field

from .effects import (
    DEFAULT_CACHE_REGISTRY,
    EFFECT_CLOCK,
    EFFECT_IO,
    EFFECT_SPAWNS,
    SYNC_GUARDED_METHODS,
    CacheSpec,
    EffectAnalysis,
    _module_in_obs,
    _ScanContext,
    analyze_effects,
    is_sync_primitive,
)
from .engine import Finding, GraphRule
from .symbols import FunctionInfo, ProjectIndex

__all__ = [
    "AtomicPublishRule",
    "BlockingUnderGuardRule",
    "CONCURRENT_ROOTS",
    "CheckThenActRule",
    "ConcurrencyAnalysis",
    "SWAP_PUBLISHED_FIELDS",
    "SharedStateRaceRule",
    "analyze_concurrency",
]

#: Declared concurrent entry points: (module, module-relative function
#: names).  Functions listed here — plus anything with a direct
#: ``spawns`` effect — seed the RL300 reachability closure with an empty
#: entry lock set.  The query-serving daemon extends this list with its
#: request handlers.
CONCURRENT_ROOTS: tuple[tuple[str, frozenset[str]], ...] = (
    (
        "repro.perf.parallel",
        frozenset(
            {
                "ParallelExperimentRunner.map",
                "ParallelExperimentRunner.map_seeded",
                "ParallelExperimentRunner.map_chunked",
                "ParallelExperimentRunner.submit",
            }
        ),
    ),
    ("repro.trust.engine", frozenset({"rank_many"})),
)

#: Fields whose contract is publish-by-replacement: derive a complete
#: new value and swap the reference (:class:`repro.util.sync.AtomicSwap`).
#: RL302 flags any in-place mutation (store-through or container method)
#: of these; plain reassignment *is* publication and stays legal.
SWAP_PUBLISHED_FIELDS = frozenset(
    {
        "repro.core.recommender.ProfileStore._matrix",
        "repro.core.recommender.PureCFRecommender._product_matrix",
        "repro.perf.matrix.ProfileMatrix._dense_sq",
        "repro.perf.matrix.ProfileMatrix._topic_rows",
        "repro.trust.graph.TrustGraph._packed",
    }
)

#: Attribute/variable names that read as locks even without a type.
_GUARD_NAME_RE = re.compile(r"lock|guard|mutex", re.IGNORECASE)

#: Effects that must not run while a guard is held (RL303).
_BLOCKING_EFFECTS = (EFFECT_CLOCK, EFFECT_IO, EFFECT_SPAWNS)

#: Access kinds that write the field (``sync`` writes are self-guarded).
_WRITE_KINDS = frozenset({"assign", "store", "mutator", "sync"})

#: Functions that own their instance outright: nothing else can hold a
#: reference while they run, so their field accesses are race-free
#: (RacerD's ownership rule) and exempt from lock-set consistency.
_CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__"})


@dataclass(frozen=True, slots=True)
class _Access:
    """One write to caller-visible state, with its lexical lock set."""

    atom: str  #: ``mutates:<Class.field>``
    guards: frozenset[str]
    line: int
    kind: str  #: assign | store | mutator | sync


@dataclass(frozen=True, slots=True)
class _GuardedCall:
    """One call edge, with the lock set held at the call site."""

    callee: str
    guards: frozenset[str]
    line: int
    masked: frozenset[str]  #: receiver classes whose self-mutations stay local


@dataclass(frozen=True, slots=True)
class _BlockingSite:
    """One direct ``io``/``clock``/``spawns`` site and its lock set."""

    effect: str
    guards: frozenset[str]
    line: int  #: the innermost ``with`` line when guarded (anchor)
    origin: str


@dataclass(frozen=True, slots=True)
class _CheckAct:
    """One ``is None`` / ``not in`` test on a stateful field."""

    atom: str
    guards: frozenset[str]
    line: int


@dataclass
class _FunctionFacts:
    """Everything the four rules need to know about one function."""

    accesses: list[_Access] = field(default_factory=list)
    calls: list[_GuardedCall] = field(default_factory=list)
    blocking: list[_BlockingSite] = field(default_factory=list)
    checks: list[_CheckAct] = field(default_factory=list)
    acquires: set[str] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class _BlockState:
    """Lock-set context while walking one function's statement tree."""

    guards: frozenset[str]
    anchor: int | None  #: line of the innermost guard-taking ``with``


class ConcurrencyAnalysis:
    """Per-function lock-set facts over one :class:`ProjectIndex`.

    Reuses :class:`EffectAnalysis`'s type environment and per-node
    classification so an access means exactly the same thing to the
    effect fixpoint and to the lock-set walk; what this pass adds is the
    block structure (``with`` nesting, branch tests, statement order)
    that the flat effect scan deliberately ignores.
    """

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        self.eff: EffectAnalysis = analyze_effects(project)
        self.facts: dict[str, _FunctionFacts] = {}
        self._unguarded: dict[str, frozenset[str]] | None = None
        for func in project.functions():
            self.facts[func.qualname] = self._collect(func)

    # -- collection ----------------------------------------------------------

    def _collect(self, func: FunctionInfo) -> _FunctionFacts:
        ctx = self.eff._context(func)
        facts = _FunctionFacts()
        alias: dict[str, str] = {}
        state = _BlockState(guards=frozenset(), anchor=None)
        self._walk_block(func.node.body, state, ctx, facts, alias)
        return facts

    def _walk_block(
        self,
        body: list[ast.stmt],
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
        alias: dict[str, str],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Nested defs are flattened into the parent, matching the
                # effect scan; their bodies inherit the lexical lock set.
                self._walk_block(stmt.body, state, ctx, facts, alias)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                tokens: set[str] = set()
                for item in stmt.items:
                    self._leaf_exprs([item.context_expr], state, ctx, facts)
                    token = self._guard_token(item.context_expr, ctx)
                    if token is not None:
                        tokens.add(token)
                inner = state
                if tokens:
                    facts.acquires |= tokens
                    inner = _BlockState(
                        guards=state.guards | tokens, anchor=stmt.lineno
                    )
                self._walk_block(stmt.body, inner, ctx, facts, alias)
            elif isinstance(stmt, ast.If):
                self._record_checks(stmt.test, state, ctx, facts, alias)
                self._leaf_exprs([stmt.test], state, ctx, facts)
                self._walk_block(stmt.body, state, ctx, facts, alias)
                self._walk_block(stmt.orelse, state, ctx, facts, alias)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._leaf_exprs([stmt.iter], state, ctx, facts)
                self._walk_block(stmt.body, state, ctx, facts, alias)
                self._walk_block(stmt.orelse, state, ctx, facts, alias)
            elif isinstance(stmt, ast.While):
                self._leaf_exprs([stmt.test], state, ctx, facts)
                self._walk_block(stmt.body, state, ctx, facts, alias)
                self._walk_block(stmt.orelse, state, ctx, facts, alias)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, state, ctx, facts, alias)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, state, ctx, facts, alias)
                self._walk_block(stmt.orelse, state, ctx, facts, alias)
                self._walk_block(stmt.finalbody, state, ctx, facts, alias)
            elif isinstance(stmt, ast.Match):
                self._leaf_exprs([stmt.subject], state, ctx, facts)
                for case in stmt.cases:
                    if case.guard is not None:
                        self._leaf_exprs([case.guard], state, ctx, facts)
                    self._walk_block(case.body, state, ctx, facts, alias)
            else:
                self._leaf_exprs([stmt], state, ctx, facts)
                self._track_alias(stmt, ctx, alias)

    def _leaf_exprs(
        self,
        roots: list[ast.stmt] | list[ast.expr],
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        """Classify every write/call inside *roots* with the current lock set."""
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        self._record_write(target, node.lineno, state, ctx, facts)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if not (isinstance(node, ast.AnnAssign) and node.value is None):
                        self._record_write(
                            node.target, node.lineno, state, ctx, facts
                        )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        self._record_write(target, node.lineno, state, ctx, facts)
                elif isinstance(node, ast.Call):
                    self._record_call(node, state, ctx, facts)

    def _record_write(
        self,
        target: ast.expr,
        line: int,
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        direct: set[str] = set()
        origins: dict[str, str] = {}
        self.eff._write_target(target, ctx, direct, origins)
        self._append_accesses(direct, origins, line, state.guards, facts)

    def _record_call(
        self,
        call: ast.Call,
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        if isinstance(call.func, ast.Attribute):
            receiver_cls = self.eff._receiver_class(call.func.value, ctx)
            if receiver_cls is not None and is_sync_primitive(receiver_cls):
                self._record_sync_call(call, receiver_cls, state, ctx, facts)
                return
        direct: set[str] = set()
        origins: dict[str, str] = {}
        callees: dict[str, set[str]] = {}
        self.eff._classify_call(call, ctx, direct, origins, callees)
        self._append_accesses(direct, origins, call.lineno, state.guards, facts)
        for effect in _BLOCKING_EFFECTS:
            if effect in direct:
                facts.blocking.append(
                    _BlockingSite(
                        effect=effect,
                        guards=state.guards,
                        line=state.anchor or call.lineno,
                        origin=origins.get(effect, effect),
                    )
                )
        for callee, mask in callees.items():
            facts.calls.append(
                _GuardedCall(
                    callee=callee,
                    guards=state.guards,
                    line=call.lineno,
                    masked=frozenset(mask),
                )
            )

    def _record_sync_call(
        self,
        call: ast.Call,
        receiver_cls: str,
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        """A ``repro.util.sync`` primitive call: self-guarded by definition."""
        assert isinstance(call.func, ast.Attribute)
        method = call.func.attr
        direct: set[str] = set()
        origins: dict[str, str] = {}
        callees: dict[str, set[str]] = {}
        self.eff._classify_sync_call(call, ctx, direct, origins, callees)
        token = self._sync_receiver_token(call.func.value, ctx)
        if token is None:
            token = f"guard:{receiver_cls}"  # unresolvable receiver, stay guarded
        if method in SYNC_GUARDED_METHODS:
            facts.acquires.add(token)
        guards = state.guards | {token}
        for atom in sorted(direct):
            if atom.startswith("mutates:"):
                facts.accesses.append(
                    _Access(atom=atom, guards=guards, line=call.lineno, kind="sync")
                )
        for callee in callees:
            # get_or_build builders run inside the primitive's section.
            facts.calls.append(
                _GuardedCall(
                    callee=callee,
                    guards=guards,
                    line=call.lineno,
                    masked=frozenset(),
                )
            )

    def _append_accesses(
        self,
        direct: set[str],
        origins: dict[str, str],
        line: int,
        guards: frozenset[str],
        facts: _FunctionFacts,
    ) -> None:
        for atom in sorted(direct):
            if not atom.startswith("mutates:") or atom == "mutates:global":
                continue
            origin = origins.get(atom, "")
            if origin.startswith("assignment to"):
                kind = "assign"
            elif origin.startswith("store through"):
                kind = "store"
            else:
                kind = "mutator"
            facts.accesses.append(
                _Access(atom=atom, guards=guards, line=line, kind=kind)
            )

    # -- guard tokens --------------------------------------------------------

    def _guard_token(self, expr: ast.expr, ctx: _ScanContext) -> str | None:
        """The canonical token when *expr* is a lock being acquired."""
        node = expr
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "held"
        ):
            receiver = self.eff._receiver_class(node.func.value, ctx)
            if receiver is not None and is_sync_primitive(receiver):
                node = node.func.value  # with cache.held(): → the cache's token
        if isinstance(node, ast.Attribute):
            return self._attribute_guard_token(node, ctx)
        if isinstance(node, ast.Name):
            name = node.id
            typed = ctx.locals.get(name) or ctx.params.get(name)
            if name in ctx.module.globals and name not in ctx.bound:
                if _GUARD_NAME_RE.search(name):
                    return f"guard:{ctx.module.name}.{name}"
                return None
            if (typed is not None and is_sync_primitive(typed)) or (
                _GUARD_NAME_RE.search(name)
            ):
                return f"guard:local:{name}"
        return None

    def _attribute_guard_token(
        self, node: ast.Attribute, ctx: _ScanContext
    ) -> str | None:
        base_cls = self.eff._stateful_receiver(node.value, ctx)
        if base_cls is None:
            return None
        attr_type = self.eff.class_attr_types.get(base_cls, {}).get(node.attr)
        if (attr_type is not None and is_sync_primitive(attr_type)) or (
            _GUARD_NAME_RE.search(node.attr)
        ):
            return f"guard:{base_cls}.{node.attr}"
        return None

    def _sync_receiver_token(
        self, receiver: ast.expr, ctx: _ScanContext
    ) -> str | None:
        """Implicit guard token for a sync-primitive *receiver* expression."""
        if isinstance(receiver, ast.Attribute):
            base_cls = self.eff._stateful_receiver(receiver.value, ctx)
            if base_cls is not None:
                return f"guard:{base_cls}.{receiver.attr}"
            return None
        if isinstance(receiver, ast.Name):
            return f"guard:local:{receiver.id}"
        return None

    # -- check-then-act ------------------------------------------------------

    def _track_alias(
        self, stmt: ast.stmt, ctx: _ScanContext, alias: dict[str, str]
    ) -> None:
        """``x = self._cache.get(k)`` / ``x = self._f`` alias the field."""
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return
        atom = self._value_field_atom(stmt.value, ctx)
        if atom is not None:
            alias[target.id] = atom
        else:
            alias.pop(target.id, None)

    def _value_field_atom(
        self, value: ast.expr, ctx: _ScanContext
    ) -> str | None:
        node = value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("get", "peek"):
                node = node.func.value
            else:
                return None
        if isinstance(node, ast.Subscript):
            node = node.value
        return self._field_atom(node, ctx)

    def _field_atom(self, node: ast.expr, ctx: _ScanContext) -> str | None:
        if not isinstance(node, ast.Attribute):
            return None
        cls = self.eff._stateful_receiver(node.value, ctx)
        if cls is None:
            return None
        return f"mutates:{cls}.{node.attr}"

    def _record_checks(
        self,
        test: ast.expr,
        state: _BlockState,
        ctx: _ScanContext,
        facts: _FunctionFacts,
        alias: dict[str, str],
    ) -> None:
        for node in ast.walk(test):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            op = node.ops[0]
            atom: str | None = None
            if isinstance(op, ast.Is):
                right = node.comparators[0]
                if not (
                    isinstance(right, ast.Constant) and right.value is None
                ):
                    continue
                left = node.left
                if isinstance(left, ast.Name):
                    atom = alias.get(left.id)
                else:
                    atom = self._field_atom(left, ctx)
            elif isinstance(op, ast.NotIn):
                atom = self._field_atom(node.comparators[0], ctx)
            if atom is not None:
                facts.checks.append(
                    _CheckAct(atom=atom, guards=state.guards, line=node.lineno)
                )

    # -- fixpoints -----------------------------------------------------------

    def unguarded_atoms(self) -> dict[str, frozenset[str]]:
        """Per function: atoms written with an empty lock set, transitively.

        A callee's unguarded writes propagate through call sites that are
        themselves unguarded (a guarded call site protects everything
        below it) and not masked for the atom's owner class.
        """
        if self._unguarded is not None:
            return self._unguarded
        table: dict[str, set[str]] = {}
        for name, facts in self.facts.items():
            table[name] = {
                access.atom
                for access in facts.accesses
                if access.kind in _WRITE_KINDS and not access.guards
            }
        order = sorted(table)
        for _ in range(len(order) + 1):
            changed = False
            for name in order:
                accumulated = table[name]
                for call in self.facts[name].calls:
                    if call.guards or call.callee == name:
                        continue
                    callee_atoms = table.get(call.callee)
                    if not callee_atoms:
                        continue
                    contribution = {
                        atom
                        for atom in callee_atoms
                        if _owner_class(atom) not in call.masked
                    }
                    if not contribution <= accumulated:
                        accumulated |= contribution
                        changed = True
            if not changed:
                break
        self._unguarded = {name: frozenset(atoms) for name, atoms in table.items()}
        return self._unguarded

    def unguarded_witness(self, start: str, atom: str) -> list[str]:
        """Deterministic call chain from *start* to an unguarded write."""
        table = self.unguarded_atoms()
        path = [start]
        current = start
        while not self._writes_unguarded(current, atom):
            nxt = None
            for call in sorted(self.facts[current].calls, key=lambda c: c.callee):
                if call.guards or call.callee in path:
                    continue
                if _owner_class(atom) in call.masked:
                    continue
                if atom in table.get(call.callee, frozenset()):
                    nxt = call.callee
                    break
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path

    def _writes_unguarded(self, name: str, atom: str) -> bool:
        return any(
            access.atom == atom and not access.guards
            for access in self.facts.get(name, _FunctionFacts()).accesses
        )

    def concurrent_entry_states(
        self, roots: tuple[tuple[str, frozenset[str]], ...] = CONCURRENT_ROOTS
    ) -> tuple[
        dict[str, tuple[frozenset[str], frozenset[str]]],
        dict[str, tuple[str, int] | None],
    ]:
        """Entry lock sets on every function reachable from a concurrent root.

        Returns ``(entry, parent)``: ``entry[f]`` is the intersection
        over all discovered paths of ``(guards held at entry, receiver
        classes constructed locally along the path)``; ``parent`` holds
        deterministic predecessor pointers for witness chains.
        """
        entry: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        parent: dict[str, tuple[str, int] | None] = {}
        worklist: list[str] = []
        for func in self.project.functions():
            if self._is_root(func, roots):
                entry[func.qualname] = (frozenset(), frozenset())
                parent[func.qualname] = None
                worklist.append(func.qualname)
        while worklist:
            worklist.sort()
            name = worklist.pop(0)
            guards, masked = entry[name]
            for call in self.facts.get(name, _FunctionFacts()).calls:
                if call.callee == name or call.callee not in self.facts:
                    continue
                reached = (guards | call.guards, masked | call.masked)
                known = entry.get(call.callee)
                merged = (
                    reached
                    if known is None
                    else (known[0] & reached[0], known[1] & reached[1])
                )
                if known is None:
                    parent[call.callee] = (name, call.line)
                if known != merged:
                    entry[call.callee] = merged
                    if call.callee not in worklist:
                        worklist.append(call.callee)
        return entry, parent

    def _is_root(
        self,
        func: FunctionInfo,
        roots: tuple[tuple[str, frozenset[str]], ...],
    ) -> bool:
        for module, names in roots:
            if func.module == module and func.name in names:
                return True
        return EFFECT_SPAWNS in self.eff.direct.get(func.qualname, frozenset())

    # -- the effect-table column ---------------------------------------------

    def acquired_guards(self) -> dict[str, frozenset[str]]:
        """Per function, every guard token it acquires (the lock set column)."""
        return {
            name: frozenset(facts.acquires)
            for name, facts in self.facts.items()
            if facts.acquires
        }


def _owner_class(atom: str) -> str:
    """``mutates:pkg.Class.field`` → ``pkg.Class``."""
    return atom[len("mutates:"):].rpartition(".")[0]


def _atom_field(atom: str) -> str:
    return atom[len("mutates:"):]


#: One analysis per ProjectIndex, mirroring ``analyze_effects``.
_ANALYSES: "weakref.WeakKeyDictionary[ProjectIndex, ConcurrencyAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def analyze_concurrency(project: ProjectIndex) -> ConcurrencyAnalysis:
    """The (memoized) concurrency analysis for *project*."""
    analysis = _ANALYSES.get(project)
    if analysis is None:
        analysis = ConcurrencyAnalysis(project)
        _ANALYSES[project] = analysis
    return analysis


def _registry_cache_atoms(registry: tuple[CacheSpec, ...]) -> frozenset[str]:
    atoms: set[str] = set()
    for spec in registry:
        atoms |= spec.all_cache_atoms
    return frozenset(atoms)


def _registry_atoms(registry: tuple[CacheSpec, ...]) -> frozenset[str]:
    atoms = set(_registry_cache_atoms(registry))
    for spec in registry:
        atoms |= spec.backing_atoms
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# RL300 — shared-state race.
# ---------------------------------------------------------------------------


class SharedStateRaceRule(GraphRule):
    """RL300: registry field mutated on a concurrent path without a guard.

    The closure starts at :data:`CONCURRENT_ROOTS` (plus direct
    spawners) with an empty entry lock set and propagates held-sets
    through call sites, meeting by intersection.  A write whose
    effective guards (entry ∪ lexical) are empty, on a field owner not
    locally constructed along the path, races.
    """

    code = "RL300"
    summary = "shared-state race on a registered cache field"

    def __init__(
        self,
        registry: tuple[CacheSpec, ...] = DEFAULT_CACHE_REGISTRY,
        roots: tuple[tuple[str, frozenset[str]], ...] = CONCURRENT_ROOTS,
    ) -> None:
        self.registry = registry
        self.roots = roots

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        entry, parent = analysis.concurrent_entry_states(self.roots)
        atoms = _registry_atoms(self.registry)
        for func in project.functions():
            state = entry.get(func.qualname)
            if state is None:
                continue
            entry_guards, masked = state
            reported: set[str] = set()
            for access in analysis.facts[func.qualname].accesses:
                if access.atom not in atoms or access.atom in reported:
                    continue
                if entry_guards | access.guards:
                    continue
                if _owner_class(access.atom) in masked:
                    continue
                reported.add(access.atom)
                chain = _root_chain(parent, func.qualname)
                module = project.modules[func.module]
                yield self.finding(
                    path=module.path,
                    line=access.line,
                    column=1,
                    message=(
                        f"{func.qualname} mutates {_atom_field(access.atom)} "
                        f"with no guard held on the concurrent path "
                        f"{' -> '.join(chain)} — protect it with a "
                        f"GuardedCache/AtomicSwap or a shared ReentrantGuard "
                        f"(repro.util.sync)"
                    ),
                )


def _root_chain(parent: dict[str, tuple[str, int] | None], name: str) -> list[str]:
    chain = [name]
    seen = {name}
    current: str | None = name
    while current is not None:
        step = parent.get(current)
        if step is None:
            break
        current = step[0]
        if current in seen:
            break
        seen.add(current)
        chain.append(current)
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# RL301 — check-then-act.
# ---------------------------------------------------------------------------


class CheckThenActRule(GraphRule):
    """RL301: unguarded check-then-act fill on a registry cache field.

    An ``if self._f is None:`` / ``if key not in cache:`` test (or an
    aliased form through ``x = cache.get(k)``) outside any guard, in a
    function that also reaches an unguarded write of the same field,
    leaves the classic window: two racers both see "absent" and both
    fill.  ``GuardedCache.get_or_build`` closes it; double-checked tests
    *inside* a guard are sanctioned and skipped.
    """

    code = "RL301"
    summary = "unguarded check-then-act fill on a registered cache field"

    def __init__(self, registry: tuple[CacheSpec, ...] = DEFAULT_CACHE_REGISTRY):
        self.registry = registry

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        cache_atoms = _registry_cache_atoms(self.registry)
        unguarded = analysis.unguarded_atoms()
        for func in project.functions():
            facts = analysis.facts.get(func.qualname)
            if facts is None:
                continue
            reported: set[str] = set()
            for check in facts.checks:
                if check.atom not in cache_atoms or check.atom in reported:
                    continue
                if check.guards:
                    continue  # double-checked locking: sanctioned
                if check.atom not in unguarded.get(func.qualname, frozenset()):
                    continue
                reported.add(check.atom)
                witness = analysis.unguarded_witness(func.qualname, check.atom)
                via = (
                    f" (fill via {' -> '.join(witness)})"
                    if len(witness) > 1
                    else ""
                )
                module = project.modules[func.module]
                yield self.finding(
                    path=module.path,
                    line=check.line,
                    column=1,
                    message=(
                        f"check-then-act on {_atom_field(check.atom)} outside "
                        f"any guard{via} — two racers can both see 'absent' "
                        f"and both fill; use GuardedCache.get_or_build "
                        f"(repro.util.sync)"
                    ),
                )


# ---------------------------------------------------------------------------
# RL302 — non-atomic invalidate/rebuild.
# ---------------------------------------------------------------------------


class AtomicPublishRule(GraphRule):
    """RL302: publish-by-replacement violated, or inconsistent lock sets.

    Two checks:

    * in-place mutation (store-through / container method) of a
      :data:`SWAP_PUBLISHED_FIELDS` field — a reader holding the old
      reference must keep a consistent snapshot, so these fields are
      rebuilt and swapped, never patched;
    * for each registry cache field, every function writing it holds
      some guard set — if at least one holds a guard but no single token
      is common to all accessors, the locking is decorative (classic
      inconsistent-lock-set).  Constructors (``__init__`` /
      ``__post_init__``) are exempt: they install the field before the
      object can escape to another thread (RacerD's ownership rule), so
      their unguarded initial assignment must not poison the
      intersection.
    """

    code = "RL302"
    summary = "non-atomic invalidate/rebuild of a registered cache field"

    def __init__(
        self,
        registry: tuple[CacheSpec, ...] = DEFAULT_CACHE_REGISTRY,
        swap_fields: frozenset[str] = SWAP_PUBLISHED_FIELDS,
    ) -> None:
        self.registry = registry
        self.swap_atoms = frozenset(f"mutates:{name}" for name in swap_fields)

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        yield from self._check_in_place(project, analysis)
        yield from self._check_lock_sets(project, analysis)

    def _check_in_place(
        self, project: ProjectIndex, analysis: ConcurrencyAnalysis
    ) -> Iterator[Finding]:
        for func in project.functions():
            for access in analysis.facts.get(func.qualname, _FunctionFacts()).accesses:
                if access.atom not in self.swap_atoms:
                    continue
                if access.kind not in ("store", "mutator"):
                    continue
                module = project.modules[func.module]
                yield self.finding(
                    path=module.path,
                    line=access.line,
                    column=1,
                    message=(
                        f"{func.qualname} mutates {_atom_field(access.atom)} "
                        f"in place — this field publishes by replacement: "
                        f"rebuild the value and AtomicSwap.swap() it so "
                        f"concurrent readers keep a consistent snapshot"
                    ),
                )

    def _check_lock_sets(
        self, project: ProjectIndex, analysis: ConcurrencyAnalysis
    ) -> Iterator[Finding]:
        cache_atoms = _registry_cache_atoms(self.registry)
        # atom → function qualname → intersection of guard sets over sites.
        per_atom: dict[str, dict[str, frozenset[str]]] = {}
        lines: dict[tuple[str, str], int] = {}
        for func in project.functions():
            if func.qualname.rsplit(".", 1)[-1] in _CONSTRUCTOR_NAMES:
                continue  # owned until the object escapes — see class docstring
            for access in analysis.facts.get(func.qualname, _FunctionFacts()).accesses:
                if access.atom not in cache_atoms:
                    continue
                held = per_atom.setdefault(access.atom, {})
                known = held.get(func.qualname)
                held[func.qualname] = (
                    access.guards if known is None else known & access.guards
                )
                key = (access.atom, func.qualname)
                lines[key] = min(lines.get(key, access.line), access.line)
        for atom in sorted(per_atom):
            held = per_atom[atom]
            if len(held) < 2 or all(not guards for guards in held.values()):
                continue  # single accessor, or nothing locked: RL300/301 turf
            common = frozenset.intersection(*held.values())
            if common:
                continue
            offenders = sorted(held)
            anchor = min(
                (name for name in offenders if not held[name]), default=offenders[0]
            )
            func = project.function(anchor)
            if func is None:
                continue
            detail = "; ".join(
                f"{name} holds "
                + (", ".join(sorted(held[name])) if held[name] else "no guard")
                for name in offenders
            )
            module = project.modules[func.module]
            yield self.finding(
                path=module.path,
                line=lines[(atom, anchor)],
                column=1,
                message=(
                    f"inconsistent lock sets on {_atom_field(atom)}: {detail} "
                    f"— no common token protects the field, so the locking "
                    f"is decorative; share one ReentrantGuard or go through "
                    f"the field's GuardedCache/AtomicSwap everywhere"
                ),
            )


# ---------------------------------------------------------------------------
# RL303 — blocking under a guard.
# ---------------------------------------------------------------------------


class BlockingUnderGuardRule(GraphRule):
    """RL303: ``io``/``clock``/``spawns`` reachable while a guard is held.

    Direct sites anchor at the innermost ``with`` line (RacerD's "lock
    held here"); effects inherited through a guarded call site come with
    the effect fixpoint's witness chain.  :mod:`repro.obs` callees are
    allowlisted exactly as in RL203 — counting a cache miss under the
    guard is instrumentation, not blocking.
    """

    code = "RL303"
    summary = "blocking effect while a guard is held"

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        effects = analysis.eff.effects(ignore_obs=True)
        for func in project.functions():
            facts = analysis.facts.get(func.qualname)
            if facts is None:
                continue
            module = project.modules[func.module]
            for site in facts.blocking:
                if not site.guards:
                    continue
                yield self.finding(
                    path=module.path,
                    line=site.line,
                    column=1,
                    message=(
                        f"{func.qualname} has a blocking '{site.effect}' "
                        f"effect ({site.origin}) while holding "
                        f"{_render_guards(site.guards)} — move it outside "
                        f"the critical section"
                    ),
                )
            reported: set[tuple[str, str]] = set()
            for call in facts.calls:
                if not call.guards:
                    continue
                if _module_in_obs(call.callee):
                    continue
                callee_effects = effects.get(call.callee, frozenset())
                for effect in _BLOCKING_EFFECTS:
                    if effect not in callee_effects:
                        continue
                    if (call.callee, effect) in reported:
                        continue
                    reported.add((call.callee, effect))
                    witness = [func.qualname] + analysis.eff.witness_path(
                        call.callee, effect, ignore_obs=True
                    )
                    origin = analysis.eff.origin_of(witness[-1], effect)
                    yield self.finding(
                        path=module.path,
                        line=call.line,
                        column=1,
                        message=(
                            f"{func.qualname} reaches a blocking "
                            f"'{effect}' effect ({origin}) via "
                            f"{' -> '.join(witness)} while holding "
                            f"{_render_guards(call.guards)} — move it "
                            f"outside the critical section"
                        ),
                    )


def _render_guards(guards: frozenset[str]) -> str:
    return ", ".join(sorted(guards))
