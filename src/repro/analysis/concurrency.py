"""Lock-set inference and the check-then-act rule (RL301).

The caches that :mod:`repro.analysis.effects` tracks
(``ProfileStore._cache``/``_matrix``, ``TrustGraph._packed``, the
taxonomy memos) were written single-threaded, and their lazy fills
followed one shape: test whether the entry is absent, then build and
store it.  Under concurrent readers that window lets two racers both see
"absent" and both fill.  This module finds those windows with a
RacerD-style compositional pass: per function, the **lock set** held at
each statement is inferred by walking ``with`` contexts and the
sanctioned primitives of :mod:`repro.util.sync`, and unguarded writes are
threaded through the call-graph fixpoint exactly as effects are — so a
fill three calls below the test still counts, and every report comes
with a call-chain witness.

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

``RL301`` flags an ``if key not in cache:`` / ``if self._f is None:``
test on a registry cache field outside any guard, paired with an
(interprocedurally reachable) unguarded fill.  Like every graph pass
this is best-effort static analysis: dynamic dispatch and untyped
receivers stay unresolved, erring toward silence.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from .effects import (
    DEFAULT_CACHE_REGISTRY,
    MUTATES_GLOBAL,
    CacheSpec,
    EffectAnalysis,
    _ScanContext,
    analyze_effects,
    is_sync_primitive,
)
from .engine import Finding, GraphRule
from .symbols import FunctionInfo, ProjectIndex

__all__ = ["CheckThenActRule", "ConcurrencyAnalysis"]

#: Attribute/variable names that read as locks even without a type.
_GUARD_NAME_RE = re.compile(r"lock|guard|mutex", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class _Access:
    """One write to caller-visible state, with its lexical lock set."""

    atom: str  #: ``mutates:<Class.field>``
    guards: frozenset[str]


@dataclass(frozen=True, slots=True)
class _GuardedCall:
    """One call edge, with the lock set held at the call site."""

    callee: str
    guards: frozenset[str]
    masked: frozenset[str]  #: receiver classes whose self-mutations stay local


@dataclass(frozen=True, slots=True)
class _CheckAct:
    """One ``is None`` / ``not in`` test on a stateful field."""

    atom: str
    guards: frozenset[str]
    line: int


@dataclass
class _FunctionFacts:
    """Everything RL301 needs to know about one function."""

    accesses: list[_Access] = field(default_factory=list)
    calls: list[_GuardedCall] = field(default_factory=list)
    checks: list[_CheckAct] = field(default_factory=list)


class ConcurrencyAnalysis:
    """Per-function lock-set facts over one :class:`ProjectIndex`.

    Reuses :class:`EffectAnalysis`'s type environment and per-node
    classification so an access means exactly the same thing to the
    effect fixpoint and to the lock-set walk; what this pass adds is the
    block structure (``with`` nesting, branch tests, statement order)
    that the flat effect scan deliberately ignores.
    """

    def __init__(self, project: ProjectIndex) -> None:
        self.eff: EffectAnalysis = analyze_effects(project)
        self.facts: dict[str, _FunctionFacts] = {}
        self._unguarded: dict[str, frozenset[str]] | None = None
        for func in project.functions():
            self.facts[func.qualname] = self._collect(func)

    # -- collection ----------------------------------------------------------

    def _collect(self, func: FunctionInfo) -> _FunctionFacts:
        ctx = self.eff._context(func)
        facts = _FunctionFacts()
        self._walk_block(func.node.body, frozenset(), ctx, facts, {})
        return facts

    def _walk_block(
        self,
        body: list[ast.stmt],
        guards: frozenset[str],
        ctx: _ScanContext,
        facts: _FunctionFacts,
        alias: dict[str, str],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Nested defs are flattened into the parent, matching the
                # effect scan; their bodies inherit the lexical lock set.
                self._walk_block(stmt.body, guards, ctx, facts, alias)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                tokens: set[str] = set()
                for item in stmt.items:
                    self._leaf_exprs([item.context_expr], guards, ctx, facts)
                    token = self._guard_token(item.context_expr, ctx)
                    if token is not None:
                        tokens.add(token)
                self._walk_block(stmt.body, guards | tokens, ctx, facts, alias)
            elif isinstance(stmt, ast.If):
                self._record_checks(stmt.test, guards, ctx, facts, alias)
                self._leaf_exprs([stmt.test], guards, ctx, facts)
                self._walk_block(stmt.body, guards, ctx, facts, alias)
                self._walk_block(stmt.orelse, guards, ctx, facts, alias)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._leaf_exprs([stmt.iter], guards, ctx, facts)
                self._walk_block(stmt.body, guards, ctx, facts, alias)
                self._walk_block(stmt.orelse, guards, ctx, facts, alias)
            elif isinstance(stmt, ast.While):
                self._leaf_exprs([stmt.test], guards, ctx, facts)
                self._walk_block(stmt.body, guards, ctx, facts, alias)
                self._walk_block(stmt.orelse, guards, ctx, facts, alias)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, guards, ctx, facts, alias)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, guards, ctx, facts, alias)
                self._walk_block(stmt.orelse, guards, ctx, facts, alias)
                self._walk_block(stmt.finalbody, guards, ctx, facts, alias)
            elif isinstance(stmt, ast.Match):
                self._leaf_exprs([stmt.subject], guards, ctx, facts)
                for case in stmt.cases:
                    if case.guard is not None:
                        self._leaf_exprs([case.guard], guards, ctx, facts)
                    self._walk_block(case.body, guards, ctx, facts, alias)
            else:
                self._leaf_exprs([stmt], guards, ctx, facts)
                self._track_alias(stmt, ctx, alias)

    def _leaf_exprs(
        self,
        roots: list[ast.stmt] | list[ast.expr],
        guards: frozenset[str],
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        """Classify every write/call inside *roots* with the current lock set."""
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        self._record_write(target, guards, ctx, facts)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if not (isinstance(node, ast.AnnAssign) and node.value is None):
                        self._record_write(node.target, guards, ctx, facts)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        self._record_write(target, guards, ctx, facts)
                elif isinstance(node, ast.Call):
                    self._record_call(node, guards, ctx, facts)

    def _record_write(
        self,
        target: ast.expr,
        guards: frozenset[str],
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        direct: set[str] = set()
        self.eff._write_target(target, ctx, direct)
        self._append_accesses(direct, guards, facts)

    def _record_call(
        self,
        call: ast.Call,
        guards: frozenset[str],
        ctx: _ScanContext,
        facts: _FunctionFacts,
    ) -> None:
        if isinstance(call.func, ast.Attribute):
            receiver_cls = self.eff._receiver_class(call.func.value, ctx)
            if receiver_cls is not None and is_sync_primitive(receiver_cls):
                # A repro.util.sync primitive call is self-guarded by
                # definition; get_or_build builders run inside its section.
                token = self._sync_receiver_token(call.func.value, ctx)
                guards = guards | {token or f"guard:{receiver_cls}"}
        direct: set[str] = set()
        callees: dict[str, set[str]] = {}
        self.eff._classify_call(call, ctx, direct, callees)
        self._append_accesses(direct, guards, facts)
        for callee, mask in callees.items():
            facts.calls.append(
                _GuardedCall(callee=callee, guards=guards, masked=frozenset(mask))
            )

    @staticmethod
    def _append_accesses(
        direct: set[str], guards: frozenset[str], facts: _FunctionFacts
    ) -> None:
        for atom in sorted(direct - {MUTATES_GLOBAL}):
            facts.accesses.append(_Access(atom=atom, guards=guards))

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
        guards: frozenset[str],
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
                    _CheckAct(atom=atom, guards=guards, line=node.lineno)
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
                access.atom for access in facts.accesses if not access.guards
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


def _owner_class(atom: str) -> str:
    """``mutates:pkg.Class.field`` → ``pkg.Class``."""
    return atom[len("mutates:"):].rpartition(".")[0]


def _atom_field(atom: str) -> str:
    return atom[len("mutates:"):]


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
        self.cache_atoms: frozenset[str] = frozenset().union(
            *(spec.all_cache_atoms for spec in registry)
        )

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = ConcurrencyAnalysis(project)
        unguarded = analysis.unguarded_atoms()
        for func in project.functions():
            facts = analysis.facts.get(func.qualname)
            if facts is None:
                continue
            reported: set[str] = set()
            for check in facts.checks:
                if check.atom not in self.cache_atoms or check.atom in reported:
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
