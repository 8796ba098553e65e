"""Interprocedural effect inference and the cache-coherence rule (RL200).

The paper's architecture assumes long-lived machine agents that keep
ingesting trust statements and ratings between the recommendations they
compute (§2, §4.1).  Our runtime caches — :class:`ProfileStore`'s profile
dict and packed matrix, the taxonomy builder's path/descriptor memos, the
rating predictor's weight cache, :class:`TrustGraph`'s positive-successor
index — are invalidated by convention only, which makes "incremental
everything" a stale-read minefield: one missed ``invalidate()`` in a
long-lived agent silently serves yesterday's scores forever.

This module computes, per function, a conservative **effect set** over
two kinds of atom:

``mutates:<Class.field>``
    an attribute of ``self`` or of a typed parameter/attribute is
    (re)assigned, deleted, or container-mutated (``.clear()``,
    ``[k] = v``, ``+=``, ...); ``Class`` is the fully-qualified class.
``mutates:global``
    a module-level binding is rebound (``global``) or container-mutated.

Direct effects are extracted from each body, then propagated to callers
via a fixpoint over the :class:`~repro.analysis.symbols.ProjectIndex`
call graph, resolving ``self.attr.method()`` chains through a
lightweight type environment (dataclass field annotations,
``self.x = param`` in ``__init__``, constructor-typed locals) and
unwrapping ``functools.partial``.  Constructing a class does
**not** import its ``__init__`` effects: initializing a fresh object is
not a mutation of pre-existing state.  Like every graph pass this is
best-effort static analysis — dynamic dispatch and untyped receivers
stay unresolved, erring toward silence, never toward noise.

On top of the inferred table sits ``RL200``, cache coherence: a
declarative :data:`DEFAULT_CACHE_REGISTRY` maps cache fields to the
backing state they derive from; any function that mutates backing state
while a registered cache owner is in scope (``self``, a typed attribute,
a typed parameter) must also reach the paired invalidation, and anything
*named* like an invalidator must clear every registered field of every
visible owner (no partial invalidation).

The registry also decides what a **memo fill** is.  In a function that
writes no registered backing field, an assignment of a non-``None``
value into a registered cache field (``self._cache[k] = build(k)``,
``self._matrix = matrix``) fills a memo: no caller can observe it, so it
is not an effect, and a query that memoizes stays pure.  Drops stay
effects (``= None``, ``.pop``, ``.clear``, ``del``), and so do stores
made inside a backing mutator, such as ``Dataset.add_rating`` keeping
its index up to date.
"""

from __future__ import annotations

import ast
import re
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

from .engine import Finding, GraphRule
from .symbols import FunctionInfo, ModuleInfo, ProjectIndex, dotted_name

__all__ = [
    "CacheCoherenceRule",
    "CacheSpec",
    "DEFAULT_CACHE_REGISTRY",
    "EffectAnalysis",
    "analyze_effects",
]

MUTATES_GLOBAL = "mutates:global"

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

#: Functions whose *name* promises invalidation (RL200's partial-
#: invalidation check only applies to these, so cache *fills* like
#: ``ProfileStore.profile`` are never mistaken for incomplete clears).
_INVALIDATOR_RE = re.compile(r"invalidate|_reset_cache|drop_cache", re.IGNORECASE)

# ---------------------------------------------------------------------------
# The declarative cache registry (RL200 and the memo-fill rule).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheSpec:
    """One coherence pairing: cache fields and the state they mirror.

    ``backing`` lists fully-qualified *fields* whose mutation invalidates
    the caches; ``caches`` maps each owner class to its cache fields.  A
    spec with empty ``backing`` declares caches over immutable state
    (coherent by construction) purely so their lazy fills count as memo
    fills, not effects.
    """

    name: str
    backing: tuple[str, ...]
    caches: tuple[tuple[str, tuple[str, ...]], ...]
    invalidate_hint: str

    @property
    def backing_atoms(self) -> frozenset[str]:
        return frozenset(f"mutates:{field}" for field in self.backing)

    def cache_atoms(self, owner: str) -> frozenset[str]:
        for candidate, fields in self.caches:
            if candidate == owner:
                return frozenset(f"mutates:{owner}.{field}" for field in fields)
        return frozenset()

    @property
    def owners(self) -> tuple[str, ...]:
        return tuple(owner for owner, _ in self.caches)

    @property
    def all_cache_atoms(self) -> frozenset[str]:
        atoms: set[str] = set()
        for owner, _ in self.caches:
            atoms |= self.cache_atoms(owner)
        return frozenset(atoms)


_DATASET = "repro.core.models.Dataset"
_PROFILE_STORE = "repro.core.recommender.ProfileStore"
_PURE_CF = "repro.core.recommender.PureCFRecommender"
_PREDICTOR = "repro.core.prediction.RatingPredictor"
_TRUST_GRAPH = "repro.trust.graph.TrustGraph"
_TAXONOMY = "repro.core.taxonomy.Taxonomy"
_BUILDER = "repro.core.profiles.TaxonomyProfileBuilder"
_DIVERSIFIER = "repro.core.diversify.TopicDiversifier"

#: The repository's cache-coherence pairings.  A non-``None`` store into
#: any cache field named here is a memo fill (see the module docstring).
DEFAULT_CACHE_REGISTRY: tuple[CacheSpec, ...] = (
    CacheSpec(
        name="profile-caches",
        backing=(
            f"{_DATASET}.agents",
            f"{_DATASET}.products",
            f"{_DATASET}._ratings",
            f"{_DATASET}._trust",
        ),
        caches=(
            (_PROFILE_STORE, ("_cache", "_matrix")),
            (_PURE_CF, ("_product_profiles", "_product_matrix")),
            (_PREDICTOR, ("_weight_cache",)),
        ),
        invalidate_hint=(
            "ProfileStore.invalidate() / PureCFRecommender.invalidate_cache() "
            "(a RatingPredictor must be rebuilt)"
        ),
    ),
    CacheSpec(
        name="dataset-rating-index",
        backing=(f"{_DATASET}._ratings",),
        caches=((_DATASET, ("_ratings_by_agent", "_raters_by_product")),),
        invalidate_hint=(
            "maintain both indexes in the same mutator, as add_rating/remove_rating do"
        ),
    ),
    CacheSpec(
        name="dataset-trust-index",
        backing=(f"{_DATASET}._trust",),
        caches=((_DATASET, ("_trust_by_source",)),),
        invalidate_hint=(
            "maintain _trust_by_source in the same mutator, as add_trust/remove_trust do"
        ),
    ),
    CacheSpec(
        name="trust-successor-cache",
        backing=(f"{_TRUST_GRAPH}._succ",),
        caches=((_TRUST_GRAPH, ("_pos_succ",)),),
        invalidate_hint=(
            "maintain _pos_succ in the same mutator, as add_edge/remove_edge do"
        ),
    ),
    CacheSpec(
        name="trust-packed-matrix",
        backing=(f"{_TRUST_GRAPH}._succ",),
        caches=((_TRUST_GRAPH, ("_packed",)),),
        invalidate_hint=(
            "splice or drop _packed in the same mutator, as add_edge/remove_edge do"
        ),
    ),
    CacheSpec(
        name="taxonomy-caches",
        backing=(
            f"{_TAXONOMY}._parent",
            f"{_TAXONOMY}._children",
            f"{_TAXONOMY}._labels",
            f"{_TAXONOMY}._depth",
        ),
        caches=(
            (_BUILDER, ("_path_cache", "_descriptor_cache")),
            (_DIVERSIFIER, ("_profile_cache",)),
        ),
        invalidate_hint=(
            "TaxonomyProfileBuilder.invalidate() / TopicDiversifier.invalidate()"
        ),
    ),
)


_CACHE_ATOMS: frozenset[str] = frozenset().union(
    *(spec.all_cache_atoms for spec in DEFAULT_CACHE_REGISTRY)
)
_BACKING_ATOMS: frozenset[str] = frozenset().union(
    *(spec.backing_atoms for spec in DEFAULT_CACHE_REGISTRY)
)


# ---------------------------------------------------------------------------
# Effect inference.
# ---------------------------------------------------------------------------


@dataclass
class _ScanContext:
    """Per-function environment for direct-effect extraction."""

    module: ModuleInfo
    class_name: str | None  #: enclosing ``Class`` (dotted for nesting)
    self_class: str | None  #: fully qualified, when a method
    params: dict[str, str]  #: parameter name → class qualname
    locals: dict[str, str]  #: constructor-typed locals → class qualname
    bound: set[str]  #: locally bound names (params, stores, nested defs)
    global_decls: set[str]  #: names declared ``global``


class EffectAnalysis:
    """Direct effects + call edges for one project, with a cached fixpoint.

    Built once per project through :func:`analyze_effects`, so RL200 and
    the tests that query the table share one inference pass.
    """

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        #: class qualname → attribute name → type qualname.
        self.class_attr_types: dict[str, dict[str, str]] = {}
        self._class_names: set[str] = {
            f"{module.name}.{cls}"
            for module in project.modules.values()
            for cls in module.classes
        }
        self.direct: dict[str, set[str]] = {}
        self.callees: dict[str, set[str]] = {}
        #: caller → callee → class qualnames whose ``mutates:`` atoms do
        #: NOT propagate along that edge: every call site invokes the
        #: method on a locally-constructed receiver, so its
        #: self-mutations are invisible to the caller's callers
        #: (``sub = TrustGraph(); sub.add_edge(...)`` builds fresh state,
        #: it doesn't mutate shared state).  Mutations of other classes
        #: and of globals always propagate.
        self.edge_masks: dict[str, dict[str, frozenset[str]]] = {}
        self.param_types: dict[str, dict[str, str]] = {}
        self._table: dict[str, frozenset[str]] | None = None
        self._build_class_table()
        for func in project.functions():
            self._scan(func)

    # -- the type environment ------------------------------------------------

    def _build_class_table(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            for cls_name in sorted(module.classes):
                node = module.classes[cls_name]
                qual = f"{module.name}.{cls_name}"
                attrs: dict[str, str] = {}
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        typed = self._annotation_class(module, stmt.annotation)
                        if typed is not None:
                            attrs[stmt.target.id] = typed
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if stmt.name in ("__init__", "__post_init__"):
                            self._harvest_init(module, stmt, attrs)
                self.class_attr_types[qual] = attrs

    def _harvest_init(
        self,
        module: ModuleInfo,
        init: ast.FunctionDef | ast.AsyncFunctionDef,
        attrs: dict[str, str],
    ) -> None:
        """``self.x = <typed thing>`` assignments type the attribute."""
        param_types = self._parameter_types(module, init)
        for stmt in ast.walk(init):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                if isinstance(target, ast.Attribute):
                    typed = self._annotation_class(module, stmt.annotation)
                    if (
                        typed is not None
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.setdefault(target.attr, typed)
                        continue
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            typed = self._value_class(module, value, param_types)
            if typed is not None:
                attrs.setdefault(target.attr, typed)

    def _value_class(
        self,
        module: ModuleInfo,
        value: ast.expr | None,
        param_types: dict[str, str],
    ) -> str | None:
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        if isinstance(value, ast.Call):
            resolved = self.project.resolve_call(module, value.func)
            if resolved in self._class_names:
                return resolved
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            for operand in value.values:
                typed = self._value_class(module, operand, param_types)
                if typed is not None:
                    return typed
        return None

    def _parameter_types(
        self, module: ModuleInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        types: dict[str, str] = {}
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("self", "cls") or arg.annotation is None:
                continue
            typed = self._annotation_class(module, arg.annotation)
            if typed is not None:
                types[arg.arg] = typed
        return types

    def _annotation_class(
        self, module: ModuleInfo, annotation: ast.expr
    ) -> str | None:
        """Resolve an annotation to a class qualname, unwrapping unions.

        ``ProfileStore | None``, ``Optional[TrustGraph]``, string
        annotations, and subscripted generics all resolve to their base
        class.  A base that is not a project class (``dict[str, float]``)
        resolves to a name no downstream table knows, which is equivalent
        to ``None``.
        """
        node: ast.expr | None = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                typed = self._annotation_class(module, side)
                if typed is not None:
                    return typed
            return None
        if isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base is not None and base.rpartition(".")[2] == "Optional":
                inner = node.slice
                return self._annotation_class(module, inner)
            return self._annotation_class(module, node.value)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_name(node)
            if dotted is None or dotted in ("None",):
                return None
            head, _, rest = dotted.partition(".")
            resolved = module.bindings.get(head, head)
            full = f"{resolved}.{rest}" if rest else resolved
            return full if full != "None" else None
        return None

    # -- per-function scan ---------------------------------------------------

    def _context(self, func: FunctionInfo) -> _ScanContext:
        """The per-function scan environment."""
        module = self.project.modules[func.module]
        class_name = func.name.rpartition(".")[0] or None
        ctx = _ScanContext(
            module=module,
            class_name=class_name,
            self_class=f"{module.name}.{class_name}" if class_name else None,
            params=self._parameter_types(module, func.node),
            locals={},
            bound=_locally_bound_names(func.node),
            global_decls=set(),
        )
        self._type_locals(ctx, func.node)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Global):
                ctx.global_decls.update(node.names)
        return ctx

    def _scan(self, func: FunctionInfo) -> None:
        ctx = self._context(func)
        direct: set[str] = set()
        stores: set[str] = set()  #: non-None assignments, memo-fill candidates
        callees: dict[str, set[str]] = {}
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                is_none = (
                    isinstance(node.value, ast.Constant) and node.value.value is None
                )
                for target in node.targets:
                    self._write_target(target, ctx, direct if is_none else stores)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if not (isinstance(node, ast.AnnAssign) and node.value is None):
                    self._write_target(node.target, ctx, direct)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._write_target(target, ctx, direct)
            elif isinstance(node, ast.Call):
                self._classify_call(node, ctx, direct, callees)
        # Memo fills are reads unless the function also writes backing
        # state: then they are a mutator maintaining its own index.
        fills = stores & _CACHE_ATOMS
        direct |= stores - fills
        if direct & _BACKING_ATOMS:
            direct |= fills
        self.direct[func.qualname] = direct
        self.callees[func.qualname] = set(callees)
        self.edge_masks[func.qualname] = {
            callee: frozenset(mask) for callee, mask in callees.items() if mask
        }
        self.param_types[func.qualname] = ctx.params

    def _type_locals(
        self, ctx: _ScanContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """One forward pass typing constructor-assigned locals."""
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(stmt.value, ast.Call):
                resolved = self.project.resolve_call(
                    ctx.module, stmt.value.func, ctx.class_name
                )
                if resolved in self._class_names:
                    ctx.locals[target.id] = resolved

    # -- receivers -----------------------------------------------------------

    def _stateful_receiver(self, expr: ast.expr, ctx: _ScanContext) -> str | None:
        """Class qualname when *expr* names caller-visible state.

        ``self``, typed parameters, and typed-attribute chains rooted in
        them qualify.  Locals do **not**: mutating a freshly constructed
        object is not an effect on pre-existing state.
        """
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return ctx.self_class
            return ctx.params.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._stateful_receiver(expr.value, ctx)
            if base is not None:
                return self.class_attr_types.get(base, {}).get(expr.attr)
        return None

    def _receiver_class(self, expr: ast.expr, ctx: _ScanContext) -> str | None:
        """Like :meth:`_stateful_receiver` but also types locals and
        constructor results — used only for *call* resolution."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return ctx.self_class
            return ctx.params.get(expr.id) or ctx.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._receiver_class(expr.value, ctx)
            if base is not None:
                return self.class_attr_types.get(base, {}).get(expr.attr)
        if isinstance(expr, ast.Call):
            resolved = self.project.resolve_call(ctx.module, expr.func, ctx.class_name)
            if resolved in self._class_names:
                return resolved
        return None

    # -- writes --------------------------------------------------------------

    def _write_target(
        self, target: ast.expr, ctx: _ScanContext, direct: set[str]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(elt, ctx, direct)
        elif isinstance(target, ast.Starred):
            self._write_target(target.value, ctx, direct)
        elif isinstance(target, ast.Name):
            if target.id in ctx.global_decls:
                direct.add(MUTATES_GLOBAL)
        elif isinstance(target, ast.Subscript):
            self._write_through(target.value, ctx, direct)
        elif isinstance(target, ast.Attribute):
            cls = self._stateful_receiver(target.value, ctx)
            if cls is not None:
                direct.add(f"mutates:{cls}.{target.attr}")
            else:
                self._write_through(target.value, ctx, direct)

    def _write_through(
        self, container: ast.expr, ctx: _ScanContext, direct: set[str]
    ) -> None:
        """A store *through* a container expression mutates the container."""
        if isinstance(container, ast.Subscript):
            self._write_through(container.value, ctx, direct)
        elif isinstance(container, ast.Attribute):
            cls = self._stateful_receiver(container.value, ctx)
            if cls is not None:
                direct.add(f"mutates:{cls}.{container.attr}")
        elif isinstance(container, ast.Name):
            if _is_module_global(container.id, ctx):
                direct.add(MUTATES_GLOBAL)

    # -- calls ---------------------------------------------------------------

    def _resolve_call_target(self, call: ast.Call, ctx: _ScanContext) -> str | None:
        """Type-aware call resolution: typed receivers beat name lookup."""
        if isinstance(call.func, ast.Attribute):
            receiver = self._receiver_class(call.func.value, ctx)
            if receiver is not None:
                candidate = f"{receiver}.{call.func.attr}"
                if self.project.function(candidate) is not None:
                    return candidate
        return self.project.resolve_call(ctx.module, call.func, ctx.class_name)

    def _function_ref(self, expr: ast.expr, ctx: _ScanContext) -> str | None:
        """A bare function reference (worker arg), through ``partial``."""
        node = expr
        if isinstance(node, ast.Call):
            target = self.project.resolve_call(ctx.module, node.func, ctx.class_name)
            if target is None or target.rpartition(".")[2] != "partial":
                return None
            if not node.args:
                return None
            node = node.args[0]
        if isinstance(node, ast.Attribute):
            receiver = self._receiver_class(node.value, ctx)
            if receiver is not None:
                candidate = f"{receiver}.{node.attr}"
                if self.project.function(candidate) is not None:
                    return candidate
        qualname = self.project.resolve_call(ctx.module, node, ctx.class_name)
        if qualname is not None and self.project.function(qualname) is not None:
            return qualname
        return None

    @staticmethod
    def _add_edge(
        callees: dict[str, set[str]], callee: str, mask: frozenset[str] = frozenset()
    ) -> None:
        """Record a call edge; the mask survives only if *every* call
        site of this callee is masked (intersection semantics)."""
        if callee in callees:
            callees[callee] &= mask
        else:
            callees[callee] = set(mask)

    def _classify_call(
        self,
        call: ast.Call,
        ctx: _ScanContext,
        direct: set[str],
        callees: dict[str, set[str]],
    ) -> None:
        resolved = self._resolve_call_target(call, ctx)

        # functools.partial(worker, ...) defers the worker's effects to
        # whoever calls the partial, so the edge is real.
        if (
            resolved is not None
            and resolved.rpartition(".")[2] == "partial"
            and call.args
        ):
            ref = self._function_ref(call.args[0], ctx)
            if ref is not None:
                self._add_edge(callees, ref)

        if resolved is not None:
            if self.project.function(resolved) is not None:
                mask: frozenset[str] = frozenset()
                if isinstance(call.func, ast.Attribute):
                    receiver = self._receiver_class(call.func.value, ctx)
                    if (
                        receiver is not None
                        and self._stateful_receiver(call.func.value, ctx) is None
                    ):
                        # A method on a freshly-constructed local object:
                        # its self-mutations stay local to this function.
                        mask = frozenset({receiver})
                self._add_edge(callees, resolved, mask)
                return
            if resolved in self._class_names:
                # Constructing a fresh object: its __init__ writes are
                # initialization, not mutation of caller-visible state.
                return
        self._classify_mutator_call(call, ctx, direct)

    def _classify_mutator_call(
        self, call: ast.Call, ctx: _ScanContext, direct: set[str]
    ) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in _MUTATOR_METHODS:
            return
        base = call.func.value
        # self._pos_succ[source].pop(...) mutates _pos_succ: peel the
        # subscripts off to reach the attribute that names the container.
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute):
            cls = self._stateful_receiver(base.value, ctx)
            if cls is not None:
                direct.add(f"mutates:{cls}.{base.attr}")
        elif isinstance(base, ast.Name):
            if _is_module_global(base.id, ctx):
                direct.add(MUTATES_GLOBAL)

    # -- the fixpoint --------------------------------------------------------

    def effects(self) -> dict[str, frozenset[str]]:
        """Transitive effects per function."""
        if self._table is not None:
            return self._table
        effects = {name: set(atoms) for name, atoms in self.direct.items()}
        order = sorted(effects)
        # Monotone fixpoint: atoms only accumulate, so len(functions)+1
        # rounds always suffice.
        for _ in range(len(order) + 1):
            changed = False
            for name in order:
                accumulated = effects[name]
                for callee in self.callees.get(name, ()):
                    if callee == name:
                        continue
                    callee_effects = effects.get(callee)
                    if not callee_effects:
                        continue
                    contribution = self._mask_edge(name, callee, callee_effects)
                    if not contribution <= accumulated:
                        accumulated |= contribution
                        changed = True
            if not changed:
                break
        self._table = {name: frozenset(atoms) for name, atoms in effects.items()}
        return self._table

    def _mask_edge(
        self, caller: str, callee: str, atoms: set[str] | frozenset[str]
    ) -> set[str]:
        """Atoms flowing from *callee* into *caller*, minus self-mutations
        of locally-constructed receivers (see :attr:`edge_masks`)."""
        mask = self.edge_masks.get(caller, {}).get(callee)
        if not mask:
            return set(atoms)
        prefixes = tuple(f"mutates:{cls}." for cls in mask)
        return {atom for atom in atoms if not atom.startswith(prefixes)}

    # -- rule support ----------------------------------------------------------

    def visible_owners(self, func: FunctionInfo, owners: tuple[str, ...]) -> list[str]:
        """Registered cache owners in *func*'s static scope, sorted.

        In scope means: *func* is a method of the owner, its class holds
        a typed attribute of the owner, or a parameter is annotated with
        the owner.  Locals are excluded — a function that builds its own
        recommender sees only fresh caches.
        """
        visible: set[str] = set()
        class_name = func.name.rpartition(".")[0] or None
        self_class = f"{func.module}.{class_name}" if class_name else None
        if self_class in owners:
            visible.add(self_class)
        if self_class is not None:
            for typed in self.class_attr_types.get(self_class, {}).values():
                if typed in owners:
                    visible.add(typed)
        for typed in self.param_types.get(func.qualname, {}).values():
            if typed in owners:
                visible.add(typed)
        return sorted(visible)

def _is_module_global(name: str, ctx: _ScanContext) -> bool:
    """Whether *name* refers to a module-level binding inside this function."""
    return name in ctx.global_decls or (
        name in ctx.module.globals and name not in ctx.bound
    )


def _locally_bound_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and locally-assigned names of a function."""
    bound: set[str] = set()
    args = node.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *filter(None, (args.vararg, args.kwarg)),
    ):
        bound.add(arg.arg)
    declared_global: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, (ast.Store, ast.Del)):
            bound.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child is not node:
                bound.add(child.name)
        elif isinstance(child, ast.Global):
            declared_global.update(child.names)
    # ``global X`` makes every access hit the module — X is NOT local.
    return bound - declared_global


#: One analysis per ProjectIndex, however often it is asked for.
_ANALYSES: "weakref.WeakKeyDictionary[ProjectIndex, EffectAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def analyze_effects(project: ProjectIndex) -> EffectAnalysis:
    """The (memoized) effect analysis for *project*."""
    analysis = _ANALYSES.get(project)
    if analysis is None:
        analysis = EffectAnalysis(project)
        _ANALYSES[project] = analysis
    return analysis


# ---------------------------------------------------------------------------
# RL200 — cache coherence.
# ---------------------------------------------------------------------------


class CacheCoherenceRule(GraphRule):
    """RL200: backing-state mutation that leaves a registered cache stale.

    Two checks per :class:`CacheSpec`:

    * a function whose effects mutate the spec's backing state, with a
      cache owner statically in scope, must also (transitively) mutate
      **all** of that owner's cache fields — reaching the owner's
      ``invalidate`` confers exactly those effects;
    * a function *named* like an invalidator that clears some of the
      spec's cache fields must clear every field of every visible owner
      — partial invalidation is how the packed matrix goes stale while
      the profile dict looks fresh.
    """

    code = "RL200"

    def __init__(self, registry: tuple[CacheSpec, ...] = DEFAULT_CACHE_REGISTRY):
        self.registry = registry

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        analysis = analyze_effects(project)
        effects = analysis.effects()
        for func in project.functions():
            atoms = effects.get(func.qualname, frozenset())
            module = project.modules[func.module]
            for spec in self.registry:
                yield from self._check_backing(
                    analysis, spec, func, atoms, module.path
                )
                yield from self._check_invalidator(
                    analysis, spec, func, atoms, module.path
                )

    def _check_backing(
        self,
        analysis: EffectAnalysis,
        spec: CacheSpec,
        func: FunctionInfo,
        atoms: frozenset[str],
        path: str,
    ) -> Iterator[Finding]:
        touched = atoms & spec.backing_atoms
        if not touched:
            return
        for owner in analysis.visible_owners(func, spec.owners):
            cache_atoms = spec.cache_atoms(owner)
            missing = cache_atoms - atoms
            if not missing:
                continue
            fields = ", ".join(sorted(a.rpartition(".")[2] for a in missing))
            backing = ", ".join(sorted(a.rpartition(":")[2] for a in touched))
            yield self.finding(
                path=path,
                line=func.line,
                column=func.node.col_offset + 1,
                message=(
                    f"{func.qualname} mutates {backing} while a "
                    f"{_short(owner)} is in scope but never invalidates "
                    f"its cache field(s) {fields} [{spec.name}] — stale "
                    f"reads follow; call {spec.invalidate_hint}"
                ),
            )

    def _check_invalidator(
        self,
        analysis: EffectAnalysis,
        spec: CacheSpec,
        func: FunctionInfo,
        atoms: frozenset[str],
        path: str,
    ) -> Iterator[Finding]:
        short = func.name.rpartition(".")[2]
        if not _INVALIDATOR_RE.search(short):
            return
        if not atoms & spec.all_cache_atoms:
            return
        for owner in analysis.visible_owners(func, spec.owners):
            missing = spec.cache_atoms(owner) - atoms
            if not missing:
                continue
            fields = ", ".join(sorted(a.rpartition(".")[2] for a in missing))
            yield self.finding(
                path=path,
                line=func.line,
                column=func.node.col_offset + 1,
                message=(
                    f"{func.qualname} invalidates only part of the "
                    f"{spec.name} pairing: {_short(owner)}.{{{fields}}} "
                    f"stay stale — clear every registered field "
                    f"({spec.invalidate_hint})"
                ),
            )


def _short(qualname: str) -> str:
    return qualname.rpartition(".")[2]
