"""The reprolint rule catalogue (``RL001``–``RL010``).

Each rule encodes one invariant of this reproduction and names the paper
section or inter-subsystem contract it protects:

========  ==============================================================
``RL001``  unseeded randomness — module-level ``random.*`` /
           ``np.random.*`` calls break the byte-identical
           ``ParallelExperimentRunner`` merge contract (position-derived
           seeds only work when *all* randomness flows through injected
           ``random.Random`` / ``numpy`` ``Generator`` objects)
``RL002``  float ``==`` / ``!=`` on similarity/trust/score expressions —
           the numpy and pure-python engines agree to 1e-9, not bit-for-
           bit; exact comparison must go through the shared tolerance
           helper ``repro.core.similarity.isclose``
``RL003``  silent overbroad ``except`` — a bare ``except:`` or
           ``except Exception:`` that neither re-raises nor records to a
           report/log object hides faults the resilience layer
           (:mod:`repro.web.faults`) is supposed to account for
``RL004``  mutable default argument — classic aliasing bug; a shared
           default dict of ratings corrupts every later call
``RL005``  unsorted set iteration — set order depends on
           ``PYTHONHASHSEED``, so iterating a set into rankings or
           serialized output makes EX tables nondeterministic
``RL006``  trust/rating literal outside ``[-1, +1]`` — the paper's §3.1
           range invariant for ``T`` and ``R``; out-of-range literals
           raise at runtime (or worse, silently skew energy flows)
``RL007``  wall-clock duration — ``time.time()`` is subject to NTP
           steps and DST jumps, so timing EX tables with it produces
           unreproducible (occasionally negative) durations; durations
           must come from the monotonic clock via
           :class:`repro.obs.Stopwatch` (or ``time.perf_counter``)
``RL008``  shared ``Dataset`` mutated in place — experiment/attack entry
           points (``run_ex*`` / ``inject_*``) must operate on a copy of
           their dataset parameter (the invariant
           :mod:`repro.evaluation.attacks` documents); in-place mutation
           corrupts the caller's community for every later experiment
           sharing it
``RL010``  ``BENCH_*.json`` written around the schema helper — raw
           ``.write_text()`` / ``json.dump()`` / ``open(…, "w")`` on a
           benchmark-trajectory file bypasses
           :func:`repro.evaluation.benchtrack.write_bench` and its
           ``repro-bench/1`` validation, so the standing perf
           trajectory forks into ad-hoc schemas the regression gate
           cannot read
========  ==============================================================

The whole-program (reprograph) rules live next door and are registered
here as :data:`DEFAULT_GRAPH_RULES`:

========  ==============================================================
``RL100``  architecture-contract violation
           (:mod:`repro.analysis.contracts`)
``RL101``  untrusted parsed value reaches a scoring sink unclamped
           (:mod:`repro.analysis.dataflow`)
``RL102``  fork-unsafe module-global state read from a pool worker
           (:mod:`repro.analysis.dataflow`)
``RL103``  dead module — unreachable from every entry point
           (:mod:`repro.analysis.graph`)
``RL104``  import-time cycle (:mod:`repro.analysis.graph`)
========  ==============================================================

The effect-inference rules (:mod:`repro.analysis.effects`) sit on the
same ``ProjectIndex`` and make incremental updates safe:

========  ==============================================================
``RL200``  cache coherence — mutating the backing state of a registered
           cache (the :data:`~repro.analysis.effects.DEFAULT_CACHE_REGISTRY`
           pairings) without reaching the paired invalidation, or an
           invalidator that clears only part of a pairing
``RL201``  purity contract — query entry points (``recommend``,
           ``top_similar``, ``predict``, trust ``compute``, perf
           kernels) carry no ``mutates:*`` effect beyond the declared
           cache fields
``RL202``  unseeded randomness, interprocedurally — an ``rng`` effect
           reaches an entry point through the call graph instead of an
           injected seeded ``random.Random`` (RL001 across calls)
``RL203``  io/clock effect inside ``repro.core``/``trust``/``perf`` —
           timing belongs to :mod:`repro.obs` (allowlisted), file and
           network traffic to datasets/web/cli
========  ==============================================================

The concurrency-safety rules (:mod:`repro.analysis.concurrency`) add
lock-set inference over the same fixpoint, clearing the runway for the
query-serving daemon:

========  ==============================================================
``RL300``  shared-state race — a registered cache field mutated on a
           path from a concurrent root
           (:data:`~repro.analysis.concurrency.CONCURRENT_ROOTS`, plus
           anything that spawns) with an empty inferred lock set
``RL301``  check-then-act — ``if key not in cache:`` /
           ``if self._f is None:`` fill on a registry cache field
           outside any guard (``GuardedCache.get_or_build`` closes the
           window; double-checked tests under a guard are sanctioned)
``RL302``  non-atomic invalidate/rebuild — in-place mutation of a
           publish-by-replacement field, or cache accessors holding
           guard sets with no common token (inconsistent lock sets)
``RL303``  blocking-under-guard — an ``io``/``clock``/``spawns`` effect
           reachable while a guard is held (:mod:`repro.obs`
           instrumentation allowlisted)
========  ==============================================================

Suppress a deliberate exception with ``# reprolint: disable=RLxxx`` on
the offending line.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .concurrency import (
    AtomicPublishRule,
    BlockingUnderGuardRule,
    CheckThenActRule,
    SharedStateRaceRule,
)
from .contracts import ArchitectureContractRule
from .dataflow import ForkSafetyRule, TaintRule
from .effects import (
    CacheCoherenceRule,
    LayerPurityRule,
    PurityContractRule,
    SeededRandomnessRule,
)
from .engine import Finding, GraphRule, Rule, RuleContext
from .graph import DeadModuleRule, ImportCycleRule

__all__ = [
    "BenchSchemaBypassRule",
    "DEFAULT_GRAPH_RULES",
    "DEFAULT_RULES",
    "FloatEqualityOnScoresRule",
    "MutableDefaultArgRule",
    "ScoreLiteralRangeRule",
    "SharedDatasetMutationRule",
    "SilentOverbroadExceptRule",
    "UnseededRandomRule",
    "UnsortedSetIterationRule",
    "WallClockDurationRule",
    "all_rule_codes",
]


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class UnseededRandomRule(Rule):
    """RL001: module-level ``random.*`` / ``np.random.*`` calls.

    The parallel experiment runner derives per-task seeds from submission
    position and merges results byte-identically; any draw from the
    module-level (globally seeded) generators escapes that contract.
    Seeded construction — ``random.Random(seed)``,
    ``np.random.default_rng(seed)``, ``np.random.Generator(...)`` — is
    fine; *calling* the module-level functions, or constructing either
    generator without a seed argument, is not.
    """

    code = "RL001"
    summary = "unseeded randomness breaks the parallel merge contract"

    _SEEDED_CONSTRUCTORS = frozenset({"Random", "SystemRandom", "default_rng", "Generator"})
    _RANDOM_MODULES = frozenset({"random", "np.random", "numpy.random"})

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None or "." not in name:
                continue
            module, _, func = name.rpartition(".")
            if module not in self._RANDOM_MODULES:
                continue
            if func in self._SEEDED_CONSTRUCTORS:
                if node.args or node.keywords:
                    continue  # explicitly seeded/parameterized construction
                yield self.finding(
                    node,
                    context,
                    f"{name}() constructed without a seed; inject a seeded "
                    "generator instead (parallel-merge determinism)",
                )
                continue
            yield self.finding(
                node,
                context,
                f"module-level {name}() draws from shared global state; "
                "use an injected seeded random.Random/np Generator",
            )


#: Identifier fragments that mark an expression as score-valued.
_SCORE_NAME_RE = re.compile(
    r"(?:^|_)(sim|similarity|score|scores|trust|rating|ratings|pearson|"
    r"cosine|overlap|correlation|rank|weight|precision|recall|f1)(?:$|_)",
    re.IGNORECASE,
)

#: Calls whose return value is score-valued by construction.
_SCORE_FUNCTIONS = frozenset(
    {
        "pearson",
        "cosine",
        "profile_overlap",
        "intra_list_similarity",
        "validate_score",
    }
)


class FloatEqualityOnScoresRule(Rule):
    """RL002: ``==`` / ``!=`` between a score expression and a float.

    The two similarity engines agree within 1e-9, not exactly, so exact
    float comparison on similarity/trust/score values is either dead
    (always false) or engine-dependent.  Use
    ``repro.core.similarity.isclose`` (the single source of truth for the
    tolerance) instead.  Integer-literal comparisons and comparisons
    against ``None`` are untouched.
    """

    code = "RL002"
    summary = "exact float comparison on score values; use similarity.isclose"

    def _is_score_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return bool(_SCORE_NAME_RE.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(_SCORE_NAME_RE.search(node.attr))
        if isinstance(node, ast.Subscript):
            return self._is_score_expr(node.value)
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            if name is None:
                return False
            return name.rpartition(".")[2] in _SCORE_FUNCTIONS or bool(
                _SCORE_NAME_RE.search(name.rpartition(".")[2])
            )
        if isinstance(node, ast.BinOp):
            return self._is_score_expr(node.left) or self._is_score_expr(node.right)
        return False

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            ops = node.ops
            for index, op in enumerate(ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                score_side = self._is_score_expr(left) or self._is_score_expr(right)
                float_side = self._is_float_literal(left) or self._is_float_literal(right)
                if score_side and float_side:
                    yield self.finding(
                        node,
                        context,
                        "exact float comparison on a score expression; "
                        "use repro.core.similarity.isclose (1e-9 contract)",
                    )
                    break  # one finding per Compare node


#: Attribute/name fragments that count as "recording" a swallowed error.
_RECORDING_RE = re.compile(
    r"report|record|log|error|fault|quarantine|degrad|warn|metric|stat|counter",
    re.IGNORECASE,
)


class SilentOverbroadExceptRule(Rule):
    """RL003: bare/overbroad ``except`` that swallows silently.

    ``except:``, ``except Exception:`` and ``except BaseException:`` are
    flagged unless the handler re-raises or visibly records the failure
    (touches a name/attribute matching report/record/log/error/fault/…).
    The resilience layer's accounting (CrawlReport, breaker statistics)
    only works if no path eats faults invisibly.
    """

    code = "RL003"
    summary = "overbroad except neither re-raises nor records the failure"

    _OVERBROAD = frozenset({"Exception", "BaseException"})

    def _is_overbroad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        name = _dotted_name(handler.type)
        return name is not None and name.rpartition(".")[2] in self._OVERBROAD

    def _handler_accounts(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Name) and _RECORDING_RE.search(node.id):
                return True
            if isinstance(node, ast.Attribute) and _RECORDING_RE.search(node.attr):
                return True
        return False

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_overbroad(node) and not self._handler_accounts(node):
                label = (
                    "bare except"
                    if node.type is None
                    else f"except {_dotted_name(node.type)}"
                )
                yield self.finding(
                    node,
                    context,
                    f"{label} swallows errors without re-raising or "
                    "recording to a report object",
                )


class MutableDefaultArgRule(Rule):
    """RL004: ``def f(x=[])`` / ``={}`` / ``=set()`` / ``=dict()`` / ``=list()``."""

    code = "RL004"
    summary = "mutable default argument is shared across calls"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "Counter"})

    def _is_mutable_default(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return (
                name is not None
                and name.rpartition(".")[2] in self._MUTABLE_CALLS
            )
        return False

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = [
                *node.args.defaults,
                *[d for d in node.args.kw_defaults if d is not None],
            ]
            for default in defaults:
                if self._is_mutable_default(default):
                    yield self.finding(
                        default,
                        context,
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the function",
                    )


class UnsortedSetIterationRule(Rule):
    """RL005: iterating a set without ``sorted()`` feeds nondeterminism.

    String-set iteration order depends on ``PYTHONHASHSEED``, so a set
    flowing into a ranking, a serialized table, or a joined string makes
    EX tables differ across runs.  Flagged sites: ``for x in {…}`` /
    ``set(...)`` / set comprehensions / set-algebra on ``.keys()`` views,
    the same expressions inside comprehensions, and ``list()`` /
    ``tuple()`` / ``enumerate()`` / ``str.join()`` over them.  Wrapping
    the expression in ``sorted(...)`` — or aggregating with ``len`` /
    ``sum`` / ``min`` / ``max`` / ``any`` / ``all`` / ``frozenset`` —
    is order-insensitive and therefore fine.
    """

    code = "RL005"
    summary = "unsorted set iteration yields nondeterministic order"

    _SET_CALLS = frozenset({"set", "frozenset"})
    _ORDERING_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})
    _SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)

    def _is_keys_view(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        )

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name.rpartition(".")[2] in self._SET_CALLS
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_BINOPS):
            # set algebra over keys views or other set expressions
            sides = (node.left, node.right)
            return any(
                self._is_keys_view(side) or self._is_set_expr(side)
                for side in sides
            )
        return False

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name is not None and name.rpartition(".")[2] in self._ORDERING_SINKS:
                    iters.extend(node.args[:1])
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                ):
                    iters.append(node.args[0])
            for candidate in iters:
                if self._is_set_expr(candidate):
                    yield self.finding(
                        candidate,
                        context,
                        "iteration over an unsorted set; wrap in sorted() "
                        "to keep rankings/serialized output deterministic",
                    )


#: Keyword names whose literal values must respect the §3.1 score range.
_SCORE_KEYWORDS = frozenset({"value", "trust", "rating", "score"})

#: Constructors/validators whose numeric literal arguments are scores.
_SCORE_CALLABLES = frozenset({"TrustStatement", "Rating", "validate_score"})


class ScoreLiteralRangeRule(Rule):
    """RL006: trust/rating literal outside the paper's ``[-1, +1]`` scale.

    Flags numeric literals outside ``[-1, +1]`` when they appear as the
    score argument of :class:`~repro.core.models.TrustStatement`,
    :class:`~repro.core.models.Rating`, or
    :func:`~repro.core.models.validate_score` — or as any keyword named
    ``value=`` / ``trust=`` / ``rating=`` / ``score=``.  These raise
    :class:`ValueError` at runtime at best; caught earlier, they never
    reach an energy-flow computation.
    """

    code = "RL006"
    summary = "trust/rating literal outside the §3.1 [-1, +1] range"

    @staticmethod
    def _literal_value(node: ast.expr) -> float | None:
        sign = 1.0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
            node = node.operand
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, bool):
                return None
            return sign * float(node.value)
        return None

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            short = name.rpartition(".")[2] if name else ""
            candidates: list[tuple[ast.expr, str]] = []
            if short in _SCORE_CALLABLES:
                # TrustStatement(source, target, value) / Rating(agent,
                # product, value) / validate_score(value, kind): the score
                # is the last non-string positional argument.
                for arg in node.args:
                    candidates.append((arg, f"argument of {short}()"))
            for keyword in node.keywords:
                if keyword.arg in _SCORE_KEYWORDS:
                    candidates.append(
                        (keyword.value, f"keyword {keyword.arg}=")
                    )
            for expr, where in candidates:
                value = self._literal_value(expr)
                if value is not None and not -1.0 <= value <= 1.0:
                    yield self.finding(
                        expr,
                        context,
                        f"score literal {value:g} as {where} lies outside "
                        "the paper's [-1, +1] trust/rating scale (§3.1)",
                    )


class WallClockDurationRule(Rule):
    """RL007: ``time.time()`` used where a duration is being measured.

    The wall clock is not monotonic — NTP corrections and DST moves can
    step it backwards mid-run — so differences of ``time.time()`` values
    make EX tables unreproducible and occasionally negative.  Durations
    belong on the monotonic clock: :class:`repro.obs.Stopwatch` (the
    repo's single timing helper) or ``time.perf_counter()`` directly.
    ``time.time()`` is flagged wherever it is *called*; code that
    genuinely needs a calendar timestamp (none in this repo does) can
    suppress with ``# reprolint: disable=RL007``.
    """

    code = "RL007"
    summary = "time.time() for durations; use repro.obs.Stopwatch"

    _WALL_CLOCKS = frozenset({"time.time"})

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name in self._WALL_CLOCKS:
                yield self.finding(
                    node,
                    context,
                    f"{name}() reads the non-monotonic wall clock; measure "
                    "durations with repro.obs.Stopwatch (monotonic) instead",
                )


#: Dataset methods that mutate in place, and the dict fields behind them.
_DATASET_MUTATORS = frozenset(
    {
        "add_agent",
        "add_product",
        "add_trust",
        "add_rating",
        "remove_agent",
        "remove_trust",
        "remove_rating",
    }
)
_DATASET_FIELDS = frozenset({"agents", "products", "trust", "ratings"})
_DICT_MUTATORS = frozenset({"pop", "popitem", "update", "clear", "setdefault"})

#: Function names bound by the copy-before-mutate invariant: the public
#: experiment and attack entry points.  Underscore helpers are exempt —
#: they legitimately receive the already-copied dataset to build on.
_ENTRY_POINT_RE = re.compile(r"^(run_ex|inject_)")


class SharedDatasetMutationRule(Rule):
    """RL008: entry point mutates its shared ``Dataset`` parameter.

    :mod:`repro.evaluation.attacks` documents the invariant: attack and
    experiment entry points "mutate a *copy* of the input dataset".
    Communities are expensive to generate and shared across experiments
    (the ``community`` fixture, ``default_community()`` reuse), so a
    ``run_ex*`` / ``inject_*`` function writing through its dataset
    parameter silently corrupts every later experiment run on the same
    object.  Flagged mutations: ``dataset.add_agent(...)`` and
    ``dataset.remove_rating(...)``-style calls, assignment / deletion /
    dict-mutator calls on ``dataset.agents|products|trust|ratings``.  A
    parameter the function rebinds (``dataset = dataset.copy()``) is
    treated as a local copy and exempt.
    """

    code = "RL008"
    summary = "experiment/attack entry point mutates a shared Dataset in place"

    def _dataset_params(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Parameter names that look dataset-valued (name or annotation)."""
        params: set[str] = set()
        args = [*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs]
        for arg in args:
            annotated = False
            if arg.annotation is not None:
                if isinstance(arg.annotation, ast.Constant) and isinstance(
                    arg.annotation.value, str
                ):
                    annotated = "Dataset" in arg.annotation.value
                else:
                    name = _dotted_name(arg.annotation)
                    annotated = (
                        name is not None and name.rpartition(".")[2] == "Dataset"
                    )
            if annotated or arg.arg == "dataset" or arg.arg.endswith("_dataset"):
                params.add(arg.arg)
        return params

    @staticmethod
    def _rebound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names assigned anywhere in the body (local copies, not shared)."""
        rebound: set[str] = set()
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            while targets:
                target = targets.pop()
                if isinstance(target, ast.Name):
                    rebound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif isinstance(target, ast.Starred):
                    targets.append(target.value)
        return rebound

    @staticmethod
    def _field_receiver(node: ast.expr) -> tuple[str, str] | None:
        """``(param, field)`` for a bare ``param.field`` attribute."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id, node.attr
        return None

    def _mutations(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, params: set[str]
    ) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in params
                    and node.func.attr in _DATASET_MUTATORS
                ):
                    yield node, f"{base.id}.{node.func.attr}(...)"
                    continue
                receiver = self._field_receiver(base)
                if (
                    receiver is not None
                    and receiver[0] in params
                    and receiver[1] in _DATASET_FIELDS
                    and node.func.attr in _DICT_MUTATORS
                ):
                    yield node, f"{receiver[0]}.{receiver[1]}.{node.func.attr}(...)"
                    continue
            targets: list[ast.expr] = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                receiver = self._field_receiver(target)
                if (
                    receiver is not None
                    and receiver[0] in params
                    and receiver[1] in _DATASET_FIELDS
                ):
                    yield node, f"{receiver[0]}.{receiver[1]}"

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _ENTRY_POINT_RE.match(func.name):
                continue
            params = self._dataset_params(func) - self._rebound_names(func)
            if not params:
                continue
            for node, what in self._mutations(func, params):
                yield self.finding(
                    node,
                    context,
                    f"{func.name}() mutates shared dataset parameter via "
                    f"{what}; operate on a copy "
                    "(Dataset.copy())",
                )


#: ``BENCH_<name>.json`` — the benchmark-trajectory filename family.
_BENCH_FILE_RE = re.compile(r"^BENCH_[\w.-]*\.json$")

#: Path methods that write file contents directly.
_BENCH_WRITER_ATTRS = frozenset({"write_text", "write_bytes"})


class BenchSchemaBypassRule(Rule):
    """RL010: a ``BENCH_*.json`` writer that bypasses ``write_bench``.

    ``repro.evaluation.benchtrack.write_bench`` is the single sanctioned
    writer of benchmark-trajectory documents: it validates the
    ``repro-bench/1`` schema before anything touches disk, which is what
    keeps ``scripts/check_bench_regression.py`` able to read every
    baseline ever committed.  Flagged: ``X.write_text(...)`` /
    ``X.write_bytes(...)`` / ``json.dump(...)`` / ``open(…, "w"|"a")``
    whose argument subtree mentions a ``BENCH_*.json`` string constant —
    directly, or through a module-level name (``OUTPUT = … /
    "BENCH_foo.json"``) bound to one.  Pre-``repro-bench/1`` trajectories
    with their own frozen schemas suppress with
    ``# reprolint: disable=RL010``.
    """

    code = "RL010"
    summary = "BENCH_*.json written around benchtrack.write_bench"

    @staticmethod
    def _bench_constant(node: ast.AST) -> str | None:
        for child in ast.walk(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                if _BENCH_FILE_RE.match(child.value):
                    return child.value
        return None

    @staticmethod
    def _bench_names(tree: ast.Module) -> dict[str, str]:
        """Module-level names bound to expressions naming a BENCH file."""
        names: dict[str, str] = {}
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            constant = BenchSchemaBypassRule._bench_constant(value)
            if constant is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = constant
        return names

    @staticmethod
    def _open_writes(node: ast.Call) -> bool:
        """``open(..., "w"/"a"/"x")`` — reading a BENCH file is fine."""
        mode: ast.expr | None = node.args[1] if len(node.args) > 1 else None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(flag in mode.value for flag in "wax")
        )

    def _writer_label(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in _BENCH_WRITER_ATTRS:
            return f".{node.func.attr}(...)"
        name = _dotted_name(node.func)
        short = name.rpartition(".")[2] if name else ""
        if short == "dump" and name in {"json.dump", "dump"}:
            return "json.dump(...)"
        if short == "open":
            return "open(..., 'w')" if self._open_writes(node) else None
        return None

    def check(self, tree: ast.Module, context: RuleContext) -> Iterator[Finding]:
        bench_names = self._bench_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._writer_label(node)
            if label is None:
                continue
            target = self._bench_constant(node)
            if target is None:
                for child in ast.walk(node):
                    if isinstance(child, ast.Name) and child.id in bench_names:
                        target = bench_names[child.id]
                        break
            if target is None:
                continue
            yield self.finding(
                node,
                context,
                f"{target} written via {label}, bypassing the repro-bench/1 "
                "schema; route through repro.evaluation.benchtrack.write_bench",
            )


DEFAULT_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    FloatEqualityOnScoresRule(),
    SilentOverbroadExceptRule(),
    MutableDefaultArgRule(),
    UnsortedSetIterationRule(),
    ScoreLiteralRangeRule(),
    WallClockDurationRule(),
    SharedDatasetMutationRule(),
    BenchSchemaBypassRule(),
)

#: Whole-program rules `repro lint` runs alongside the per-file set.
DEFAULT_GRAPH_RULES: tuple[GraphRule, ...] = (
    ArchitectureContractRule(),
    TaintRule(),
    ForkSafetyRule(),
    DeadModuleRule(),
    ImportCycleRule(),
    CacheCoherenceRule(),
    PurityContractRule(),
    SeededRandomnessRule(),
    LayerPurityRule(),
    SharedStateRaceRule(),
    CheckThenActRule(),
    AtomicPublishRule(),
    BlockingUnderGuardRule(),
)


def all_rule_codes() -> tuple[str, ...]:
    """Stable tuple of every registered rule code (file + graph)."""
    return tuple(rule.code for rule in DEFAULT_RULES) + tuple(
        rule.code for rule in DEFAULT_GRAPH_RULES
    )
