"""The reprolint rule catalogue.

Five rules survive because each either caught a defect that was then
fixed or is the only check of a standing invariant (``docs/ANALYSIS.md``
gives the record).  Three are per-file rules, defined here:

========  ==============================================================
``RL001``  unseeded randomness — module-level ``random.*`` /
           ``np.random.*`` calls break same-seed determinism (two runs
           with one seed print the same bytes only when *all*
           randomness flows through injected ``random.Random`` /
           ``numpy`` ``Generator`` objects)
``RL002``  float ``==`` / ``!=`` on similarity/trust/score expressions —
           the numpy and pure-python engines agree to 1e-9, not bit-for-
           bit; exact comparison must go through the shared tolerance
           helper ``repro.core.similarity.isclose``
``RL005``  unsorted set iteration — set order depends on
           ``PYTHONHASHSEED``, so iterating a set into rankings or
           serialized output makes EX tables nondeterministic
========  ==============================================================

Two are whole-program rules, defined next door and registered here as
:data:`DEFAULT_GRAPH_RULES`:

========  ==============================================================
``RL100``  import violates the package layering contract
           (:mod:`repro.analysis.contracts`)
``RL200``  backing-state mutation leaves a registered cache stale
           (:mod:`repro.analysis.effects`)
========  ==============================================================
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .contracts import ArchitectureContractRule
from .effects import CacheCoherenceRule
from .engine import Finding, GraphRule, Rule
from .symbols import dotted_name

__all__ = [
    "DEFAULT_GRAPH_RULES",
    "DEFAULT_RULES",
    "FloatEqualityOnScoresRule",
    "UnseededRandomRule",
    "UnsortedSetIterationRule",
]


class UnseededRandomRule(Rule):
    """RL001: unseeded randomness breaks same-seed determinism.

    Every experiment and CLI command prints byte-identical output for
    the same seed; any draw from the module-level (globally seeded)
    ``random.*`` / ``np.random.*`` generators escapes that contract.
    Seeded construction — ``random.Random(seed)``,
    ``np.random.default_rng(seed)``, ``np.random.Generator(...)`` — is
    fine; *calling* the module-level functions, or constructing either
    generator without a seed argument, is not.
    """

    code = "RL001"

    _SEEDED_CONSTRUCTORS = frozenset({"Random", "SystemRandom", "default_rng", "Generator"})
    _RANDOM_MODULES = frozenset({"random", "np.random", "numpy.random"})

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
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
                    path,
                    f"{name}() constructed without a seed; inject a seeded "
                    "generator instead (same-seed determinism)",
                )
                continue
            yield self.finding(
                node,
                path,
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

    def _is_score_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return bool(_SCORE_NAME_RE.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(_SCORE_NAME_RE.search(node.attr))
        if isinstance(node, ast.Subscript):
            return self._is_score_expr(node.value)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
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

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
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
                        path,
                        "exact float comparison on a score expression; "
                        "use repro.core.similarity.isclose (1e-9 contract)",
                    )
                    break  # one finding per Compare node


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
            name = dotted_name(node.func)
            return name is not None and name.rpartition(".")[2] in self._SET_CALLS
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_BINOPS):
            # set algebra over keys views or other set expressions
            sides = (node.left, node.right)
            return any(
                self._is_keys_view(side) or self._is_set_expr(side)
                for side in sides
            )
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
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
                        path,
                        "iteration over an unsorted set; wrap in sorted() "
                        "to keep rankings/serialized output deterministic",
                    )


DEFAULT_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    FloatEqualityOnScoresRule(),
    UnsortedSetIterationRule(),
)

#: Whole-program rules :func:`~repro.analysis.engine.lint_project` runs
#: alongside the per-file set.
DEFAULT_GRAPH_RULES: tuple[GraphRule, ...] = (
    ArchitectureContractRule(),
    CacheCoherenceRule(),
)

