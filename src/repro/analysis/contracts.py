"""Declarative architecture contracts over the package layering (RL100).

The reproduction's packages form a layered architecture that mirrors the
paper's system picture: the §3.1 information model and the §3.2–§3.4
pipeline mathematics sit at the bottom (``repro.core``), the
vectorized kernels build directly on it and the trust metrics on both
(they run on ``perf``'s packed CSR kernels), the Semantic Web
substrate and the simulated Web ingest *into* it, and evaluation /
orchestration sit on top::

            cli / agent / repro (root)          ── orchestration
                      │
                 evaluation                      ── experiments
            ┌────┬────┴────┬─────────┐
          trust perf   datasets     web          ── subsystems
            │    │        │        ┌─┴─┐
            │    │        │      semweb│
            └────┴────┬───┴────────┴───┘
                    core                         ── §3.1 model + pipeline
                    obs                          ── tracing / metrics
                  (analysis: self-contained)

``obs`` (tracing, metrics, the monotonic stopwatch) sits *below* core:
instrumentation must be importable from every layer without creating an
upward edge, and it depends on nothing but the standard library.

A contract names, for each layer, the set of *internal* layers it may
import at module scope.  Violations are RL100 findings anchored at the
offending import.  Two refinements keep the contract honest instead of
aspirational:

* ``TYPE_CHECKING`` imports are always allowed — they cost nothing at
  runtime and exist precisely to type cross-layer seams;
* a small set of **lazy-allowed** edges names the deliberate inversions:
  ``core`` reaches the packed kernels of ``perf`` at call time
  (``engine="auto"``), because ``perf.kernels`` imports
  ``core.similarity`` at module scope and a module-scope edge back
  would be an import cycle.  Any *other* lazy import across a forbidden
  edge is still a violation — deferring an import does not change the
  architecture;
* three **declared module edges** name the §3.2 pipeline's own
  ``core → trust`` imports: neighbourhood formation builds the default
  :class:`~repro.trust.appleseed.Appleseed` and takes a
  :class:`~repro.trust.graph.TrustGraph`, and the recommender builds
  one.  They are declared per (importer module, imported module) pair,
  so every other ``core → trust`` import still fails.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .engine import Finding, GraphRule
from .symbols import SCOPE_LAZY, SCOPE_TYPE_CHECKING, ProjectIndex

__all__ = [
    "ArchitectureContractRule",
    "DEFAULT_CONTRACT",
    "LayerContract",
    "ROOT_PACKAGE",
    "layer_of",
]

#: The package the architecture rules reason about.
ROOT_PACKAGE = "repro"

#: Every layer below the orchestration tier, for the layers allowed to
#: import anything.
_SUBSYSTEMS = frozenset(
    {
        "obs",
        "core",
        "trust",
        "perf",
        "semweb",
        "web",
        "datasets",
        "evaluation",
        "analysis",
    }
)


@dataclass(frozen=True)
class LayerContract:
    """Allowed internal imports per layer of one root package.

    ``allowed`` maps layer → the internal layers it may import at module
    scope (its own layer is always allowed).  ``lazy_allowed`` lists
    ``(importer_layer, target_layer)`` edges additionally permitted for
    function-scoped imports, each one a documented inversion.
    ``declared_edges`` lists ``(importer_module, target_module)`` pairs
    permitted at any scope.  ``top_layers`` may import every internal
    layer.
    """

    package: str = ROOT_PACKAGE
    allowed: dict[str, frozenset[str]] = field(
        default_factory=lambda: {
            # Tracing/metrics/stopwatch: stdlib only, importable from all.
            "obs": frozenset(),
            # The §3.1 information model and pipeline math; may emit
            # telemetry but depends on no other subsystem.
            "core": frozenset({"obs"}),
            # Trust metrics operate on core's models and score contract
            # and run on perf's packed CSR kernels.
            "trust": frozenset({"core", "perf", "obs"}),
            # The vectorized engines reproduce core's numeric conventions.
            "perf": frozenset({"core", "obs"}),
            # RDF/FOAF documents serialize core models.
            "semweb": frozenset({"core", "obs"}),
            # The simulated Web ingests documents into core models.
            "web": frozenset({"core", "semweb", "obs"}),
            # Synthetic stand-ins for the crawled §4 datasets.
            "datasets": frozenset({"core", "obs"}),
            # reprolint: self-contained, imports nothing internal.
            "analysis": frozenset(),
            # Experiments drive every subsystem.
            "evaluation": _SUBSYSTEMS - {"evaluation", "analysis"},
        }
    )
    lazy_allowed: frozenset[tuple[str, str]] = frozenset(
        {
            # engine="auto": core calls the packed kernels at call time;
            # perf.kernels imports core.similarity at module scope, so a
            # module-scope core -> perf edge would be an import cycle.
            ("core", "perf"),
        }
    )
    declared_edges: frozenset[tuple[str, str]] = frozenset(
        {
            # §3.2: neighbourhood formation builds the default Appleseed
            # and takes a TrustGraph; the recommender builds one.
            ("repro.core.neighborhood", "repro.trust.appleseed"),
            ("repro.core.neighborhood", "repro.trust.graph"),
            ("repro.core.recommender", "repro.trust.graph"),
        }
    )
    top_layers: frozenset[str] = frozenset({"cli", "agent", ""})

    def permits(self, importer_layer: str, target_layer: str, scope: str) -> bool:
        """Whether the contract allows this edge at this scope."""
        if importer_layer == target_layer:
            return True
        if importer_layer in self.top_layers:
            return True
        if scope == SCOPE_TYPE_CHECKING:
            return True
        if target_layer in self.allowed.get(importer_layer, frozenset()):
            return True
        if scope == SCOPE_LAZY and (importer_layer, target_layer) in self.lazy_allowed:
            return True
        return False


def layer_of(module: str, package: str = ROOT_PACKAGE) -> str | None:
    """The layer a module belongs to, or ``None`` for external modules.

    ``repro.web.crawler`` → ``web``; ``repro.cli`` → ``cli``; the package
    root ``repro`` itself → ``""`` (top).  Modules outside *package*
    (tests, benchmarks, stdlib) return ``None`` and are never checked.
    """
    if module == package:
        return ""
    prefix = package + "."
    if not module.startswith(prefix):
        return None
    return module[len(prefix):].split(".", 1)[0]


#: The contract RL100 enforces by default.
DEFAULT_CONTRACT = LayerContract()


class ArchitectureContractRule(GraphRule):
    """RL100: import that violates the package layering contract.

    The §3.1 invariants survive only if data enters ``repro.core``
    through its validated constructors — which is a statement about the
    *direction* of dependencies, not about any single file.  This rule
    pins that direction: ``core`` imports nothing internal, subsystems
    import only what sits below them, orchestration imports freely.
    """

    code = "RL100"

    def __init__(self, contract: LayerContract | None = None) -> None:
        self.contract = contract or DEFAULT_CONTRACT

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        contract = self.contract
        for name in sorted(project.modules):
            info = project.modules[name]
            importer_layer = layer_of(name, contract.package)
            if importer_layer is None:
                continue
            for record in info.imports:
                target_layer = layer_of(record.target, contract.package)
                if target_layer is None:
                    continue
                if contract.permits(importer_layer, target_layer, record.scope):
                    continue
                if (name, record.target) in contract.declared_edges:
                    continue
                where = "lazily " if record.scope == SCOPE_LAZY else ""
                importer_label = importer_layer or contract.package
                allowed = contract.allowed.get(importer_layer, frozenset())
                permitted = (
                    ", ".join(sorted(allowed)) if allowed else "no internal layer"
                )
                yield self.finding(
                    path=record.path,
                    line=record.line,
                    column=record.column,
                    message=(
                        f"layer '{importer_label}' {where}imports "
                        f"'{record.target}' (layer '{target_layer}'), but the "
                        f"architecture contract allows it {permitted} only"
                    ),
                )
