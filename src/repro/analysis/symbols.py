"""Whole-program symbol table for the graph rules.

The file-at-a-time rules of :mod:`repro.analysis.rules` cannot see that
:mod:`repro.core` quietly grew an import of :mod:`repro.trust`, or that a
helper three calls away mutates a cached field.  This module builds the
shared substrate those whole-program checks need:

* a dotted **module name** for every linted file (derived from the
  ``__init__.py`` chain, so ``src/repro/web/crawler.py`` becomes
  ``repro.web.crawler`` and a test file stays ``tests.test_foo``);
* every **import record**, classified by scope — executed at module
  import time (``module``), deferred into a function body (``lazy``), or
  guarded by ``if TYPE_CHECKING:`` (``type-checking``);
* per-module **name bindings** (imported name → fully qualified target)
  so call sites can be resolved across module boundaries;
* every **function** with its qualified name and AST, the raw material
  of the effect pass;
* the names bound at **module level**, so a write through one reads as
  a ``mutates:global`` effect.

Everything here is best-effort static resolution: dynamic dispatch,
``getattr`` and star imports stay unresolved rather than guessed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FunctionInfo",
    "ImportRecord",
    "ModuleInfo",
    "ProjectIndex",
    "dotted_name",
    "module_name_for_path",
]

#: Import scopes, in decreasing order of runtime impact.
SCOPE_MODULE = "module"
SCOPE_LAZY = "lazy"
SCOPE_TYPE_CHECKING = "type-checking"


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for_path(path: Path) -> str:
    """Dotted module name of *path*, following the ``__init__.py`` chain.

    ``<root>/repro/web/crawler.py`` → ``repro.web.crawler`` as long as
    ``repro`` and ``repro/web`` are packages; a stray script outside any
    package keeps its bare stem.  ``__init__.py`` names the package
    itself.
    """
    path = path.resolve()
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:  # filesystem root; defensive
            break
        parent = parent.parent
    if not parts:  # a lone __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(parts)


@dataclass(frozen=True, slots=True)
class ImportRecord:
    """One import statement, resolved to a project-relative target."""

    importer: str  #: dotted name of the importing module
    target: str  #: dotted name of the imported module (best-effort)
    names: tuple[str, ...]  #: names bound by ``from target import ...``
    scope: str  #: ``module`` | ``lazy`` | ``type-checking``
    line: int
    column: int
    path: str  #: file path of the importer, for findings


@dataclass(slots=True)
class FunctionInfo:
    """A function or method with its location and body."""

    qualname: str  #: ``repro.web.crawler.Crawler.crawl``
    module: str
    name: str  #: local qualified name within the module (``Crawler.crawl``)
    node: ast.FunctionDef | ast.AsyncFunctionDef
    line: int


@dataclass(slots=True)
class ModuleInfo:
    """Everything the graph rules need to know about one module."""

    name: str
    path: str
    tree: ast.Module
    imports: list[ImportRecord] = field(default_factory=list)
    #: local name → fully qualified target (``parse_ntriples`` →
    #: ``repro.semweb.serializer.parse_ntriples``; ``heapq`` → ``heapq``).
    bindings: dict[str, str] = field(default_factory=dict)
    #: local qualified name (``Crawler.crawl``) → function info.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name → AST node, for method resolution.
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: names assigned at module level.
    globals: set[str] = field(default_factory=set)


def _is_type_checking_test(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` guard."""
    name = dotted_name(test)
    return name is not None and name.rpartition(".")[2] == "TYPE_CHECKING"


class _ModuleScanner(ast.NodeVisitor):
    """Single pass over one module collecting imports, defs, and globals."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._scope_stack: list[str] = []  # function nesting → lazy imports
        self._class_stack: list[str] = []
        self._type_checking_depth = 0

    # -- scope helpers -----------------------------------------------------

    @property
    def _scope(self) -> str:
        if self._type_checking_depth:
            return SCOPE_TYPE_CHECKING
        if self._scope_stack:
            return SCOPE_LAZY
        return SCOPE_MODULE

    @property
    def _at_module_level(self) -> bool:
        return not self._scope_stack and not self._class_stack

    # -- imports -----------------------------------------------------------

    def _record(self, target: str, names: tuple[str, ...], node: ast.stmt) -> None:
        self.info.imports.append(
            ImportRecord(
                importer=self.info.name,
                target=target,
                names=names,
                scope=self._scope,
                line=node.lineno,
                column=node.col_offset + 1,
                path=self.info.path,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record(alias.name, (), node)
            if alias.asname:
                self.info.bindings[alias.asname] = alias.name
            else:
                head = alias.name.partition(".")[0]
                self.info.bindings.setdefault(head, head)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve_from(node)
        names = tuple(alias.name for alias in node.names)
        self._record(target, names, node)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.bindings[local] = f"{target}.{alias.name}" if target else alias.name

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: climb from the importer's package.
        parts = self.info.name.split(".")
        if self.info.path.endswith("__init__.py"):
            package_parts = parts  # the module *is* its package
        else:
            package_parts = parts[:-1]
        ascent = node.level - 1
        base = package_parts[: len(package_parts) - ascent] if ascent else package_parts
        if node.module:
            return ".".join([*base, node.module]) if base else node.module
        return ".".join(base)

    # -- TYPE_CHECKING guards ----------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        local = ".".join([*self._class_stack, node.name])
        if not self._scope_stack:  # module-level functions and methods only
            self.info.functions[local] = FunctionInfo(
                qualname=f"{self.info.name}.{local}",
                module=self.info.name,
                name=local,
                node=node,
                line=node.lineno,
            )
        self._scope_stack.append(node.name)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._at_module_level:
            self.info.classes[node.name] = node
            self.info.bindings.setdefault(node.name, f"{self.info.name}.{node.name}")
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- module-level globals ------------------------------------------------

    def _record_global(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is not None and isinstance(target, ast.Name):
            self.info.globals.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._at_module_level:
            for target in node.targets:
                self._record_global(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._at_module_level:
            self._record_global(node.target, node.value)
        self.generic_visit(node)


class ProjectIndex:
    """Symbol tables and import records for a set of linted files."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules

    @classmethod
    def build(cls, files: Iterable[str | Path]) -> "ProjectIndex":
        """Read, parse and index every file; unparseable files are skipped."""
        trees: list[tuple[Path, ast.Module]] = []
        for file_path in (Path(f) for f in files):
            try:
                source = file_path.read_text(encoding="utf-8")
                trees.append((file_path, ast.parse(source, filename=str(file_path))))
            except (OSError, SyntaxError, ValueError):
                continue
        return cls.from_trees(trees)

    @classmethod
    def from_trees(cls, trees: Iterable[tuple[Path, ast.Module]]) -> "ProjectIndex":
        """Index modules the caller already parsed, in path order."""
        modules: dict[str, ModuleInfo] = {}
        for file_path, tree in sorted(trees, key=lambda item: item[0]):
            name = module_name_for_path(file_path)
            info = ModuleInfo(name=name, path=str(file_path), tree=tree)
            _ModuleScanner(info).visit(tree)
            modules[name] = info
        index = cls(modules)
        index._canonicalize_targets()
        return index

    def _canonicalize_targets(self) -> None:
        """Rewrite ``from pkg import sub`` records to point at ``pkg.sub``.

        At scan time we cannot know whether an imported name is a
        submodule or an attribute; once every module is indexed, records
        whose target+name matches a known module are split per name, and
        name bindings are upgraded to module bindings.
        """
        for info in self.modules.values():
            rewritten: list[ImportRecord] = []
            for record in info.imports:
                split = False
                if record.names and record.names != ("*",):
                    submodule_names = [
                        name
                        for name in record.names
                        if f"{record.target}.{name}" in self.modules
                    ]
                    if submodule_names:
                        split = True
                        for name in record.names:
                            full = f"{record.target}.{name}"
                            target = full if full in self.modules else record.target
                            rewritten.append(
                                ImportRecord(
                                    importer=record.importer,
                                    target=target,
                                    names=(name,),
                                    scope=record.scope,
                                    line=record.line,
                                    column=record.column,
                                    path=record.path,
                                )
                            )
                if not split:
                    rewritten.append(record)
            info.imports = rewritten

    # -- lookups ---------------------------------------------------------------

    def functions(self) -> Iterator[FunctionInfo]:
        """Every module-level function and method in the project."""
        for module in self._sorted_modules():
            yield from (module.functions[k] for k in sorted(module.functions))

    def _sorted_modules(self) -> Sequence[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]

    def function(self, qualname: str) -> FunctionInfo | None:
        """Look a function up by fully qualified dotted name."""
        # The local part may itself be Class.method; walk candidate splits.
        parts = qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is not None:
                found = module.functions.get(".".join(parts[cut:]))
                if found is not None:
                    return found
        return None

    def resolve_call(
        self, module: ModuleInfo, node: ast.expr, class_name: str | None = None
    ) -> str | None:
        """Fully qualified name of a call target, best effort.

        Resolves local definitions, imported names (including dotted
        attribute access on imported modules), and ``self.method`` /
        ``cls.method`` within *class_name*.  Returns ``None`` when the
        target cannot be determined statically.
        """
        if isinstance(node, ast.Name):
            name = node.id
            if name in module.functions:
                return f"{module.name}.{name}"
            if name in module.bindings:
                return module.bindings[name]
            return name  # builtin or unknown global — return bare name
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls") and class_name:
                return f"{module.name}.{class_name}.{node.attr}"
            dotted = dotted_name(node)
            if dotted is None:
                return None
            head, _, rest = dotted.partition(".")
            resolved_head = module.bindings.get(head, head)
            return f"{resolved_head}.{rest}" if rest else resolved_head
        return None
