"""Whole-program model: modules, symbol table, import resolution.

The per-file rules of PR 1 see one AST at a time; the deep analysis passes
(RNG stream flow, nondeterminism taint, process safety) need to see the
*program*: which qualified function a call site lands in, which module a
name was imported from, where module-level mutable state lives.
:class:`Project` parses every linted file once and indexes

* every function and method by qualified name (``repro.ftl.ftl.Ftl.write``),
* every class with its bases and method table,
* every module's import alias map (``from a.b import c as d`` → ``d`` →
  ``a.b.c``) and its module-level mutable bindings,

so the call graph and the taint framework never re-parse or re-resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lint.engine import iter_python_files, module_name_for
from repro.lint.suppressions import SuppressionIndex, parse_suppressions


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_qualname: Optional[str] = None
    decorators: Tuple[str, ...] = ()
    lineno: int = 1
    end_lineno: int = 1

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    def has_decorator(self, *tails: str) -> bool:
        """True when any decorator's dotted tail matches one of ``tails``."""
        for decorator in self.decorators:
            if decorator.split(".")[-1] in tails:
                return True
        return False


@dataclass
class ClassInfo:
    """One class definition with its (locally defined) method table."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file plus its name-resolution context."""

    name: str
    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level names bound to mutable literals/constructors -> lineno
    global_mutables: Dict[str, int] = field(default_factory=dict)
    suppressions: SuppressionIndex = field(default_factory=SuppressionIndex)

    def expand(self, dotted: str) -> str:
        """Rewrite ``dotted`` through this module's import aliases.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` when the
        module did ``import numpy as np``; names with no matching alias are
        returned unchanged.
        """
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = _dotted(target)
        if dotted is not None:
            names.append(dotted)
    return tuple(names)


_MUTABLE_CONSTRUCTORS = frozenset({"dict", "list", "set", "defaultdict", "deque"})


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        return dotted is not None and dotted.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


class Project:
    """The parsed whole program: modules + a project-wide symbol table."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path], root: Optional[Path] = None
    ) -> "Project":
        """Parse every ``.py`` file under ``paths`` into one project."""
        project = cls()
        for path in iter_python_files(list(paths)):
            display = str(path)
            if root is not None:
                try:
                    display = str(path.resolve().relative_to(root.resolve()))
                except ValueError:
                    pass
            module = module_name_for(path, root)
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            project.add_source(module, source, display)
        return project

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from in-memory sources (the test entry point)."""
        project = cls()
        for module, source in sources.items():
            display = module.replace(".", "/") + ".py"
            project.add_source(module, source, display)
        return project

    def add_source(self, module: str, source: str, path: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return  # the shallow engine reports PARSE findings
        info = ModuleInfo(
            name=module,
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            suppressions=parse_suppressions(source, tree=tree),
        )
        self._index_imports(info)
        self._index_definitions(info)
        self.modules[module] = info

    def _index_imports(self, info: ModuleInfo) -> None:
        package = info.name.rsplit(".", 1)[0] if "." in info.name else ""
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # best-effort relative resolution against the package
                    parts = info.name.split(".")
                    anchor = parts[: max(0, len(parts) - node.level)]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                    _ = package  # anchor already accounts for the package
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_definitions(self, info: ModuleInfo) -> None:
        module = info.name

        def add_function(
            node: ast.AST, prefix: str, class_qualname: Optional[str]
        ) -> FunctionInfo:
            qualname = f"{prefix}.{node.name}"  # type: ignore[attr-defined]
            fn = FunctionInfo(
                qualname=qualname,
                module=module,
                name=node.name,  # type: ignore[attr-defined]
                node=node,
                class_qualname=class_qualname,
                decorators=_decorator_names(node),
                lineno=getattr(node, "lineno", 1),
                end_lineno=getattr(node, "end_lineno", getattr(node, "lineno", 1)),
            )
            self.functions[qualname] = fn
            return fn

        def visit_body(
            body: List[ast.stmt], prefix: str, class_qualname: Optional[str]
        ) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = add_function(node, prefix, class_qualname)
                    if class_qualname is not None:
                        self.classes[class_qualname].methods[node.name] = fn
                    # nested defs are indexed under their parent's qualname
                    visit_body(node.body, fn.qualname, None)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    bases = tuple(
                        dotted
                        for dotted in (_dotted(base) for base in node.bases)
                        if dotted is not None
                    )
                    self.classes[qualname] = ClassInfo(
                        qualname=qualname,
                        module=module,
                        name=node.name,
                        node=node,
                        bases=bases,
                    )
                    visit_body(node.body, qualname, qualname)

        visit_body(info.tree.body, module, None)

        # module-level mutable bindings (PROC001's write targets)
        for node in info.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value: Optional[ast.expr] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    info.global_mutables[target.id] = node.lineno

    # -- resolution ---------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a name used inside ``module`` to a project qualname.

        Tries, in order: a local definition of the module, the import alias
        map (following one level of re-export), and ``None`` when the name
        does not land on anything this project parsed.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        local = f"{module}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        expanded = info.expand(dotted)
        if expanded in self.functions or expanded in self.classes:
            return expanded
        # ``from pkg import name`` where pkg/__init__ re-exports name
        head, _, tail = expanded.rpartition(".")
        if head in self.modules and tail:
            via = self.modules[head]
            target = via.imports.get(tail)
            if target is not None and (
                target in self.functions or target in self.classes
            ):
                return target
        return None

    def expand(self, module: str, dotted: str) -> str:
        """Import-alias expansion of ``dotted`` in ``module`` (externals too)."""
        info = self.modules.get(module)
        return info.expand(dotted) if info is not None else dotted

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        for info in self.modules.values():
            if info.path == path:
                return info
        return None

    def methods_named(self, name: str) -> List[FunctionInfo]:
        """Every method with the given bare name (dynamic-dispatch fallback)."""
        return sorted(
            (
                fn
                for fn in self.functions.values()
                if fn.name == name and fn.is_method
            ),
            key=lambda fn: fn.qualname,
        )
