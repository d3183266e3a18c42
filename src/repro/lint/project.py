"""File discovery and the parsed program: modules, symbol table, imports.

:class:`Project` parses every linted file exactly once.  The per-file rules
read each :class:`ModuleInfo` tree; the whole-program rules (RNG stream
flow, nondeterminism taint, process safety) need to see the *program*:
which qualified function a call site lands in, which module a name was
imported from, where module-level mutable state lives.  So the project also
indexes

* every function and method by qualified name (``repro.ftl.ftl.Ftl.write``),
* every class with its bases and method table,
* every module's import alias map (``from a.b import c as d`` → ``d`` →
  ``a.b.c``) and its module-level mutable bindings,

so the call graph and the taint framework never re-parse or re-resolve.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.findings import Finding, Severity
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

if TYPE_CHECKING:
    from repro.lint.registry import Rule

#: directories never descended into while collecting files.
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".pytest_cache", ".venv"}


def module_name_for(path: Path, root: Optional[Path] = None) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/ftl/ftl.py`` → ``repro.ftl.ftl``; anything else becomes the
    path relative to ``root`` (or the last components) with ``/`` → ``.``.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        if idx == 0 or parts[idx - 1] == "src":
            return ".".join(parts[idx:]) or "repro"
    if root is not None:
        try:
            rel = path.resolve().relative_to(root.resolve())
            rel_parts = list(rel.parts)
            if rel_parts and rel_parts[-1].endswith(".py"):
                rel_parts[-1] = rel.stem
            if rel_parts and rel_parts[-1] == "__init__":
                rel_parts = rel_parts[:-1]
            return ".".join(rel_parts)
        except ValueError:
            pass
    return ".".join(parts[-2:]) if len(parts) >= 2 else ".".join(parts)


def unique_module_names(
    paths: Sequence[Path], root: Optional[Path] = None
) -> List[str]:
    """:func:`module_name_for` of each path, made unique per path.

    Files that would share a name (``a/pkg/util.py`` and ``b/pkg/util.py``
    outside ``root`` both map to ``pkg.util``) each take one more leading
    part of their resolved path until their names differ, so every file
    resolves through its own module — whatever order the paths came in.
    Two ``src/repro`` checkouts lose their ``repro`` head this way, and with
    it the repro-scoped rules: lint each checkout in its own pass.
    """
    names = [module_name_for(path, root) for path in paths]
    while True:
        holders: Dict[str, List[int]] = {}
        for index, name in enumerate(names):
            holders.setdefault(name, []).append(index)
        changed = False
        for indices in holders.values():
            if len(indices) < 2:
                continue
            for index in indices:
                parts = list(paths[index].resolve().with_suffix("").parts[1:])
                if parts and parts[-1] == "__init__":
                    parts = parts[:-1]
                longer = ".".join(parts[-(names[index].count(".") + 2):])
                if longer != names[index]:
                    names[index] = longer
                    changed = True
        if not changed:
            return names


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[str] = set()
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            # deterministic: dirnames is re-sorted in place below, so the walk
            # order is pinned regardless of readdir order.
            for dirpath, dirnames, filenames in os.walk(path):  # reprolint: disable=DET011
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        collected.append(Path(dirpath) / name)
        elif path.suffix == ".py":
            collected.append(path)
    # collected is already deterministic: the walk above pins dirnames in
    # place and iterates filenames sorted, so this order is reproducible.
    for path in collected:  # reprolint: disable=DET011
        key = str(path.resolve())
        if key not in seen:
            seen.add(key)
            yield path


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

    def finding(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """A per-file rule's finding anchored on ``node`` in this file."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=rule.code,
            message=message,
            severity=severity,
        )

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


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
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
        dotted = dotted_name(target)
        if dotted is not None:
            names.append(dotted)
    return tuple(names)


_MUTABLE_CONSTRUCTORS = frozenset({"dict", "list", "set", "defaultdict", "deque"})


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        return dotted is not None and dotted.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


class Project:
    """The parsed whole program: modules + a project-wide symbol table."""

    def __init__(self) -> None:
        #: every parsed file in discovery order; the per-file rules run over
        #: these, so two files that map to one module name are both checked
        self.files: List[ModuleInfo] = []
        #: module name -> file, for name resolution
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: one PARSE finding per file that does not parse
        self.parse_errors: List[Finding] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path], root: Optional[Path] = None
    ) -> "Project":
        """Parse every ``.py`` file under ``paths`` into one project."""
        files: List[Tuple[Path, str]] = []
        for path in iter_python_files(list(paths)):
            try:
                files.append((path, path.read_text(encoding="utf-8")))
            except OSError:
                continue
        modules = unique_module_names([path for path, _ in files], root)
        project = cls()
        for (path, source), module in zip(files, modules):
            display = str(path)
            if root is not None:
                try:
                    display = str(path.resolve().relative_to(root.resolve()))
                except ValueError:
                    pass
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
        except SyntaxError as error:
            self.parse_errors.append(
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    code="PARSE",
                    message=f"syntax error: {error.msg}",
                    severity=Severity.ERROR,
                )
            )
            return
        info = ModuleInfo(
            name=module,
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            suppressions=parse_suppressions(source),
        )
        self._index_imports(info)
        self._index_definitions(info)
        self.files.append(info)
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
                        for dotted in (dotted_name(base) for base in node.bases)
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
