"""Project-wide call graph over the :class:`~repro.lint.project.Project`.

Edges are resolved statically and conservatively:

* plain calls resolve through the module's local defs and import aliases;
* ``self.method(...)`` resolves within the enclosing class, then through
  its (project-local) base classes;
* ``Class(...)`` instantiation lands on ``Class.__init__``;
* an attribute call on an *unknown* receiver falls back to every method
  with that bare name (**dynamic-dispatch fallback**, marked so clients
  can choose precision vs coverage);
* nested functions are callable by bare name from their enclosing scope.

Reachability is a plain BFS, safe under cycles (mutual recursion).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.project import FunctionInfo, Project, dotted_name


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    caller: str
    callee: str
    lineno: int
    fallback: bool = False


def iter_own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs/classes.

    Nested functions are separate :class:`FunctionInfo` records; walking
    into them here would attribute their calls to the enclosing function.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Static call edges plus reachability queries."""

    #: fallback fan-out cap: a bare method name matching more call targets
    #: than this is treated as unresolvable noise rather than dispatch.
    MAX_FALLBACK_TARGETS = 24

    def __init__(self, project: Project) -> None:
        self.project = project
        self._edges: Dict[str, List[CallEdge]] = {}
        self._callers: Dict[str, List[CallEdge]] = {}
        for qualname in sorted(project.functions):
            self._edges[qualname] = self._resolve_function(project.functions[qualname])
        for edges in self._edges.values():
            for edge in edges:
                self._callers.setdefault(edge.callee, []).append(edge)

    # -- construction -------------------------------------------------------

    def _resolve_function(self, fn: FunctionInfo) -> List[CallEdge]:
        project = self.project
        edges: List[CallEdge] = []
        seen: Set[Tuple[str, int, bool]] = set()
        nested = {
            child.name
            for child in project.functions.values()
            if child.qualname == f"{fn.qualname}.{child.name}"
        }

        def add(callee: str, lineno: int, fallback: bool = False) -> None:
            key = (callee, lineno, fallback)
            if key not in seen:
                seen.add(key)
                edges.append(
                    CallEdge(
                        caller=fn.qualname,
                        callee=callee,
                        lineno=lineno,
                        fallback=fallback,
                    )
                )

        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            lineno = getattr(node, "lineno", fn.lineno)
            parts = dotted.split(".")
            # nested function called by bare name
            if len(parts) == 1 and parts[0] in nested:
                add(f"{fn.qualname}.{parts[0]}", lineno)
                continue
            # self.method(...) within a class
            if parts[0] == "self" and fn.class_qualname is not None:
                if len(parts) == 2:
                    target = self._resolve_method(fn.class_qualname, parts[1])
                    if target is not None:
                        add(target, lineno)
                        continue
                self._add_fallback(add, parts[-1], lineno)
                continue
            resolved = project.resolve(fn.module, dotted)
            if resolved is not None:
                if resolved in project.functions:
                    add(resolved, lineno)
                    continue
                if resolved in project.classes:
                    init = project.classes[resolved].methods.get("__init__")
                    if init is not None:
                        add(init.qualname, lineno)
                    continue
            # Class.method(...) via an imported/local class
            if len(parts) >= 2:
                owner = project.resolve(fn.module, ".".join(parts[:-1]))
                if owner is not None and owner in project.classes:
                    target = self._resolve_method(owner, parts[-1])
                    if target is not None:
                        add(target, lineno)
                        continue
            if len(parts) >= 2:
                self._add_fallback(add, parts[-1], lineno)
        return edges

    def _resolve_method(self, class_qualname: str, name: str) -> Optional[str]:
        """Look ``name`` up on a class, then its project-local bases (MRO-ish)."""
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.project.classes.get(current)
            if cls is None:
                continue
            method = cls.methods.get(name)
            if method is not None:
                return method.qualname
            for base in cls.bases:
                resolved = self.project.resolve(cls.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _add_fallback(
        self, add: "Callable[..., None]", name: str, lineno: int
    ) -> None:
        candidates = self.project.methods_named(name)
        if not candidates or len(candidates) > self.MAX_FALLBACK_TARGETS:
            return
        for candidate in candidates:
            add(candidate.qualname, lineno, fallback=True)

    # -- queries ------------------------------------------------------------

    def callees(self, qualname: str, include_fallback: bool = True) -> List[CallEdge]:
        return [
            edge
            for edge in self._edges.get(qualname, [])
            if include_fallback or not edge.fallback
        ]

    def callers(self, qualname: str, include_fallback: bool = True) -> List[CallEdge]:
        return [
            edge
            for edge in self._callers.get(qualname, [])
            if include_fallback or not edge.fallback
        ]

    def reachable(
        self, seeds: Iterable[str], include_fallback: bool = True
    ) -> Set[str]:
        """Every function reachable from ``seeds`` (cycle-safe BFS)."""
        visited: Set[str] = set()
        queue = [seed for seed in seeds if seed in self.project.functions]
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            for edge in self.callees(current, include_fallback=include_fallback):
                if edge.callee not in visited:
                    queue.append(edge.callee)
        return visited
