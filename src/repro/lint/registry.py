"""The two rule base classes, the whole-program context, and the one registry.

A :class:`Rule` checks one parsed file (a
:class:`~repro.lint.project.ModuleInfo`); a :class:`ProgramRule` checks the
whole program through a :class:`ProgramContext`.  Both register with
:func:`register_rule` under a unique code, and ``repro lint`` runs every
registered rule in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.lint.callgraph import CallGraph
    from repro.lint.dataflow import TaintAnalysis
    from repro.lint.project import ModuleInfo, Project


class Rule:
    """Base class for one per-file lint rule.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check`.  ``scope_prefixes`` restricts a rule to modules whose
    dotted name starts with one of the prefixes (``None`` means every linted
    file); ``exempt_modules`` lists exact modules the rule never applies to
    (e.g. the one module allowed to own raw RNG construction).
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scope_prefixes: Optional[Tuple[str, ...]] = None
    exempt_modules: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if module in self.exempt_modules:
            return False
        if self.scope_prefixes is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope_prefixes
        )

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError


@dataclass
class ProgramContext:
    """Everything a whole-program rule sees: the program, its graph, its taint."""

    project: Project
    graph: CallGraph
    taint: TaintAnalysis

    def finding(
        self,
        path: str,
        line: int,
        col: int,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            path=path, line=line, col=col, code=code, message=message, severity=severity
        )


class ProgramRule:
    """Base class for one whole-program rule (call graph + taint)."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        raise NotImplementedError


AnyRule = Union[Rule, ProgramRule]
_RuleClass = TypeVar("_RuleClass", Type[Rule], Type[ProgramRule])

_REGISTRY: Dict[str, Union[Type[Rule], Type[ProgramRule]]] = {}


def register_rule(cls: _RuleClass) -> _RuleClass:
    """Class decorator adding a rule of either kind to the one registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[AnyRule]:
    """Fresh instances of every registered rule, sorted by code."""
    import repro.lint.rules  # noqa: F401  (registers the built-in rules)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def get_rule(code: str) -> AnyRule:
    import repro.lint.rules  # noqa: F401

    try:
        return _REGISTRY[code]()
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}") from None


def known_codes() -> List[str]:
    import repro.lint.rules  # noqa: F401

    return sorted(_REGISTRY)
