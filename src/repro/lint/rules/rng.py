"""RNG discipline: every stochastic draw flows through ``derive_seed``.

The paper's tables are only reproducible because two runs with the same root
seed produce bit-identical chips, workloads and measurements.  That requires
(1) no ``random`` stdlib module, (2) no legacy global NumPy RNG state, and
(3) every ``default_rng`` seeded through :func:`repro.utils.rng.derive_seed`
so that seed *streams* are stable under refactoring.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, dotted_name
from repro.lint.registry import Rule, register_rule

#: the one module allowed to construct generators however it needs to.
_RNG_HOME = ("repro.utils.rng",)

#: ``np.random.*`` members that are part of the *legacy global* API.  The
#: modern explicit-generator API (``default_rng``, ``Generator``,
#: ``SeedSequence``…) is CamelCase or in this allowlist.
_ALLOWED_NP_RANDOM = frozenset({"default_rng"})


@register_rule
class BannedRandomImport(Rule):
    code = "RNG001"
    name = "banned-random-import"
    description = (
        "the stdlib `random` module carries hidden global state; use "
        "repro.utils.rng.RngFactory / derive_seed instead"
    )
    exempt_modules = _RNG_HOME

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self,
                            node,
                            f"import of stdlib '{alias.name}' — " + self.description,
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None and (
                    node.module == "random" or node.module.startswith("random.")
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"import from stdlib '{node.module}' — " + self.description,
                    )


@register_rule
class GlobalNumpyRandom(Rule):
    code = "RNG002"
    name = "global-numpy-random"
    description = (
        "legacy numpy global RNG state (np.random.seed / np.random.rand / …) "
        "is process-wide and order-dependent; use default_rng(derive_seed(...))"
    )
    exempt_modules = _RNG_HOME

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) != 3 or parts[0] not in ("np", "numpy"):
                continue
            if parts[1] != "random":
                continue
            member = parts[2]
            if member in _ALLOWED_NP_RANDOM or not member.islower():
                continue
            yield ctx.finding(
                self, node, f"use of '{dotted}' — " + self.description
            )


@register_rule
class UnderivedDefaultRng(Rule):
    code = "RNG003"
    name = "underived-default-rng"
    description = (
        "default_rng must be seeded with repro.utils.rng.derive_seed(...) so "
        "seed streams stay stable and collision-free across components"
    )
    exempt_modules = _RNG_HOME

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] != "default_rng":
                continue
            if self._is_derived(node):
                continue
            yield ctx.finding(
                self,
                node,
                "default_rng(...) not seeded via derive_seed — " + self.description,
            )

    @staticmethod
    def _is_derived(node: ast.Call) -> bool:
        if len(node.args) != 1 or node.keywords:
            return False
        arg = node.args[0]
        if not isinstance(arg, ast.Call):
            return False
        callee = dotted_name(arg.func)
        return callee is not None and callee.split(".")[-1] == "derive_seed"


@register_rule
class UnlabeledFaultStream(Rule):
    code = "RNG004"
    name = "unlabeled-fault-stream"
    description = (
        "fault-probability generators must draw from a derive_seed stream "
        "carrying the literal 'faults' label, so injected faults can never "
        "collide with (or silently perturb) a simulation RNG stream"
    )
    scope_prefixes = ("repro.faults",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] != "default_rng":
                continue
            if self._has_faults_label(node):
                continue
            yield ctx.finding(
                self,
                node,
                "default_rng(...) in a faults module without a 'faults' "
                "derive_seed label — " + self.description,
            )

    @staticmethod
    def _has_faults_label(node: ast.Call) -> bool:
        return _has_stream_label(node, "faults")


@register_rule
class UnlabeledPolicyStream(Rule):
    code = "RNG005"
    name = "unlabeled-policy-stream"
    description = (
        "policy generators must draw from a derive_seed stream carrying the "
        "literal 'policy' label, so a learned policy's exploration draws can "
        "never collide with (or silently perturb) a simulation RNG stream"
    )
    scope_prefixes = ("repro.policy",)

    def check(self, ctx: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] != "default_rng":
                continue
            if _has_stream_label(node, "policy"):
                continue
            yield ctx.finding(
                self,
                node,
                "default_rng(...) in a policy module without a 'policy' "
                "derive_seed label — " + self.description,
            )


def _has_stream_label(node: ast.Call, label: str) -> bool:
    """``default_rng(derive_seed(..., <label literal>, ...))``?"""
    if len(node.args) != 1 or node.keywords:
        return False
    seed = node.args[0]
    if not isinstance(seed, ast.Call):
        return False
    callee = dotted_name(seed.func)
    if callee is None or callee.split(".")[-1] != "derive_seed":
        return False
    return any(
        isinstance(arg, ast.Constant) and arg.value == label
        for arg in seed.args
    )
