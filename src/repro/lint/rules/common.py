"""AST traversal helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def walk_runtime(tree: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but skips ``if TYPE_CHECKING:`` bodies.

    Imports under ``TYPE_CHECKING`` never execute, so they cannot create
    runtime cycles or nondeterminism; rules about runtime behavior should
    iterate with this instead of ``ast.walk``.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))
