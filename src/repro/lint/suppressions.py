"""Parsing of ``# reprolint: disable=...`` suppression comments.

Two directives are supported, and they mean the same for every rule:

* ``# reprolint: disable=CODE1,CODE2`` — suppresses those codes for findings
  reported **on the same line** (the line the AST node starts on);
* ``# reprolint: disable-file=CODE1,CODE2`` — suppresses those codes for the
  whole file; conventionally placed near the top.

Suppressions should always carry a human explanation on the same or the
preceding line; the linter enforces the syntax, reviewers enforce the why.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.lint.findings import Finding

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable(?:-file)?)\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)


def _iter_comment_directives(source: str) -> Iterator[Tuple[int, "re.Match[str]"]]:
    """(line, match) for directives in *real* comments only.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings that
    merely *document* the syntax from acting as suppressions.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(token.string)
            if match is not None:
                yield token.start[0], match
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # An unparseable file is reported as one PARSE finding (see
        # Project.add_source); no suppressions apply.
        return


@dataclass
class SuppressionIndex:
    """Per-file map of suppressed rule codes."""

    file_codes: FrozenSet[str] = frozenset()
    line_codes: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        if finding.code in self.file_codes:
            return True
        return finding.code in self.line_codes.get(finding.line, frozenset())


def parse_suppressions(source: str) -> SuppressionIndex:
    """Scan a file's text for suppression directives."""
    file_codes: Set[str] = set()
    line_codes: Dict[int, FrozenSet[str]] = {}
    for lineno, match in _iter_comment_directives(source):
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        if not codes:
            continue
        if match.group("scope") == "disable-file":
            file_codes.update(codes)
        else:
            line_codes[lineno] = line_codes.get(lineno, frozenset()) | codes
    return SuppressionIndex(file_codes=frozenset(file_codes), line_codes=line_codes)


def directive_lines(source: str) -> List[int]:
    """Line numbers carrying any reprolint directive (used by self-checks)."""
    return [lineno for lineno, _ in _iter_comment_directives(source)]
