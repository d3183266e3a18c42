"""Whole-program nondeterminism-taint rules (DET010-012).

These consume the :class:`~repro.lint.dataflow.TaintAnalysis` sink hits.
The per-file DET001/DET002 ban a source *call* syntactically; these
track the *value* — a ``time.time()`` result is fine in a log message, but
once it flows (through assignments, returns, containers, call boundaries)
into sim state, trace output, or a content hash, replay breaks.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.dataflow import FSORDER, OBJID, WALLCLOCK
from repro.lint.findings import Finding
from repro.lint.registry import ProgramContext, ProgramRule, register_rule


@register_rule
class WallclockReachesState(ProgramRule):
    """DET010: a wall-clock value reaches state, output, or a hash."""

    code = "DET010"
    name = "wallclock-taints-results"
    description = (
        "A value derived from time.*/datetime.now/os.urandom flows into "
        "simulator state, trace output, or a content hash; results then "
        "depend on when the run happened."
    )

    _SINKS = frozenset({"state", "output", "hash"})

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        for hit in ctx.taint.sink_hits:
            if hit.kind == WALLCLOCK and hit.sink in self._SINKS:
                yield ctx.finding(
                    path=hit.path,
                    line=hit.line,
                    col=hit.col,
                    code=self.code,
                    message=(
                        f"wall-clock-derived value reaches {hit.sink} sink "
                        f"({hit.detail}) in {hit.function}; results depend on "
                        f"run time"
                    ),
                )


@register_rule
class FsOrderReachesResults(ProgramRule):
    """DET011: an OS-ordered filesystem listing is consumed unsorted."""

    code = "DET011"
    name = "fs-order-taints-results"
    description = (
        "A listing from os.listdir/glob/Path.iterdir is iterated, returned, "
        "stored, or hashed without sorted(); the OS chooses the order, so "
        "two runs can disagree."
    )

    _SINKS = frozenset({"iteration", "return", "state", "output", "hash"})

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        for hit in ctx.taint.sink_hits:
            if hit.kind == FSORDER and hit.sink in self._SINKS:
                yield ctx.finding(
                    path=hit.path,
                    line=hit.line,
                    col=hit.col,
                    code=self.code,
                    message=(
                        f"OS-ordered filesystem listing reaches {hit.sink} sink "
                        f"({hit.detail}) in {hit.function}; wrap the listing in "
                        f"sorted()"
                    ),
                )


@register_rule
class ObjectIdentityReachesResults(ProgramRule):
    """DET012: id()/hash-of-object flows into state, output, or a hash."""

    code = "DET012"
    name = "object-identity-taints-results"
    description = (
        "id() values and hash() of non-trivial objects differ per process "
        "(address layout, PYTHONHASHSEED); once one reaches sim state, trace "
        "output, or a content hash, cross-process equivalence breaks."
    )

    _SINKS = frozenset({"state", "output", "hash"})

    def check(self, ctx: ProgramContext) -> Iterable[Finding]:
        for hit in ctx.taint.sink_hits:
            if hit.kind == OBJID and hit.sink in self._SINKS:
                yield ctx.finding(
                    path=hit.path,
                    line=hit.line,
                    col=hit.col,
                    code=self.code,
                    message=(
                        f"object-identity value (id()/hash of object) reaches "
                        f"{hit.sink} sink ({hit.detail}) in {hit.function}; use a "
                        f"stable key instead"
                    ),
                )
