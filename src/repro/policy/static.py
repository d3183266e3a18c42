"""The static (non-learning) policies: the repo's historical behavior.

Each class here is a line-for-line transplant of a decision the FTL used to
hard-code, so resolving an unset :class:`~repro.policy.spec.PolicyConfig`
slot reproduces pre-policy traces byte for byte (pinned in
``tests/test_policy_identity.py``).  Tie-breaking order is part of the
contract: e.g. the assembly choice keeps *first*-best-wins over candidates
in catalog order, because ``BlockCatalog`` preserves insertion order among
equal-latency records.

The similarity helpers (:func:`speed_candidates`, :func:`choose_similar`)
are shared with the FTL's spare drafting (``repro.ftl.allocator``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.assembler import SpeedClass
from repro.core.placement import WriteSource
from repro.core.records import BlockRecord, closest_candidate
from repro.policy.base import (
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    AssemblyContext,
    AssemblyPolicy,
    RepairContext,
    RepairPolicy,
)
from repro.policy.registry import register_policy


def speed_candidates(
    records: Sequence[BlockRecord], speed_class: SpeedClass, depth: int
) -> Sequence[BlockRecord]:
    """The ``depth`` records whose total program latency matches the class."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ordered = sorted(records, key=lambda r: (r.pgm_total_us, r.key()))
    if speed_class is SpeedClass.FAST:
        return ordered[:depth]
    return ordered[-depth:]


def choose_similar(
    candidates: Sequence[BlockRecord], survivors: Sequence[BlockRecord]
) -> BlockRecord:
    """The candidate with the lowest total eigen distance to the survivors.

    Ties break on total program latency then physical address, so the
    choice is deterministic regardless of candidate ordering.
    """
    if not candidates:
        raise ValueError("no candidates to choose from")

    def score(record: BlockRecord) -> Tuple[int, float, Tuple[int, int, int]]:
        distance = sum(record.distance_to(peer) for peer in survivors)
        return (distance, record.pgm_total_us, record.key())

    return min(candidates, key=score)


@register_policy("assembly.qstr")
class QstrAssemblyPolicy(AssemblyPolicy):
    """The paper's pair check: popcount(XOR) against the reference block.

    First-best-wins over candidates in catalog order, the same
    :func:`repro.core.records.closest_candidate` that
    :class:`repro.core.assembler.OnDemandAssembler` runs without a chooser.
    """

    def choose(self, context: AssemblyContext) -> BlockRecord:
        return closest_candidate(context.reference, context.candidates)


@register_policy("allocation.static")
class StaticAllocationPolicy(AllocationPolicy):
    """The historical stream choice, verbatim from ``Ftl._stream_for``."""

    def place(self, context: AllocationContext) -> AllocationDecision:
        if context.base_class is SpeedClass.SLOW:
            return AllocationDecision(SpeedClass.SLOW)
        if (
            context.steering_enabled
            and context.intent.source is WriteSource.HOST
            and context.predictor_ready
        ):
            return AllocationDecision(SpeedClass.FAST, express=context.prefers_fast)
        return AllocationDecision(SpeedClass.FAST)


@register_policy("repair.qstr")
class QstrRepairPolicy(RepairPolicy):
    """The PV-aware spare choice (the default)."""

    def draft(self, context: RepairContext) -> BlockRecord:
        return choose_similar(context.candidates, context.survivors)


@register_policy("repair.random")
class RandomRepairPolicy(RepairPolicy):
    """The baseline spare choice.

    Draws from the context's repair stream — the FTL's
    ``derive_seed(seed, "ftl", "repair")`` generator, not a ``"policy"``
    stream — which keeps the trace digest pinned in
    ``tests/test_policy_identity.py``.
    """

    def draft(self, context: RepairContext) -> BlockRecord:
        return context.pool[int(context.rng.integers(len(context.pool)))]
