"""Superblock repair policies: how to draft a spare for a retired member.

When a member block fails (program/erase status failure or wear-out) the
FTL drafts a replacement from the failed lane's free pool.  The *choice*
re-opens the paper's assembly problem in miniature: a speed-mismatched
spare re-inflates the superblock's MP extra latency for every remaining
super word-line.  Two policies are provided:

* ``random`` — the conventional-firmware baseline: any free block.
* ``qstr``   — PV-aware: restrict to the ``candidate_depth`` blocks whose
  speed class matches the superblock (head of the latency-sorted pool for
  FAST, tail for SLOW), then pick the one most eigen-similar to the
  surviving members — the same similarity criterion
  :class:`repro.core.assembler.OnDemandAssembler` uses at assembly time.

The policies themselves live in ``repro.policy`` (registered as
``repair.qstr`` / ``repair.random``) and are chosen by
``SimConfig.policies.repair``.
"""

from __future__ import annotations

from repro.policy.static import speed_candidates

#: Candidate depth used when the allocator has no configured depth of its own.
DEFAULT_REPAIR_DEPTH = 4

__all__ = [
    "DEFAULT_REPAIR_DEPTH",
    "speed_candidates",
]
