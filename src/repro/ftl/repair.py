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

The policies themselves now live in ``repro.policy`` (registered as
``repair.qstr`` / ``repair.random``); ``REPAIR_POLICIES`` is kept here for
backward compatibility — the string form of ``FtlConfig.repair_policy`` is
deprecated in favor of ``SimConfig.policies.repair``.
"""

from __future__ import annotations

from typing import Tuple

from repro.policy.static import speed_candidates

#: Legacy string names accepted by ``FtlConfig.repair_policy`` (deprecated;
#: they map onto the ``repair.<name>`` registered policies).
REPAIR_POLICIES: Tuple[str, ...] = ("qstr", "random")

#: Candidate depth used when the allocator has no configured depth of its own.
DEFAULT_REPAIR_DEPTH = 4

__all__ = [
    "REPAIR_POLICIES",
    "DEFAULT_REPAIR_DEPTH",
    "speed_candidates",
]
