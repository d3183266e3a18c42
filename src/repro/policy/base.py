"""The policy protocol: decision contexts and per-point base classes.

The FTL routes each decision a run can vary through one of three policy
objects, each receiving a frozen *decision context* carrying exactly the
facts the legacy code consulted:

* :class:`AssemblyPolicy` — which candidate joins a superblock under
  assembly (the reference-anchored member choice of QSTR-MED);
* :class:`AllocationPolicy` — which write stream a host/GC write takes
  (fast vs slow, and express vs bulk under superpage steering);
* :class:`RepairPolicy` — which spare block repairs a failed member.

Each point has a second implementation.  GC victim choice and wear
rotation have one each, so they stay FTL mechanics
(``Ftl._pick_victim``, ``WearLeveler.nominate``) until a second one earns
them a point.

Determinism contract: a policy that draws randomness must do so from its
own ``"policy"``-labeled stream (:meth:`Policy.policy_rng`, enforced by
lint rule RNG005), never from shared state — so two runs of the same config
and seed make identical decisions in any process.  Policies are constructed
inside each sweep worker from their picklable :class:`~repro.policy.spec.
PolicySpec`; instances themselves must also pickle (they may be embedded in
diagnostics), which every attribute used here satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.assembler import SpeedClass
from repro.core.placement import WriteIntent
from repro.core.records import BlockRecord
from repro.policy.spec import PolicySpec
from repro.utils.rng import derive_seed


# ---------------------------------------------------------------------------
# decision contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblyContext:
    """One lane's member choice during reference-anchored assembly.

    ``candidates`` is the lane's ``candidate_depth`` head (FAST) or tail
    (SLOW) slice of its latency-sorted catalog, in catalog order.
    """

    speed_class: SpeedClass
    reference: BlockRecord
    candidates: Tuple[BlockRecord, ...]
    lane: int


@dataclass(frozen=True)
class AllocationContext:
    """One write's routing decision.

    ``base_class``/``prefers_fast`` are the placement policy's verdicts for
    this intent, precomputed by the FTL so policies need not re-derive them.
    """

    intent: WriteIntent
    base_class: SpeedClass
    prefers_fast: bool
    steering_enabled: bool
    predictor_ready: bool


@dataclass(frozen=True)
class AllocationDecision:
    """Where an allocation policy routes a write.

    ``express`` only matters for FAST decisions under superpage steering:
    True -> the express substream, False -> bulk, None -> the plain
    unsteered fast stream.
    """

    speed_class: SpeedClass
    express: Optional[bool] = None


@dataclass(frozen=True)
class RepairContext:
    """Spare drafting after a member block failed.

    ``pool`` is the lane's whole free pool in catalog (insertion) order —
    the index space the legacy ``random`` policy draws from; ``candidates``
    is the speed-matched depth-cut slice the legacy ``qstr`` policy
    searches.  Both are precomputed by the allocator so policies never
    depend on catalog internals.  ``rng`` is the FTL's historical
    ``derive_seed(seed, "ftl", "repair")`` stream, passed through so legacy
    repair behavior stays byte-identical; new policies preferring their own
    stream should use :meth:`Policy.policy_rng` instead.
    """

    lane: int
    speed_class: SpeedClass
    survivors: Tuple[BlockRecord, ...]
    pool: Tuple[BlockRecord, ...]
    candidates: Tuple[BlockRecord, ...]
    rng: np.random.Generator


# ---------------------------------------------------------------------------
# policy base classes
# ---------------------------------------------------------------------------


class Policy:
    """Base of every pluggable decision policy.

    Holds the frozen spec it was built from plus the root seed; stateful
    subclasses keep their online state on the instance (plain picklable
    attributes only).
    """

    #: which decision point this policy serves; set by each point base.
    point: ClassVar[str] = ""
    #: the spec parameters this policy reads; any other key is refused,
    #: since it would fork the config hash and change nothing.
    param_names: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: PolicySpec, seed: int = 0) -> None:
        unknown = sorted(set(spec.param_dict()) - set(self.param_names))
        if unknown:
            raise ValueError(
                f"policy {spec.name!r} reads no parameter {', '.join(unknown)} "
                f"(it reads: {', '.join(self.param_names) or 'none'})"
            )
        self.spec = spec
        self.seed = seed

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def short_name(self) -> str:
        return self.spec.short_name

    def policy_rng(self) -> np.random.Generator:
        """This policy's own deterministic stream, labeled ``"policy"``.

        Every random draw a policy makes must come from a stream created
        here (lint rule RNG005 enforces the label), keyed by the policy's
        registered name so distinct policies never share a stream.
        """
        return np.random.default_rng(derive_seed(self.seed, "policy", self.spec.name))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec.text()!r}, seed={self.seed})"


class AssemblyPolicy(Policy):
    """Chooses each non-reference member during superblock assembly."""

    point: ClassVar[str] = "assembly"

    def choose(self, context: AssemblyContext) -> BlockRecord:
        raise NotImplementedError

    def choose_member(
        self,
        speed_class: SpeedClass,
        reference: BlockRecord,
        candidates: Tuple[BlockRecord, ...],
    ) -> BlockRecord:
        """Adapter for :class:`repro.core.assembler.OnDemandAssembler`.

        The core layer cannot import policy types, so it calls this
        positional form (its ``MemberChooser`` protocol); the context
        object is built here.
        """
        return self.choose(
            AssemblyContext(
                speed_class=speed_class,
                reference=reference,
                candidates=candidates,
                lane=candidates[0].lane if candidates else -1,
            )
        )

    def observe_program(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> None:
        """Measured program latency feedback (no-op unless learning)."""


class AllocationPolicy(Policy):
    """Routes writes to a stream (fast/slow, express/bulk)."""

    point: ClassVar[str] = "allocation"

    def place(self, context: AllocationContext) -> AllocationDecision:
        raise NotImplementedError

    def observe_flush(
        self, stream: str, completion_us: float, host_pages: int
    ) -> None:
        """Super-word-line completion feedback (no-op unless learning)."""


class RepairPolicy(Policy):
    """Drafts the spare block that repairs a damaged superblock."""

    point: ClassVar[str] = "repair"

    def draft(self, context: RepairContext) -> BlockRecord:
        raise NotImplementedError
