"""The learned policy instances: online predictor + contextual bandit.

Both adapt at runtime from the same measured program latencies QSTR-MED's
gathering unit already reports, following the adaptive-parameter line of
related work (profile latency variation online instead of trusting a
one-shot map; re-profile as the device ages):

* :class:`LatencyPredictorPolicy` (``assembly.predictor``) starts from the
  eigen-similarity choice and, once enough per-block measurements
  accumulate, switches to matching *predicted* word-line latency against
  the reference — a refinement of the rank assemblers' static ordering.
* :class:`BanditAllocationPolicy` (``allocation.bandit``) is an
  epsilon-greedy contextual bandit steering host writes fast vs slow per
  write-shape bucket, with seed-derived exploration and super-word-line
  completion latency as (negative) reward.

Determinism: the bandit's only randomness comes from its own
``derive_seed(seed, "policy", <name>)`` stream; the predictor draws
nothing.  All state is plain dict/deque/float attributes, so both pickle
across the sweep's process pool.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.core.assembler import SpeedClass
from repro.core.placement import WriteSource
from repro.core.records import BlockRecord, closest_candidate
from repro.policy.base import (
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    AssemblyContext,
    AssemblyPolicy,
)
from repro.policy.registry import register_policy
from repro.policy.spec import PolicySpec


@register_policy("assembly.predictor")
class LatencyPredictorPolicy(AssemblyPolicy):
    """Match members on *predicted* word-line latency, learned online.

    Until ``warmup`` word-line observations accumulate the choice is
    exactly ``assembly.qstr`` (eigen similarity — the only signal a fresh
    device has).  After warmup, each candidate is scored by the gap between
    its estimated mean word-line latency and the reference's, with eigen
    distance then physical address as tiebreaks.  Estimates start from the
    gathered per-block mean (``pgm_total_us`` over the word-line count) and
    are refined by an exponential moving average (``alpha``) of measured
    program latencies.
    """

    param_names = ("alpha", "warmup")

    def __init__(self, spec: PolicySpec, seed: int = 0) -> None:
        super().__init__(spec, seed)
        self.alpha = float(spec.get("alpha", 0.25))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        self.warmup = int(spec.get("warmup", 64))
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        self._estimates: Dict[Tuple[int, int, int], float] = {}
        self.observations = 0

    def observe_program(
        self, lane: int, plane: int, block: int, lwl: int, latency_us: float
    ) -> None:
        key = (lane, plane, block)
        previous = self._estimates.get(key)
        if previous is None:
            self._estimates[key] = latency_us
        else:
            self._estimates[key] = (
                (1.0 - self.alpha) * previous + self.alpha * latency_us
            )
        self.observations += 1

    def estimate(self, record: BlockRecord) -> float:
        """Predicted mean word-line program latency of a block."""
        learned = self._estimates.get(record.key())
        if learned is not None:
            return learned
        return record.pgm_total_us / max(1, len(record.eigen))

    def choose(self, context: AssemblyContext) -> BlockRecord:
        if self.observations < self.warmup:
            # cold start: fall back to the paper's eigen pair check
            return closest_candidate(context.reference, context.candidates)
        reference_estimate = self.estimate(context.reference)

        def score(record: BlockRecord) -> Tuple[float, int, Tuple[int, int, int]]:
            return (
                abs(self.estimate(record) - reference_estimate),
                context.reference.distance_to(record),
                record.key(),
            )

        return min(context.candidates, key=score)


#: the two steering arms and the stream each one lands in
_ARMS: Tuple[str, ...] = ("fast", "slow")


@register_policy("allocation.bandit")
class BanditAllocationPolicy(AllocationPolicy):
    """Contextual epsilon-greedy fast/slow steering for host writes.

    Context buckets follow the placement policy's write-shape verdict
    (small-random vs large/sequential); per ``(bucket, arm)`` the policy
    keeps a running mean of super-word-line completion latency and exploits
    the lower-latency arm, exploring with probability ``epsilon`` from its
    own seed-derived stream.  Non-host writes keep their placement class
    untouched, so GC relocation behavior is never perturbed.

    Reward attribution: each host decision enqueues its ``(bucket, arm)``;
    when the FTL reports a flushed super word-line, the completion latency
    credits the oldest pending decisions of that stream, one per host page.
    """

    param_names = ("epsilon",)

    def __init__(self, spec: PolicySpec, seed: int = 0) -> None:
        super().__init__(spec, seed)
        self.epsilon = float(spec.get("epsilon", 0.1))
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        self._rng = self.policy_rng()
        self._count: Dict[Tuple[str, str], int] = {}
        self._mean_us: Dict[Tuple[str, str], float] = {}
        self._pending: Dict[str, Deque[Tuple[str, str]]] = {
            arm: deque() for arm in _ARMS
        }
        self.explorations = 0
        self.decisions = 0

    def _exploit(self, bucket: str) -> str:
        # try each arm once before trusting any mean; then lowest mean wins,
        # with the fast arm as the deterministic tiebreak/prior.
        for arm in _ARMS:
            if (bucket, arm) not in self._count:
                return arm
        return min(_ARMS, key=lambda arm: (self._mean_us[(bucket, arm)], arm))

    def place(self, context: AllocationContext) -> AllocationDecision:
        if (
            context.intent.source is not WriteSource.HOST
            or context.base_class is SpeedClass.SLOW
        ):
            return AllocationDecision(context.base_class)
        bucket = "small" if context.prefers_fast else "large"
        self.decisions += 1
        if float(self._rng.random()) < self.epsilon:
            self.explorations += 1
            arm = _ARMS[int(self._rng.integers(len(_ARMS)))]
        else:
            arm = self._exploit(bucket)
        self._pending[arm].append((bucket, arm))
        speed = SpeedClass.FAST if arm == "fast" else SpeedClass.SLOW
        return AllocationDecision(speed)

    def observe_flush(
        self, stream: str, completion_us: float, host_pages: int
    ) -> None:
        queue = self._pending.get("slow" if stream == "slow" else "fast")
        if queue is None:
            return
        for _ in range(min(host_pages, len(queue))):
            key = queue.popleft()
            count = self._count.get(key, 0) + 1
            self._count[key] = count
            mean = self._mean_us.get(key, 0.0)
            self._mean_us[key] = mean + (completion_us - mean) / count
