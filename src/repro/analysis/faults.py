"""Repair-policy experiment: post-repair extra latency, ``qstr`` vs ``random``.

The paper's assembly result says eigen-similarity (QSTR-MED) picks
superblock members whose program latencies track each other, shrinking
the MP command's extra latency (max − min across lanes).  This driver
extends that result to *repair time*: when an injected program failure
retires a member mid-life, the drafted spare either comes from the same
similarity search (``qstr``) or is an arbitrary free block (``random``).
Every super word-line programmed on an already-repaired superblock then
lands in ``FtlMetrics.post_repair_extra_us`` — the direct measure of how
well the spare blends into the survivors.

:func:`compare_repair_policies` runs one identical faulted workload under
both policies and reports the paired means; on the testbed config the
``qstr`` mean is strictly lower (asserted in the tier-1 suite and plotted
by EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exp.build import build_stack
from repro.exp.config import SimConfig
from repro.faults.plan import FaultPlan
from repro.policy.registry import policy_names
from repro.policy.spec import PolicySpec
from repro.workloads.replay import Replayer


@dataclass(frozen=True)
class RepairPolicyResult:
    """Post-repair behavior of one policy on the shared faulted workload."""

    policy: str
    program_failures: int
    sb_repairs: int
    post_repair_swls: int
    post_repair_extra_mean_us: float
    post_repair_extra_p99_us: float
    repair_copy_mean_us: float
    unlocated_pages: int


@dataclass(frozen=True)
class RepairComparison:
    """The paired ``qstr``-vs-``random`` result (one config, both policies)."""

    config_hash: str
    results: Tuple[RepairPolicyResult, ...]

    def by_policy(self) -> Dict[str, RepairPolicyResult]:
        return {result.policy: result for result in self.results}

    @property
    def qstr_advantage_us(self) -> float:
        """``random`` minus ``qstr`` mean post-repair extra latency (µs).

        Positive means similarity-matched spares blend in better — the
        paper-extending claim this experiment exists to measure.
        """
        by = self.by_policy()
        return (
            by["random"].post_repair_extra_mean_us
            - by["qstr"].post_repair_extra_mean_us
        )


#: faulted device config the comparison runs on by default: large enough
#: for double-digit repairs, small enough for the tier-1 suite.  The
#: overprovisioning is pinned well above the derived default — block
#: retirement eats free blocks, and the experiment needs every lane to
#: survive the full fault schedule under both policies.
def default_fault_config(seed: int = 7, requests: int = 1400) -> SimConfig:
    from repro.ftl.config import FtlConfig

    return SimConfig.device(
        seed=seed,
        chips=4,
        blocks=40,
        requests=requests,
        ftl=FtlConfig(
            usable_blocks_per_plane=32,
            overprovision_ratio=0.45,
            gc_low_watermark=2,
            gc_high_watermark=4,
        ),
        faults=FaultPlan(program_fail_prob=0.004),
    )


def _short_names() -> Tuple[str, ...]:
    """The registered repair policies without their prefix, sorted."""
    return tuple(PolicySpec(name).short_name for name in policy_names("repair"))


def run_repair_policy(config: SimConfig, policy: str) -> RepairPolicyResult:
    """One full faulted replay under ``policy``; read back the fault metrics."""
    names = _short_names()
    if policy not in names:
        raise ValueError(f"policy must be one of {names}")
    stack = build_stack(config.with_path("policies.repair", f"repair.{policy}"))
    requests = stack.requests()
    Replayer(stack.ssd).replay(requests)
    metrics = stack.ftl.metrics
    # Data-loss audit over the LPNs the workload actually wrote (a capped
    # fill never touches the rest of the logical space).
    from repro.workloads.model import OpKind

    written = set()
    for request in requests:
        if request.op is OpKind.WRITE:
            written.update(request.lpns())
    unlocated = sum(
        1 for lpn in written if stack.ftl.mapper.lookup(lpn) is None
    )
    return RepairPolicyResult(
        policy=policy,
        program_failures=metrics.program_failures,
        sb_repairs=metrics.sb_repairs,
        post_repair_swls=metrics.post_repair_extra_us.count,
        post_repair_extra_mean_us=metrics.post_repair_extra_us.mean
        if metrics.post_repair_extra_us.count
        else 0.0,
        post_repair_extra_p99_us=metrics.post_repair_extra_us.quantile(0.99)
        if metrics.post_repair_extra_us.count
        else 0.0,
        repair_copy_mean_us=metrics.repair_copy_us.mean
        if metrics.repair_copy_us.count
        else 0.0,
        unlocated_pages=unlocated,
    )


def compare_repair_policies(config: Optional[SimConfig] = None) -> RepairComparison:
    """Run the identical faulted workload under every repair policy.

    The two runs share one config (hence one injected fault schedule —
    injection draws depend only on the config seed and per-chip op
    counts, not on the repair policy), so the comparison is paired: same
    failures, different spares.
    """
    if config is None:
        config = default_fault_config()
    results = tuple(
        run_repair_policy(config, policy) for policy in _short_names()
    )
    return RepairComparison(config_hash=config.content_hash(), results=results)


def render_repair_comparison(comparison: RepairComparison) -> str:
    """Plain-text table of the paired comparison (EXPERIMENTS.md format)."""
    lines = [
        f"repair-policy comparison (config {comparison.config_hash})",
        f"{'policy':8s} {'repairs':>8s} {'post-repair SWLs':>17s} "
        f"{'extra mean us':>14s} {'extra p99 us':>13s} {'copy mean us':>13s}",
    ]
    for result in comparison.results:
        lines.append(
            f"{result.policy:8s} {result.sb_repairs:8d} "
            f"{result.post_repair_swls:17d} "
            f"{result.post_repair_extra_mean_us:14.2f} "
            f"{result.post_repair_extra_p99_us:13.2f} "
            f"{result.repair_copy_mean_us:13.1f}"
        )
    lines.append(f"qstr advantage: {comparison.qstr_advantage_us:+.2f} us mean extra")
    return "\n".join(lines)
