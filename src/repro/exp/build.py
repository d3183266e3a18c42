"""``build_stack(SimConfig) -> Stack`` — the one construction path.

The CLI, the sweep tasks, the analysis drivers and the tools build their
chips, pools and devices through :func:`build_stack`, which turns a
:class:`~repro.exp.config.SimConfig` into a :class:`Stack` exposing
every level a caller might need — the probed chips, the assembly-study lane
pools, and the full FTL+SSD device — built lazily so a pools-only cell never
pays for an SSD format.

Determinism contract: everything a :class:`Stack` produces is a pure
function of its config (``repro.utils.rng.derive_seed`` discipline all the
way down), so two builds of the same config — in any process, in any order —
behave identically.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

from repro.assembly.base import LanePool
from repro.assembly.pools import build_lane_pools
from repro.exp.config import BACKENDS, SimConfig
from repro.faults.injector import make_injector
from repro.fleet.engine import FleetSim
from repro.ftl.config import FtlConfig
from repro.ftl.ftl import Ftl
from repro.nand.chip import FlashChip
from repro.nand.geometry import NandGeometry
from repro.nand.variation import VariationModel
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.perf.profiler import profiled
from repro.policy.resolve import resolve_policies
from repro.ssd.device import Ssd
from repro.utils.rng import derive_seed
from repro.workloads.model import Request


def derived_ftl_config(geometry: NandGeometry) -> FtlConfig:
    """FTL sizing derived from the managed block range (the CLI formula).

    Keeps real headroom between logical space and the GC watermarks, or a
    tightly-sized device grinds through GC for every host write.
    """
    usable = max(12, geometry.blocks_per_plane - 8)
    overprovision = max(0.28, min(0.6, 6.0 / usable + 0.15))
    return FtlConfig(
        usable_blocks_per_plane=usable,
        overprovision_ratio=overprovision,
        gc_low_watermark=2,
        gc_high_watermark=4,
    )


class Stack:
    """One simulation stack: chips, lane pools and the SSD, per config.

    ``chips`` is built eagerly (it is cheap and everything needs it); the
    probed :meth:`pools` and the formatted :attr:`ssd` are built on first
    use.  The tracer/registry passed at construction are threaded into the
    FTL/SSD so traced and untraced stacks share one code path.
    """

    def __init__(
        self,
        config: SimConfig,
        tracer: Optional[NullTracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = registry
        model = VariationModel(config.geometry, config.variation, seed=config.seed)
        # make_injector returns the shared null object for a null/absent
        # plan, so fault-free stacks are bit-identical to historical ones.
        self.chips: List[FlashChip] = [
            FlashChip(
                model.chip_profile(chip_id),
                config.geometry,
                injector=make_injector(config.faults, config.seed, chip_id),
            )
            for chip_id in range(config.chips)
        ]
        self._ssd: Optional[Ssd] = None

    def resolved_backend(self) -> str:
        """The effective execution backend for this stack.

        The ``REPRO_BACKEND`` environment variable upgrades the default
        scalar backend (so CI can run an unmodified command matrix on both
        backends); an explicit ``config.backend`` always wins.
        """
        if self.config.backend != "scalar":
            return self.config.backend
        env = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if not env:
            return self.config.backend
        if env not in BACKENDS:
            raise ValueError(f"REPRO_BACKEND must be one of {BACKENDS}, got {env!r}")
        return env

    def pools(self) -> List[LanePool]:
        """Probe the configured block range on every chip (one lane each).

        When ``config.pe_cycles`` is set, every block is first worn to that
        epoch — the Figure 15 re-probe-at-wear setup.
        """
        return build_lane_pools(
            self.chips,
            range(self.config.pool_blocks),
            target_pe=self.config.pe_cycles,
        )

    @property
    def ssd(self) -> Ssd:
        """The formatted device (built and formatted on first access)."""
        if self._ssd is None:
            config = self.config
            ftl_config = config.ftl if config.ftl is not None else derived_ftl_config(
                config.geometry
            )
            # The FTL seed feeds the allocator and repair RNG streams.  It
            # is only passed when fault injection is active: the historical
            # fault-free stack always used the default, and changing that
            # would perturb byte-identical replay outputs.
            ftl_seed = config.seed if config.faults is not None else 0
            # Learned policies draw from "policy"-labeled streams keyed on
            # the config seed; the static defaults draw nothing, so the
            # historical ftl_seed quirk above cannot leak through them.
            policy_seed = ftl_seed if config.policies.is_default else config.seed
            policies = resolve_policies(config.policies, seed=policy_seed)
            # The vector engine only accelerates stacks it can reproduce
            # bit-for-bit; anything fancier (faults, learned policies,
            # steering, parity) builds the scalar reference classes.  The
            # VectorFtl gates its own fast paths too — this check just
            # avoids constructing vector machinery that would immediately
            # fall back.
            use_vector = (
                self.resolved_backend() == "vector"
                and config.faults is None
                and config.policies.is_default
                and not ftl_config.superpage_steering
                and not ftl_config.parity_protection
            )
            if use_vector:
                from repro.kernels.engine import VectorFtl, VectorSsd

                ftl_cls, ssd_cls = VectorFtl, VectorSsd
            else:
                ftl_cls, ssd_cls = Ftl, Ssd
            ftl = ftl_cls(
                self.chips,
                ftl_config,
                allocator_kind=config.allocator,
                seed=ftl_seed,
                tracer=self.tracer,
                registry=self.registry,
                policies=policies,
            )
            ftl.format()
            self._ssd = ssd_cls(ftl, config.timing)
        return self._ssd

    @property
    def ftl(self) -> Ftl:
        return self.ssd.ftl

    def requests(self) -> List[Request]:
        """The configured host workload, sized to this stack's logical space."""
        workload = self.config.workload
        if workload.kind == "trace":
            from repro.workloads.trace import load_trace

            assert workload.trace_path is not None  # validated by the config
            requests = load_trace(workload.trace_path)
        elif (
            workload.requests is not None
            and self.resolved_backend() == "vector"
        ):
            from repro.kernels.workload import (
                fill_request_count,
                sequential_fill_prefix,
            )
            from repro.workloads.synthetic import ArrivalProcess

            logical_pages = self.ftl.logical_pages
            if workload.requests <= fill_request_count(logical_pages):
                # the cap lands inside the sequential fill, so the zipf tail
                # would be truncated away anyway: generate only the prefix
                # (byte-identical — see repro.kernels.workload)
                return sequential_fill_prefix(
                    logical_pages,
                    workload.requests,
                    arrivals=ArrivalProcess(
                        mean_interarrival_us=workload.interarrival_us
                    ),
                    seed=workload.fill_seed,
                )
            requests = synthetic_requests(
                logical_pages,
                interarrival_us=workload.interarrival_us,
                overwrite_fraction=workload.overwrite_fraction,
                fill_seed=workload.fill_seed,
                overwrite_seed=workload.overwrite_seed,
            )
        else:
            requests = synthetic_requests(
                self.ftl.logical_pages,
                interarrival_us=workload.interarrival_us,
                overwrite_fraction=workload.overwrite_fraction,
                fill_seed=workload.fill_seed,
                overwrite_seed=workload.overwrite_seed,
            )
        if workload.requests is not None:
            requests = requests[: workload.requests]
        return requests


def synthetic_requests(
    logical_pages: int,
    *,
    interarrival_us: float = 8000.0,
    overwrite_fraction: float = 0.7,
    fill_seed: int = 1,
    overwrite_seed: int = 2,
) -> List[Request]:
    """The default fill + zipf-overwrite workload of ``replay``/``run``."""
    from repro.workloads.synthetic import ArrivalProcess, sequential_fill, zipf_writes

    arrivals = ArrivalProcess(mean_interarrival_us=interarrival_us)
    requests = sequential_fill(logical_pages, arrivals=arrivals, seed=fill_seed)
    requests += zipf_writes(
        logical_pages,
        int(logical_pages * overwrite_fraction),
        arrivals=arrivals,
        seed=overwrite_seed,
    )
    return requests


@profiled("build.fleet")
def build_fleet(
    config: SimConfig,
    *,
    tracer: Optional[NullTracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> FleetSim:
    """Build the fleet serving layer ``config.fleet`` describes.

    Each member device is a full ``build_stack`` stack of this config with
    its own derived seed (``derive_seed(config.seed, "fleet", "device", i)``,
    so members have independent variation profiles — real fleets are
    heterogeneous) and no fleet layer of its own.  The config's fault plan
    is installed on ``fleet.fault_device`` only; every other member runs
    fault-free.  Member stacks get the null tracer — the byte-identical
    JSONL trace the fleet emits is the *serving-layer* event stream, and
    per-device spans would make it O(device traffic).
    """
    fleet = config.fleet
    if fleet is None:
        raise ValueError("config.fleet is not set")
    devices = []
    for index in range(fleet.devices):
        member = config.with_(
            seed=derive_seed(config.seed, "fleet", "device", index),
            fleet=None,
            faults=config.faults if index == fleet.fault_device else None,
        )
        devices.append(build_stack(member).ssd)
    pages_per_tenant = min(ssd.ftl.logical_pages for ssd in devices) // fleet.tenants
    if pages_per_tenant < 1:
        raise ValueError(
            f"{fleet.tenants} tenants do not fit in "
            f"{min(ssd.ftl.logical_pages for ssd in devices)} logical pages"
        )
    return FleetSim(
        fleet,
        devices,
        seed=config.seed,
        pages_per_tenant=pages_per_tenant,
        tracer=tracer,
        registry=registry,
    )


@profiled("build.stack")
def build_stack(
    config: SimConfig,
    *,
    tracer: Optional[NullTracer] = None,
    registry: Optional[MetricsRegistry] = None,
    verbose: bool = False,
) -> Stack:
    """Build the simulation stack for ``config``.

    ``tracer``/``registry`` are injected into the FTL/SSD when the device
    side of the stack is first touched; ``verbose`` narrates construction on
    stderr (the CLI's historical behavior).
    """
    if verbose:
        print(
            f"probing {config.chips} chips x {config.pool_blocks} blocks ...",
            file=sys.stderr,
        )
    return Stack(config, tracer=tracer, registry=registry)
