"""repro.obs — deterministic observability for the simulator.

The paper's whole argument hangs on one observable (the extra latency the
slowest member adds to a multi-plane command), so this layer makes every
latency attributable and every distribution visible:

* :class:`Tracer` / :data:`NULL_TRACER` — sim-time spans, instant
  attribution events and counters; disabled by default at zero cost and
  never allowed to perturb RNG draws or event ordering;
* :class:`~repro.obs.histograms.LatencyStat` — fixed-bucket histograms
  with p50/p95/p99/max behind the old mean-only metrics;
* :class:`MetricsRegistry` — central counters, histograms and
  per-resource utilization timelines;
* exporters (:mod:`repro.obs.export`, :mod:`repro.obs.artifacts`) —
  canonical JSONL (byte-identical across same-seed runs) and Chrome
  ``trace_event`` JSON for Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.report` — the ``repro obs report`` rollup, including the
  slowest-member attribution table.

The package exports what a stack records into; the exporters and the
report serve commands and benches, and are imported by module path.

Layering: ``obs`` sits directly above ``utils`` so ``core``/``ftl``/``ssd``
can all hook into it.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
]
