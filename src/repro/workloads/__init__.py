"""Workloads: request model, synthetic generators, trace I/O, replay."""

from repro.workloads.model import OpKind, Request, clamp_requests
from repro.workloads.replay import Replayer
from repro.workloads.synthetic import (
    ArrivalProcess,
    hot_cold_writes,
    mixed_read_write,
    sequential_fill,
    small_large_mix,
    uniform_random_writes,
    zipf_writes,
)
from repro.workloads.trace import (
    TraceFormatError,
    load_trace,
    parse_trace_line,
    save_trace,
)

__all__ = [
    "OpKind",
    "Request",
    "clamp_requests",
    "Replayer",
    "ArrivalProcess",
    "sequential_fill",
    "uniform_random_writes",
    "zipf_writes",
    "mixed_read_write",
    "hot_cold_writes",
    "small_large_mix",
    "TraceFormatError",
    "load_trace",
    "parse_trace_line",
    "save_trace",
]
