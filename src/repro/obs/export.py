"""Trace exporters: canonical JSONL and Chrome ``trace_event`` JSON.

The JSONL form is the archival one — one canonically serialized event per
line (sorted keys, fixed separators, no wall-clock fields), so identical
runs produce byte-identical files and a plain ``diff`` is a determinism
check.  The Chrome form loads directly into Perfetto / ``chrome://tracing``:
spans become complete (``X``) events, attribution records instant (``i``)
events, counters ``C`` events, and each ``track`` becomes a named thread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.tracer import TraceEvent
from repro.perf.profiler import profiled

_JSON_SEPARATORS = (",", ":")


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """The JSONL row of one event (plain data, stable field set)."""
    return {
        "ph": event.ph,
        "name": event.name,
        "cat": event.cat,
        "ts_us": event.ts_us,
        "dur_us": event.dur_us,
        "track": event.track,
        "seq": event.seq,
        "args": dict(event.args),
    }


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Canonical JSONL: one sorted-keys JSON object per line."""
    lines = [
        json.dumps(event_to_dict(event), sort_keys=True, separators=_JSON_SEPARATORS)
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@profiled("obs.export")
def write_jsonl(path: Union[str, Path], events: Iterable[TraceEvent]) -> int:
    """Write the JSONL log; returns the number of events written."""
    text = to_jsonl(events)
    Path(path).write_text(text, encoding="utf-8")
    return text.count("\n")


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL event log back into :class:`TraceEvent` rows."""
    events: List[TraceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        events.append(
            TraceEvent(
                ph=row["ph"],
                name=row["name"],
                cat=row["cat"],
                ts_us=float(row["ts_us"]),
                dur_us=float(row["dur_us"]),
                track=row["track"],
                seq=int(row["seq"]),
                args=row.get("args", {}),
            )
        )
    return events


def to_chrome(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """The Chrome ``trace_event`` document for a recorded event list.

    Events are ordered by ``(ts, seq)`` (viewers require non-decreasing
    timestamps per thread) and every distinct ``track`` gets a stable tid
    plus a ``thread_name`` metadata record.
    """
    tracks = sorted({event.track for event in events})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    rows: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        }
        for track in tracks
    ]
    for event in sorted(events, key=lambda e: (e.ts_us, e.seq)):
        row: Dict[str, Any] = {
            "ph": event.ph,
            "name": event.name,
            "cat": event.cat,
            "ts": event.ts_us,
            "pid": 1,
            "tid": tids[event.track],
            "args": dict(event.args),
        }
        if event.ph == "X":
            row["dur"] = event.dur_us
        elif event.ph == "i":
            row["s"] = "t"  # thread-scoped instant
        rows.append(row)
    return {"traceEvents": rows, "displayTimeUnit": "ms"}


@profiled("obs.export")
def write_chrome(path: Union[str, Path], events: Sequence[TraceEvent]) -> int:
    """Write the Chrome trace JSON; returns the number of trace rows."""
    document = to_chrome(events)
    Path(path).write_text(
        json.dumps(document, sort_keys=True, separators=_JSON_SEPARATORS),
        encoding="utf-8",
    )
    return len(document["traceEvents"])
