"""Deterministic parallel sweep: grid expansion + cached execution.

A :class:`Sweep` is a task name, a base :class:`SimConfig`, fixed task
params, and an ordered list of axes.  ``sweep.over("seed", range(8))``
style chaining expands (lazily) into the full cross-product of cells;
:func:`run` executes them — in-process or on a
:class:`~concurrent.futures.ProcessPoolExecutor`, through one settle loop —
against the on-disk result cache.

Determinism contract:

* every cell is a pure function of its ``(config, params)``; the runner
  never shares state between cells, so ``workers=1`` and ``workers=N``
  produce bit-identical per-cell results in the same cell order;
* a ``"seed"`` axis value ``v`` maps to the *derived* root seed
  ``derive_seed(base.seed, "seed", v)`` — replicate streams are stable
  whatever the worker count or completion order (use
  ``base.with_(seed=...)`` for a literal seed);
* any other axis naming a (dotted) :class:`SimConfig` field overrides that
  field; remaining axes become per-cell task params (e.g. ``"methods"``).
"""

from __future__ import annotations

import itertools
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp.cache import ResultCache, cell_key, code_salt, to_jsonable
from repro.exp.config import SimConfig
from repro.exp.tasks import TASKS, Task
from repro.perf.profiler import Stopwatch, perf_scope
from repro.utils.rng import derive_seed

AxisValue = Any
Coordinate = Tuple[str, AxisValue]


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: an axis name and its ordered values."""

    name: str
    values: Tuple[AxisValue, ...]


@dataclass(frozen=True)
class Cell:
    """One fully resolved grid point."""

    index: int
    coords: Tuple[Coordinate, ...]
    config: SimConfig
    params: Dict[str, Any]

    @property
    def config_hash(self) -> str:
        return self.config.content_hash()

    def label(self) -> str:
        """Human-readable coordinates, e.g. ``seed=3 pe_cycles=1000``."""
        if not self.coords:
            return "(base)"
        return " ".join(f"{name}={value}" for name, value in self.coords)


class Sweep:
    """An immutable sweep description; ``over`` chains return new sweeps."""

    def __init__(
        self,
        task: str,
        base: Optional[SimConfig] = None,
        params: Optional[Mapping[str, Any]] = None,
        axes: Sequence[Axis] = (),
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r} (known: {sorted(TASKS)})")
        self.task = task
        self.base = base if base is not None else SimConfig()
        self.params: Dict[str, Any] = dict(params or {})
        self.axes: Tuple[Axis, ...] = tuple(axes)

    def over(self, name: str, values: Iterable[AxisValue]) -> "Sweep":
        """A new sweep with one more axis (earlier axes vary slowest)."""
        if any(axis.name == name for axis in self.axes):
            raise ValueError(f"axis {name!r} already swept")
        sequence = tuple(values)
        if not sequence:
            raise ValueError(f"axis {name!r} has no values")
        return Sweep(
            self.task, self.base, self.params, (*self.axes, Axis(name, sequence))
        )

    def __len__(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def _resolve(self, config: SimConfig, name: str, value: AxisValue) -> SimConfig:
        if name == "seed":
            return config.with_(seed=derive_seed(self.base.seed, "seed", value))
        if self.base.has_path(name):
            return config.with_path(name, value)
        raise KeyError(name)

    def cells(self) -> List[Cell]:
        """Expand the axis cross-product into ordered, resolved cells."""
        expanded: List[Cell] = []
        names = [axis.name for axis in self.axes]
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            config = self.base
            params = dict(self.params)
            for name, value in zip(names, combo):
                try:
                    config = self._resolve(config, name, value)
                except KeyError:
                    params[name] = value
            expanded.append(
                Cell(
                    index=index,
                    coords=tuple(zip(names, combo)),
                    config=config,
                    params=params,
                )
            )
        return expanded


@dataclass
class CellResult:
    """One executed (or cache-served) cell.

    ``failed`` marks a structured failure row (the cell's task raised or
    timed out on every attempt); its ``result`` then carries the error
    shape from :func:`_failure_row` instead of task output.

    ``wall_s`` is host wall-clock telemetry (cache-lookup time for hits,
    task execution time summed over attempts for computed cells) measured
    through the sanctioned ``repro.perf`` fence; it describes the *run*,
    never the simulated device, and is excluded from cache keys and CI
    result comparisons.
    """

    cell: Cell
    result: Dict[str, Any]
    cached: bool
    key: str
    failed: bool = False
    wall_s: float = 0.0
    attempts: int = 1
    #: the cell ran in-process because the worker pool broke mid-sweep.
    fallback: bool = False
    #: seconds slept before each retry of this cell (seed-stable schedule),
    #: in attempt order, on whichever executor ran it.
    backoffs_s: Tuple[float, ...] = ()

    @property
    def provenance(self) -> str:
        """Where the result came from.

        ``"cache"``, ``"computed"``, or ``"serial-fallback"`` — the last
        meaning computed in-process after a :class:`BrokenProcessPool`
        downgraded the rest of the sweep to serial execution.  Results are
        bit-identical either way (cells are pure functions of their
        payloads), but a fallback run must be distinguishable in the
        manifest or pool crashes hide in plain sight.
        """
        if self.cached:
            return "cache"
        return "serial-fallback" if self.fallback else "computed"


@dataclass(frozen=True)
class SweepProgress:
    """One progress snapshot handed to ``run(..., progress=...)`` callbacks."""

    total: int
    done: int
    cached: int
    failed: int
    elapsed_s: float
    #: estimated seconds to completion, or ``None`` until one computed
    #: cell has finished (cache hits are ~free and would skew the rate).
    eta_s: Optional[float]


@dataclass
class SweepResult:
    """All cell results of one sweep run, in grid order."""

    task: str
    salt: str
    cells: List[CellResult]
    #: total host wall-clock of the run (telemetry; see CellResult.wall_s).
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for cell in self.cells if not cell.cached)

    @property
    def failures(self) -> int:
        return sum(1 for cell in self.cells if cell.failed)

    def column(self, path: str) -> List[Any]:
        """Per-cell values at a dotted path into the result documents."""
        return [dig(cell.result, path) for cell in self.cells]

    def manifest(self) -> Dict[str, Any]:
        """The JSON manifest the CLI writes (and CI uploads).

        The ``failures`` count (and per-cell ``failed`` markers) appear
        only when a cell actually failed, so clean-run manifests keep
        their historical key set plus the timing telemetry.  ``wall_s`` /
        ``attempts`` / ``provenance`` are recorded for *every* cell; they are
        host-side telemetry, so manifest consumers comparing results must
        compare the ``result`` values, never whole rows.  A ``fallback``
        marker and the per-cell ``backoffs_s`` retry schedule likewise
        appear only on cells that ran after a pool break or were actually
        retried.
        """
        doc: Dict[str, Any] = {
            "task": self.task,
            "salt": self.salt,
            "cell_count": len(self.cells),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_s": round(self.wall_s, 6),
        }
        if self.failures:
            doc["failures"] = self.failures
        doc["cells"] = [
                {
                    "index": item.cell.index,
                    "coords": [[name, value] for name, value in item.cell.coords],
                    "config_hash": item.cell.config_hash,
                    "key": item.key,
                    "cached": item.cached,
                    "provenance": item.provenance,
                    "wall_s": round(item.wall_s, 6),
                    "attempts": item.attempts,
                    **({"fallback": True} if item.fallback else {}),
                    **(
                        {"backoffs_s": [round(b, 6) for b in item.backoffs_s]}
                        if item.backoffs_s
                        else {}
                    ),
                    **({"failed": True} if item.failed else {}),
                    "result": item.result,
                }
                for item in self.cells
            ]
        return doc


def dig(doc: Mapping[str, Any], path: str) -> Any:
    """Fetch a dotted path out of a nested result document."""
    node: Any = doc
    for part in path.split("."):
        node = node[part]
    return node


class CellTimeoutError(Exception):
    """A cell exceeded its per-cell wall-clock budget."""


_WORKER_ENTRYPOINT_ATTR = "__reprolint_worker_entrypoint__"


def worker_entrypoint(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark ``fn`` as a process-pool / sweep-cell entry point.

    Purely a marker: the function is returned unchanged, with an attribute
    the linter's whole-program rules (``repro lint``) key on to seed their
    worker-cone analysis — everything reachable from a marked function must
    be free of module-level mutable writes, lazy singletons, and live RNG
    objects crossing the boundary (PROC001-003, RNG011).  Any function
    handed to a ``ProcessPoolExecutor`` should carry this marker
    (``@register_task`` functions are picked up automatically).
    """
    setattr(fn, _WORKER_ENTRYPOINT_ATTR, True)
    return fn


#: One attempt at a cell: its in-worker seconds and the task's result
#: document, or the exception the task raised.
_Outcome = Tuple[float, Union[Dict[str, Any], Exception]]


@worker_entrypoint
def _execute_cell(payload: Tuple[Any, ...]) -> _Outcome:
    """Worker entry point: run and time one cell (top-level, hence picklable).

    The time is measured in the worker, so it is pure task execution — pool
    queueing and result pickling are excluded.  A task that raises (or
    overruns its budget) has its exception returned, not raised, so the
    attempt's time reaches ``CellResult.wall_s`` on either executor; a dead
    worker still surfaces as ``BrokenProcessPool`` from the future.

    The fourth payload element is a wall-clock timeout in seconds (or
    ``None``), enforced via ``SIGALRM`` where available (POSIX main thread —
    which is where pool workers and the in-process executor run cells).
    Elsewhere the timeout degrades to "no timeout" rather than failing the
    cell.
    """
    task_name, config, params, timeout = payload
    task = TASKS[task_name]
    use_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    watch = Stopwatch()
    try:
        if use_alarm:
            def _on_alarm(signum: int, frame: Any) -> None:
                raise CellTimeoutError(f"cell exceeded {float(timeout):.1f}s budget")

            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, float(timeout))
            try:
                result = task.fn(config, params)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        else:
            result = task.fn(config, params)
        jsonable: Dict[str, Any] = to_jsonable(result)
    except Exception as error:  # noqa: BLE001 — the runner retries or records it
        return watch.elapsed_s(), error
    return watch.elapsed_s(), jsonable


class _InlineExecutor:
    """The in-process executor: ``submit`` runs the cell and returns it settled."""

    def submit(
        self, fn: Callable[[Tuple[Any, ...]], _Outcome], payload: Tuple[Any, ...]
    ) -> "Future[_Outcome]":
        future: "Future[_Outcome]" = Future()
        with perf_scope("sweep.cell"):
            future.set_result(fn(payload))
        return future

    def shutdown(self) -> None:
        pass


@dataclass
class _Pending:
    """A cache-missed cell and its attempt history until it settles."""

    cell: Cell
    key: str
    attempts: int = 0
    wall_s: float = 0.0
    backoffs: List[float] = field(default_factory=list)
    fallback: bool = False


def _failure_row(error: BaseException, attempts: int) -> Dict[str, Any]:
    """The structured result recorded for a cell that exhausted retries."""
    return {
        "failed": True,
        "error_type": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
    }


def _retry_backoff_s(base_seed: int, cell_index: int, attempt: int) -> float:
    """Seed-stable backoff before retry ``attempt`` of one cell.

    Exponential in the attempt number with a deterministic per-cell
    jitter drawn from the ``derive_seed`` stream — every rerun of the
    same sweep waits the same amount, so retry schedules never introduce
    machine-local nondeterminism into logs or traces.
    """
    jitter = derive_seed(base_seed, "sweep", "retry", cell_index, attempt) % 1000
    return min(2.0, 0.05 * (2 ** (attempt - 1)) * (1.0 + jitter / 1000.0))


def check_run_options(workers: int, retries: int, cell_timeout: Optional[float]) -> None:
    """Raise ``ValueError`` unless :func:`run` accepts these options."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError("cell_timeout must be positive")


def run(
    sweep: Sweep,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    echo: Optional[Callable[[str], None]] = None,
    cell_timeout: Optional[float] = None,
    retries: int = 0,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> SweepResult:
    """Execute every cell of ``sweep`` and return results in grid order.

    ``cache`` (optional) serves unchanged cells from disk and persists
    fresh ones; ``force`` recomputes even on hit.  ``workers > 1`` fans the
    missing cells out over a process pool — results are bit-identical to a
    serial run because cells share nothing.  Otherwise they run in-process,
    one at a time in grid order.  Progress lands, line by line, in ``echo``.

    Robustness: ``cell_timeout`` bounds each cell's wall-clock seconds,
    and a raising (or timed-out) cell is retried up to ``retries`` times
    with seed-stable exponential backoff.  A cell that exhausts its
    attempts records a structured failure row (never cached, flagged in
    the manifest) instead of killing the sweep, and a broken process
    pool downgrades the remaining cells to in-process execution.  Both
    executors settle an attempt on the same path.

    Telemetry: each returned cell carries its host wall-clock cost
    (cache-lookup time for hits, in-worker execution time summed over
    attempts for computed cells) and attempt count, and ``progress`` (if
    given) receives a :class:`SweepProgress` snapshot — done/cached/failed
    counts, elapsed seconds and an ETA — after every completed cell.
    """
    check_run_options(workers, retries, cell_timeout)
    task: Task = TASKS[sweep.task]
    salt = code_salt(task.modules)
    cells = sweep.cells()
    sweep_watch = Stopwatch()
    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[_Pending] = []

    def emit_progress() -> None:
        if progress is None:
            return
        complete_now = [item for item in results if item is not None]
        done = len(complete_now)
        cached_n = sum(1 for item in complete_now if item.cached)
        failed_n = sum(1 for item in complete_now if item.failed)
        computed = done - cached_n
        remaining = len(cells) - done
        elapsed = sweep_watch.elapsed_s()
        eta: Optional[float] = 0.0 if remaining == 0 else None
        if computed > 0:
            # Cache hits are ~free, so rate the remaining (all-computed)
            # cells on the computed throughput observed so far.
            eta = elapsed / computed * remaining
        progress(
            SweepProgress(
                total=len(cells),
                done=done,
                cached=cached_n,
                failed=failed_n,
                elapsed_s=elapsed,
                eta_s=eta,
            )
        )

    def record(item: CellResult, state: str) -> None:
        results[item.cell.index] = item
        if echo is not None:
            echo(f"cell {item.cell.index + 1}/{len(cells)} [{item.cell.label()}] {state}")
        emit_progress()

    for cell in cells:
        key = cell_key(sweep.task, cell.config, cell.params, salt)
        lookup = Stopwatch()
        hit = cache.get(key) if (cache is not None and not force) else None
        if hit is None:
            pending.append(_Pending(cell, key))
        else:
            record(
                CellResult(
                    cell=cell, result=hit, cached=True, key=key, wall_s=lookup.elapsed_s()
                ),
                "cached",
            )

    def finish(entry: _Pending, outcome: Union[Dict[str, Any], Exception]) -> None:
        cell = entry.cell
        if isinstance(outcome, Exception):
            result, failed = _failure_row(outcome, entry.attempts), True
        else:
            result, failed = outcome, False
        # Failure rows are never persisted: a later run with the bug (or
        # flake) gone must recompute the cell, not replay the failure.
        if cache is not None and not failed:
            cache.put(
                entry.key,
                {
                    "task": sweep.task,
                    "salt": salt,
                    "config": cell.config.to_dict(),
                    "params": cell.params,
                    "result": result,
                },
            )
        record(
            CellResult(
                cell=cell,
                result=result,
                cached=False,
                key=entry.key,
                failed=failed,
                wall_s=entry.wall_s,
                attempts=entry.attempts,
                fallback=entry.fallback,
                backoffs_s=tuple(entry.backoffs),
            ),
            "FAILED" if failed else "done",
        )

    executor: Union[ProcessPoolExecutor, _InlineExecutor]
    if workers > 1 and len(pending) > 1:
        executor = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
    else:
        executor = _InlineExecutor()
    queue = deque(pending)
    in_flight: Dict["Future[_Outcome]", _Pending] = {}

    def fall_back(entry: _Pending) -> None:
        # A worker died hard (OOM-kill, segfault in a native lib), seen by a
        # future or by the submit of a retry queued after the break.  Cells
        # are pure functions of their payloads, so the unfinished ones rerun
        # in-process, marked ``serial-fallback``, keeping their history.
        nonlocal executor, queue
        executor.shutdown()
        executor = _InlineExecutor()
        lost = [entry, *in_flight.values()]
        in_flight.clear()
        queue = deque(sorted([*queue, *lost], key=lambda item: item.cell.index))
        for item in queue:
            item.fallback = True
        if echo is not None:
            echo(f"process pool broke; running {len(queue)} remaining cell(s) serially")

    try:
        while queue or in_flight:
            # The pool takes every queued cell at once; the in-process
            # executor settles a cell on submit, so it holds one at a time.
            while queue and (isinstance(executor, ProcessPoolExecutor) or not in_flight):
                entry = queue.popleft()
                payload = (sweep.task, entry.cell.config, entry.cell.params, cell_timeout)
                try:
                    in_flight[executor.submit(_execute_cell, payload)] = entry
                except BrokenProcessPool:
                    fall_back(entry)
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                entry = in_flight.pop(future)
                try:
                    wall_s, outcome = future.result()
                except BrokenProcessPool:
                    fall_back(entry)
                    break
                except Exception as error:  # noqa: BLE001 — failed to pickle
                    wall_s, outcome = 0.0, error
                # Only a settled attempt counts; one lost to a pool break does not.
                entry.attempts += 1
                entry.wall_s += wall_s
                if isinstance(outcome, Exception) and entry.attempts <= retries:
                    if echo is not None:
                        echo(
                            f"cell {entry.cell.index + 1}/{len(cells)} "
                            f"[{entry.cell.label()}] {type(outcome).__name__}; "
                            f"retry {entry.attempts}/{retries}"
                        )
                    delay = _retry_backoff_s(
                        sweep.base.seed, entry.cell.index, entry.attempts
                    )
                    entry.backoffs.append(delay)
                    time.sleep(delay)
                    queue.appendleft(entry)
                else:
                    finish(entry, outcome)
    finally:
        executor.shutdown()
    complete = [item for item in results if item is not None]
    assert len(complete) == len(cells)
    return SweepResult(
        task=sweep.task,
        salt=salt,
        cells=complete,
        wall_s=sweep_watch.elapsed_s(),
    )
