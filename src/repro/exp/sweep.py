"""Deterministic parallel sweep: grid expansion + cached execution.

A :class:`Sweep` is a task name, a base :class:`SimConfig`, fixed task
params, and an ordered list of axes.  ``sweep.over("seed", range(8))``
style chaining expands (lazily) into the full cross-product of cells;
:func:`run` executes them — serially or on a
:class:`~concurrent.futures.ProcessPoolExecutor` — against the on-disk
result cache.

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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
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
)

from repro.exp.cache import ResultCache, cell_key, code_salt, to_jsonable
from repro.exp.config import SimConfig
from repro.exp.tasks import TASKS, Task
from repro.obs.registry import MetricsRegistry
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
    #: pool-side and serial attempts combined, in attempt order.
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
        ``attempts`` / ``provenance`` are recorded for *every* cell
        (previously only failure rows carried attempt counts); they are
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


@worker_entrypoint
def _execute_cell(payload: Tuple[Any, ...]) -> Dict[str, Any]:
    """Worker entry point: run one cell (top-level, hence picklable).

    The optional fourth payload element is a wall-clock timeout in
    seconds, enforced via ``SIGALRM`` where available (POSIX main thread —
    which is exactly where pool workers run task functions).  Elsewhere
    the timeout degrades to "no timeout" rather than failing the cell.
    """
    task_name, config, params = payload[:3]
    timeout = payload[3] if len(payload) > 3 else None
    task = TASKS[task_name]
    use_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
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
    return jsonable


@worker_entrypoint
def _execute_cell_timed(payload: Tuple[Any, ...]) -> Tuple[float, Dict[str, Any]]:
    """:func:`_execute_cell` plus its wall-clock seconds, measured in-worker.

    Timing inside the worker process means the number is pure task
    execution — pool queueing and result pickling are excluded.  The
    duration is telemetry for the sweep manifest, never part of the
    cached result document.
    """
    watch = Stopwatch()
    result = _execute_cell(payload)
    return (watch.elapsed_s(), result)


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


def run(
    sweep: Sweep,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    registry: Optional[MetricsRegistry] = None,
    echo: Optional[Callable[[str], None]] = None,
    cell_timeout: Optional[float] = None,
    retries: int = 0,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> SweepResult:
    """Execute every cell of ``sweep`` and return results in grid order.

    ``cache`` (optional) serves unchanged cells from disk and persists
    fresh ones; ``force`` recomputes even on hit.  ``workers > 1`` fans the
    missing cells out over a process pool — results are bit-identical to a
    serial run because cells share nothing.  Progress lands in ``registry``
    counters (``sweep.cells`` / ``sweep.cache_hits`` / ``sweep.cache_misses``
    / ``sweep.cells_done``) and, line by line, in ``echo``.

    Robustness: ``cell_timeout`` bounds each cell's wall-clock seconds,
    and a raising (or timed-out) cell is retried up to ``retries`` times
    with seed-stable exponential backoff.  A cell that exhausts its
    attempts records a structured failure row (never cached, flagged in
    the manifest) instead of killing the sweep, and a broken process
    pool downgrades the remaining cells to serial execution.

    Telemetry: each returned cell carries its host wall-clock cost
    (cache-lookup time for hits, in-worker execution time for computed
    cells) and attempt count, and ``progress`` (if given) receives a
    :class:`SweepProgress` snapshot — done/cached/failed counts, elapsed
    seconds and an ETA — after every completed cell.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError("cell_timeout must be positive")
    task: Task = TASKS[sweep.task]
    salt = code_salt(task.modules)
    cells = sweep.cells()
    sweep_watch = Stopwatch()
    if registry is not None:
        registry.counter("sweep.cells").inc(len(cells))
    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[Tuple[Cell, str]] = []

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
        eta: Optional[float]
        if remaining == 0:
            eta = 0.0
        elif computed > 0:
            # Cache hits are ~free, so rate the remaining (all-computed)
            # cells on the computed throughput observed so far.
            eta = elapsed / computed * remaining
        else:
            eta = None
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

    for cell in cells:
        key = cell_key(sweep.task, cell.config, cell.params, salt)
        lookup = Stopwatch()
        hit = cache.get(key) if (cache is not None and not force) else None
        if hit is not None:
            results[cell.index] = CellResult(
                cell=cell,
                result=hit,
                cached=True,
                key=key,
                wall_s=lookup.elapsed_s(),
            )
            if registry is not None:
                registry.counter("sweep.cache_hits").inc()
                registry.counter("sweep.cells_done").inc()
            if echo is not None:
                echo(f"cell {cell.index + 1}/{len(cells)} [{cell.label()}] cached")
            emit_progress()
        else:
            pending.append((cell, key))
            if registry is not None:
                registry.counter("sweep.cache_misses").inc()

    def finish(
        cell: Cell,
        key: str,
        result: Dict[str, Any],
        *,
        failed: bool = False,
        wall_s: float = 0.0,
        attempts: int = 1,
        fallback: bool = False,
        backoffs: Tuple[float, ...] = (),
    ) -> None:
        # Failure rows are never persisted: a later run with the bug (or
        # flake) gone must recompute the cell, not replay the failure.
        if cache is not None and not failed:
            cache.put(
                key,
                {
                    "task": sweep.task,
                    "salt": salt,
                    "config": cell.config.to_dict(),
                    "params": cell.params,
                    "result": result,
                },
            )
        results[cell.index] = CellResult(
            cell=cell,
            result=result,
            cached=False,
            key=key,
            failed=failed,
            wall_s=wall_s,
            attempts=attempts,
            fallback=fallback,
            backoffs_s=backoffs,
        )
        if registry is not None:
            registry.counter("sweep.cells_done").inc()
            if failed:
                registry.counter("sweep.cell_failures").inc()
        if echo is not None:
            state = "FAILED" if failed else "done"
            echo(f"cell {cell.index + 1}/{len(cells)} [{cell.label()}] {state}")
        emit_progress()

    def payload_for(cell: Cell) -> Tuple[Any, ...]:
        return (sweep.task, cell.config, cell.params, cell_timeout)

    # Pool-side retry history, keyed by cell index: how many attempts each
    # pending cell has made and the backoff slept before each retry.  The
    # serial-fallback path continues these counts, so a cell that failed
    # twice in the pool and once more in-process reports attempts=3 with
    # its full backoff schedule.
    pool_attempts: Dict[int, int] = {}
    pool_backoffs: Dict[int, List[float]] = {}

    def run_serially(cell: Cell, key: str, *, fallback: bool = False) -> None:
        attempts = pool_attempts.get(cell.index, 1) - 1 if fallback else 0
        backoffs = list(pool_backoffs.get(cell.index, [])) if fallback else []
        spent_s = 0.0
        while True:
            attempts += 1
            attempt_watch = Stopwatch()
            try:
                with perf_scope("sweep.cell"):
                    result = _execute_cell(payload_for(cell))
            except Exception as error:  # noqa: BLE001 — converted to a row
                spent_s += attempt_watch.elapsed_s()
                if attempts <= retries:
                    if echo is not None:
                        echo(
                            f"cell {cell.index + 1}/{len(cells)} "
                            f"[{cell.label()}] {type(error).__name__}; "
                            f"retry {attempts}/{retries}"
                        )
                    delay = _retry_backoff_s(sweep.base.seed, cell.index, attempts)
                    backoffs.append(delay)
                    time.sleep(delay)
                    continue
                finish(
                    cell,
                    key,
                    _failure_row(error, attempts),
                    failed=True,
                    wall_s=spent_s,
                    attempts=attempts,
                    fallback=fallback,
                    backoffs=tuple(backoffs),
                )
                return
            spent_s += attempt_watch.elapsed_s()
            finish(
                cell,
                key,
                result,
                wall_s=spent_s,
                attempts=attempts,
                fallback=fallback,
                backoffs=tuple(backoffs),
            )
            return

    serial_cells: List[Tuple[Cell, str]] = []
    pool_broke = False
    if pending:
        if workers <= 1 or len(pending) == 1:
            serial_cells = list(pending)
        else:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending))
                ) as pool:
                    futures = {
                        pool.submit(_execute_cell_timed, payload_for(cell)): (cell, key)
                        for cell, key in pending
                    }
                    pool_attempts.update({cell.index: 1 for cell, _ in pending})
                    remaining = set(futures)
                    while remaining:
                        done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                        for future in done:
                            cell, key = futures.pop(future)
                            try:
                                cell_wall_s, result = future.result()
                            except BrokenProcessPool:
                                raise
                            except Exception as error:  # noqa: BLE001
                                made = pool_attempts[cell.index]
                                if made <= retries:
                                    pool_attempts[cell.index] = made + 1
                                    if echo is not None:
                                        echo(
                                            f"cell {cell.index + 1}/{len(cells)} "
                                            f"[{cell.label()}] "
                                            f"{type(error).__name__}; "
                                            f"retry {made}/{retries}"
                                        )
                                    delay = _retry_backoff_s(
                                        sweep.base.seed, cell.index, made
                                    )
                                    pool_backoffs.setdefault(
                                        cell.index, []
                                    ).append(delay)
                                    time.sleep(delay)
                                    retry = pool.submit(
                                        _execute_cell_timed, payload_for(cell)
                                    )
                                    futures[retry] = (cell, key)
                                    remaining.add(retry)
                                else:
                                    finish(
                                        cell,
                                        key,
                                        _failure_row(error, made),
                                        failed=True,
                                        attempts=made,
                                        backoffs=tuple(
                                            pool_backoffs.get(cell.index, [])
                                        ),
                                    )
                            else:
                                finish(
                                    cell,
                                    key,
                                    result,
                                    wall_s=cell_wall_s,
                                    attempts=pool_attempts[cell.index],
                                    backoffs=tuple(
                                        pool_backoffs.get(cell.index, [])
                                    ),
                                )
            except BrokenProcessPool:
                # A worker died hard (OOM-kill, segfault in a native lib).
                # Cells are pure functions of their payloads, so the safe
                # degradation is to finish the unfinished ones in-process —
                # marked ``serial-fallback`` in the manifest, continuing
                # each cell's pool-side attempt/backoff history.
                pool_broke = True
                serial_cells = [
                    item for item in pending if results[item[0].index] is None
                ]
                if echo is not None:
                    echo(
                        f"process pool broke; running {len(serial_cells)} "
                        "remaining cell(s) serially"
                    )
    for cell, key in serial_cells:
        run_serially(cell, key, fallback=pool_broke)
    complete = [item for item in results if item is not None]
    assert len(complete) == len(cells)
    return SweepResult(
        task=sweep.task,
        salt=salt,
        cells=complete,
        wall_s=sweep_watch.elapsed_s(),
    )
