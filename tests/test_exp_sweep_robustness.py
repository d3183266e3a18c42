"""Sweep harness robustness: timeouts, bounded retries, failure rows."""

import os
import time

import pytest

from repro.exp import SimConfig
from repro.exp.cache import ResultCache
from repro.exp.sweep import Sweep, _retry_backoff_s, run
from repro.exp.tasks import register_task

BASE = SimConfig.testbed(seed=3, chips=2, pool_blocks=10)
#: seconds of work each `test-slow-flaky` attempt does before it decides
WORK_S = 0.1


# Registered at import time so fork-started pool workers inherit them.
@register_task("test-always-fails", modules=("repro.utils",))
def _always_fails(config, params):
    raise ValueError("boom")


@register_task("test-fails-when-told", modules=("repro.utils",))
def _fails_when_told(config, params):
    if params.get("shouldfail"):
        raise RuntimeError("told to fail")
    return {"ok": True}


@register_task("test-flaky", modules=("repro.utils",))
def _flaky(config, params):
    # Cross-process attempt counter: append one line per call.
    with open(params["counter"], "a", encoding="utf-8") as fh:
        fh.write("attempt\n")
    with open(params["counter"], encoding="utf-8") as fh:
        attempts = len(fh.readlines())
    if attempts < int(params["succeed_on"]):
        raise ValueError(f"flaking on attempt {attempts}")
    return {"attempts": attempts}


@register_task("test-sleepy", modules=("repro.utils",))
def _sleepy(config, params):
    time.sleep(float(params["sleep_s"]))
    return {"slept": True}


@register_task("test-slow-flaky", modules=("repro.utils",))
def _slow_flaky(config, params):
    # Works WORK_S, then fails until its own cell's attempt `succeed_on`.
    time.sleep(WORK_S)
    counter = os.path.join(params["counter_dir"], f"cell-{params['variant']}")
    with open(counter, "a", encoding="utf-8") as fh:
        fh.write("attempt\n")
    with open(counter, encoding="utf-8") as fh:
        attempts = len(fh.readlines())
    if attempts < int(params["succeed_on"]):
        raise ValueError(f"worked, then failed on attempt {attempts}")
    return {"attempts": attempts}


@register_task("test-worker-killer", modules=("repro.utils",))
def _worker_killer(config, params):
    if os.getpid() != int(params["main_pid"]):
        os._exit(1)  # hard-kill the pool worker -> BrokenProcessPool
    raise ValueError("refusing to run inline")


@register_task("test-dies-during-retry", modules=("repro.utils",))
def _dies_during_retry(config, params):
    # Cell 0 fails its first attempt at once and sits in its retry backoff
    # (>= 50 ms) while cell 1's pool worker dies after 10 ms.
    if params["variant"] == 0:
        return _flaky(config, {"counter": params["counter"], "succeed_on": 2})
    if os.getpid() != int(params["main_pid"]):
        time.sleep(0.01)
        os._exit(1)
    return {"ok": True}


class TestValidation:
    def test_bad_retries_and_timeout_rejected(self):
        sweep = Sweep("test-always-fails", base=BASE)
        with pytest.raises(ValueError, match="retries"):
            run(sweep, retries=-1)
        with pytest.raises(ValueError, match="cell_timeout"):
            run(sweep, cell_timeout=0.0)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run(Sweep("test-always-fails", base=BASE), workers=0)


class TestFailureRows:
    def assert_failure_row(self, result, error_type, attempts):
        (cell,) = result.cells
        assert cell.failed
        row = cell.result
        assert row["failed"] is True
        assert row["error_type"] == error_type
        assert row["attempts"] == attempts
        assert row["message"]
        assert result.failures == 1

    def test_serial_failure_recorded_not_raised(self):
        result = run(Sweep("test-always-fails", base=BASE), workers=1)
        self.assert_failure_row(result, "ValueError", attempts=1)

    def test_pool_failure_recorded_not_raised(self):
        result = run(Sweep("test-always-fails", base=BASE), workers=2)
        self.assert_failure_row(result, "ValueError", attempts=1)

    def test_retries_exhausted_counts_attempts(self):
        result = run(Sweep("test-always-fails", base=BASE), retries=2)
        self.assert_failure_row(result, "ValueError", attempts=3)

    def test_failed_cells_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = run(Sweep("test-always-fails", base=BASE), cache=cache)
        (cell,) = result.cells
        assert not cache.path(cell.key).exists()

    def test_failure_echo_marks_the_cell(self):
        lines = []
        run(Sweep("test-always-fails", base=BASE), echo=lines.append)
        assert any("FAILED" in line for line in lines)

    def test_mixed_sweep_keeps_going(self):
        sweep = Sweep("test-fails-when-told", base=BASE).over(
            "shouldfail", [0, 1, 0]
        )
        result = run(sweep, workers=2)
        assert [c.failed for c in result.cells] == [False, True, False]
        assert result.cells[0].result == {"ok": True}
        assert result.cells[1].result["error_type"] == "RuntimeError"
        assert result.failures == 1


class TestRetries:
    def test_flaky_cell_recovers_within_budget(self, tmp_path):
        counter = tmp_path / "attempts"
        sweep = Sweep(
            "test-flaky",
            base=BASE,
            params={"counter": str(counter), "succeed_on": 3},
        )
        result = run(sweep, retries=2)
        (cell,) = result.cells
        assert not cell.failed
        assert cell.result == {"attempts": 3}

    def test_flaky_cell_fails_without_budget(self, tmp_path):
        counter = tmp_path / "attempts"
        sweep = Sweep(
            "test-flaky",
            base=BASE,
            params={"counter": str(counter), "succeed_on": 3},
        )
        result = run(sweep, retries=1)
        (cell,) = result.cells
        assert cell.failed
        assert cell.result["attempts"] == 2

    def test_backoff_is_seed_stable_and_bounded(self):
        delays = [_retry_backoff_s(3, cell_index, attempt)
                  for cell_index in range(4) for attempt in range(1, 5)]
        assert delays == [_retry_backoff_s(3, c, a)
                          for c in range(4) for a in range(1, 5)]
        assert all(0.0 < d <= 2.0 for d in delays)
        # later attempts wait at least as long (exponential, capped)
        assert _retry_backoff_s(3, 0, 1) <= _retry_backoff_s(3, 0, 3)


class TestTimeouts:
    def test_serial_timeout_records_failure(self):
        sweep = Sweep("test-sleepy", base=BASE, params={"sleep_s": 30.0})
        start = time.monotonic()
        result = run(sweep, cell_timeout=0.2)
        assert time.monotonic() - start < 10.0
        (cell,) = result.cells
        assert cell.failed
        assert cell.result["error_type"] == "CellTimeoutError"

    def test_pool_timeout_records_failure(self):
        sweep = Sweep("test-sleepy", base=BASE, params={"sleep_s": 30.0})
        start = time.monotonic()
        result = run(sweep, workers=2, cell_timeout=0.2)
        assert time.monotonic() - start < 10.0
        (cell,) = result.cells
        assert cell.failed
        assert cell.result["error_type"] == "CellTimeoutError"

    def test_fast_cell_unaffected_by_timeout(self):
        sweep = Sweep("test-sleepy", base=BASE, params={"sleep_s": 0.0})
        result = run(sweep, cell_timeout=30.0)
        (cell,) = result.cells
        assert not cell.failed
        assert cell.result == {"slept": True}


class TestBrokenPool:
    def test_dead_worker_falls_back_to_serial(self):
        sweep = Sweep("test-worker-killer", base=BASE, params={
            "main_pid": os.getpid(),
        })
        result = run(sweep, workers=2)
        (cell,) = result.cells
        # the pool broke, the serial fallback re-ran the cell inline, and
        # its inline failure was recorded as a structured row
        assert cell.failed
        assert cell.result["error_type"] == "ValueError"

    def test_fallback_is_recorded_in_provenance(self):
        # Two cells force the real pool path (one pending cell short-cuts
        # to serial); the workers hard-exit, the pool breaks, and both
        # cells finish inline — which the manifest must say out loud.
        sweep = Sweep(
            "test-worker-killer", base=BASE, params={"main_pid": os.getpid()}
        ).over("variant", [0, 1])
        result = run(sweep, workers=2)
        assert len(result.cells) == 2
        assert all(cell.fallback for cell in result.cells)
        assert all(
            cell.provenance == "serial-fallback" for cell in result.cells
        )
        rows = result.manifest()["cells"]
        assert all(row["provenance"] == "serial-fallback" for row in rows)
        assert all(row["fallback"] is True for row in rows)

    def test_clean_pool_run_is_not_marked_fallback(self):
        sweep = Sweep(
            "test-fails-when-told", base=BASE
        ).over("shouldfail", [0, 0])
        result = run(sweep, workers=2)
        assert all(not cell.fallback for cell in result.cells)
        assert all(cell.provenance == "computed" for cell in result.cells)
        rows = result.manifest()["cells"]
        assert all("fallback" not in row for row in rows)

    def test_pool_breaking_during_a_retry_falls_back(self, tmp_path):
        # The retry's submit (or its future) meets the broken pool; either
        # way both cells finish in-process instead of `run` raising.
        sweep = Sweep(
            "test-dies-during-retry",
            base=BASE,
            params={"counter": str(tmp_path / "attempts"), "main_pid": os.getpid()},
        ).over("variant", [0, 1])
        result = run(sweep, workers=2, retries=1)
        assert [cell.failed for cell in result.cells] == [False, False]
        assert [cell.provenance for cell in result.cells] == ["serial-fallback"] * 2
        assert result.cells[0].result == {"attempts": 2}
        assert result.cells[1].result == {"ok": True}


class TestBackoffHistory:
    def test_retry_backoffs_recorded_per_cell(self):
        result = run(Sweep("test-always-fails", base=BASE), retries=2)
        (cell,) = result.cells
        assert cell.attempts == 3
        # the recorded schedule is exactly the seed-stable one
        assert cell.backoffs_s == tuple(
            _retry_backoff_s(BASE.seed, 0, attempt) for attempt in (1, 2)
        )
        row = result.manifest()["cells"][0]
        assert row["backoffs_s"] == [round(b, 6) for b in cell.backoffs_s]

    def test_unretried_cells_carry_no_backoff_keys(self):
        result = run(Sweep("test-sleepy", base=BASE, params={"sleep_s": 0.0}))
        (cell,) = result.cells
        assert cell.backoffs_s == ()
        row = result.manifest()["cells"][0]
        assert "backoffs_s" not in row
        assert row["provenance"] == "computed"


class TestManifest:
    def test_failure_keys_present_only_when_failing(self):
        clean = run(Sweep("test-sleepy", base=BASE, params={"sleep_s": 0.0}))
        manifest = clean.manifest()
        assert "failures" not in manifest
        assert all("failed" not in cell for cell in manifest["cells"])

        broken = run(Sweep("test-always-fails", base=BASE))
        manifest = broken.manifest()
        assert manifest["failures"] == 1
        assert manifest["cells"][0]["failed"] is True
        assert manifest["cells"][0]["result"]["error_type"] == "ValueError"


class TestWallTime:
    """``wall_s`` is the in-worker task time summed over attempts.

    Two cells per sweep, so that ``workers=2`` really runs the pool.
    """

    def sweep(self, tmp_path, succeed_on):
        return Sweep(
            "test-slow-flaky",
            base=BASE,
            params={"counter_dir": str(tmp_path), "succeed_on": succeed_on},
        ).over("variant", [0, 1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_attempt_time_is_counted(self, tmp_path, workers):
        result = run(self.sweep(tmp_path, succeed_on=99), workers=workers)
        assert [cell.failed for cell in result.cells] == [True, True]
        assert all(cell.wall_s >= WORK_S for cell in result.cells)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retried_cell_sums_its_attempts(self, tmp_path, workers):
        result = run(self.sweep(tmp_path, succeed_on=2), workers=workers, retries=1)
        assert [cell.failed for cell in result.cells] == [False, False]
        assert all(cell.attempts == 2 for cell in result.cells)
        assert all(cell.wall_s >= 2 * WORK_S for cell in result.cells)
