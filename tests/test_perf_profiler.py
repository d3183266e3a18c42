"""repro.perf profiler: attribution tree, activation fence, neutrality.

The load-bearing test here is :class:`TestDeterminismNeutrality` — the
DET001/OBS001 carve-out that lets ``repro.perf`` read the host clock is
conditional on profiling never perturbing simulation results, so the
same seed must produce byte-identical traces with a profiler active.
"""

import json

from repro.exp import SimConfig, build_stack
from repro.obs import Tracer
from repro.obs.export import write_jsonl
from repro.perf import (
    LAYER_ALIASES,
    HotFunction,
    Profiler,
    Stopwatch,
    activate,
    active_profiler,
    layer_shares,
    perf_count,
    perf_scope,
    profile_callable,
    profile_to_dict,
    profiled,
    render_hotspots,
    render_profile,
    scope_layer,
)
from repro.perf.profiler import NULL_SCOPE
from repro.workloads import Replayer


class TestProfilerTree:
    def test_nested_scopes_build_hierarchy(self):
        profiler = Profiler()
        with profiler.scope("ftl.write"):
            with profiler.scope("nand.program"):
                pass
            with profiler.scope("nand.program"):
                pass
        write = profiler.root.children["ftl.write"]
        assert write.calls == 1
        program = write.children["nand.program"]
        assert program.calls == 2
        assert write.total_s >= program.total_s >= 0.0

    def test_self_time_excludes_children(self):
        profiler = Profiler()
        with profiler.scope("outer"):
            with profiler.scope("inner"):
                pass
        outer = profiler.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.self_s == max(0.0, outer.total_s - inner.total_s)

    def test_count_bumps_calls_without_timing(self):
        profiler = Profiler()
        profiler.count("ftl.map", 5)
        node = profiler.root.children["ftl.map"]
        assert node.calls == 5
        assert node.total_s == 0.0

    def test_total_is_sum_of_top_level_children(self):
        profiler = Profiler()
        with profiler.scope("a"):
            pass
        with profiler.scope("b"):
            with profiler.scope("b.child"):
                pass
        children = profiler.root.children
        assert profiler.total_s == children["a"].total_s + children["b"].total_s


class TestActivation:
    def test_disabled_by_default(self):
        assert active_profiler() is None
        assert perf_scope("anything") is NULL_SCOPE
        perf_count("anything")  # no-op, must not raise

    def test_activate_scopes_and_restores(self):
        outer, inner = Profiler(), Profiler()
        with activate(outer):
            assert active_profiler() is outer
            with activate(inner):
                assert active_profiler() is inner
            assert active_profiler() is outer
        assert active_profiler() is None

    def test_perf_scope_records_into_active(self):
        profiler = Profiler()
        with activate(profiler):
            with perf_scope("nand.read"):
                pass
        assert profiler.root.children["nand.read"].calls == 1

    def test_profiled_decorator_only_records_when_active(self):
        @profiled("layer.phase")
        def work(x):
            """docstring survives."""
            return x + 1

        assert work(1) == 2  # disabled: plain call
        profiler = Profiler()
        with activate(profiler):
            assert work(2) == 3
        assert profiler.root.children["layer.phase"].calls == 1
        assert work.__name__ == "work"
        assert "docstring" in work.__doc__

    def test_exception_still_pops_scope(self):
        profiler = Profiler()
        with activate(profiler):
            try:
                with perf_scope("boom"):
                    raise RuntimeError("x")
            except RuntimeError:
                pass
            with perf_scope("after"):
                pass
        # "after" is a sibling of "boom", not nested under it
        assert set(profiler.root.children) == {"boom", "after"}


class TestStopwatch:
    def test_elapsed_is_monotone_nonnegative(self):
        watch = Stopwatch()
        first = watch.elapsed_s()
        second = watch.elapsed_s()
        assert 0.0 <= first <= second

    def test_restart_resets_interval(self):
        watch = Stopwatch()
        watch.elapsed_s()
        watch.restart()
        assert watch.elapsed_s() < 10.0


class TestReport:
    def test_scope_layer_uses_aliases(self):
        assert scope_layer("nand.program") == "nand"
        assert scope_layer("sweep.cell") == LAYER_ALIASES["sweep"]
        assert scope_layer("replay.requests") == "workloads"
        assert scope_layer("plain") == "plain"

    def test_layer_shares_normalized(self):
        profiler = Profiler()
        with profiler.scope("ftl.write"):
            with profiler.scope("nand.program"):
                pass
        shares = layer_shares(profiler)
        assert set(shares) <= {"ftl", "nand"}
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_profile_dict_json_round_trips(self):
        profiler = Profiler()
        with profiler.scope("a"):
            with profiler.scope("b"):
                pass
        doc = json.loads(json.dumps(profile_to_dict(profiler)))
        root = doc["run"]
        a = root["children"]["a"]
        assert a["calls"] == 1
        assert list(a["children"]) == ["b"]
        assert a["self_s"] >= 0.0

    def test_render_profile_lists_scopes_and_shares(self):
        profiler = Profiler()
        with profiler.scope("ftl.write"):
            pass
        text = render_profile(profiler)
        assert "ftl.write" in text
        assert "per-layer wall-time shares" in text


class TestHotspots:
    def test_profile_callable_ranks_by_cumulative_time(self):
        def workload():
            return sum(i * i for i in range(2000))

        result, rows = profile_callable(workload, top=5)
        assert result == sum(i * i for i in range(2000))
        assert 0 < len(rows) <= 5
        assert all(row.cumulative_s >= 0.0 for row in rows)
        cumulative = [row.cumulative_s for row in rows]
        assert cumulative == sorted(cumulative, reverse=True)
        table = render_hotspots(rows)
        assert len(table.splitlines()) == len(rows) + 2

    def test_render_hotspots_prints_calls_own_and_cumulative(self):
        rows = [
            HotFunction("/x/src/repro/ftl/ftl.py", 120, "write", 12345, 0.5, 1.25),
            HotFunction("/x/src/repro/nand/chip.py", 7, "program", 3, 0.0, 0.0625),
        ]
        header, rule, first, second = render_hotspots(rows).splitlines()
        assert header.split() == ["function", "calls", "own", "cum"]
        assert set(rule) == {"-"} and len(rule) == len(header)
        assert first.split() == ["ftl.py:120:write", "12,345", "0.5000s", "1.2500s"]
        assert second.split() == ["chip.py:7:program", "3", "0.0000s", "0.0625s"]


class TestDeterminismNeutrality:
    """Profiling must never change simulation results — the fence contract."""

    CONFIG = SimConfig.device(seed=11, chips=2, blocks=16, requests=200)

    def _traced_replay(self, path, profiler=None):
        tracer = Tracer()
        stack = build_stack(self.CONFIG, tracer=tracer)
        requests = stack.requests()
        if profiler is None:
            Replayer(stack.ssd).replay(requests)
        else:
            with activate(profiler):
                Replayer(stack.ssd).replay(requests)
        write_jsonl(path, tracer.events)
        return path.read_bytes()

    def test_traces_byte_identical_with_profiler_active(self, tmp_path):
        plain = self._traced_replay(tmp_path / "plain.jsonl")
        profiler = Profiler()
        profiled_bytes = self._traced_replay(
            tmp_path / "profiled.jsonl", profiler=profiler
        )
        assert plain == profiled_bytes
        # and the profiler actually observed the instrumented layers
        assert profiler.total_s >= 0.0
        assert {"ftl", "nand"} <= set(layer_shares(profiler))
