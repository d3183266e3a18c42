"""CLI tests (small scales so the suite stays fast)."""

import json
import textwrap

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.table == "all"
        assert args.blocks == 400
        args = build_parser().parse_args(["replay", "--allocator", "random"])
        assert args.allocator == "random"

    def test_invalid_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--table", "9"])


class TestCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "1,536" in out
        assert "99.22%" in out
        assert "52" in out

    def test_tables_small(self, capsys):
        assert main(["tables", "--table", "5", "--blocks", "16", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "QSTR-MED(4)" in out

    def test_figures_small(self, capsys):
        assert main(["figures", "--figure", "6", "--blocks", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "extra PGM" in out

    def test_figure5_alone_probes_only_its_own_stack(self, capsys):
        assert main(["figures", "--figure", "5", "--blocks", "4", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "Figure 5 (top)" in captured.out and "chip1 blk1" in captured.out
        assert "Figure 6" not in captured.out
        assert "probing" not in captured.err  # the evaluator's pools are never built

    def test_replay_synthetic(self, capsys):
        assert (
            main(
                [
                    "replay",
                    "--allocator",
                    "random",
                    "--blocks",
                    "32",
                    "--chips",
                    "3",
                    "--seed",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "allocator: random" in out
        assert "WRITE" in out

    def test_replay_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("# test\n0,W,0,1\n10,W,1,1\n20,R,0,1\n")
        assert (
            main(
                [
                    "replay",
                    "--trace",
                    str(trace),
                    "--blocks",
                    "20",
                    "--chips",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WRITE" in out
        assert "past the" not in out  # an in-range trace prints no clamp line

    def test_replay_counts_requests_past_the_logical_space(self, capsys, tmp_path):
        # 100 one-page writes whose LPNs step by 1,000: only the first three
        # start inside the 2,764 logical pages of this device
        trace = tmp_path / "far.csv"
        trace.write_text("".join(f"{i * 10},W,{i * 1000},1\n" for i in range(100)))
        argv = ["replay", "--trace", str(trace), "--blocks", "16", "--chips", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "WRITE  n=     3" in out
        assert "past the 2,764 logical pages: 97 requests dropped, 0 trimmed" in out

    def test_replay_counts_a_trimmed_request(self, capsys, tmp_path):
        trace = tmp_path / "edge.csv"
        trace.write_text("0,W,0,1\n10,W,2762,4\n")
        argv = ["replay", "--trace", str(trace), "--blocks", "16", "--chips", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "past the 2,764 logical pages: 0 requests dropped, 1 trimmed" in out


#: one seeded violation per rule family (file name -> (source, expected
#: code)), written as files under src/repro so the scoped rules apply.
VIOLATION_FIXTURES = {
    "rng.py": ("import numpy as np\nr = np.random.default_rng(7)\n", "RNG003"),
    "det.py": ("import time\nt = time.time()\n", "DET001"),
    "lay.py": ("from repro.ftl.ftl import Ftl\n", "LAY001"),
    "num.py": ("def f(items=[]):\n    return items\n", "NUM002"),
    "obs.py": ("import datetime\n", "OBS001"),
}


def _seeded_tree(tmp_path, name, source):
    """A minimal src/repro/<pkg>/ tree holding one violating file."""
    pkg = {"lay.py": "nand", "obs.py": "obs"}.get(name, "ftl")
    target = tmp_path / "src" / "repro" / pkg
    target.mkdir(parents=True)
    path = target / name
    path.write_text(source)
    return path


class TestRunCommand:
    def test_run_writes_all_artifacts(self, capsys, tmp_path):
        chrome = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.trace.jsonl"
        summary = tmp_path / "run.summary.json"
        assert (
            main(
                [
                    "run",
                    "--blocks", "24",
                    "--chips", "3",
                    "--seed", "4",
                    "--requests", "150",
                    "--trace", str(chrome),
                    "--jsonl", str(jsonl),
                    "--summary", str(summary),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        out = captured.out
        assert "host_write_p99_us" in out
        assert "extra-latency attribution" in out
        assert "host perf:" in captured.err

        document = json.loads(chrome.read_text())
        rows = document["traceEvents"]
        assert rows
        timestamps = [row["ts"] for row in rows if row["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        attributions = [row for row in rows if row["name"] == "mp_program"]
        assert attributions
        assert {"chip", "plane", "block"} <= set(
            attributions[0]["args"]["slowest"]
        )

        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

        doc = json.loads(summary.read_text())
        assert doc["ftl"]["host_write_p99_us"] > 0
        assert any(key.endswith("_utilization") for key in doc["registry"])
        # host-side wall-clock telemetry (repro.perf Stopwatch)
        assert doc["perf"]["wall_s"] >= doc["perf"]["replay_wall_s"] >= 0.0
        assert doc["perf"]["ops_per_s"] > 0.0

    def test_obs_report_reads_back_jsonl(self, capsys, tmp_path):
        jsonl = tmp_path / "run.trace.jsonl"
        assert (
            main(
                [
                    "run",
                    "--blocks", "24",
                    "--chips", "3",
                    "--seed", "4",
                    "--requests", "120",
                    "--jsonl", str(jsonl),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "report", str(jsonl), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "spans (by category/name)" in out
        assert "mp_program" in out


class TestFaultFlags:
    def test_faulted_run_prints_fault_block_and_summary_keys(
        self, capsys, tmp_path
    ):
        summary = tmp_path / "s.json"
        assert (
            main(
                [
                    "run",
                    "--blocks", "32",
                    "--chips", "3",
                    "--seed", "7",
                    "--requests", "400",
                    "--faults", "program=0.006",
                    "--summary", str(summary),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "-- faults --" in out
        assert "sb_repairs" in out
        doc = json.loads(summary.read_text())
        assert doc["ftl"]["program_failures"] > 0
        assert doc["ftl"]["sb_repairs"] > 0

    def test_fault_free_run_has_no_fault_block(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--blocks", "24",
                    "--chips", "3",
                    "--seed", "4",
                    "--requests", "120",
                ]
            )
            == 0
        )
        assert "-- faults --" not in capsys.readouterr().out

    def test_repair_policy_leaves_the_ftl_config_unset(self):
        # the retired --repair alias materialized a derived FtlConfig, so
        # the default repair choice hashed differently from no flag at all
        from repro.cli import _apply_fault_args
        from repro.exp import SimConfig

        base = SimConfig.device(seed=4)
        args = build_parser().parse_args(["run", "--policy", "repair=repair.random"])
        config = _apply_fault_args(base, args)
        assert config.ftl is None
        assert config.policies.repair.name == "repair.random"
        untouched = _apply_fault_args(base, build_parser().parse_args(["run"]))
        assert untouched.content_hash() == base.content_hash()

    def test_unknown_repair_policy_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--policy", "repair=repair.eeny"])
        assert excinfo.value.code == 2
        assert "bad --policy" in capsys.readouterr().err

    def test_bad_faults_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--faults", "gamma=0.1"])
        assert excinfo.value.code == 2
        assert "bad --faults" in capsys.readouterr().err

    def test_unsurvivable_fault_schedule_exits_cleanly(self, capsys, tmp_path):
        # a plane outage on the single-plane device preset kills a whole
        # lane: the run must end with a capacity verdict, not a traceback
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "events": [
                        {
                            "kind": "plane_outage",
                            "chip": 0,
                            "plane": 0,
                            "at_op": 50,
                        }
                    ]
                }
            )
        )
        assert (
            main(
                [
                    "run",
                    "--blocks", "24",
                    "--chips", "3",
                    "--seed", "4",
                    "--requests", "300",
                    "--faults", f"@{plan}",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "out of space" in err
        assert "fault schedule" in err


#: the CI chaos job's fleet plan: plane 0 of every chip of device 0 fails
#: at 30 ms, so device 0 is ejected and its tenants re-shard.
_FLEET_OUTAGE_PLAN = {
    "program_fail_prob": 0.0,
    "erase_fail_prob": 0.0,
    "events": [
        {"kind": "plane_outage", "chip": chip, "plane": 0, "at_time_us": 30000.0}
        for chip in range(4)
    ],
}


class TestFleetSpec:
    def test_spec_sets_size_load_and_fault_device(self, capsys, tmp_path):
        # --fleet is the one way to size a fleet: the spec's devices,
        # tenants, requests_per_tenant and fault_device reach the summary
        summary = tmp_path / "fleet.json"
        argv = [
            "fleet", "--seed", "5", "--faults", "program=0.5",
            "--fleet", "devices=3,replicas=1,tenants=3,requests_per_tenant=5,"
            "fault_device=2,queue_depth=8",
            "--summary", str(summary),
        ]
        assert main(argv) == 0
        assert "fleet: 3 devices x 1 replicas, 3 tenants" in capsys.readouterr().out
        doc = json.loads(summary.read_text())
        fleet = doc["fleet"]
        assert (fleet["devices"], fleet["tenants"]) == (3, 3)
        assert (fleet["requests_per_tenant"], fleet["fault_device"]) == (5, 2)
        assert doc["requests"] == 15 and len(doc["devices"]) == 3
        assert doc["counters"]["media_faults"] > 0


class TestUnmappedReads:
    def test_ftl_summary_key_only_when_nonzero(self):
        from repro.ftl.metrics import FtlMetrics

        metrics = FtlMetrics()
        assert "unmapped_reads" not in metrics.summary()
        metrics.unmapped_reads = 3
        assert metrics.summary()["unmapped_reads"] == 3.0

    def test_chaos_fleet_counts_reads_answered_without_data(self, capsys, tmp_path):
        plan = tmp_path / "outage.json"
        plan.write_text(json.dumps(_FLEET_OUTAGE_PLAN))
        summary = tmp_path / "fleet.json"
        argv = [
            "fleet", "--seed", "7", "--faults", f"@{plan}", "--summary", str(summary),
        ]
        # counted, not failed: the fleet still acks these reads
        assert main(argv) == 0
        assert "unmapped_reads=54" in capsys.readouterr().out
        doc = json.loads(summary.read_text())
        assert doc["counters"]["unmapped_reads"] == 54
        assert doc["counters"]["failed"] == 0
        assert sum(row["unmapped_reads"] for row in doc["devices"]) == 54

    def test_fault_free_fleet_has_no_unmapped_reads(self, capsys, tmp_path):
        summary = tmp_path / "fleet.json"
        assert main(["fleet", "--seed", "7", "--summary", str(summary)]) == 0
        assert "unmapped_reads=0" in capsys.readouterr().out
        doc = json.loads(summary.read_text())
        assert doc["counters"]["unmapped_reads"] == 0
        assert all(row["unmapped_reads"] == 0 for row in doc["devices"])

    def test_device_chaos_run_prints_no_new_key(self, capsys, tmp_path):
        summary = tmp_path / "run.json"
        argv = [
            "run", "--seed", "7", "--requests", "1200", "--blocks", "40",
            "--chips", "4", "--faults", "program=0.004,erase=0.002",
            "--summary", str(summary),
        ]
        assert main(argv) == 0
        assert "unmapped" not in capsys.readouterr().out
        assert "unmapped_reads" not in json.loads(summary.read_text())["ftl"]


class TestSweepCommand:
    SMALL = ["--blocks", "10", "--chips", "2", "--seed", "3"]

    def test_dry_run_prints_expanded_grid(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    *self.SMALL,
                    "--over", "seed=0,1,2",
                    "--over", "pe_cycles=0,1000",
                    "--dry-run",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "task: methods" in out
        assert "cells: 6" in out
        assert "seed=0 pe_cycles=1000" in out
        # every cell line carries its config content hash
        assert out.count("config=") == 6

    def test_bad_axis_spec_exits_two(self, capsys):
        assert main(["sweep", "--over", "seed", "--dry-run"]) == 2
        assert "bad --over" in capsys.readouterr().err

    def test_duplicate_axis_exits_two(self, capsys):
        assert main(["sweep", "--over", "seed=1", "--over", "seed=2", "--dry-run"]) == 2
        assert "already swept" in capsys.readouterr().err

    def test_invalid_cell_on_a_later_axis_exits_two_before_printing(self, capsys):
        # every cell is built (and validated) before the dry run prints
        argv = [
            "sweep", "--preset", "device",
            "--over", "seed=1,2",
            "--over", "allocator=qstr,greedy",
            "--dry-run",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro sweep: allocator must be one of")
        assert "Traceback" not in captured.err

    def test_run_twice_second_all_cache_hits(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        argv = [
            "sweep",
            *self.SMALL,
            "--methods", "SEQUENTIAL",
            "--over", "seed=0,1",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 cells, 0 cache hits, 2 misses" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 cells, 2 cache hits, 0 misses" in second

        doc = json.loads(manifest.read_text())
        assert doc["cell_count"] == 2
        assert doc["cache_hits"] == 2
        assert doc["cache_misses"] == 0
        results = [cell["result"] for cell in doc["cells"]]
        assert all("SEQUENTIAL" in r["methods"] for r in results)

    def test_no_cache_mode(self, capsys, tmp_path):
        argv = [
            "sweep",
            *self.SMALL,
            "--methods", "SEQUENTIAL",
            "--cache-dir", "none",
        ]
        assert main(argv) == 0
        assert "1 cells, 0 cache hits, 1 misses" in capsys.readouterr().out

    def test_serial_uncached_run_matches_pooled(self, capsys, tmp_path):
        argv = [
            "sweep",
            *self.SMALL,
            "--methods", "SEQUENTIAL",
            "--over", "seed=0,1",
            "--cache-dir", "none",
        ]
        docs = {}
        for workers in ("2", "1"):
            manifest = tmp_path / f"workers{workers}.json"
            assert main([*argv, "--workers", workers, "--manifest", str(manifest)]) == 0
            docs[workers] = json.loads(manifest.read_text())
        capsys.readouterr()
        pooled, serial = docs["2"]["cells"], docs["1"]["cells"]
        assert [cell["result"] for cell in serial] == [cell["result"] for cell in pooled]
        assert [cell["provenance"] for cell in serial] == ["computed", "computed"]

    def test_progress_mode_replaces_echo(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        argv = [
            "sweep",
            *self.SMALL,
            "--methods", "SEQUENTIAL",
            "--over", "seed=0,1",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest),
            "--progress",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "progress 2/2 cells" in captured.err
        assert "sweep wall-clock:" in captured.err
        assert "cell 1/2" not in captured.err  # per-cell echo suppressed

        # manifest carries the per-cell wall-clock telemetry
        doc = json.loads(manifest.read_text())
        assert doc["wall_s"] >= 0.0
        for cell in doc["cells"]:
            assert cell["provenance"] == "computed"
            assert cell["wall_s"] >= 0.0
            assert cell["attempts"] == 1

        # warm rerun: cells come back as cache hits with lookup timing
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(manifest.read_text())
        assert all(cell["provenance"] == "cache" for cell in doc["cells"])


_DET011_VIOLATION = textwrap.dedent(
    """\
    import os


    def trace_names(root):
        out = []
        for name in os.listdir(root):
            out.append(name)
        return out
    """
)


def _commit_all(tmp_path):
    """``git init`` + commit everything under ``tmp_path``."""
    import subprocess

    env = {
        "GIT_AUTHOR_NAME": "t",
        "GIT_AUTHOR_EMAIL": "t@t",
        "GIT_COMMITTER_NAME": "t",
        "GIT_COMMITTER_EMAIL": "t@t",
        "HOME": str(tmp_path),
    }
    for command in (
        ["git", "init", "-q"],
        ["git", "add", "-A"],
        ["git", "commit", "-q", "-m", "seed"],
    ):
        subprocess.run(command, cwd=tmp_path, check=True, env=env)


class TestLintCommand:
    def test_lint_clean_repo_exits_zero(self, capsys):
        assert main(["lint", "src", "benchmarks", "examples", "tools"]) == 0
        out = capsys.readouterr().out
        assert "reprolint: clean" in out

    def test_lint_default_paths_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(VIOLATION_FIXTURES))
    def test_lint_flags_each_rule_family(self, capsys, tmp_path, name):
        source, expected_code = VIOLATION_FIXTURES[name]
        path = _seeded_tree(tmp_path, name, source)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert expected_code in out
        assert name in out

    def test_lint_json_format(self, capsys, tmp_path):
        path = _seeded_tree(tmp_path, "rng.py", VIOLATION_FIXTURES["rng.py"][0])
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RNG003"

    def test_lint_help_offers_text_and_json_only(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--format {text,json}" in text
        assert "sarif" not in text
        assert "--vector-report" not in text

    def test_lint_suppression_honored(self, capsys, tmp_path):
        source = textwrap.dedent(
            """\
            import numpy as np

            # Fixture: pinned stream for a test double.
            r = np.random.default_rng(7)  # reprolint: disable=RNG003
            """
        )
        path = _seeded_tree(tmp_path, "rng.py", source)
        assert main(["lint", str(path)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_lint_missing_paths_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "no lintable paths" in capsys.readouterr().err

    def test_lint_nonexistent_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_lint_reports_whole_program_finding(self, capsys, tmp_path):
        path = _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        assert main(["lint", str(path)]) == 1
        assert "DET011" in capsys.readouterr().out

    def test_lint_json_lists_whole_program_finding(self, capsys, tmp_path):
        path = _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"])
        det011 = [f for f in payload["findings"] if f["code"] == "DET011"]
        assert det011
        assert all(f["path"].endswith("manifest.py") for f in det011)

    def test_one_call_runs_both_kinds_of_rule(self, capsys, tmp_path):
        rng_violation = "import numpy as np\nr = np.random.default_rng(7)\n"
        path = _seeded_tree(tmp_path, "mixed.py", rng_violation + _DET011_VIOLATION)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RNG003" in out and "DET011" in out

    def test_parse_error_does_not_hide_whole_program_findings(self, capsys, tmp_path):
        path = _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        (path.parent / "broken.py").write_text("def broken(:\n")
        assert main(["lint", str(path.parent)]) == 1
        out = capsys.readouterr().out
        assert "broken.py" in out and "PARSE" in out
        assert "manifest.py" in out and "DET011" in out

    def test_files_sharing_a_module_name_are_each_checked(self, capsys, tmp_path):
        # outside the cwd both files are named "pkg.util"; the per-file rules
        # must still see each of them
        for tree in ("a", "b"):
            (tmp_path / tree / "pkg").mkdir(parents=True)
            (tmp_path / tree / "pkg" / "util.py").write_text(
                "def f(items=[]):\n    return items\n"
            )
        assert main(["lint", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert capsys.readouterr().out.count("NUM002") == 2

    def test_each_file_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        import ast
        from collections import Counter
        from pathlib import Path

        path = _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        (path.parent / "helper.py").write_text("def helper():\n    return 1\n")
        parses = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[Path(filename).name] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["lint", str(path.parent)]) == 1
        assert "DET011" in capsys.readouterr().out
        assert parses == {"helper.py": 1, "manifest.py": 1}

    def test_changed_outside_git_exits_two(self, tmp_path, monkeypatch, capsys):
        _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "src", "--changed"]) == 2
        assert "git checkout" in capsys.readouterr().err

    def test_changed_filters_to_dirty_files(self, tmp_path, monkeypatch, capsys):
        path = _seeded_tree(tmp_path, "manifest.py", _DET011_VIOLATION)
        _commit_all(tmp_path)
        monkeypatch.chdir(tmp_path)
        # the only violation is committed, so --changed filters it out
        assert main(["lint", "src", "--changed"]) == 0
        capsys.readouterr()
        # a fresh (untracked) violating file is reported
        dirty = path.parent / "fresh.py"
        dirty.write_text(_DET011_VIOLATION)
        assert main(["lint", "src", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "manifest.py" not in out

    def test_changed_from_subdirectory_sees_edited_tracked_file(
        self, tmp_path, monkeypatch, capsys
    ):
        # git diff names files from the repo top; findings name them from
        # the cwd.  Below the top the two must still meet.
        path = _seeded_tree(tmp_path, "units.py", "SCALE = 2\n")
        _commit_all(tmp_path)
        path.write_text("import time\nSCALE = 2\nSTAMP = time.time()\n")
        monkeypatch.chdir(tmp_path / "src")
        assert main(["lint", "repro", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "units.py" in out
