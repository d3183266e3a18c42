"""repro bench: suite document schema, round-trip, CLI regression gate."""

import json

import pytest

import repro.perf.bench as bench
from repro.cli import main
from repro.exp import SimConfig
from repro.perf import (
    QUICK,
    SCHEMA_VERSION,
    SuiteScale,
    env_fingerprint,
    git_sha,
    render_suite,
    run_suite,
    validate_bench_doc,
)
from repro.perf.schema import metric

#: a shrunken quick suite so one run_suite call stays test-fast.
TINY = SuiteScale(
    name="quick",
    repetitions=1,
    testbed_blocks=16,
    testbed_chips=2,
    testbed_requests=80,
    scaled_blocks=20,
    scaled_chips=2,
    scaled_requests=120,
    signature_pool_blocks=6,
    signature_passes=2,
    sweep_pool_blocks=6,
    sweep_seeds=1,
)


@pytest.fixture(scope="module")
def suite_doc():
    return run_suite(TINY, repetitions=1)


class TestSuiteDocument:
    def test_schema_valid_and_json_round_trips(self, suite_doc):
        assert validate_bench_doc(suite_doc) == []
        recovered = json.loads(json.dumps(suite_doc, sort_keys=True))
        assert validate_bench_doc(recovered) == []
        assert recovered == suite_doc

    def test_pinned_metric_set(self, suite_doc):
        names = set(suite_doc["metrics"])
        assert {
            "replay_testbed_ops_per_s",
            "replay_testbed_wall_s",
            "replay_scaled_ops_per_s",
            "replay_scaled_wall_s",
            "signature_kernel_sigs_per_s",
            "sweep_cold_wall_s",
            "sweep_warm_wall_s",
            "sweep_warm_speedup",
            "replay_share_nand",
            "replay_share_ftl",
        } <= names
        assert len(names) >= 6

    def test_layer_shares_recorded(self, suite_doc):
        shares = suite_doc["layers"]["replay_testbed"]
        assert {"ftl", "nand"} <= set(shares)
        assert abs(sum(shares.values()) - 1.0) < 1e-6

    def test_env_and_sha_recorded(self, suite_doc):
        assert suite_doc["git_sha"] == git_sha()
        assert suite_doc["env"] == env_fingerprint()
        assert suite_doc["schema_version"] == SCHEMA_VERSION

    def test_render_lists_every_metric(self, suite_doc):
        text = render_suite(suite_doc)
        for name in suite_doc["metrics"]:
            assert name in text

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            run_suite(QUICK, repetitions=0)

    def test_vector_phase_interleaves_to_match_the_scalar_time(self, suite_doc):
        scalar = suite_doc["benches"]["replay_phase_scalar"]
        vector = suite_doc["benches"]["replay_phase_vector"]
        assert len(scalar["wall_s"]) == 1
        assert sum(vector["wall_s"]) >= sum(scalar["wall_s"])
        assert sum(vector["wall_s"][:-1]) < sum(scalar["wall_s"])


def test_replay_phases_give_the_vector_side_its_time_budget(monkeypatch):
    """Stub replays of fixed cost: 8 vector replays fill one scalar replay's
    time, and each batch runs right after its scalar replay."""
    backends = []
    cost = {"scalar": 0.25, "vector": 0.03125}

    def replay(config):
        backends.append(config.backend)
        return 900, cost[config.backend]

    monkeypatch.setattr(bench, "_replay_phase_once", replay)
    scalar, vector = bench._bench_replay_phases(SimConfig.device(seed=1), 3)
    assert backends == (["scalar"] + ["vector"] * 8) * 3
    assert scalar["wall_s"] == [0.25] * 3
    assert vector["wall_s"] == [0.03125] * 24
    assert (scalar["ops_per_s"], vector["ops_per_s"]) == (3600.0, 28800.0)


class TestValidator:
    def _valid(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": "quick",
            "repetitions": 1,
            "git_sha": "abc1234",
            "env": dict(env_fingerprint()),
            "metrics": {"m": metric(1.0, "u", "higher", 10.0)},
            "layers": {"replay_testbed": {"ftl": 0.5, "nand": 0.5}},
            "benches": {},
        }

    def test_valid_document_has_no_errors(self):
        assert validate_bench_doc(self._valid()) == []

    def test_non_object_rejected(self):
        assert validate_bench_doc([1, 2]) == ["document is not a JSON object"]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(suite="huge"), "suite"),
            (lambda d: d.update(repetitions=0), "repetitions"),
            (lambda d: d.update(git_sha=""), "git_sha"),
            (lambda d: d["env"].pop("python"), "env.python"),
            (lambda d: d.update(metrics={}), "metrics"),
            (
                lambda d: d["metrics"].update(m=metric(float("nan"), "u", "higher", 1)),
                "finite",
            ),
            (
                lambda d: d["metrics"]["m"].update(direction="sideways"),
                "direction",
            ),
            (
                lambda d: d["metrics"]["m"].update(tolerance_pct=-1),
                "tolerance_pct",
            ),
            (lambda d: d["metrics"]["m"].pop("unit"), "unit"),
            (
                lambda d: d["layers"].update(replay_testbed={"ftl": 1.5}),
                "share",
            ),
        ],
    )
    def test_each_violation_reported(self, mutate, fragment):
        doc = self._valid()
        mutate(doc)
        errors = validate_bench_doc(doc)
        assert errors
        assert any(fragment in error for error in errors)


class TestBenchCli:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_against_compare_self_passes(self, tmp_path, capsys, suite_doc):
        path = self._write(tmp_path / "bench.json", suite_doc)
        assert main(["bench", "--against", path, "--compare", path]) == 0
        out = capsys.readouterr().out
        assert "within tolerance" in out

    def test_regression_exits_one(self, tmp_path, capsys, suite_doc):
        worse = json.loads(json.dumps(suite_doc))
        entry = worse["metrics"]["replay_testbed_ops_per_s"]
        entry["value"] = entry["value"] / 10.0
        current = self._write(tmp_path / "worse.json", worse)
        baseline = self._write(tmp_path / "base.json", suite_doc)
        assert main(["bench", "--against", current, "--compare", baseline]) == 1
        assert "REGRESSED" in capsys.readouterr().out.upper()

    def test_stale_baseline_exits_one(self, tmp_path, capsys, suite_doc):
        stale = json.loads(json.dumps(suite_doc))
        stale["schema_version"] = SCHEMA_VERSION + 1
        current = self._write(tmp_path / "cur.json", suite_doc)
        baseline = self._write(tmp_path / "stale.json", stale)
        assert main(["bench", "--against", current, "--compare", baseline]) == 1
        assert "schema_version" in capsys.readouterr().out

    def test_tolerance_scale_env_var(self, tmp_path, monkeypatch, suite_doc):
        worse = json.loads(json.dumps(suite_doc))
        entry = worse["metrics"]["replay_testbed_ops_per_s"]
        entry["value"] = entry["value"] * 0.5  # 50% drop vs 40% band
        current = self._write(tmp_path / "worse.json", worse)
        baseline = self._write(tmp_path / "base.json", suite_doc)
        assert main(["bench", "--against", current, "--compare", baseline]) == 1
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_SCALE", "4")
        assert main(["bench", "--against", current, "--compare", baseline]) == 0

    def test_bad_tolerance_scale_exits_two(self, tmp_path, capsys, suite_doc):
        path = self._write(tmp_path / "bench.json", suite_doc)
        assert (
            main(
                [
                    "bench",
                    "--against", path,
                    "--compare", path,
                    "--tolerance-scale", "-1",
                ]
            )
            == 2
        )

    def test_unreadable_inputs_exit_two(self, tmp_path, capsys, suite_doc):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--against", missing]) == 2
        good = self._write(tmp_path / "bench.json", suite_doc)
        assert main(["bench", "--against", good, "--compare", missing]) == 2

    def test_hotspots_prints_the_top_rows(self, capsys):
        assert main(["bench", "--hotspots", "--top", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["function", "calls", "own", "cum"]
        rows = lines[2:]
        assert len(rows) == 3
        # the profiled replay itself holds the largest cumulative time
        assert rows[0].split()[0].endswith(":one_replay")
        cumulative = [float(row.split()[-1].rstrip("s")) for row in rows]
        assert cumulative == sorted(cumulative, reverse=True)

    def test_quick_and_full_flags_exclusive(self):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--full"])

    def test_baseline_file_compares_clean_against_itself(self, repo_baseline):
        assert main(["bench", "--against", repo_baseline, "--compare", repo_baseline]) == 0


@pytest.fixture
def repo_baseline():
    """The committed baseline document; the gate CI compares against."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
    assert path.exists(), "BENCH_baseline.json must be committed at the repo root"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert validate_bench_doc(doc) == []
    assert len(doc["metrics"]) >= 6
    return str(path)
