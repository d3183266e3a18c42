"""Printed metrics against BENCHMARK.json, percentile refusal, bare-checkout exit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.metrics import END_TO_END, PER_LAYER, SIMULATED, CheckFailed, percentile

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class _Outcome:
    attempted = 10
    failed = 1


@pytest.mark.parametrize("trace,section,listed", [(0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, section, listed):
    entries = BENCHMARK[section]
    assert [(e["name"], e["unit"], e["better"]) for e in entries] == [
        (m.name, m.unit, m.better) for m in listed
    ]
    values = {m.name: 1.5 for m in END_TO_END + PER_LAYER}
    line = json.loads(run.result_line(_Outcome(), values, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: v["unit"] for name, v in line["metrics"].items()} == {e["name"]: e["unit"] for e in entries}


def test_workloads_and_bounds():
    from perfbench.workloads import WORKLOADS

    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert not {m.name for m in SIMULATED} & {e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def test_p999_needs_ten_thousand_samples():
    values = [float(i) for i in range(9_999)]
    with pytest.raises(CheckFailed) as refused:
        percentile(values, 0.999, "sim_write_p999_us")
    assert refused.value.check == "percentile_samples"
    values.append(9_999.0)
    assert percentile(values, 0.999, "sim_write_p999_us") == pytest.approx(9_989.001)
    assert percentile([1.0, 2.0, 3.0] * 7, 0.5, "p50") == 2.0


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "device_zipf_gc", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
