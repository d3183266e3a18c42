"""Sweep grid expansion, deterministic parallel execution, result cache."""

import json

import pytest

from repro.exp import SimConfig
from repro.exp.cache import ResultCache, cell_key, code_salt
from repro.exp.sweep import Sweep, run
from repro.utils.rng import derive_seed

#: small enough that one cell takes well under a second.
BASE = SimConfig.testbed(seed=3, chips=2, pool_blocks=10)
PARAMS = {"methods": ["SEQUENTIAL"]}


def tiny_sweep():
    return Sweep("methods", base=BASE, params=PARAMS).over("seed", range(4))


class TestGridExpansion:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            Sweep("warp")

    def test_over_is_immutable_chaining(self):
        base = Sweep("methods", base=BASE)
        swept = base.over("pe_cycles", [0, 1000])
        assert len(base) == 1
        assert len(swept) == 2
        assert base.axes == ()

    def test_duplicate_and_empty_axes_rejected(self):
        sweep = Sweep("methods", base=BASE).over("seed", [1])
        with pytest.raises(ValueError, match="already swept"):
            sweep.over("seed", [2])
        with pytest.raises(ValueError, match="no values"):
            sweep.over("pe_cycles", [])

    def test_cross_product_order(self):
        sweep = (
            Sweep("methods", base=BASE)
            .over("seed", [0, 1])
            .over("pe_cycles", [0, 1000, 3000])
        )
        cells = sweep.cells()
        assert len(cells) == 6
        assert [cell.index for cell in cells] == list(range(6))
        # earlier axes vary slowest
        assert [dict(c.coords)["pe_cycles"] for c in cells[:3]] == [0, 1000, 3000]
        assert {dict(c.coords)["seed"] for c in cells[:3]} == {0}

    def test_seed_axis_derives_root_seed(self):
        cells = tiny_sweep().cells()
        for value, cell in zip(range(4), cells):
            assert cell.config.seed == derive_seed(BASE.seed, "seed", value)

    def test_config_axis_overrides_field(self):
        cells = Sweep("methods", base=BASE).over("pe_cycles", [0, 500]).cells()
        assert [c.config.pe_cycles for c in cells] == [0, 500]

    def test_dotted_config_axis(self):
        cells = (
            Sweep("methods", base=BASE)
            .over("variation.sigma_wl_noise_us", [1.0, 9.0])
            .cells()
        )
        assert [c.config.variation.sigma_wl_noise_us for c in cells] == [1.0, 9.0]

    def test_non_config_axis_becomes_task_param(self):
        cells = (
            Sweep("methods", base=BASE)
            .over("methods", [["SEQUENTIAL"], ["OPTIMAL(8)"]])
            .cells()
        )
        assert cells[0].params["methods"] == ["SEQUENTIAL"]
        assert cells[1].params["methods"] == ["OPTIMAL(8)"]


class TestDeterministicExecution:
    def test_serial_vs_parallel_bit_identical(self):
        serial = run(tiny_sweep(), workers=1)
        parallel = run(tiny_sweep(), workers=4)
        assert [c.result for c in serial.cells] == [c.result for c in parallel.cells]
        assert [c.cell.coords for c in serial.cells] == [
            c.cell.coords for c in parallel.cells
        ]

    def test_results_in_grid_order_and_json_typed(self):
        result = run(tiny_sweep(), workers=4)
        assert [c.cell.index for c in result.cells] == list(range(4))
        for value in result.column("baseline.mean_extra_program_us"):
            assert type(value) is float

    def test_column_digs_dotted_paths(self):
        result = run(Sweep("methods", base=BASE, params=PARAMS), workers=1)
        (value,) = result.column("methods.SEQUENTIAL.improvement_pct")
        assert isinstance(value, float)


class TestCache:
    def test_second_run_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run(tiny_sweep(), workers=2, cache=cache)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        second = run(tiny_sweep(), workers=2, cache=cache)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert [c.result for c in first.cells] == [c.result for c in second.cells]

    def test_force_recomputes_despite_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(tiny_sweep(), cache=cache)
        forced = run(tiny_sweep(), cache=cache, force=True)
        assert forced.cache_hits == 0

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(Sweep("methods", base=BASE, params=PARAMS), cache=cache)
        shifted = Sweep("methods", base=BASE.with_(pe_cycles=100), params=PARAMS)
        result = run(shifted, cache=cache)
        assert result.cache_misses == 1

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(Sweep("methods", base=BASE, params=PARAMS), cache=cache)
        result = run(
            Sweep("methods", base=BASE, params={"methods": ["OPTIMAL(8)"]}),
            cache=cache,
        )
        assert result.cache_misses == 1

    def test_salt_change_invalidates_key(self):
        key = cell_key("methods", BASE, PARAMS, "aaaa")
        assert key != cell_key("methods", BASE, PARAMS, "bbbb")
        assert key == cell_key("methods", BASE, dict(PARAMS), "aaaa")

    def test_code_salt_is_deterministic(self):
        assert code_salt(["repro.utils"]) == code_salt(["repro.utils"])
        assert code_salt(["repro.utils"]) != code_salt(["repro.nand"])
        # order-insensitive over the module set
        assert code_salt(["repro.nand", "repro.utils"]) == code_salt(
            ["repro.utils", "repro.nand"]
        )

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep("methods", base=BASE, params=PARAMS)
        first = run(sweep, cache=cache)
        cache.path(first.cells[0].key).write_text("{ not json")
        again = run(sweep, cache=cache)
        assert again.cache_misses == 1
        assert again.cells[0].result == first.cells[0].result


class TestProgressAndManifest:
    def test_echo_lines(self):
        lines = []
        run(Sweep("methods", base=BASE, params=PARAMS), echo=lines.append)
        assert lines == ["cell 1/1 [(base)] done"]

    def test_manifest_round_trips_through_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run(tiny_sweep(), cache=cache)
        manifest = json.loads(json.dumps(result.manifest()))
        assert manifest["task"] == "methods"
        assert manifest["cell_count"] == 4
        assert manifest["cache_misses"] == 4
        assert len(manifest["cells"]) == 4
        cell = manifest["cells"][0]
        assert set(cell) == {
            "index",
            "coords",
            "config_hash",
            "key",
            "cached",
            "provenance",
            "wall_s",
            "attempts",
            "result",
        }
        assert cell["provenance"] == "computed"
        assert cell["attempts"] == 1
        assert cell["wall_s"] >= 0.0
        assert manifest["wall_s"] >= 0.0
