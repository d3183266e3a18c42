"""Positive/negative fixtures for every whole-program rule code.

Each of RNG010-012, DET010-012 and PROC001-003 has at least one fixture
that fires and one that stays silent, plus suite-level checks that these
findings obey the one line-scoped suppression rule and are deduped.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.lint import Finding, ProgramRule, all_rules, lint_sources


def run(sources: Dict[str, str]) -> List[Finding]:
    return lint_sources(
        {module: textwrap.dedent(source) for module, source in sources.items()}
    )


def codes(findings: List[Finding]) -> List[str]:
    return [finding.code for finding in findings]


def test_all_nine_whole_program_codes_are_registered() -> None:
    assert [rule.code for rule in all_rules() if isinstance(rule, ProgramRule)] == [
        "DET010",
        "DET011",
        "DET012",
        "PROC001",
        "PROC002",
        "PROC003",
        "RNG010",
        "RNG011",
        "RNG012",
    ]


# ---------------------------------------------------------------- RNG010


def test_rng010_fires_on_duplicate_constant_label_tuple() -> None:
    findings = run(
        {
            "repro.fx.streams": """
            from repro.utils.rng import derive_seed

            def chip_noise(seed):
                return derive_seed(seed, "chip", 0)

            def block_noise(seed):
                return derive_seed(seed, "chip", 0)
            """
        }
    )
    assert codes(findings).count("RNG010") == 2


def test_rng010_silent_on_parameterized_or_distinct_labels() -> None:
    findings = run(
        {
            "repro.fx.streams": """
            from repro.utils.rng import derive_seed

            def chip_noise(seed, chip_id):
                return derive_seed(seed, "chip", chip_id)

            def block_noise(seed):
                return derive_seed(seed, "block", 0)
            """
        }
    )
    assert "RNG010" not in codes(findings)


# ---------------------------------------------------------------- RNG011


def test_rng011_fires_when_generator_is_submitted_to_pool() -> None:
    findings = run(
        {
            "repro.fx.pool": """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def work(rng):
                return rng

            def main(seed):
                rng = np.random.default_rng(seed)
                with ProcessPoolExecutor() as pool:
                    future = pool.submit(work, rng)
                return future
            """
        }
    )
    assert "RNG011" in codes(findings)


def test_rng011_fires_when_generator_enters_marked_entrypoint() -> None:
    findings = run(
        {
            "repro.fx.entry": """
            import numpy as np

            def worker_entrypoint(fn):
                return fn

            @worker_entrypoint
            def cell(rng):
                return rng

            def main(seed):
                rng = np.random.default_rng(seed)
                return cell(rng)
            """
        }
    )
    assert "RNG011" in codes(findings)


def test_rng011_silent_when_seed_crosses_instead() -> None:
    findings = run(
        {
            "repro.fx.pool": """
            from concurrent.futures import ProcessPoolExecutor

            def work(seed):
                return seed

            def main(seed):
                with ProcessPoolExecutor() as pool:
                    future = pool.submit(work, seed)
                return future
            """
        }
    )
    assert "RNG011" not in codes(findings)


# ---------------------------------------------------------------- RNG012


def test_rng012_fires_when_two_methods_draw_from_stored_generator() -> None:
    findings = run(
        {
            "repro.fx.chip": """
            import numpy as np

            class Chip:
                def __init__(self, seed):
                    self.rng = np.random.default_rng(seed)

                def read_latency(self):
                    return self.rng.normal()

                def write_latency(self):
                    return self.rng.normal()
            """
        }
    )
    assert "RNG012" in codes(findings)


def test_rng012_silent_with_single_consumer() -> None:
    findings = run(
        {
            "repro.fx.chip": """
            import numpy as np

            class Chip:
                def __init__(self, seed):
                    self.rng = np.random.default_rng(seed)

                def read_latency(self):
                    return self.rng.normal()

                def geometry(self):
                    return 42
            """
        }
    )
    assert "RNG012" not in codes(findings)


# ---------------------------------------------------------------- DET010


def test_det010_fires_interprocedurally_into_sim_state() -> None:
    findings = run(
        {
            "repro.fx.sim": """
            import time

            def stamp():
                return time.time()

            class Sim:
                def tick(self):
                    self.started_at = stamp()
            """
        }
    )
    assert "DET010" in codes(findings)


def test_det010_sanctions_perf_layer_wall_clock() -> None:
    # A repro.perf Stopwatch value flowing into harness state is telemetry,
    # not nondeterminism — the WALLCLOCK taint is dropped at the perf
    # module boundary.
    findings = run(
        {
            "repro.perf.profiler": """
            from time import perf_counter

            def elapsed():
                return perf_counter()
            """,
            "repro.fx.harness": """
            from repro.perf.profiler import elapsed

            class Manifest:
                def record(self):
                    self.wall_s = elapsed()
            """,
        }
    )
    assert "DET010" not in codes(findings)


def test_det010_silent_for_local_elapsed_measurement() -> None:
    findings = run(
        {
            "repro.fx.sim": """
            import time

            def guard(budget_s):
                start = time.time()
                elapsed = time.time() - start
                if elapsed > budget_s:
                    raise RuntimeError("over budget")
            """
        }
    )
    assert "DET010" not in codes(findings)


# ---------------------------------------------------------------- DET011


def test_det011_fires_on_unsorted_listdir_iteration() -> None:
    findings = run(
        {
            "repro.fx.manifest": """
            import os

            def trace_names(root):
                out = []
                for name in os.listdir(root):
                    out.append(name)
                return out
            """
        }
    )
    assert "DET011" in codes(findings)


def test_det011_silent_when_listing_is_sorted() -> None:
    findings = run(
        {
            "repro.fx.manifest": """
            import os

            def trace_names(root):
                out = []
                for name in sorted(os.listdir(root)):
                    out.append(name)
                return out
            """
        }
    )
    assert "DET011" not in codes(findings)


# ---------------------------------------------------------------- DET012


def test_det012_fires_when_id_reaches_state() -> None:
    findings = run(
        {
            "repro.fx.trace": """
            class Tracer:
                def observe(self, obj):
                    self.last_key = id(obj)
            """
        }
    )
    assert "DET012" in codes(findings)


def test_det012_silent_for_identity_memo_keys() -> None:
    findings = run(
        {
            "repro.fx.memo": """
            class Memo:
                def __init__(self):
                    self._cache = {}

                def get(self, obj):
                    key = id(obj)
                    value = self._cache.get(key)
                    if value is None:
                        value = 1
                        self._cache[key] = value
                    return value
            """
        }
    )
    assert "DET012" not in codes(findings)


# ---------------------------------------------------------------- PROC001


def test_proc001_fires_on_global_mutable_write_in_worker_cone() -> None:
    findings = run(
        {
            "repro.fx.worker": """
            _CACHE = {}

            def worker_entrypoint(fn):
                return fn

            def remember(key):
                _CACHE[key] = True

            @worker_entrypoint
            def cell(payload):
                remember(payload)
            """
        }
    )
    assert "PROC001" in codes(findings)


def test_proc001_silent_for_reads_and_out_of_cone_writes() -> None:
    findings = run(
        {
            "repro.fx.worker": """
            _CACHE = {}

            def worker_entrypoint(fn):
                return fn

            def lookup(key):
                return _CACHE.get(key)

            def warm(key):
                _CACHE[key] = True

            @worker_entrypoint
            def cell(payload):
                return lookup(payload)
            """
        }
    )
    assert "PROC001" not in codes(findings)


# ---------------------------------------------------------------- PROC002


def test_proc002_fires_on_lambda_and_closure_into_process_pool() -> None:
    findings = run(
        {
            "repro.fx.pool": """
            from concurrent.futures import ProcessPoolExecutor

            def main(items):
                def local(x):
                    return x + 1
                with ProcessPoolExecutor() as pool:
                    a = pool.submit(lambda v: v, 1)
                    b = pool.submit(local, 2)
                return a, b
            """
        }
    )
    assert codes(findings).count("PROC002") == 2


def test_proc002_silent_for_module_level_worker_and_thread_pool() -> None:
    findings = run(
        {
            "repro.fx.pool": """
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            def work(x):
                return x

            def main(items):
                with ProcessPoolExecutor() as pool:
                    a = pool.submit(work, 1)
                with ThreadPoolExecutor() as tpool:
                    b = tpool.submit(lambda v: v, 2)
                return a, b
            """
        }
    )
    assert "PROC002" not in codes(findings)


# ---------------------------------------------------------------- PROC003


def test_proc003_fires_on_lazy_singleton_in_worker_cone() -> None:
    findings = run(
        {
            "repro.fx.model": """
            _MODEL = None

            def worker_entrypoint(fn):
                return fn

            def get_model():
                global _MODEL
                if _MODEL is None:
                    _MODEL = object()
                return _MODEL

            @worker_entrypoint
            def cell(payload):
                return get_model()
            """
        }
    )
    assert "PROC003" in codes(findings)


def test_proc003_silent_outside_worker_cone() -> None:
    findings = run(
        {
            "repro.fx.model": """
            _MODEL = None

            def get_model():
                global _MODEL
                if _MODEL is None:
                    _MODEL = object()
                return _MODEL
            """
        }
    )
    assert "PROC003" not in codes(findings)


# ------------------------------------------------- suppression + dedupe


def test_own_line_directive_silences_whole_program_finding() -> None:
    findings = run(
        {
            "repro.fx.sim": """
            import time

            class Sim:
                def tick(self):
                    # fixture: the stamp is never compared across runs
                    self.started_at = time.time()  # reprolint: disable=DET010
            """
        }
    )
    assert "DET010" not in codes(findings)
    # the directive is code-specific: the per-file DET001 on that line stays
    assert codes(findings) == ["DET001"]


def test_def_line_directive_does_not_cover_function_body() -> None:
    # A directive covers its own line only, for whole-program findings too:
    # on the enclosing def or decorator line it silences nothing inside.
    findings = run(
        {
            "repro.fx.sim": """
            import time

            class Sim:
                # fixture: the stamp is never compared across runs
                def tick(self):  # reprolint: disable=DET010
                    self.started_at = time.time()
            """
        }
    )
    assert ("DET010", 7) in [(f.code, f.line) for f in findings]
    findings = run(
        {
            "repro.fx.model": """
            _MODEL = None

            def worker_entrypoint(fn):
                return fn

            # process-local scratch, never part of results
            @worker_entrypoint  # reprolint: disable=PROC003
            def get_model():  # reprolint: disable=PROC003
                global _MODEL
                if _MODEL is None:
                    _MODEL = object()
                return _MODEL
            """
        }
    )
    assert "PROC003" in codes(findings)


def test_findings_via_two_call_paths_are_deduped() -> None:
    findings = run(
        {
            "repro.fx.sim": """
            import time

            class Sim:
                def stamp(self):
                    self.t = time.time()

                def path_one(self):
                    self.stamp()

                def path_two(self):
                    self.stamp()
            """
        }
    )
    det = [finding for finding in findings if finding.code == "DET010"]
    assert len(det) == 1


def test_two_passes_over_one_program_agree() -> None:
    # rule instances are fresh per pass, so nothing carries over between runs
    sources = {
        "repro.fx.sim": """
        import time

        class Sim:
            def stamp(self):
                self.t = time.time()
        """
    }
    first = run(sources)
    assert first == run(sources)
    assert {"DET001", "DET010"} <= set(codes(first))
