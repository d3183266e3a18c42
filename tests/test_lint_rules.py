"""Per-rule unit tests: every rule fires on its positive fixture and stays
quiet on the negative one, and suppression comments work at line and file
scope."""

from __future__ import annotations

import textwrap
from typing import List

import pytest

from repro.lint import Finding, all_rules, get_rule, lint_source
from repro.lint.engine import module_name_for
from repro.lint.layers import is_allowed_import, layer_of
from repro.lint.suppressions import parse_suppressions


def codes(findings: List[Finding]) -> List[str]:
    return [f.code for f in findings]


def run(source: str, module: str = "repro.ftl.ftl") -> List[Finding]:
    return lint_source(textwrap.dedent(source), path="fixture.py", module=module)


# ---------------------------------------------------------------- registry


def test_registry_has_all_rule_families() -> None:
    registered = {rule.code for rule in all_rules()}
    assert registered == {
        "RNG001",
        "RNG002",
        "RNG003",
        "RNG004",
        "RNG005",
        "DET001",
        "DET002",
        "LAY001",
        "NUM001",
        "NUM002",
        "OBS001",
    }


def test_get_rule_unknown_code_raises() -> None:
    with pytest.raises(KeyError):
        get_rule("NOPE999")


# ---------------------------------------------------------------- RNG001


def test_rng001_flags_stdlib_random_import() -> None:
    assert "RNG001" in codes(run("import random\n"))
    assert "RNG001" in codes(run("from random import shuffle\n"))


def test_rng001_clean_on_numpy_and_rng_home() -> None:
    assert "RNG001" not in codes(run("import numpy as np\n"))
    # the RNG home module itself is exempt
    assert "RNG001" not in codes(
        lint_source("import random\n", module="repro.utils.rng")
    )


# ---------------------------------------------------------------- RNG002


def test_rng002_flags_legacy_global_numpy_api() -> None:
    assert "RNG002" in codes(run("import numpy as np\nnp.random.seed(3)\n"))
    assert "RNG002" in codes(run("import numpy as np\nx = np.random.rand(4)\n"))


def test_rng002_allows_default_rng_and_generator_classes() -> None:
    clean = """
        import numpy as np
        from repro.utils.rng import derive_seed
        rng = np.random.default_rng(derive_seed(1, "x"))
        gen = np.random.Generator
    """
    assert "RNG002" not in codes(run(clean))


# ---------------------------------------------------------------- RNG003


def test_rng003_flags_underived_seeds() -> None:
    assert "RNG003" in codes(run("import numpy as np\nr = np.random.default_rng(7)\n"))
    assert "RNG003" in codes(run("import numpy as np\nr = np.random.default_rng()\n"))
    assert "RNG003" in codes(
        run("from numpy.random import default_rng\nr = default_rng((1, 2))\n")
    )


def test_rng003_allows_derive_seed() -> None:
    clean = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "chip", 3))
    """
    assert "RNG003" not in codes(run(clean))


# ---------------------------------------------------------------- RNG004


def test_rng004_flags_unlabeled_stream_in_faults_module() -> None:
    source = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "chip", 3))
    """
    findings = run(source, module="repro.faults.injector")
    assert "RNG004" in codes(findings)


def test_rng004_allows_faults_labeled_stream() -> None:
    clean = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "faults", 3, "program"))
    """
    assert "RNG004" not in codes(run(clean, module="repro.faults.injector"))


def test_rng004_scoped_to_faults_modules_only() -> None:
    # the same unlabeled stream outside repro.faults is RNG004-clean
    source = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "chip", 3))
    """
    assert "RNG004" not in codes(run(source, module="repro.ftl.ftl"))


# ---------------------------------------------------------------- RNG005


def test_rng005_flags_unlabeled_stream_in_policy_module() -> None:
    source = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "bandit"))
    """
    findings = run(source, module="repro.policy.learned")
    assert "RNG005" in codes(findings)


def test_rng005_allows_policy_labeled_stream() -> None:
    clean = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "policy", "allocation.bandit"))
    """
    assert "RNG005" not in codes(run(clean, module="repro.policy.learned"))


def test_rng005_scoped_to_policy_modules_only() -> None:
    # the same unlabeled stream outside repro.policy is RNG005-clean
    source = """
        import numpy as np
        from repro.utils.rng import derive_seed
        r = np.random.default_rng(derive_seed(7, "chip", 3))
    """
    assert "RNG005" not in codes(run(source, module="repro.ftl.ftl"))


# ---------------------------------------------------------------- DET001


def test_det001_flags_wall_clock_in_simulator() -> None:
    assert "DET001" in codes(run("import time\nt = time.time()\n"))
    assert "DET001" in codes(
        run("from datetime import datetime\nd = datetime.now()\n")
    )
    assert "DET001" in codes(run("import os\nb = os.urandom(8)\n"))
    assert "DET001" in codes(run("from time import time\n"))


def test_det001_scoped_to_repro_package() -> None:
    # tools/ and benchmarks/ may measure wall time.
    assert "DET001" not in codes(
        lint_source("import time\nt = time.time()\n", module="tools.report")
    )


def test_det001_perf_carve_out_is_perf_counter_only() -> None:
    # repro.perf is the sanctioned wall-clock layer: perf_counter[_ns]
    # only, in both dotted and from-import spellings.
    assert "DET001" not in codes(
        run("from time import perf_counter\nt = perf_counter()\n",
            module="repro.perf.profiler")
    )
    assert "DET001" not in codes(
        run("import time\nt = time.perf_counter_ns()\n",
            module="repro.perf.bench")
    )
    # everything else stays banned even inside repro.perf
    assert "DET001" in codes(
        run("import time\nt = time.time()\n", module="repro.perf.profiler")
    )
    assert "DET001" in codes(
        run("from datetime import datetime\nd = datetime.now()\n",
            module="repro.perf.bench")
    )
    # and perf_counter outside repro.perf is still a finding
    assert "DET001" in codes(
        run("from time import perf_counter\n", module="repro.ftl.ftl")
    )


# ---------------------------------------------------------------- DET002


def test_det002_flags_bare_set_iteration() -> None:
    assert "DET002" in codes(run("for x in {1, 2, 3}:\n    pass\n"))
    assert "DET002" in codes(run("vals = [x for x in set(items)]\n"))


def test_det002_allows_sorted_sets() -> None:
    assert "DET002" not in codes(run("for x in sorted({1, 2, 3}):\n    pass\n"))
    assert "DET002" not in codes(run("for x in sorted(set(items)):\n    pass\n"))


# ---------------------------------------------------------------- LAY001


def test_lay001_flags_inverted_edge() -> None:
    findings = lint_source(
        "from repro.ftl.ftl import Ftl\n", module="repro.nand.chip"
    )
    assert "LAY001" in codes(findings)


def test_lay001_allows_downward_edge_and_exceptions() -> None:
    assert "LAY001" not in codes(
        lint_source("from repro.nand.chip import FlashChip\n", module="repro.ftl.ftl")
    )
    # the reviewed data-model exception
    assert "LAY001" not in codes(
        lint_source(
            "from repro.workloads.model import Request\n", module="repro.ssd.device"
        )
    )
    # but the rest of workloads stays off-limits to ssd
    assert "LAY001" in codes(
        lint_source(
            "from repro.workloads.replay import Replayer\n", module="repro.ssd.device"
        )
    )


def test_lay001_type_checking_imports_exempt() -> None:
    source = """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from repro.ssd.device import Ssd
    """
    assert "LAY001" not in codes(
        lint_source(textwrap.dedent(source), module="repro.workloads.replay")
    )


def test_layer_map_helpers() -> None:
    assert layer_of("repro.ftl.ftl") == "ftl"
    assert layer_of("repro.cli") == ""
    assert is_allowed_import("repro.cli", "repro.ssd.device")
    assert not is_allowed_import("repro.utils.stats", "repro.nand.chip")


# ---------------------------------------------------------------- NUM001


def test_num001_flags_float_literal_equality() -> None:
    assert "NUM001" in codes(run("ok = latency == 1.5\n"))
    assert "NUM001" in codes(run("ok = 0.0 != latency\n"))


def test_num001_allows_int_compare_and_inequalities() -> None:
    assert "NUM001" not in codes(run("ok = count == 0\n"))
    assert "NUM001" not in codes(run("ok = latency < 1.5\n"))


# ---------------------------------------------------------------- NUM002


def test_num002_flags_mutable_defaults() -> None:
    assert "NUM002" in codes(run("def f(items=[]):\n    return items\n"))
    assert "NUM002" in codes(run("def f(*, cache={}):\n    return cache\n"))


def test_num002_allows_none_and_tuples() -> None:
    assert "NUM002" not in codes(run("def f(items=None, shape=(1, 2)):\n    pass\n"))


# ------------------------------------------------------------ suppressions


def test_line_suppression_silences_only_that_line() -> None:
    source = (
        "import numpy as np\n"
        "a = np.random.default_rng(1)  # reprolint: disable=RNG003\n"
        "b = np.random.default_rng(2)\n"
    )
    findings = lint_source(source, module="repro.ftl.ftl")
    assert codes(findings).count("RNG003") == 1
    assert findings[0].line == 3


def test_file_suppression_silences_whole_file() -> None:
    source = (
        "# reprolint: disable-file=RNG003\n"
        "import numpy as np\n"
        "a = np.random.default_rng(1)\n"
        "b = np.random.default_rng(2)\n"
    )
    assert "RNG003" not in codes(lint_source(source, module="repro.ftl.ftl"))


def test_suppression_is_code_specific() -> None:
    source = "import random  # reprolint: disable=DET001\n"
    assert "RNG001" in codes(lint_source(source, module="repro.ftl.ftl"))


def test_parse_suppressions_multiple_codes() -> None:
    index = parse_suppressions("x = 1  # reprolint: disable=RNG001, NUM001\n")
    assert index.line_codes[1] == frozenset({"RNG001", "NUM001"})


# ---------------------------------------------------------------- OBS001


def test_obs001_flags_clock_modules_in_obs() -> None:
    assert "OBS001" in codes(run("import time\n", module="repro.obs.tracer"))
    assert "OBS001" in codes(
        run("from datetime import datetime\n", module="repro.obs.export")
    )
    assert "OBS001" in codes(
        run("stamp = time.monotonic\n", module="repro.obs.tracer")
    )
    assert "OBS001" in codes(
        run(
            """
            import importlib
            clock = importlib.import_module("time")
            """,
            module="repro.obs.registry",
        )
    )
    assert "OBS001" in codes(
        run('clock = __import__("datetime")\n', module="repro.obs.tracer")
    )


def test_obs001_scoped_to_obs_package() -> None:
    # Outside repro.obs the stricter import ban does not apply (DET001
    # still polices wall-clock *calls* simulator-wide).
    assert "OBS001" not in codes(run("import time\n", module="repro.ftl.ftl"))
    # Benign imports inside repro.obs stay clean.
    assert "OBS001" not in codes(
        run("import json\nfrom pathlib import Path\n", module="repro.obs.export")
    )


def test_obs001_perf_carve_out() -> None:
    # repro.perf is in OBS001 scope but may name the two sanctioned
    # clock entry points — nothing else.
    assert "OBS001" not in codes(
        run("from time import perf_counter\n", module="repro.perf.profiler")
    )
    assert "OBS001" not in codes(
        run("from time import perf_counter, perf_counter_ns\n",
            module="repro.perf.profiler")
    )
    # wholesale module import is still a finding even in perf
    assert "OBS001" in codes(run("import time\n", module="repro.perf.bench"))
    assert "OBS001" in codes(
        run("from time import perf_counter, monotonic\n",
            module="repro.perf.profiler")
    )
    assert "OBS001" in codes(
        run("from datetime import datetime\n", module="repro.perf.bench")
    )
    # but obs proper gets no such allowance
    assert "OBS001" in codes(
        run("from time import perf_counter\n", module="repro.obs.tracer")
    )


# ---------------------------------------------------------------- engine


def test_module_name_for_src_layout(tmp_path) -> None:
    from pathlib import Path

    assert (
        module_name_for(Path("src/repro/ftl/ftl.py")) == "repro.ftl.ftl"
    )
    assert module_name_for(Path("src/repro/ftl/__init__.py")) == "repro.ftl"
    assert (
        module_name_for(Path("benchmarks/bench_x.py"), root=Path("."))
        == "benchmarks.bench_x"
    )


def test_syntax_error_reported_as_parse_finding() -> None:
    findings = lint_source("def broken(:\n", module="repro.ftl.ftl")
    assert codes(findings) == ["PARSE"]


def test_findings_sorted_and_json_roundtrip() -> None:
    import json

    from repro.lint import render_json, render_text

    source = "import random\nimport numpy as np\nr = np.random.default_rng(3)\n"
    findings = lint_source(source, module="repro.ftl.ftl")
    assert findings == sorted(findings)
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings) >= 2
    assert payload["findings"][0]["code"]
    text = render_text(findings)
    assert "reprolint:" in text and "RNG001" in text
