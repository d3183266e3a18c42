"""The one exit-code table, pinned across subcommands.

``src/repro/cli.py`` documents a single contract for every subcommand:
0 = success, 1 = verdict/gate failure, 2 = usage error.  Scripts and the
CI chaos job branch on these, so each class of exit is exercised here on
at least two unrelated subcommands — a regression in one command's exit
semantics must not hide behind another command's coverage.
"""

import textwrap

import pytest

from repro.cli import main

# A complete-but-tiny fleet: two devices, no replication fan-out beyond
# one copy, a handful of requests.  Fast enough for the tier-1 suite.
FLEET_SMALL = [
    "fleet",
    "--fleet",
    "devices=2,replicas=1,tenants=2,requests_per_tenant=6,queue_depth=8",
    "--seed",
    "5",
]


class TestExitZero:
    @pytest.mark.parametrize(
        "argv",
        [
            ["overhead"],
            ["sweep", "--over", "seed=1,2", "--dry-run"],
            FLEET_SMALL,
            ["lint", "src/repro/utils"],
            ["lint", "src/repro/utils", "--format", "json"],
        ],
        ids=["overhead", "sweep-dry-run", "fleet", "lint-clean", "lint-json"],
    )
    def test_success_exits_zero(self, argv, capsys):
        assert main(argv) == 0


class TestExitOne:
    def test_lint_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "rng.py"
        bad.write_text(
            textwrap.dedent(
                """\
                import numpy as np

                r = np.random.default_rng(7)
                """
            ),
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "RNG003" in capsys.readouterr().out


class TestExitTwo:
    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            (["sweep", "--over", "seed", "--dry-run"], "bad --over"),
            (
                ["sweep", "--over", "seed=1", "--over", "seed=2", "--dry-run"],
                "already swept",
            ),
            (["fleet", "--fleet", "devices=zero"], "bad fleet configuration"),
            (["fleet", "--fleet", "no_such_knob=1"], "bad fleet configuration"),
            (["fleet", "--faults", "@/no/such/plan.json"], "bad --faults"),
            (
                ["fleet", "--policy", "allocation=no.such.policy"],
                "bad --policy",
            ),
            (["lint", "no/such/dir"], "no such path"),
            (
                ["run", "--allocator", "random",
                 "--policy", "assembly=assembly.predictor"],
                "needs allocator 'qstr'",
            ),
            (
                ["sweep", "--preset", "device", "--over", "allocator=greedy",
                 "--dry-run"],
                "allocator must be one of",
            ),
            (
                ["sweep", "--preset", "device",
                 "--policy", "assembly=assembly.predictor",
                 "--over", "allocator=qstr,random", "--dry-run"],
                "needs allocator 'qstr'",
            ),
            (["run", "--repair", "random"], "unrecognized arguments"),
            (["fleet", "--devices", "3"], "unrecognized arguments"),
            (
                ["sweep", "--repair", "random", "--dry-run"],
                "unrecognized arguments",
            ),
            (["lint", "--format", "sarif"], "invalid choice"),
            (["lint", "--vector-report"], "unrecognized arguments"),
            (["lint", "--deep"], "unrecognized arguments"),
            (["lint", "--baseline", "x.json"], "unrecognized arguments"),
            (["lint", "--write-baseline"], "unrecognized arguments"),
            (["sweep", "--retries", "-1", "--dry-run"], "retries must be >= 0"),
            (["sweep", "--cell-timeout", "0", "--dry-run"], "cell_timeout must be"),
            (["sweep", "--workers", "0", "--dry-run"], "workers must be >= 1"),
            (
                ["run", "--policy", "allocation=allocation.bandit:epsilonn=0.2"],
                "reads no parameter epsilonn",
            ),
            (["run", "--policy", "wear=wear.rotate"], "unknown policy point 'wear'"),
            (
                ["sweep", "--over", "policies.allocation=allocation.nope",
                 "--dry-run"],
                "unknown policy 'allocation.nope'",
            ),
            (
                ["sweep", "--over",
                 "policies.allocation=allocation.bandit:epsilonn=0.2",
                 "--dry-run"],
                "reads no parameter epsilonn",
            ),
        ],
        ids=[
            "sweep-bad-over",
            "sweep-duplicate-axis",
            "fleet-bad-value",
            "fleet-unknown-knob",
            "fleet-missing-fault-plan",
            "fleet-unknown-policy",
            "lint-missing-path",
            "run-assembly-policy-on-baseline-allocator",
            "sweep-bad-axis-value",
            "sweep-assembly-policy-on-baseline-allocator",
            "run-retired-repair-alias",
            "fleet-retired-devices-flag",
            "sweep-retired-repair-alias",
            "lint-retired-sarif-format",
            "lint-retired-vector-report",
            "lint-retired-deep",
            "lint-retired-baseline",
            "lint-retired-write-baseline",
            "sweep-negative-retries",
            "sweep-zero-cell-timeout",
            "sweep-zero-workers",
            "run-unread-policy-param",
            "run-folded-policy-point",
            "sweep-over-unknown-policy",
            "sweep-over-unread-policy-param",
        ],
    )
    def test_usage_errors_exit_two(self, argv, needle, capsys):
        # some validators return 2, others raise SystemExit(2) from inside
        # shared argument helpers — the observable exit status is the same
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        assert code == 2
        assert needle in capsys.readouterr().err

    def test_argparse_errors_exit_two(self):
        with pytest.raises(SystemExit) as stop:
            main(["no-such-command"])
        assert stop.value.code == 2
