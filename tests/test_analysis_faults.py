"""Repair-policy experiment: the qstr-vs-random post-repair latency claim.

EXPERIMENTS.md cites this module as the tier-1 guard on the paper-extending
result: similarity-matched spares (``qstr``) blend into a repaired
superblock with strictly less post-repair extra program latency than
arbitrary spares (``random``) on the pinned experiment config.
"""

import pytest

from repro.analysis.faults import (
    compare_repair_policies,
    default_fault_config,
    render_repair_comparison,
)
from repro.policy.registry import policy_names
from repro.policy.spec import PolicySpec


@pytest.fixture(scope="module")
def comparison():
    # ~1000-request runs under both policies; compute once for the module
    return compare_repair_policies(default_fault_config(requests=1000))


class TestRepairPolicyComparison:
    def test_qstr_beats_random_on_the_pinned_config(self, comparison):
        by = comparison.by_policy()
        assert (
            by["qstr"].post_repair_extra_mean_us
            < by["random"].post_repair_extra_mean_us
        )
        assert comparison.qstr_advantage_us > 0.0

    def test_the_comparison_is_paired(self, comparison):
        # identical config seed -> identical injected fault schedule, so
        # both policies absorb the same failures and the same repair count
        by = comparison.by_policy()
        assert by["qstr"].program_failures == by["random"].program_failures > 0
        assert by["qstr"].sb_repairs == by["random"].sb_repairs > 0
        assert by["qstr"].post_repair_swls > 0
        assert by["random"].post_repair_swls > 0

    def test_zero_data_loss_under_both_policies(self, comparison):
        for result in comparison.results:
            assert result.unlocated_pages == 0

    def test_one_row_per_registered_repair_policy(self, comparison):
        # the rows follow the policy registry, the only list of repair names
        registered = [PolicySpec(name).short_name for name in policy_names("repair")]
        assert [result.policy for result in comparison.results] == registered
        assert set(registered) == {"qstr", "random"}

    def test_render_mentions_both_policies_and_the_advantage(self, comparison):
        text = render_repair_comparison(comparison)
        assert "qstr" in text and "random" in text
        assert "qstr advantage: +" in text
        assert comparison.config_hash in text


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        from repro.analysis.faults import run_repair_policy

        with pytest.raises(ValueError, match="policy"):
            run_repair_policy(default_fault_config(), "eeny_meeny")

    def test_default_config_is_faulted(self):
        config = default_fault_config()
        assert config.faults is not None
        assert config.faults.program_fail_prob > 0.0
