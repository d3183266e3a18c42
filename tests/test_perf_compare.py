"""Baseline comparison edge cases: bands, boundaries, missing/NaN metrics."""

import math

import pytest

from repro.perf import SCHEMA_VERSION, compare_docs, render_comparison
from repro.perf.compare import (
    IMPROVED,
    INVALID,
    MISSING,
    NEW,
    OK,
    REGRESSED,
)
from repro.perf.schema import metric


def doc(metrics, suite="quick", schema_version=SCHEMA_VERSION):
    return {
        "schema_version": schema_version,
        "suite": suite,
        "metrics": metrics,
    }


def one(value, direction="higher", tolerance_pct=10.0):
    return doc({"m": metric(value, "u", direction, tolerance_pct)})


class TestDirections:
    def test_higher_regresses_on_drop(self):
        outcome = compare_docs(one(80.0), one(100.0))
        assert outcome.metrics[0].status == REGRESSED
        assert not outcome.passed

    def test_higher_improves_on_gain(self):
        outcome = compare_docs(one(130.0), one(100.0))
        assert outcome.metrics[0].status == IMPROVED
        assert outcome.passed

    def test_lower_regresses_on_growth(self):
        outcome = compare_docs(
            one(1.3, direction="lower"), one(1.0, direction="lower")
        )
        assert outcome.metrics[0].status == REGRESSED

    def test_band_uses_absolute_drift_in_points(self):
        # share 0.50 -> 0.58 is 8 points of drift; band of 10 passes,
        # band of 5 fails — in both drift directions.
        for current in (0.58, 0.42):
            ok = compare_docs(
                one(current, direction="band", tolerance_pct=10.0),
                one(0.50, direction="band", tolerance_pct=10.0),
            )
            assert ok.metrics[0].status == OK
            bad = compare_docs(
                one(current, direction="band", tolerance_pct=5.0),
                one(0.50, direction="band", tolerance_pct=5.0),
            )
            assert bad.metrics[0].status == REGRESSED

    def test_zero_baseline_only_matches_zero(self):
        same = compare_docs(one(0.0), one(0.0))
        assert same.metrics[0].status == OK
        moved = compare_docs(one(0.5), one(0.0))
        assert moved.metrics[0].status == REGRESSED
        assert math.isinf(moved.metrics[0].worse_pct)


class TestToleranceBoundary:
    def test_exact_boundary_is_within_tolerance(self):
        # 10% drop against a 10% band: worse == allowed, not a regression.
        outcome = compare_docs(one(90.0), one(100.0))
        assert outcome.metrics[0].status == OK
        assert outcome.passed

    def test_just_past_boundary_regresses(self):
        outcome = compare_docs(one(89.9), one(100.0))
        assert outcome.metrics[0].status == REGRESSED

    def test_scale_relaxes_the_band(self):
        strict = compare_docs(one(80.0), one(100.0))
        assert not strict.passed
        relaxed = compare_docs(one(80.0), one(100.0), scale=2.5)
        assert relaxed.passed
        assert relaxed.metrics[0].allowed_pct == pytest.approx(25.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compare_docs(one(1.0), one(1.0), scale=0.0)


class TestSilenceMustFail:
    def test_missing_metric_fails(self):
        current = doc({})
        outcome = compare_docs(current, one(100.0))
        assert outcome.metrics[0].status == MISSING
        assert not outcome.passed

    def test_nan_on_either_side_fails(self):
        for current, baseline in (
            (one(float("nan")), one(100.0)),
            (one(100.0), one(float("nan"))),
        ):
            outcome = compare_docs(current, baseline)
            assert outcome.metrics[0].status == INVALID
            assert not outcome.passed

    def test_new_metric_reported_but_never_fails(self):
        current = doc(
            {
                "m": metric(100.0, "u", "higher", 10.0),
                "fresh": metric(1.0, "u", "higher", 10.0),
            }
        )
        outcome = compare_docs(current, one(100.0))
        statuses = {m.name: m.status for m in outcome.metrics}
        assert statuses["fresh"] == NEW
        assert outcome.passed


class TestDocumentGuards:
    def test_stale_schema_fails_before_metric_math(self):
        outcome = compare_docs(one(0.0), one(100.0, tolerance_pct=0.0) | {
            "schema_version": SCHEMA_VERSION + 1
        })
        assert outcome.stale_schema
        assert not outcome.passed
        assert outcome.metrics == []

    def test_suite_mismatch_is_an_error(self):
        outcome = compare_docs(one(100.0), doc(one(100.0)["metrics"], suite="full"))
        assert outcome.errors
        assert not outcome.passed


class TestRendering:
    def test_render_names_metrics_and_verdict(self):
        text = render_comparison(compare_docs(one(80.0), one(100.0)))
        assert "m" in text
        assert "REGRESSED" in text.upper()
        passing = render_comparison(compare_docs(one(100.0), one(100.0)))
        assert "OK" in passing.upper()

    def test_render_names_the_checks_that_cannot_fail(self):
        # a throughput with a 40% band is blind at x3 (120%): even a drop to
        # zero passes, and the rendering says so under the verdict
        baseline = doc(
            {
                "speedup": metric(40.0, "x", "higher", 150.0),
                "throughput": metric(100.0, "ops/s", "higher", 40.0),
                "wall": metric(1.0, "s", "lower", 150.0),
            }
        )
        current = doc(
            {
                "speedup": metric(0.0, "x", "higher", 150.0),
                "throughput": metric(0.0, "ops/s", "higher", 40.0),
                "wall": metric(1.0, "s", "lower", 150.0),
            }
        )
        at_one = compare_docs(current, baseline, scale=1.0)
        assert [m.name for m in at_one.cannot_fail] == ["speedup"]
        assert not at_one.passed  # the 40% band still catches the drop
        at_three = compare_docs(current, baseline, scale=3.0)
        assert at_three.passed
        text = render_comparison(at_three)
        verdict, _, tail = text.partition("OK: all 3 metric(s) within tolerance (x3 scale)")
        assert verdict and tail.splitlines()[1:] == [
            "cannot fail: 2 higher-is-better metric(s) whose band is 100% or wider, "
            "more than any drop can reach:",
            "  speedup (allowed 450.0%)",
            "  throughput (allowed 120.0%)",
        ]
        assert "cannot fail" not in render_comparison(compare_docs(one(80.0), one(100.0)))
        # a blind band that fails anyway (here: missing from the current
        # run) is named as a regression only, never also as unable to fail
        baseline["metrics"]["gone"] = metric(10.0, "ops/s", "higher", 150.0)
        missing = compare_docs(current, baseline, scale=3.0)
        assert [m.name for m in missing.regressions] == ["gone"]
        assert [m.name for m in missing.cannot_fail] == ["speedup", "throughput"]
        text = render_comparison(missing)
        assert "REGRESSION: 1 metric(s) outside tolerance (x3 scale): gone" in text
        assert text.endswith("  throughput (allowed 120.0%)")
        assert "  gone (allowed" not in text
