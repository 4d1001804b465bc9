"""Tests for the experiment harness (registry, results, reporting)."""

import pytest

from repro.experiments import (
    Check,
    ExperimentResult,
    as_campaign,
    format_table,
    get_runner,
    registered,
    render_markdown,
)
from repro.experiments.base import _ORDER


def sample_result(passed: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig0",
        title="A sample experiment",
        paper_claim="The paper claims X beats Y by 2x.",
        headers=["config", "value"],
        rows=[("a", "1.0"), ("b", "2.0")])
    result.check("first shape check", True)
    result.check("second shape check", passed)
    return result


class TestExperimentResult:
    def test_check_recording(self):
        result = sample_result()
        assert len(result.checks) == 2
        assert result.passed()
        assert result.failures() == []

    def test_failures_listed(self):
        result = sample_result(passed=False)
        assert not result.passed()
        assert [check.description for check in result.failures()] == \
            ["second shape check"]

    def test_assert_all_raises_with_context(self):
        result = sample_result(passed=False)
        with pytest.raises(AssertionError, match="fig0: second shape check"):
            result.assert_all()

    def test_assert_all_passes_silently(self):
        sample_result().assert_all()

    def test_check_str(self):
        assert str(Check("thing holds", True)) == "[PASS] thing holds"
        assert str(Check("thing holds", False)) == "[FAIL] thing holds"


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        ids = registered()
        for expected in _ORDER:
            assert expected in ids, expected

    def test_paper_order_preserved(self):
        ids = registered()
        positions = [ids.index(exp_id) for exp_id in _ORDER]
        assert positions == sorted(positions)

    def test_get_runner_known(self):
        runner = get_runner("fig8")
        assert callable(runner)

    def test_get_runner_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_runner("fig99")

    def test_every_experiment_is_a_campaign(self):
        from repro.campaign import Campaign
        for exp_id in registered():
            campaign = as_campaign(exp_id)
            assert isinstance(campaign, Campaign), exp_id
            assert campaign.name == exp_id
            assert campaign.points(), exp_id


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(sample_result())
        lines = text.splitlines()
        assert lines[0].startswith("=== A sample experiment")
        assert "config" in lines[1] and "value" in lines[1]
        assert set(lines[2]) == {"-"}
        assert lines[3].startswith("a")

    def test_render_markdown_summary(self):
        text = render_markdown([sample_result()])
        assert "| fig0 | A sample experiment | 2/2 | reproduced |" in text
        assert "**Paper:** The paper claims X beats Y by 2x." in text
        assert "- [x] first shape check" in text

    def test_render_markdown_failure_verdict(self):
        text = render_markdown([sample_result(passed=False)])
        assert "| 1/2 | NOT reproduced |" in text
        assert "- [ ] second shape check" in text

    def test_render_markdown_notes(self):
        result = sample_result()
        result.notes = "Sizes were scaled down 4x."
        text = render_markdown([result])
        assert "**Notes:** Sizes were scaled down 4x." in text

    def test_markdown_table_shape(self):
        text = render_markdown([sample_result()])
        assert "| config | value |" in text
        assert "| a | 1.0 |" in text


class TestRunnersSmoke:
    """One fast runner end-to-end: registry -> result -> checks."""

    def test_fig8_quick_reproduces(self):
        result = get_runner("fig8")(quick=True)
        assert result.exp_id == "fig8"
        assert result.rows
        result.assert_all()

    def test_fig3_quick_reproduces(self):
        result = get_runner("fig3")(quick=True)
        result.assert_all()
        # The decentralization claim is visible in the quick run too.
        assert any("zero network metadata" in check.description
                   for check in result.checks)
