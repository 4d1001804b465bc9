"""Tests for the experiment harness (registry, results, reporting)."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import CampaignResult
from repro.experiments import (
    Check,
    ExperimentResult,
    as_campaign,
    registered,
    render_markdown,
    report_sweep,
)
from repro.experiments.base import _ORDER
from repro.scenario import ScenarioRun

GOLDEN_QUICK = Path(__file__).parent / "golden" / "experiments_quick.md"
# ablation-precompute's wall-clock rows, masked as the golden has them.
_WALL_CLOCK_ROW = re.compile(
    r"^(\| (?:offline pre-computation|runtime cost per event|"
    r"online collapse per event)[^|]*\|) [0-9.]+ ms \|$", re.M)


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

    def test_every_experiment_is_a_campaign(self):
        from repro.campaign import Campaign
        for exp_id in registered():
            campaign = as_campaign(exp_id)
            assert isinstance(campaign, Campaign), exp_id
            assert campaign.name == exp_id
            assert campaign.points(), exp_id


#: The ablations that time or inspect the engine's internals keep a
#: ``custom`` workload, which carries Python callables no document holds.
_NOT_DOCUMENTS = {"ablation-precompute", "ablation-sharing"}


class TestDocuments:
    @pytest.mark.parametrize("exp_id", registered())
    def test_first_point_round_trips_through_scn(self, exp_id):
        """Every experiment is a ``.scn`` document plus a report: its
        first campaign point dumps, and the dump loads back to the same
        scenario and the same bytes."""
        from repro.scenario import ScnError, dumps_scn, loads_scn
        campaign = as_campaign(exp_id)
        point = campaign.points()[0]
        builder = campaign._factory(**point.params_dict(), seed=point.seed)
        if exp_id in _NOT_DOCUMENTS:
            with pytest.raises(ScnError, match="serializable"):
                dumps_scn(builder)
            return
        compiled = builder.compile()
        text = dumps_scn(compiled)
        reloaded = loads_scn(text).compile()
        assert dumps_scn(reloaded) == text
        assert reloaded.workloads == compiled.workloads


class TestFormatting:
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


def round_tripped(sweep) -> CampaignResult:
    """The sweep as a store or pool worker hands it back: every run
    through ``ScenarioRun.from_dict(run.to_dict())`` (no engine, no raw
    results, stringified workload keys)."""
    return CampaignResult(sweep.campaign, [
        result if result.run is None else replace(
            result, run=ScenarioRun.from_dict(result.run.to_dict()))
        for result in sweep])


def quick_section(markdown: str, exp_id: str) -> str:
    """``exp_id``'s section of an EXPERIMENTS.md, wall-clock cells masked."""
    section = markdown.split(f"\n## {exp_id}: ", 1)[1].split("\n## ", 1)[0]
    return _WALL_CLOCK_ROW.sub(r"\1 (wall-clock) |", section).rstrip("\n")


class TestRunnersSmoke:
    """Experiments end-to-end in this process: registry -> campaign ->
    report, over live runs (``benchmarks/`` reads its sweeps back from a
    pool, so only here does a report see engines and raw results)."""

    @pytest.mark.parametrize("exp_id", registered())
    def test_live_quick_report_is_the_stored_one_and_the_golden(
            self, exp_id):
        live = as_campaign(exp_id, quick=True).run(jobs=1)
        result = report_sweep(live)
        assert report_sweep(round_tripped(live)) == result, \
            f"{exp_id}: report depends on more than the stored metrics"
        assert quick_section(render_markdown([result]), exp_id) == \
            quick_section(GOLDEN_QUICK.read_text(encoding="utf-8"), exp_id)

    def test_fig8_quick_reproduces(self):
        result = report_sweep(as_campaign("fig8", quick=True).run())
        assert result.exp_id == "fig8"
        assert result.rows
        result.assert_all()

    def test_fig3_quick_reproduces(self):
        result = report_sweep(as_campaign("fig3", quick=True).run())
        result.assert_all()
        # The decentralization claim is visible in the quick run too.
        assert any("zero network metadata" in check.description
                   for check in result.checks)
