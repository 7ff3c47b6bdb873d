"""Unit tests for the F-DETA five-step pipeline."""

import pytest

from repro.core.framework import (
    AnomalyNature,
    ExternalEvidence,
    FDetaFramework,
)
from repro.core.kld import KLDDetector
from repro.errors import ConfigurationError, DataError
from repro.grid.balance import BalanceAuditor
from repro.grid.builder import build_figure2_topology
from repro.grid.investigation import deepest_failure_investigation
from repro.grid.snapshot import DemandSnapshot


@pytest.fixture(scope="module")
def framework(paper_dataset):
    fw = FDetaFramework(
        detector_factory=lambda: KLDDetector(significance=0.05)
    )
    fw.train(
        {
            cid: paper_dataset.train_matrix(cid)
            for cid in paper_dataset.consumers()[:4]
        }
    )
    return fw


class TestTraining:
    def test_detector_per_consumer(self, framework, paper_dataset):
        for cid in paper_dataset.consumers()[:4]:
            assert framework.detector_for(cid) is not None

    def test_unknown_consumer_raises(self, framework):
        with pytest.raises(DataError):
            framework.detector_for("ghost")

    def test_empty_training_rejected(self):
        fw = FDetaFramework(detector_factory=KLDDetector)
        with pytest.raises(DataError):
            fw.train({})

    def test_bad_quantiles_rejected(self):
        with pytest.raises(ConfigurationError):
            FDetaFramework(
                detector_factory=KLDDetector, triage_quantiles=(0.8, 0.2)
            )
        with pytest.raises(ConfigurationError):
            FDetaFramework(
                detector_factory=KLDDetector, triage_quantiles=(0.0, 0.8)
            )


class TestAssessment:
    def test_normal_week_normal(self, framework, paper_dataset):
        cid = paper_dataset.consumers()[0]
        assessment = framework.assess_week(
            cid, paper_dataset.test_matrix(cid)[0]
        )
        # Normal weeks are usually unflagged (95% by construction).
        if not assessment.result.flagged:
            assert assessment.nature is AnomalyNature.NORMAL

    def test_step3_high_readings_mean_victim(self, framework, paper_dataset):
        """Proposition 2 in the pipeline: abnormally high readings mark
        a victimised neighbour (Attack Classes 1B-3B)."""
        cid = paper_dataset.consumers()[0]
        week = paper_dataset.test_matrix(cid)[0] * 4.0
        assessment = framework.assess_week(cid, week)
        assert assessment.result.flagged
        assert assessment.nature is AnomalyNature.SUSPECTED_VICTIM

    def test_step3_low_readings_mean_attacker(self, framework, paper_dataset):
        cid = paper_dataset.consumers()[0]
        week = paper_dataset.test_matrix(cid)[0] * 0.05
        assessment = framework.assess_week(cid, week)
        assert assessment.result.flagged
        assert assessment.nature is AnomalyNature.SUSPECTED_ATTACKER

    def test_step4_external_evidence_suppresses(self, framework, paper_dataset):
        cid = paper_dataset.consumers()[0]
        week = paper_dataset.test_matrix(cid)[0] * 0.05
        evidence = ExternalEvidence(holiday_weeks=frozenset({3}))
        assessment = framework.assess_week(cid, week, week_index=3, evidence=evidence)
        assert assessment.false_positive_suspected


class TestStep5Investigation:
    def test_balance_failure_investigated(self):
        topo = build_figure2_topology()
        auditor = BalanceAuditor(topo)
        actual = {c: 2.0 for c in topo.consumers()}
        snap = DemandSnapshot(topology=topo, actual=actual).with_reported(
            {"C4": 0.5}
        )
        report = auditor.audit(snap)
        assert report.any_failure
        result = deepest_failure_investigation(topo, report)
        assert "C4" in result.suspect_consumers

    def test_balanced_attack_yields_none(self):
        """Step 5 alone is insufficient for the B classes — the reason
        the data-driven steps exist."""
        topo = build_figure2_topology()
        auditor = BalanceAuditor(topo)
        actual = {c: 2.0 for c in topo.consumers()}
        actual["C4"] = 5.0  # Mallory consumes 3 extra
        snap = DemandSnapshot(topology=topo, actual=actual).with_reported(
            {"C4": 2.0, "C5": 5.0}  # neighbour over-reported
        )
        assert not auditor.audit(snap).any_failure
