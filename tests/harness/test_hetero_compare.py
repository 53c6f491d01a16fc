"""Heterogeneous-fleet differential harness: report structure + verdicts."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness.hetero_compare import (
    DEFAULT_SHAPE,
    DEFAULT_SPEC,
    REPLAN_ROUTER,
    ROUTERS,
    replan_recovers,
    routing_wins,
    run_hetero_comparison,
)
from repro.harness.runner import ArmRun, ArmSetReport
from repro.serving.metrics import MetricsCollector
from repro.sim.fingerprint import RunFingerprint

#: One shared small comparison — four fleet runs is the expensive part.
SPEC = replace(DEFAULT_SPEC, num_requests=48, seed=3)


@pytest.fixture(scope="module")
def report():
    return run_hetero_comparison(SPEC)


CELLS = (
    "route:least-loaded",
    "route:predicted-ttft",
    "crash:no-replan",
    "crash:replan",
)


def stub_run(label, **overrides) -> dict:
    """A derived-metrics row as the verdicts see it."""
    row = dict(
        label=label,
        router="predicted-ttft",
        fault_plan=None,
        replan=False,
        submitted=10,
        completed=10,
        shed=0,
        retried=0,
        mean_ttft=0.1,
        slo_attainment=1.0,
        slo_goodput=10,
        members_replanned=0,
        replan_requeues=0,
        replans=[],
    )
    row.update(overrides)
    return row


class TestReportStructure:
    def test_four_cells_with_expected_labels(self, report):
        assert tuple(report.runs) == CELLS
        for label, run in report.runs.items():
            assert run.derived["label"] == label

    def test_every_cell_passes_the_invariant_suite(self, report):
        for run in report.runs.values():
            assert run.violations == []
        assert report.violations == []

    def test_cells_conserve_the_workload(self, report):
        for run in report.runs.values():
            assert run.derived["submitted"] == SPEC.num_requests
            assert run.derived["completed"] + run.derived["shed"] == SPEC.num_requests

    def test_routing_cells_are_fault_free(self, report):
        for router in ROUTERS:
            run = report.runs[f"route:{router}"].derived
            assert run["fault_plan"] is None
            assert run["retried"] == 0
            assert run["members_replanned"] == 0

    def test_crash_cells_share_the_fault_plan(self, report):
        for label in ("crash:no-replan", "crash:replan"):
            assert report.runs[label].derived["fault_plan"] == SPEC.fault_plan
            assert report.runs[label].derived["router"] == REPLAN_ROUTER
        assert report.runs["crash:no-replan"].derived["members_replanned"] == 0
        replanned = report.runs["crash:replan"].derived
        assert replanned["members_replanned"] >= 1
        assert len(replanned["replans"]) == replanned["members_replanned"]

    def test_same_router_same_workload_same_fingerprint_prefault(self, report):
        # The two routing cells differ only by router, so their
        # fingerprints must differ (policy identity is hashed) ...
        assert (
            report.runs["route:least-loaded"].fingerprint
            != report.runs["route:predicted-ttft"].fingerprint
        )
        # ... and the crash cells differ only by the replanner.
        assert (
            report.runs["crash:no-replan"].fingerprint
            != report.runs["crash:replan"].fingerprint
        )

    def test_as_dict_round_trip(self, report):
        payload = report.as_dict()
        assert payload["spec"]["shape"] == DEFAULT_SHAPE
        assert set(payload["runs"]) == set(CELLS)
        for verdict in ("routing_wins", "replan_recovers", "passed"):
            assert isinstance(payload[verdict], bool)
        cell = payload["runs"]["crash:replan"]
        for key in (
            "label",
            "mean_ttft",
            "slo_goodput",
            "members_replanned",
            "replan_requeues",
            "fingerprint",
            "violations",
        ):
            assert key in cell


class TestVerdicts:
    def test_missing_runs_mean_no_verdict(self):
        assert not routing_wins({})
        assert not replan_recovers({})
        empty = ArmSetReport(
            spec={}, runs={}, verdicts={"routing_wins": False, "replan_recovers": False}
        )
        assert empty.violations == []  # vacuous: no runs, no violations
        assert not empty.passed  # ... but no verdict held

    def test_routing_wins_compares_mean_ttft(self):
        rows = {
            "route:least-loaded": stub_run("route:least-loaded", mean_ttft=0.2),
            "route:predicted-ttft": stub_run("route:predicted-ttft", mean_ttft=0.1),
        }
        assert routing_wins(rows)
        rows["route:predicted-ttft"]["mean_ttft"] = 0.3
        assert not routing_wins(rows)

    def test_replan_recovers_needs_an_actual_replan(self):
        rows = {
            "crash:no-replan": stub_run("crash:no-replan", slo_goodput=5),
            "crash:replan": stub_run("crash:replan", slo_goodput=8, members_replanned=0),
        }
        # Better goodput without a replan event does not count.
        assert not replan_recovers(rows)
        rows["crash:replan"]["members_replanned"] = 1
        assert replan_recovers(rows)
        rows["crash:replan"]["slo_goodput"] = 4
        assert not replan_recovers(rows)

    def test_violations_fail_the_report(self):
        run = ArmRun(
            name="route:least-loaded",
            target=None,
            submitted=[],
            metrics=MetricsCollector(),
            fingerprint=RunFingerprint("t", "r", "g"),
            plan_events=[],
            violations=[],
        )
        report = ArmSetReport(spec={}, runs={run.name: run}, verdicts={"routing_wins": True})
        assert report.passed
        run.violations.append("lost a request")
        assert not report.passed


class TestDefaultSpecVerdicts:
    """The CI smoke runs the default spec; pin that both verdicts hold."""

    def test_default_spec_discriminates(self):
        report = run_hetero_comparison()
        assert report.verdicts == {"routing_wins": True, "replan_recovers": True}
        assert report.passed


def test_registry_violation_fails_the_hetero_command(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.harness.runner.audit_run", lambda target, submitted: ["injected"]
    )
    assert main(["hetero", "--smoke", "--requests", "24"]) == 1
    assert "[VIOLATED] crash:replan: injected" in capsys.readouterr().err
