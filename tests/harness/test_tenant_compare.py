"""Tenant isolation differential + per-tenant invariants and metrics.

A small comparison cell must discriminate — fair-share holds the isolation
bound the FIFO baseline violates — while every run keeps the shed-aware
conservation, budget-watermark, and drained-system checks green.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cli import main
from repro.harness.tenant_compare import (
    BASELINE_RUN,
    DEFAULT_SPEC,
    FAIRSHARE_RUN,
    FIFO_RUN,
    TenantComparisonSpec,
    burst_rows,
    run_tenant_comparison,
)
from repro.serving.audit import audit_run
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Phase
from tests.serving.test_audit import finished, outcome


def _small_comparison(num_requests=80, burst_requests=32):
    return run_tenant_comparison(
        TenantComparisonSpec(burst_requests=burst_requests),
        replace(DEFAULT_SPEC, num_requests=num_requests),
    )


def test_comparison_discriminates_and_keeps_invariants():
    report = _small_comparison()
    assert set(report.runs) == {BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN}
    for name, run in report.runs.items():
        assert not run.violations, f"{name}: {run.violations}"
    assert report.verdicts["isolation_holds"], "fair-share broke the isolation bound"
    assert report.verdicts["fifo_violates"], "FIFO held the bound: cell not discriminating"
    assert report.verdicts["fairshare_beats_fifo"]
    assert report.passed
    # Budgets actually bit in the fair-share burst run, and never in FIFO.
    assert report.runs[FAIRSHARE_RUN].derived["budget_sheds"] > 0
    assert report.runs[FIFO_RUN].derived["budget_sheds"] == 0


def test_burst_rows_are_deterministic_and_heavy_owned():
    spec = TenantComparisonSpec(burst_requests=32)
    base = [
        {"id": i, "arrival": float(i), "prompt": 100, "output": 50}
        for i in range(10)
    ]
    rows = burst_rows(spec, base)
    assert rows == burst_rows(spec, base)
    assert len(rows) == spec.burst_requests
    assert all(row["tenant"] == "heavy" for row in rows)
    assert min(row["id"] for row in rows) == 10  # continues after the base ids
    arrivals = [row["arrival"] for row in rows]
    assert arrivals == sorted(arrivals)
    assert max(arrivals) - min(arrivals) <= spec.burst_window


def test_report_serialises_to_json_payload():
    report = _small_comparison(num_requests=40, burst_requests=16)
    payload = report.as_dict()
    assert set(payload["runs"]) == {BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN}
    for run in payload["runs"].values():
        assert {"light_p99_ttft", "budget_sheds", "tenant_report"} <= set(run)
    assert isinstance(payload["passed"], bool)


def test_registry_violation_fails_the_tenants_command(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.harness.runner.audit_run", lambda target, submitted: ["injected"]
    )
    assert main(["tenants", "--smoke", "--requests", "40"]) == 1
    assert "[VIOLATED] fifo: injected" in capsys.readouterr().err


# -- per-tenant conservation in the registry ----------------------------------


def _request(rid, tenant):
    return finished(rid, tenant=tenant)


def test_tenant_conservation_accepts_balanced_outcomes():
    submitted = [_request(1, "a"), _request(2, "a"), _request(3, "b")]
    completed = [submitted[0], submitted[2]]
    shed = [submitted[1]]
    shed[0].phase = Phase.SHED
    assert audit_run(outcome(completed, shed), submitted) == []


def test_tenant_conservation_flags_lost_requests():
    submitted = [_request(1, "a"), _request(2, "b")]
    problems = audit_run(outcome([submitted[0]]), submitted)
    assert any("'b' lost requests" in p for p in problems)


def test_tenant_conservation_flags_mutated_ownership():
    submitted = [_request(1, "a")]
    mutated = _request(1, "b")
    problems = audit_run(outcome([mutated]), submitted)
    assert any("changed tenant" in p for p in problems)


# -- per-tenant metrics merging -----------------------------------------------


def test_merge_sums_tenant_counters_and_namespaces_peaks():
    """Fleet merges must sum per-tenant tallies but *namespace* watermarks:
    summing point-in-time maxima across members would fabricate usage no
    instant ever saw."""
    a, b = MetricsCollector(), MetricsCollector()
    a.counters["tenant_budget_shed[tenant:acme]"] = 2
    b.counters["tenant_budget_shed[tenant:acme]"] = 3
    a.counters["tenant_peak_inflight[tenant:acme]"] = 4
    b.counters["tenant_peak_inflight[tenant:acme]"] = 7

    merged = MetricsCollector()
    merged.merge_from(a, label="m0")
    merged.merge_from(b, label="m1")
    assert merged.counters["tenant_budget_shed[tenant:acme]"] == 5
    assert merged.counters["m0:tenant_peak_inflight[tenant:acme]"] == 4
    assert merged.counters["m1:tenant_peak_inflight[tenant:acme]"] == 7
    assert "tenant_peak_inflight[tenant:acme]" not in merged.counters


def test_unlabelled_merge_folds_peaks_by_max():
    a, b = MetricsCollector(), MetricsCollector()
    a.counters["tenant_peak_tokens[tenant:x]"] = 100
    b.counters["tenant_peak_tokens[tenant:x]"] = 60
    merged = MetricsCollector()
    merged.merge_from(a)
    merged.merge_from(b)
    assert merged.counters["tenant_peak_tokens[tenant:x]"] == 100
