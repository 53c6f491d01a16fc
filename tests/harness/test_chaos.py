"""Tests for the chaos harness: conservation, reproducibility, the matrix."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.faults.plan import FAULT_PLAN_NAMES
from repro.harness.chaos import completion_curve, run_chaos, run_chaos_matrix
from repro.harness.runner import ExperimentSpec
from repro.serving.audit import audit_run
from repro.serving.request import Phase
from tests.serving.test_audit import finished, outcome


def _req(rid, phase=Phase.FINISHED):
    r = finished(rid)
    r.phase = phase
    return r


class TestConservationChecker:
    def test_clean_accounting_passes(self):
        submitted = [_req(i) for i in range(3)]
        done = [_req(0), _req(1)]
        shed = [_req(2, Phase.SHED)]
        assert audit_run(outcome(done, shed), submitted) == []

    def test_detects_silent_drop(self):
        submitted = [_req(i) for i in range(3)]
        problems = audit_run(outcome([_req(0)], [_req(1, Phase.SHED)]), submitted)
        assert any("dropped" in p for p in problems)

    def test_detects_duplicate_completion(self):
        submitted = [_req(0), _req(1)]
        problems = audit_run(outcome([_req(0), _req(0), _req(1)]), submitted)
        assert any("more than once" in p for p in problems)

    def test_detects_overlap(self):
        submitted = [_req(0), _req(1)]
        problems = audit_run(outcome([_req(0), _req(1)], [_req(1, Phase.SHED)]), submitted)
        assert any("both completed and shed" in p for p in problems)

    def test_detects_phantom(self):
        problems = audit_run(outcome([_req(0), _req(7)]), [_req(0)])
        assert any("phantom" in p for p in problems)

    def test_shed_requests_must_be_marked(self):
        submitted = [_req(0), _req(1)]
        shed = [_req(1, Phase.WAITING_PREFILL)]
        problems = audit_run(outcome([_req(0)], shed), submitted)
        assert any("phase" in p for p in problems)


class TestCompletionCurve:
    def test_cumulative_counts(self):
        done = []
        for i, t in enumerate([0.5, 1.5, 1.6, 9.0]):
            r = _req(i)
            r.finish_time = t
            done.append(r)
        curve = completion_curve(done, horizon=10.0, bins=5)
        # Sample points at 2, 4, 6, 8, 10 seconds.
        assert [c for _, c in curve] == [3, 3, 3, 3, 4]
        assert curve[-1][0] == pytest.approx(10.0)

    def test_empty(self):
        assert completion_curve([], horizon=10.0) == []


BASE = ExperimentSpec(
    system="windserve",
    model="opt-13b",
    dataset="sharegpt",
    rate_per_gpu=3.0,
    num_requests=40,
    seed=7,
)


def chaos(system="windserve", plan="decode-crash", **overrides):
    return replace(BASE, system=system, fault_plan=plan, **overrides)


class TestRunChaos:
    def test_decode_crash_zero_silent_drops(self):
        result = run_chaos(chaos())
        assert result.passed, result.violations
        row = result.derived
        assert row["submitted"] == 40
        assert row["completed"] + row["shed"] == 40
        assert row["resilience"]["instance_crashes"] >= 1

    def test_invariants_hold_for_every_plan(self):
        for plan in FAULT_PLAN_NAMES:
            result = run_chaos(chaos(plan=plan))
            assert result.passed, f"{plan}: {result.violations}"

    def test_same_seed_same_fingerprint(self):
        a = run_chaos(chaos())
        b = run_chaos(chaos())
        assert a.fingerprint == b.fingerprint
        assert a.derived["completed"] == b.derived["completed"]

    def test_different_seed_different_fingerprint(self):
        a = run_chaos(chaos(seed=1))
        b = run_chaos(chaos(seed=2))
        assert a.fingerprint != b.fingerprint

    def test_goodput_relative_to_healthy_baseline(self):
        healthy = run_chaos(chaos(plan="none"))
        assert healthy.derived["resilience"]["instance_crashes"] == 0
        faulted = run_chaos(chaos(), healthy_completed=healthy.derived["completed"])
        assert faulted.derived["goodput_vs_healthy"] is not None
        assert 0.0 <= faulted.derived["goodput_vs_healthy"] <= 1.5

    def test_row_shape(self):
        row = run_chaos(chaos(plan="none")).as_dict()
        for key in ("system", "plan", "completed", "shed", "fingerprint", "violations"):
            assert key in row


class TestRunChaosMatrix:
    def test_baseline_prepended_per_system(self):
        report = run_chaos_matrix(BASE, ["windserve"], ["decode-crash"])
        assert list(report.runs) == ["windserve/none", "windserve/decode-crash"]
        assert report.runs["windserve/decode-crash"].derived["goodput_vs_healthy"] is not None
        assert report.passed, report.violations

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(chaos(plan="nope"))


class TestBaselineSystems:
    @pytest.mark.parametrize("system", ["distserve", "vllm"])
    def test_decode_crash_conserves_requests(self, system):
        result = run_chaos(chaos(system=system))
        assert result.passed, result.violations

    def test_distserve_prefill_crash(self):
        result = run_chaos(chaos(system="distserve", plan="prefill-crash"))
        assert result.passed, result.violations


@pytest.mark.parametrize(
    "argv", (["chaos", "--smoke"], ["chaos", "--fleet", "--smoke"]), ids=("single", "fleet")
)
def test_registry_violation_fails_the_chaos_command(monkeypatch, capsys, argv):
    monkeypatch.setattr(
        "repro.harness.runner.audit_run", lambda target, submitted: ["injected"]
    )
    assert main(argv + ["--requests", "24"]) == 1
    assert "[VIOLATED]" in capsys.readouterr().err
