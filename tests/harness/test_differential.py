"""Tests for the differential runner and the invariants it holds every
system to."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness import differential
from repro.harness.differential import DEFAULT_SPEC, run_differential
from repro.harness.runner import run_arm
from repro.serving.audit import audit_run
from repro.serving.request import Phase
from repro.workloads.trace import clone_requests
from tests.serving.test_audit import finished, outcome

# The acceptance matrix: >= 3 workload/seed combinations, all systems.
COMBOS = (
    replace(DEFAULT_SPEC, rate_per_gpu=3.0, seed=0),
    replace(DEFAULT_SPEC, rate_per_gpu=3.5, seed=3, arrival_process="bursty"),
    replace(DEFAULT_SPEC, rate_per_gpu=2.0, seed=11),
)


@pytest.mark.parametrize("spec", COMBOS, ids=lambda s: f"r{s.rate_per_gpu}-s{s.seed}")
def test_all_systems_share_invariants(spec):
    report = run_differential(spec)
    assert set(report.runs) == set(differential.DEFAULT_SYSTEMS)
    assert report.passed, report.violations


def test_workload_is_byte_identical_across_clones():
    spec = replace(DEFAULT_SPEC, num_requests=10)
    report_a = run_differential(spec)
    report_b = run_differential(spec)
    assert report_a.workload_fingerprint == report_b.workload_fingerprint


def test_clones_are_fresh_objects():
    rows = [{"id": 0, "arrival": 0.5, "prompt": 10, "output": 5}]
    a, b = clone_requests(rows), clone_requests(rows)
    assert a[0] is not b[0]
    a[0].output_generated = 5  # mutating one clone must not leak
    assert b[0].output_generated == 0


def test_mismatched_gpu_counts_rejected():
    spec = replace(DEFAULT_SPEC, num_requests=5)
    # Sanity: the default specs use equal GPU counts, so this should run.
    assert run_differential(spec, systems=("windserve", "vllm")).passed


class TestInvariantCheckers:
    """The registry must actually catch fabricated violations."""

    _finished = staticmethod(finished)

    def test_conservation_catches_loss_and_duplicates(self):
        submitted = [self._finished(0), self._finished(1)]
        completed = [self._finished(0), self._finished(0)]
        problems = audit_run(outcome(completed), submitted)
        assert any("dropped" in p for p in problems)
        assert any("more than once" in p for p in problems)

    def test_conservation_catches_phantoms(self):
        completed = [self._finished(0), self._finished(9)]
        problems = audit_run(outcome(completed), [self._finished(0)])
        assert any("phantom" in p for p in problems)

    def test_causality_catches_token_before_prefill(self):
        bad = self._finished(first=0.05, prefill=0.1)  # token before prefill start
        problems = audit_run(outcome([bad]), [bad])
        assert any("first_token (0.050000) before prefill_start" in p for p in problems)

    def test_causality_catches_incomplete_prefill(self):
        bad = self._finished()
        bad.prefilled_tokens = 3
        assert any("incomplete prefill" in p for p in audit_run(outcome([bad]), [bad]))

    def test_causality_catches_missing_tokens(self):
        bad = self._finished()
        bad.output_generated = 2
        assert any("generated 2 of 5" in p for p in audit_run(outcome([bad]), [bad]))

    def test_monotonicity_catches_backwards_finish(self):
        bad = self._finished(finish=0.2, first=0.5, decode=None)
        problems = audit_run(outcome([bad]), [bad])
        assert any("finish (0.200000) before first_token" in p for p in problems)

    def test_clean_requests_produce_no_violations(self):
        good = [self._finished(0), self._finished(1)]
        assert audit_run(outcome(good), good) == []


def test_shedding_arm_fails_the_differential(monkeypatch):
    """Fault-free ``nested-caps`` never sheds, so the differential arm set
    fails a shed even though the registry's conservation accepts it."""

    def shedding_run_arm(*args, **kwargs):
        run = run_arm(*args, **kwargs)
        request = run.metrics.completed.pop()
        request.phase = Phase.SHED
        run.metrics.shed.append(request)
        return run

    monkeypatch.setattr(differential, "run_arm", shedding_run_arm)
    report = run_differential(replace(DEFAULT_SPEC, num_requests=10))
    assert not report.passed
    for name, run in report.runs.items():
        assert audit_run(run.target, run.submitted) == [], name
        assert any("shed in a fault-free run" in v for v in run.violations), name


def test_registry_violation_fails_the_differential_command(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.harness.runner.audit_run", lambda target, submitted: ["injected"]
    )
    assert main(["differential", "--seeds", "0", "--requests", "10"]) == 1
    assert "[VIOLATED] windserve: injected" in capsys.readouterr().err
