"""Tests for the prefix-affinity vs locality-blind comparison harness."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness.prefix_compare import (
    DEFAULT_PREFIX_MIX,
    DEFAULT_SPEC,
    run_prefix_comparison,
)
from repro.workloads.prefixes import PrefixMix


@pytest.fixture(scope="module")
def report():
    return run_prefix_comparison(replace(DEFAULT_SPEC, num_requests=160))


def rows(report):
    return {name: run.derived for name, run in report.runs.items()}


def test_default_mix_parses():
    mix = PrefixMix.parse(DEFAULT_PREFIX_MIX)
    assert len(mix.library.entries) == 8


def test_both_runs_clean(report):
    for name, run in report.runs.items():
        assert run.violations == [], f"{name}: {run.violations}"
        assert run.derived["completed"] == run.derived["submitted"]
    assert report.passed


def test_affinity_beats_blind(report):
    """The headline claim: KV-locality-aware routing wins on latency AND
    total prefill work when the prefix population overflows one cache."""
    blind = rows(report)["least-loaded"]
    affine = rows(report)["prefix-affinity"]
    assert affine["mean_ttft"] < blind["mean_ttft"]
    assert affine["prefill_tokens_computed"] < blind["prefill_tokens_computed"]
    assert affine["prefix_hit_rate"] > blind["prefix_hit_rate"]
    assert report.verdicts["affinity_beats_blind"]


def test_warm_beats_cold_in_both_runs(report):
    for name, run in rows(report).items():
        assert run["warm_requests"] > 0, name
        assert run["cold_requests"] > 0, name
        assert run["warm_ttft"] < run["cold_ttft"], name


def test_identical_workload_different_fingerprints(report):
    """Both routers consumed the same bytes but scheduled differently."""
    fingerprints = {run.fingerprint for run in report.runs.values()}
    assert len(fingerprints) == len(report.runs)


def test_saved_tokens_are_hit_consistent(report):
    """Every saved prefill token corresponds to a recorded hit, and hits
    only happen on requests that actually carried a prefix."""
    for run in rows(report).values():
        assert run["prefix_hits"] == run["warm_requests"]
        assert run["prefix_tokens_saved"] > 0
        assert run["prefix_tokens_saved"] <= run["prefix_hits"] * 512  # mix max len


def test_report_is_json_serialisable(report):
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["affinity_beats_blind"] is True
    assert set(payload["runs"]) == {"least-loaded", "prefix-affinity"}
    assert payload["spec"]["prefix_mix"] == DEFAULT_PREFIX_MIX


def test_registry_violation_fails_the_prefix_command(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.harness.runner.audit_run", lambda target, submitted: ["injected"]
    )
    assert main(["prefix", "--smoke", "--requests", "40", "--json"]) == 1
    payload = json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]
    assert payload["passed"] is False
    assert payload["runs"]["prefix-affinity"]["violations"] == ["injected"]
