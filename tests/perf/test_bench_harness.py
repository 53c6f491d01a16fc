"""Smoke tests for the scale-benchmark harness (repro bench).

Small-N runs through every phase kind, asserting the BENCH JSON schema —
required keys, positive rates, monotone counters — and that two
identically-seeded bench runs simulate byte-identical work (equal
fingerprints and event counts) even though their wall-clock numbers differ.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.perfbench import (
    BENCH_FORMAT_VERSION,
    BenchPhase,
    BenchSpec,
    fingerprint_changes,
    next_bench_path,
    record_bench,
    run_bench,
    standard_phases,
    validate_bench_payload,
)

# Tiny but phase-complete: every machinery path (single system, fleet,
# fault-injected chaos) gets exercised in a couple of seconds.
TINY = BenchSpec(
    label="tiny",
    num_requests=60,
    seed=3,
    phases=(
        BenchPhase("single", "single", 60),
        BenchPhase("fleet", "fleet", 24),
        BenchPhase("chaos", "chaos", 24),
    ),
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def payload():
    return run_bench(TINY)


def test_schema_is_clean(payload):
    assert validate_bench_payload(payload) == []


def test_format_version_and_phase_names(payload):
    assert payload["bench_format"] == BENCH_FORMAT_VERSION
    assert [p["name"] for p in payload["phases"]] == ["single", "fleet", "chaos"]
    assert [p["kind"] for p in payload["phases"]] == ["single", "fleet", "chaos"]


def test_counters_and_rates(payload):
    for row in payload["phases"]:
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["sim_seconds"] > 0
        assert row["sim_seconds_per_wall_second"] > 0
        assert 0 <= row["completed"] + row["shed"] <= row["num_requests"]
    totals = payload["totals"]
    assert totals["events"] == sum(p["events"] for p in payload["phases"])
    assert totals["completed_requests"] == sum(p["completed"] for p in payload["phases"])


def test_peak_rss_monotone(payload):
    rss = [p["peak_rss_bytes"] for p in payload["phases"]]
    assert all(b > 0 for b in rss)
    assert rss == sorted(rss)  # process-lifetime peak can only grow


def test_identically_seeded_runs_have_identical_fingerprints(payload):
    again = run_bench(TINY)
    for first, second in zip(payload["phases"], again["phases"]):
        assert first["fingerprint"] == second["fingerprint"]
        assert first["events"] == second["events"]
        assert first["sim_seconds"] == second["sim_seconds"]
        assert first["completed"] == second["completed"]


def test_validator_flags_broken_payloads(payload):
    broken = json.loads(json.dumps(payload))  # deep copy
    broken["phases"][0]["events_per_sec"] = 0
    del broken["phases"][1]["fingerprint"]
    broken["totals"]["events"] += 1
    problems = validate_bench_payload(broken)
    assert any("events_per_sec" in p for p in problems)
    assert any("fingerprint" in p for p in problems)
    assert any("totals.events" in p for p in problems)
    assert validate_bench_payload({}) != []


def test_record_bench_writes_numbered_trajectory(tmp_path):
    spec = BenchSpec(
        label="tiny-io", num_requests=10, phases=(BenchPhase("single", "single", 10),)
    )
    path1, _ = record_bench(spec, root=tmp_path)
    assert path1.name == "BENCH_1.json"
    assert next_bench_path(tmp_path).name == "BENCH_2.json"
    loaded = json.loads(path1.read_text())
    assert validate_bench_payload(loaded) == []
    baseline = {"label": "x", "events_per_sec": 1.0}
    path2, payload2 = record_bench(spec, root=tmp_path, baseline=baseline)
    assert path2.name == "BENCH_2.json"
    assert payload2["baseline"] == baseline


def test_standard_phases_scale_with_request_count():
    phases = standard_phases(100_000)
    assert [p.kind for p in phases] == ["single", "fleet", "chaos", "single", "fleet"]
    assert phases[0].num_requests == 100_000
    assert phases[1].num_requests < phases[0].num_requests
    assert phases[3].name == "prefix-cached"
    assert phases[3].prefix_mix and phases[3].prefix_cache_tokens > 0
    assert phases[4].name == "fleet-hetero"
    assert phases[4].fleet_shape == "a800:2,h100:2"
    assert all(p.num_requests >= 1 for p in standard_phases(1))


def test_fingerprint_changes_lists_shared_phases_that_moved():
    prev = {"phases": [{"name": "a", "fingerprint": "1"}, {"name": "b", "fingerprint": "2"}]}
    cur = {"phases": [{"name": "a", "fingerprint": "1"}, {"name": "b", "fingerprint": "3"},
                      {"name": "c", "fingerprint": "4"}]}
    assert fingerprint_changes(prev, cur) == ["b"]
    assert fingerprint_changes(cur, cur) == []


def test_bench_5_simulates_exactly_what_bench_4_did():
    """The block-boundary decode fast path is a pure speed change: every
    phase of the BENCH_5 trajectory point keeps its BENCH_4 fingerprint."""
    prev = json.loads((REPO_ROOT / "BENCH_4.json").read_text())
    cur = json.loads((REPO_ROOT / "BENCH_5.json").read_text())
    assert [row["name"] for row in cur["phases"]] == [row["name"] for row in prev["phases"]]
    assert fingerprint_changes(prev, cur) == []


def test_bench_6_simulates_exactly_what_bench_5_did():
    """The compiled roofline is a pure speed change: every phase of the
    BENCH_6 trajectory point keeps its BENCH_5 fingerprint, so the
    bit-equivalence holds at 100k-request scale too."""
    prev = json.loads((REPO_ROOT / "BENCH_5.json").read_text())
    cur = json.loads((REPO_ROOT / "BENCH_6.json").read_text())
    assert [row["name"] for row in cur["phases"]] == [row["name"] for row in prev["phases"]]
    assert fingerprint_changes(prev, cur) == []
