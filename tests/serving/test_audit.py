"""The invariant registry: every ``audit_run`` check fires on a crafted
violation, on a single system and on a fleet, and stays quiet on a clean
drained run.

The targets run with every optional check live: warm prefix caches (the
saved-tokens ledger) and fair-share budgets (the watermarks).
"""

from __future__ import annotations

import copy
import time
from types import SimpleNamespace

import pytest

from repro.harness.chaos import FleetChaosSpec, run_fleet_arm
from repro.harness.runner import (
    ExperimentSpec,
    build_system,
    generate_workload,
    resolve_slo,
    run_arm,
)
from repro.kvcache.blocks import KVBlockManager
from repro.policies.fairshare import FairShareConfig
from repro.serving.audit import audit_run
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Phase, Request
from repro.workloads.trace import workload_rows

WORKLOAD = dict(
    model="opt-13b",
    dataset="sharegpt",
    rate_per_gpu=3.0,
    num_requests=30,
    seed=5,
    prefix_mix="none=0.2,sys=0.8:256",
    tenant_mix="a=0.5,b=0.5",
    admission_policy="fair-share",
    fairshare=FairShareConfig(max_inflight=64, max_tokens=10**6),
)


def finished(rid=0, *, arrival=0.0, prefill=0.1, first=0.5, decode=0.6, finish=1.0, **kw):
    """A request that went through a clean lifecycle."""
    request = Request(
        request_id=rid, prompt_tokens=10, output_tokens=5, arrival_time=arrival, **kw
    )
    request.prefilled_tokens = 10
    request.output_generated = 5
    request.prefill_start = prefill
    request.first_token_time = first
    request.decode_queue_enter = first
    request.decode_start = decode
    request.finish_time = finish
    request.phase = Phase.FINISHED
    return request


def outcome(completed, shed=()):
    """A drained stand-in system with no instances: only the outcomes of a
    run, for the request-level checks."""
    metrics = MetricsCollector()
    metrics.completed.extend(completed)
    metrics.shed.extend(shed)
    return SimpleNamespace(
        name="stub",
        metrics=metrics,
        instances=[],
        known_failed=set(),
        config=SimpleNamespace(fairshare=None),
    )


def _system_run():
    spec = ExperimentSpec(
        system="windserve",
        instance_config=InstanceConfig(prefix_cache_tokens=1024),
        **WORKLOAD,
    )
    trace = generate_workload(spec, spec.gpus_used)
    system = build_system(spec, resolve_slo(spec))
    return run_arm("system", system, workload_rows(trace), rng_registry=trace.rng_registry)


def _fleet_run():
    spec = FleetChaosSpec(
        fault_plan="none", num_nodes=1, prefix_cache_tokens=1024, **WORKLOAD
    )
    return run_fleet_arm("fleet", spec)


def _decoded(system):
    return next(r for r in system.metrics.completed if r.decode_start is not None)


def _reclassify(system, attr, value):
    """Swap a completion for a copy of it carrying another tier/tenant (the
    submitted object keeps its own)."""
    clone = copy.copy(system.metrics.completed[0])
    setattr(clone, attr, value)
    system.metrics.completed[0] = clone


def _retire_leaky_pool(instance):
    pool = KVBlockManager(
        gpu_capacity_tokens=1024, cpu_capacity_tokens=0, block_size=16, bytes_per_token=1
    )
    pool.allocate(7, 32)
    instance.retired_kv.append(pool)


# (id, injection(target, system, instance), expected substring, kinds).  The
# ``system`` is the target itself or, for a fleet, its first member.
CASES = (
    ("duplicate", lambda t, s, i: s.metrics.completed.append(s.metrics.completed[0]),
     "completed more than once", ("system", "fleet")),
    ("dropped", lambda t, s, i: s.metrics.completed.pop(),
     "silently dropped", ("system", "fleet")),
    ("phantom", lambda t, s, i: s.metrics.completed.append(finished(10**6)),
     "phantom", ("system", "fleet")),
    ("completed-and-shed", lambda t, s, i: s.metrics.shed.append(s.metrics.completed[0]),
     "both completed and shed", ("system", "fleet")),
    ("shed-unmarked",
     lambda t, s, i: s.metrics.shed.append(s.metrics.completed.pop()),
     "shed but phase=finished", ("system", "fleet")),
    ("tier-changed",
     lambda t, s, i: _reclassify(s, "tier", "best_effort"),
     "changed tier", ("system", "fleet")),
    ("tier-lost", lambda t, s, i: s.metrics.completed.pop(),
     "tier 'standard' lost requests", ("system", "fleet")),
    ("tenant-changed",
     lambda t, s, i: _reclassify(s, "tenant", "zz"),
     "changed tenant", ("system", "fleet")),
    ("tokens", lambda t, s, i: setattr(s.metrics.completed[0], "output_generated", 0),
     "generated 0 of", ("system", "fleet")),
    ("prefill", lambda t, s, i: setattr(s.metrics.completed[0], "prefilled_tokens", 0),
     "incomplete prefill", ("system", "fleet")),
    ("causality",
     lambda t, s, i: setattr(s.metrics.completed[0], "first_token_time", -1.0),
     "first_token (-1.000000) before", ("system", "fleet")),
    ("decode-queue",
     lambda t, s, i: setattr(_decoded(s), "decode_queue_enter", 10**6),
     "decode started before entering the decode queue", ("system", "fleet")),
    ("kv-leak", lambda t, s, i: i.kv.allocate(99_999, 100),
     "GPU KV blocks leaked", ("system", "fleet")),
    ("kv-double-free",
     lambda t, s, i: i.kv.free_events.__setitem__(-12345, 1),
     "alloc/free imbalance", ("system", "fleet")),
    ("retired-pool", lambda t, s, i: _retire_leaky_pool(i),
     "retired-kv#0", ("system", "fleet")),
    ("waiting", lambda t, s, i: i.waiting.append(finished(0)),
     "stuck waiting", ("system", "fleet")),
    ("running", lambda t, s, i: i.lanes[0].add(finished(0)),
     "stuck running", ("system", "fleet")),
    ("swapped", lambda t, s, i: i.swapped.append(finished(0)),
     "stuck swapped", ("system", "fleet")),
    ("busy-lane", lambda t, s, i: setattr(i.lanes[0], "busy", True),
     "lane still busy", ("system", "fleet")),
    ("failed-instance", lambda t, s, i: setattr(i, "failed", True),
     "still failed after the drain", ("system", "fleet")),
    ("known-failed", lambda t, s, i: s.known_failed.add(i.name),
     "failure knowledge never cleared", ("system", "fleet")),
    ("prefix-ledger",
     lambda t, s, i: s.metrics.bump("prefix_tokens_saved"),
     "prefix_tokens_saved counter", ("system", "fleet")),
    ("budget",
     lambda t, s, i: s.metrics.counters.__setitem__("tenant_peak_inflight[tenant:a]", 65),
     "exceeds budget 64", ("system", "fleet")),
    ("member-crashed", lambda t, s, i: t.crashed.add(0),
     "members still crashed", ("fleet",)),
    ("member-failed", lambda t, s, i: t.failed.add(0),
     "failure knowledge never cleared: [0]", ("fleet",)),
)


@pytest.fixture(scope="module")
def clean_runs():
    return {"system": _system_run(), "fleet": _fleet_run()}


@pytest.mark.parametrize("kind", ("system", "fleet"))
def test_clean_run_audits_clean_with_every_check_live(clean_runs, kind):
    run = clean_runs[kind]
    assert run.violations == []
    assert audit_run(run.target, run.submitted) == []  # idempotent
    assert run.metrics.counters.get("prefix_tokens_saved", 0) > 0
    assert run.metrics.shed == []


@pytest.mark.parametrize(
    "kind, inject, expected",
    [
        pytest.param(kind, inject, expected, id=f"{case}-{kind}")
        for case, inject, expected, kinds in CASES
        for kind in kinds
    ],
)
def test_each_check_fires(kind, inject, expected):
    run = _system_run() if kind == "system" else _fleet_run()
    target = run.target
    system = target.members[0] if kind == "fleet" else target
    inject(target, system, system.instances[0])
    problems = audit_run(target, run.submitted)
    assert any(expected in p for p in problems), problems


def test_request_checks_run_on_a_bare_outcome():
    good = [finished(0), finished(1, tenant="t")]
    assert audit_run(outcome(good), good) == []
    bad = finished(2, finish=0.2)
    assert any("finish (0.200000) before" in p for p in audit_run(outcome([bad]), [bad]))


def test_conservation_is_linear_in_requests():
    """The duplicate scan is a Counter, not a quadratic ``list.count``
    (0.76 s at 10k requests, so ~20 s at 50k): 50k requests audit in well
    under the bound."""
    requests = [finished(i) for i in range(50_000)]
    t0 = time.perf_counter()
    problems = audit_run(outcome(requests + requests[:1]), requests)
    assert time.perf_counter() - t0 < 5.0
    assert problems[0] == "requests completed more than once: [0]"
