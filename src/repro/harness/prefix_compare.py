"""Prefix-affinity vs locality-blind routing on a shared-prefix workload.

The differential question behind the prefix-caching subsystem: given a
fleet whose members each cache a *bounded* amount of warm prefix KV, does
KV-locality-aware routing (``prefix-affinity``) actually beat a
locality-blind baseline (``least-loaded``)?  The experiment is shaped so
locality matters: the workload draws from more distinct shared prefixes
than any single member's cache can hold, so blind spreading makes every
member churn through the whole prefix population (LRU thrash + one cold
compute per member per prefix) while affinity routing partitions the
prefixes across members and keeps each partition warm.

Each router is one fault-free arm over the same cloned workload, audited
by :func:`~repro.serving.audit.audit_run` (which includes the
prefill-tokens-saved ledger); a shed request is a violation too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.harness.chaos import FleetChaosSpec, build_chaos_fleet, run_fleet_arm
from repro.harness.runner import (
    ArmRun,
    ArmSetReport,
    generate_workload,
    no_shed,
    scalar_fields,
)
from repro.workloads.prefixes import PrefixMix

#: 8 equally-likely 512-token prefixes + 20% unshared traffic.  With the
#: default per-member cache (4 x 512 tokens) no member can hold them all —
#: the regime where routing locality decides the outcome.
DEFAULT_PREFIX_MIX = PrefixMix.uniform(8, 512, none=0.2).spec_string()

ROUTERS = ("least-loaded", "prefix-affinity")

#: The default comparison point: a 2 x 2-pair fleet, 2048-token caches.
DEFAULT_SPEC = FleetChaosSpec(
    fault_plan="none",
    rate_per_gpu=3.0,
    num_requests=240,
    prefix_mix=DEFAULT_PREFIX_MIX,
    prefix_cache_tokens=2048,
)


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _prefix_row(run: ArmRun, router: str) -> dict:
    completed = run.metrics.completed
    counters = run.metrics.counters
    warm = [r for r in completed if r.extra.get("prefix_cached", 0) > 0]
    cold = [
        r for r in completed if r.prefix_hash and r.extra.get("prefix_cached", 0) == 0
    ]
    hits = counters.get("prefix_hits", 0)
    misses = counters.get("prefix_misses", 0)
    return {
        "router": router,
        "submitted": len(run.submitted),
        "completed": len(completed),
        "mean_ttft": _mean([r.ttft for r in completed if r.ttft is not None]) or 0.0,
        # Mean TTFT of prefix-cache hits, and of shared-prefix misses.
        "warm_ttft": _mean([r.ttft for r in warm if r.ttft is not None]),
        "cold_ttft": _mean([r.ttft for r in cold if r.ttft is not None]),
        "warm_requests": len(warm),
        "cold_requests": len(cold),
        "prefix_hits": hits,
        "prefix_misses": misses,
        "prefix_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "prefix_tokens_saved": counters.get("prefix_tokens_saved", 0),
        "prefix_bytes_saved": sum(
            instance.prefix_cache.bytes_saved()
            for member in run.target.members
            for instance in member.instances
            if instance.prefix_cache is not None
        ),
        "prefill_tokens_computed": counters.get("prefill_tokens_computed", 0),
    }


def affinity_beats_blind(rows: dict[str, dict]) -> bool:
    """Affinity wins on both mean TTFT and total prefill work."""
    blind, affine = rows.get("least-loaded"), rows.get("prefix-affinity")
    if blind is None or affine is None:
        return False
    return (
        affine["mean_ttft"] < blind["mean_ttft"]
        and affine["prefill_tokens_computed"] < blind["prefill_tokens_computed"]
    )


def run_prefix_comparison(base: Optional[FleetChaosSpec] = None) -> ArmSetReport:
    """Run both routers on one byte-identical shared-prefix workload."""
    base = base or DEFAULT_SPEC
    trace = generate_workload(base, build_chaos_fleet(base).num_gpus)
    runs = {}
    for router in ROUTERS:
        run = run_fleet_arm(router, replace(base, policy=router), trace)
        run.violations.extend(no_shed(run))
        run.derived = _prefix_row(run, router)
        runs[router] = run
    rows = {name: run.derived for name, run in runs.items()}
    return ArmSetReport(
        spec=scalar_fields(base),
        runs=runs,
        verdicts={"affinity_beats_blind": affinity_beats_blind(rows)},
    )
