"""Build, run and check one workload through the program's public API.

Importing this module imports the program, so ``measure.py`` times this
import as ``setup.import_s``.  The program receives only the generated
requests; the seed never reaches it except through ``generate_trace`` and
the fault plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import repro
from repro.faults import FleetFaultInjector, build_fleet_fault_plan
from repro.harness.chaos import (
    FleetChaosSpec,
    build_chaos_fleet,
    chaos_invariants,
    fleet_chaos_invariants,
)
from repro.harness.runner import ExperimentSpec, build_system, resolve_slo
from repro.harness.slo import derive_slo
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.workloads.datasets import get_dataset
from repro.workloads.prefixes import PrefixMix
from repro.workloads.trace import generate_trace

from catalog import WorkloadDef

# Measure the sources next to the benchmark, never an installed copy.
SRC = Path(__file__).resolve().parents[1] / "src"
if SRC not in Path(repro.__file__).resolve().parents:
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")


@dataclass
class Prepared:
    """A workload ready to run: the system under test plus its inputs."""

    workload: WorkloadDef
    seed: int
    target: Any  # a ServingSystem or a ServingFleet
    trace: Any  # the generated repro.workloads.trace.Trace
    requests: list
    slo: Any
    build_s: float
    generate_s: float
    metrics: Any = None  # the MetricsCollector run_to_completion returned

    @property
    def systems(self) -> list:
        """Every serving system in the target (one, or each fleet member)."""
        return list(getattr(self.target, "members", [self.target]))


def prepare(workload: WorkloadDef, seed: int, num_requests: Optional[int] = None) -> Prepared:
    """Build the system and generate the requests for one run."""
    n = num_requests or workload.num_requests
    model = get_model(workload.model)
    dataset = get_dataset(workload.dataset)
    prefix_mix = None
    if workload.prefix_count:
        prefix_mix = PrefixMix.uniform(
            workload.prefix_count, workload.prefix_tokens, none=workload.prefix_none
        )
    t0 = time.perf_counter()
    if workload.kind == "single":
        spec = ExperimentSpec(
            system="windserve",
            model=workload.model,
            dataset=workload.dataset,
            rate_per_gpu=workload.rate_per_gpu,
            num_requests=n,
            seed=seed,
        )
        slo = resolve_slo(spec)
        target = build_system(spec, slo)
        gpus = spec.gpus_used
    else:
        spec = FleetChaosSpec(
            fault_plan=workload.fault_plan,
            model=workload.model,
            dataset=workload.dataset,
            rate_per_gpu=workload.rate_per_gpu,
            num_requests=n,
            seed=seed,
            num_nodes=workload.num_nodes,
            pairs_per_node=workload.pairs_per_node,
            policy=workload.router,
            prefix_mix=prefix_mix.spec_string() if prefix_mix else None,
            prefix_cache_tokens=workload.prefix_cache_tokens,
        )
        target = build_chaos_fleet(spec)
        # The SLO the fleet chaos harness judges fleets by: one TP2 pair.
        slo = derive_slo(model, dataset, ParallelConfig(tp=2))
        gpus = target.num_gpus
    t1 = time.perf_counter()
    trace = generate_trace(
        dataset,
        rate=workload.rate_per_gpu * gpus,
        num_requests=n,
        seed=seed,
        model=model,
        prefix_mix=prefix_mix,
    )
    t2 = time.perf_counter()
    requests = list(trace)
    if workload.kind == "fleet" and workload.fault_plan != "none":
        horizon = max(r.arrival_time for r in requests)
        plan = build_fleet_fault_plan(workload.fault_plan, horizon, seed=seed)
        FleetFaultInjector(target, plan).arm()
    t3 = time.perf_counter()
    return Prepared(
        workload=workload,
        seed=seed,
        target=target,
        trace=trace,
        requests=requests,
        slo=slo,
        build_s=(t1 - t0) + (t3 - t2),
        generate_s=t2 - t1,
    )


def run(prepared: Prepared) -> None:
    """Simulate every request to completion (the timed call)."""
    prepared.metrics = prepared.target.run_to_completion(prepared.requests)


def fingerprint(prepared: Prepared) -> str:
    return prepared.target.run_fingerprint(prepared.trace.rng_registry).value


def work_counts(prepared: Prepared) -> dict[str, int]:
    """Exact counts of the simulated work; they repeat for a seed."""
    m = prepared.metrics
    return {
        "sent": len(prepared.requests),
        "completed": len(m.completed),
        "shed": len(m.shed),
        "prefill_tokens": int(m.counters.get("prefill_tokens_computed", 0)),
        # The first output token comes out of the prefill pass.
        "decode_tokens": sum(max(0, r.output_generated - 1) for r in m.completed),
        "events": prepared.target.sim.events_processed,
    }


def modelled(prepared: Prepared) -> dict[str, float]:
    """The modelled system's end-to-end metrics, in simulated seconds."""
    m, slo = prepared.metrics, prepared.slo
    sent = len(prepared.requests)
    ttft = np.asarray([r.ttft for r in m.completed if r.ttft is not None], dtype=float)
    tpot = np.asarray([r.tpot for r in m.completed if r.tpot is not None], dtype=float)
    # A shed or lost request never completes, so it misses the SLO.
    met = sum(1 for r in m.completed if slo.met_by(r))
    return {
        "ttft_p50_s": float(np.percentile(ttft, 50)),
        "ttft_p99_s": float(np.percentile(ttft, 99)),
        "tpot_p50_s": float(np.percentile(tpot, 50)),
        "tpot_p99_s": float(np.percentile(tpot, 99)),
        "slo_attainment": met / sent,
        "completed_frac": len(m.completed) / sent,
        "ttft_samples": int(ttft.size),
        "tpot_samples": int(tpot.size),
    }


def layer_counts(prepared: Prepared) -> dict[str, float]:
    """Per-layer counts and simulated quantities read from program state.

    These need no tracing, so the untraced runs report them and the traced
    run must reproduce them exactly.
    """
    m = prepared.metrics
    c = m.counters
    sent = len(prepared.requests)
    prefill_waits = [
        r.prefill_start - r.arrival_time for r in m.completed if r.prefill_start is not None
    ]
    decode_waits = m.decode_queue_delays
    started = c.get("reschedule_started", 0)
    hits = c.get("prefix_hits", 0)
    lookups = hits + c.get("prefix_misses", 0)
    evictions = 0
    for system in prepared.systems:
        for instance in system.instances:
            cache = instance.prefix_cache
            if cache is not None:
                evictions += cache.stats.evictions
    requeued = c.get("crash_requeued", 0) + getattr(prepared.target, "retried", 0)
    if hasattr(prepared.target, "fleet_resilience_summary"):
        recovery = prepared.target.fleet_resilience_summary()["member_downtime_s"]
    else:
        recovery = float(sum(m.recovery_times()))
    compute_busy = sum(s.compute_busy for s in m.utilization.values())
    io_busy = sum(s.io_busy for s in m.utilization.values())
    return {
        "sim.events": prepared.target.sim.events_processed,
        "serving.prefill_wait_p99_s": float(np.percentile(prefill_waits, 99)),
        "serving.decode_wait_mean_s": float(np.mean(decode_waits)) if decode_waits else 0.0,
        "core.dispatch_share": c.get("dispatched_prefill", 0) / sent,
        "core.dispatch_rejected": c.get("dispatch_rejected_no_slots", 0),
        "core.reschedules": started,
        "core.reschedule_abort_ratio": c.get("reschedule_aborted", 0) / started if started else 0.0,
        "core.requeued": requeued,
        "core.recovery_sim_s": float(recovery),
        "policies.shed": len(m.shed),
        "kvcache.swap_outs": c.get("swap_out", 0),
        "kvcache.prefix_hit_rate": hits / lookups if lookups else 0.0,
        "kvcache.prefix_tokens_saved": c.get("prefix_tokens_saved", 0),
        "kvcache.prefix_evictions": evictions,
        "perf.compute_busy_sim_s": float(compute_busy),
        "perf.io_busy_sim_s": float(io_busy),
    }


def check(prepared: Prepared) -> list[str]:
    """Every correctness check of one run; an empty list means it passed.

    The program's own invariant suites cover conservation (completed + shed
    == sent), KV freed exactly once (also across crashed pools), token
    causality and monotone timestamps.  The benchmark repeats the first and
    the causality check itself, so a change to the suites cannot silently
    switch them off.  Must run after the fingerprint: the KV audit drains
    warm prefix caches.
    """
    m = prepared.metrics
    problems: list[str] = []
    sent_ids = [r.request_id for r in prepared.requests]
    done_ids = [r.request_id for r in m.completed] + [r.request_id for r in m.shed]
    if len(set(sent_ids)) != len(sent_ids):
        problems.append("duplicate request ids in the generated workload")
    if sorted(done_ids) != sorted(sent_ids):
        problems.append(
            f"conservation: sent {len(sent_ids)} != completed {len(m.completed)}"
            f" + shed {len(m.shed)} (or ids differ)"
        )
    for r in m.completed:
        if r.output_generated != r.output_tokens:
            problems.append(
                f"request {r.request_id}: {r.output_generated} of {r.output_tokens} tokens"
            )
        elif not (r.arrival_time <= r.first_token_time <= r.finish_time):
            problems.append(f"request {r.request_id}: token times out of order")
        if len(problems) > 20:
            break
    if prepared.workload.kind == "single":
        problems.extend(chaos_invariants(prepared.target, prepared.requests))
    else:
        problems.extend(fleet_chaos_invariants(prepared.target, prepared.requests))
    return problems
