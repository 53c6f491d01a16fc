"""Chaos harness: fault plans x serving systems, with resilience accounting.

Runs a serving system under a named :mod:`repro.faults` plan and reports how
gracefully it degrades: goodput vs the fault-free run, detection latency,
downtime, re-queues/sheds, and a request *completion curve* around the fault
window.  A chaos run must never silently drop work — every submitted
request either completes or is explicitly counted as shed by degraded-mode
admission control — and every other invariant of
:func:`~repro.serving.audit.audit_run` still holds across crashed and
recovered pools.  ``python -m repro chaos`` sweeps the matrix from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.faults import ResilienceConfig
from repro.harness.runner import (
    ArmRun,
    ArmSetReport,
    ExperimentSpec,
    build_system,
    generate_workload,
    resolve_slo,
    run_arm,
    scalar_fields,
)
from repro.harness.slo import derive_slo, tier_slos
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.policies.fairshare import FairShareConfig, TenantRateLimiter
from repro.serving.audit import audit_run
from repro.serving.request import Request
from repro.workloads.datasets import get_dataset
from repro.workloads.trace import Trace, workload_rows

DEFAULT_CHAOS_SYSTEMS = ("windserve", "distserve", "vllm")
DEFAULT_CHAOS_PLANS = ("decode-crash", "link-degrade", "straggler")
DEFAULT_FLEET_CHAOS_PLANS = ("member-crash", "node-crash", "nic-outage")

#: The invariant registry under the names the benchmark imports from here.
chaos_invariants = audit_run
fleet_chaos_invariants = audit_run


def completion_curve(
    completed: Sequence[Request], horizon: float, bins: int = 20
) -> list[tuple[float, int]]:
    """Cumulative completions sampled at ``bins`` points across the run."""
    if horizon <= 0 or not completed:
        return []
    finishes = np.sort(
        np.asarray([r.finish_time for r in completed if r.finish_time is not None])
    )
    edges = np.linspace(horizon / bins, horizon, bins)
    counts = np.searchsorted(finishes, edges, side="right")
    return [(float(t), int(n)) for t, n in zip(edges, counts)]


def _pick(mapping: dict, *keys: str) -> dict:
    return {k: mapping[k] for k in keys}


# -- single-system chaos -------------------------------------------------------


def run_chaos(spec: ExperimentSpec, healthy_completed: Optional[int] = None) -> ArmRun:
    """Run one chaos point to completion and check its invariants.

    ``spec.fault_plan`` names the plan (None runs the empty ``"none"``
    plan).  ``healthy_completed`` is the completion count of the same spec
    under ``"none"``; when given, ``goodput_vs_healthy`` reports the
    degradation ratio.
    """
    plan = spec.fault_plan or "none"
    slo = resolve_slo(spec)
    system = build_system(spec, slo)
    trace = generate_workload(spec, spec.gpus_used)
    run = run_arm(
        f"{spec.system}/{plan}",
        system,
        workload_rows(trace),
        plan,
        spec.seed,
        trace.rng_registry,
    )
    metrics = run.metrics
    goodput = None
    if healthy_completed:
        goodput = sum(slo.met_by(r) for r in metrics.completed) / healthy_completed
    resilience = metrics.resilience_summary()
    run.derived = {
        "system": spec.system,
        "plan": plan,
        "submitted": len(run.submitted),
        "completed": len(metrics.completed),
        "shed": len(metrics.shed),
        "slo_attainment": metrics.slo_attainment(slo),
        "goodput_vs_healthy": goodput,
        **_pick(
            resilience,
            "requests_requeued",
            "transfer_retries",
            "detection_latency_s",
            "downtime_s",
        ),
        "resilience": resilience,
        "plan_events": run.plan_events,
        "completion_curve": completion_curve(metrics.completed, metrics.horizon),
        # Per-tier outcomes, each tier judged against its own scaled SLO.
        "tier_report": metrics.tier_report(tier_slos(slo)),
    }
    return run


def run_chaos_matrix(
    base: ExperimentSpec,
    systems: Sequence[str] = DEFAULT_CHAOS_SYSTEMS,
    plans: Sequence[str] = DEFAULT_CHAOS_PLANS,
) -> ArmSetReport:
    """Sweep fault plans across systems, with a per-system healthy baseline.

    Each system first runs the ``"none"`` plan (same workload, no faults) to
    anchor ``goodput_vs_healthy``; the baseline arms are included.
    """
    runs = {}
    for system in systems:
        healthy = run_chaos(replace(base, system=system, fault_plan="none"))
        runs[healthy.name] = healthy
        for plan in plans:
            if plan != "none":
                run = run_chaos(
                    replace(base, system=system, fault_plan=plan),
                    healthy_completed=healthy.derived["completed"],
                )
                runs[run.name] = run
    return ArmSetReport(spec=scalar_fields(base), runs=runs)


# -- fleet chaos ---------------------------------------------------------------


@dataclass(frozen=True)
class FleetChaosSpec:
    """One fleet chaos point: a WindServe fleet, a workload, a fleet plan.

    ``span_nodes`` stretches each pair across two nodes (prefill on the
    home node, decode on the next), forcing every KV hand-off over the
    RDMA NICs so ``nic:<k>`` faults actually bite.  ``standby`` parks that
    many members as warm standby behind an :class:`~repro.core.autoscaler.
    AutoscalingFleet`, which promotes them when a member is declared dead.
    """

    fault_plan: str = "node-crash"
    model: str = "opt-13b"
    dataset: str = "sharegpt"
    rate_per_gpu: float = 2.0
    num_requests: int = 160
    seed: int = 0
    arrival_process: str = "poisson"
    burstiness_cv: float = 2.0
    num_nodes: int = 2
    pairs_per_node: int = 2
    policy: str = "round-robin"
    span_nodes: bool = False
    standby: int = 0
    startup_delay: float = 1.0
    check_interval: float = 0.5
    # SLO-tier mix spec; None keeps the workload tier-free.
    tier_mix: Optional[str] = None
    # Shared-prefix population spec; None keeps the workload prefix-free.
    prefix_mix: Optional[str] = None
    # Per-instance warm-prefix KV budget (tokens); 0 disables the cache.
    prefix_cache_tokens: int = 0
    resilience: Optional[ResilienceConfig] = None
    # Degraded-mode admission policy applied to every member.
    admission_policy: str = "nested-caps"
    # Tenant population spec; None keeps the workload tenant-free.
    tenant_mix: Optional[str] = None
    # Fair-share knobs applied to every member (with ``fair-share`` admission).
    fairshare: Optional[FairShareConfig] = None
    # Per-tenant gateway token-bucket: sustained submits/s and burst size.
    # ``tenant_rate`` 0 disables the limiter.
    tenant_rate: float = 0.0
    tenant_burst: float = 0.0
    # Heterogeneous fleet-shape spec ("h100:2,a800:4"); None keeps the
    # homogeneous num_nodes x pairs_per_node layout (byte-identical to
    # pre-shape runs).
    shape: Optional[str] = None
    # Attach the failure-reactive re-planner (widens survivors over spare
    # home-node GPUs when a member is declared dead).
    replan: bool = False

    def parsed_shape(self):
        from repro.core.config import FleetShape

        return FleetShape.parse(self.shape) if self.shape else None

    @property
    def num_members(self) -> int:
        parsed = self.parsed_shape()
        if parsed is not None:
            return len(parsed)
        return self.num_nodes * self.pairs_per_node


def build_chaos_fleet(spec: FleetChaosSpec):
    """Construct the WindServe fleet a :class:`FleetChaosSpec` describes."""
    from repro.core.autoscaler import AutoscalerConfig, AutoscalingFleet
    from repro.core.fleet import build_windserve_fleet, cluster_for_shape
    from repro.core.replan import FleetReplanner
    from repro.hardware.cluster import ClusterTopology
    from repro.serving.instance import InstanceConfig
    from repro.serving.system import SystemConfig

    shape = spec.parsed_shape()
    if shape is not None:
        cluster = cluster_for_shape(shape, pairs_per_node=spec.pairs_per_node)
    else:
        cluster = ClusterTopology(num_nodes=spec.num_nodes, gpus_per_node=8)
    config = SystemConfig(
        model=get_model(spec.model),
        instance=InstanceConfig(prefix_cache_tokens=spec.prefix_cache_tokens),
        resilience=spec.resilience or ResilienceConfig(),
        admission_policy=spec.admission_policy,
        fairshare=spec.fairshare,
    )
    fleet_factory = None
    if spec.standby:
        members_total = spec.num_members
        if not 0 < spec.standby < members_total:
            raise ValueError(
                f"standby must leave at least one active member "
                f"(fleet has {members_total})"
            )
        autoscaler = AutoscalerConfig(
            startup_delay=spec.startup_delay,
            check_interval=spec.check_interval,
        )

        def fleet_factory(members, policy):
            return AutoscalingFleet(
                members,
                policy=policy,
                autoscaler=autoscaler,
                initially_active=members_total - spec.standby,
            )

    fleet = build_windserve_fleet(
        config,
        cluster,
        pairs_per_node=spec.pairs_per_node,
        policy=spec.policy,
        span_nodes=spec.span_nodes,
        fleet_factory=fleet_factory,
        shape=shape,
    )
    if spec.replan:
        fleet.replanner = FleetReplanner()
    if spec.tenant_rate > 0:
        fleet.rate_limiter = TenantRateLimiter(
            rate=spec.tenant_rate, burst=spec.tenant_burst or None
        )
    return fleet


def fleet_slo(spec: FleetChaosSpec):
    """The SLO fleets are judged by: one TP-2 pair's, from the paper's rule."""
    return derive_slo(
        get_model(spec.model), get_dataset(spec.dataset), ParallelConfig(tp=2)
    )


def run_fleet_arm(
    name: str,
    spec: FleetChaosSpec,
    trace: Optional[Trace] = None,
    fault_plan: Optional[str] = None,
) -> ArmRun:
    """Build ``spec``'s fleet and run it as one arm over ``trace``.

    ``trace`` defaults to ``spec``'s own workload; comparison harnesses
    pass one shared trace to every arm.  ``fault_plan`` None runs fault-free
    with no injector armed; ``spec.fault_plan`` is not read here.
    """
    fleet = build_chaos_fleet(spec)
    if trace is None:
        trace = generate_workload(spec, fleet.num_gpus)
    return run_arm(
        name, fleet, workload_rows(trace), fault_plan, spec.seed, trace.rng_registry
    )


def run_fleet_chaos(spec: FleetChaosSpec) -> ArmRun:
    """Run one fleet chaos point to completion and check its invariants."""
    run = run_fleet_arm(spec.fault_plan, spec, fault_plan=spec.fault_plan)
    fleet, metrics = run.target, run.metrics
    resilience = metrics.resilience_summary()
    fleet_resilience = fleet.fleet_resilience_summary()
    run.derived = {
        "plan": spec.fault_plan,
        "members": spec.num_members,
        "submitted": len(run.submitted),
        "completed": len(metrics.completed),
        "shed": len(metrics.shed),
        "retried": fleet.retried,
        "cross_node_retries": fleet.cross_node_retries,
        **_pick(
            fleet_resilience,
            "member_crashes",
            "member_detection_latency_s",
            "member_downtime_s",
            "replacement_lag_s",
        ),
        "transfer_retries": resilience["transfer_retries"],
        "resilience": resilience,
        "fleet_resilience": fleet_resilience,
        "plan_events": run.plan_events,
        # Per-tier outcomes across the merged fleet.
        "tier_report": metrics.tier_report(tier_slos(fleet_slo(spec))),
    }
    return run


def run_fleet_chaos_matrix(
    base: FleetChaosSpec, plans: Sequence[str] = DEFAULT_FLEET_CHAOS_PLANS
) -> ArmSetReport:
    """Sweep fleet fault plans over one fleet configuration."""
    runs = {}
    for plan in plans:
        run = run_fleet_chaos(replace(base, fault_plan=plan))
        runs[run.name] = run
    return ArmSetReport(spec=scalar_fields(base), runs=runs)
