"""Experiment runner: build a system, generate a workload, measure.

Follows the paper's methodology: Poisson arrivals at a *per-GPU* request
rate (the linear scaling rule of §2.2 — total rate = per-GPU rate x GPUs
used), a warm-up prefix excluded from metrics, and TTFT/TPOT percentiles +
SLO attainment reported per run.

It also holds the comparison kernel every differential harness shares:
:func:`generate_workload` draws one arrival trace, ``workload_rows``
reduces it to its defining bytes, and :func:`run_arm` runs one arm — a
system or fleet — over freshly cloned requests, with an optional fault
plan, then fingerprints and audits it (:func:`~repro.serving.audit.
audit_run`).  A harness is an arm set plus verdict functions over the arms'
derived metrics, collected in an :class:`ArmSetReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional, Sequence

from repro.baselines.distserve import DistServeSystem
from repro.baselines.vllm import VLLMSystem
from repro.core.config import WindServeConfig
from repro.faults import (
    FaultInjector,
    FleetFaultInjector,
    ResilienceConfig,
    build_fault_plan,
    build_fleet_fault_plan,
)
from repro.core.windserve import WindServeSystem
from repro.hardware.gpu import GPUSpec, A800_80GB
from repro.hardware.topology import NodeTopology
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.audit import audit_run
from repro.serving.instance import InstanceConfig
from repro.serving.metrics import SLO, MetricsCollector
from repro.serving.placement import plan_pd_placement
from repro.serving.request import Request
from repro.serving.system import ServingSystem, SystemConfig
from repro.harness.slo import derive_slo
from repro.policies.fairshare import FairShareConfig
from repro.workloads.arrivals import TierMix
from repro.workloads.datasets import get_dataset
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix
from repro.sim.fingerprint import RunFingerprint, canonical_json, digest_lines
from repro.workloads.trace import Trace, clone_requests, generate_trace

SYSTEM_NAMES = (
    "windserve",
    "windserve-no-split",
    "windserve-no-resche",
    "windserve-static",
    "distserve",
    "vllm",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one measurement point."""

    system: str
    model: str
    dataset: str
    rate_per_gpu: float
    num_requests: int = 500
    seed: int = 0
    prefill_parallel: tuple[int, int] = (2, 1)  # (tp, pp)
    decode_parallel: tuple[int, int] = (2, 1)
    num_node_gpus: int = 8
    slo: Optional[SLO] = None  # None -> derive via the paper's rule
    ws_config: Optional[WindServeConfig] = None
    instance_config: InstanceConfig = field(default_factory=InstanceConfig)
    decode_instance_config: Optional[InstanceConfig] = None
    gpu: GPUSpec = A800_80GB
    arrival_process: str = "poisson"
    burstiness_cv: float = 2.0
    resilience: Optional[ResilienceConfig] = None  # None -> defaults
    tier_mix: Optional[str] = None  # e.g. "interactive=0.2,standard=0.5,best_effort=0.3"
    # Shared-prefix population, e.g. "none=0.25,assistant=0.5:384,fewshot=0.25:640"
    prefix_mix: Optional[str] = None
    admission_policy: str = "nested-caps"  # see repro.policies.admission
    # Tenant population, e.g. "acme=0.6,beta=0.25,gamma=0.15"
    tenant_mix: Optional[str] = None
    # Fair-share knobs (weights/SRPT/aging/budgets); used with
    # ``admission_policy="fair-share"``.
    fairshare: Optional[FairShareConfig] = None
    # Named fault plan (repro.faults.plan) the chaos harness and golden
    # runs inject through ``run_arm``; ``run_experiment`` runs fault-free.
    fault_plan: Optional[str] = None

    @property
    def prefill_cfg(self) -> ParallelConfig:
        return ParallelConfig(tp=self.prefill_parallel[0], pp=self.prefill_parallel[1])

    @property
    def decode_cfg(self) -> ParallelConfig:
        return ParallelConfig(tp=self.decode_parallel[0], pp=self.decode_parallel[1])

    @property
    def gpus_used(self) -> int:
        return self.prefill_cfg.num_gpus + self.decode_cfg.num_gpus

    def with_rate(self, rate_per_gpu: float) -> "ExperimentSpec":
        return replace(self, rate_per_gpu=rate_per_gpu)

    def with_system(self, system: str) -> "ExperimentSpec":
        return replace(self, system=system)


@dataclass
class ExperimentResult:
    """Outcome of one run."""

    spec: ExperimentSpec
    slo: SLO
    summary: dict
    counters: dict
    utilization: dict
    horizon: float
    metrics: MetricsCollector

    def row(self) -> dict:
        """Flat dict for tabular reports."""
        out = {
            "system": self.spec.system,
            "model": self.spec.model,
            "dataset": self.spec.dataset,
            "rate_per_gpu": self.spec.rate_per_gpu,
        }
        out.update(self.summary)
        return out


def resolve_slo(spec: ExperimentSpec) -> SLO:
    if spec.slo is not None:
        return spec.slo
    return derive_slo(
        get_model(spec.model), get_dataset(spec.dataset), spec.decode_cfg, spec.gpu
    )


def build_system(spec: ExperimentSpec, slo: Optional[SLO] = None) -> ServingSystem:
    """Instantiate the serving system an :class:`ExperimentSpec` describes."""
    if spec.system not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {spec.system!r}; known: {SYSTEM_NAMES}")
    model = get_model(spec.model)
    slo = slo or resolve_slo(spec)
    topology = NodeTopology(gpu=spec.gpu, num_gpus=spec.num_node_gpus)
    config = SystemConfig(
        model=model,
        gpu=spec.gpu,
        slo=slo,
        instance=spec.instance_config,
        decode_instance=spec.decode_instance_config,
        resilience=spec.resilience or ResilienceConfig(),
        admission_policy=spec.admission_policy,
        fairshare=spec.fairshare,
    )

    if spec.system == "vllm":
        parallel = spec.decode_cfg
        replicas = max(1, spec.gpus_used // parallel.num_gpus)
        return VLLMSystem(config, parallel=parallel, num_replicas=replicas, topology=topology)

    placement = plan_pd_placement(topology, spec.prefill_cfg, spec.decode_cfg)
    if spec.system == "distserve":
        return DistServeSystem(config, placement=placement, topology=topology)

    ws = spec.ws_config or WindServeConfig()
    if spec.system == "windserve-no-split":
        ws = replace(ws, sbd_enabled=False)
    elif spec.system == "windserve-no-resche":
        ws = replace(ws, rescheduling_enabled=False)
    elif spec.system == "windserve-static":
        ws = replace(
            ws, dispatch_enabled=False, rescheduling_enabled=False, backup_enabled=False
        )
    return WindServeSystem(config, ws_config=ws, placement=placement, topology=topology)


def run_experiment(spec: ExperimentSpec, warmup_fraction: float = 0.05) -> ExperimentResult:
    """Run one measurement point to completion and summarise it."""
    slo = resolve_slo(spec)
    system = build_system(spec, slo)
    metrics = system.run_to_completion(generate_workload(spec, spec.gpus_used))

    # Exclude the cold-start prefix from percentile statistics.
    warmup = int(len(metrics.completed) * warmup_fraction)
    if warmup:
        kept = sorted(metrics.completed, key=lambda r: r.arrival_time)[warmup:]
        trimmed = MetricsCollector()
        trimmed.completed.extend(kept)
        trimmed.counters = metrics.counters
        trimmed.utilization = metrics.utilization
        trimmed.horizon = metrics.horizon
        metrics = trimmed

    return ExperimentResult(
        spec=spec,
        slo=slo,
        summary=metrics.summary(slo),
        counters=dict(metrics.counters),
        utilization={
            name: {
                "compute": sample.compute_utilization(metrics.horizon),
                "memory_bw": sample.io_utilization(metrics.horizon),
            }
            for name, sample in metrics.utilization.items()
        },
        horizon=metrics.horizon,
        metrics=metrics,
    )


def sweep_rates(
    spec: ExperimentSpec, rates_per_gpu: list[float], warmup_fraction: float = 0.05
) -> list[ExperimentResult]:
    """Run the same experiment across a request-rate sweep."""
    return [
        run_experiment(spec.with_rate(rate), warmup_fraction=warmup_fraction)
        for rate in rates_per_gpu
    ]


# -- the comparison kernel ------------------------------------------------------


def generate_workload(spec, num_gpus: int) -> Trace:
    """The arrival trace ``spec`` describes, at ``rate_per_gpu x num_gpus``.

    ``spec`` is an :class:`ExperimentSpec` or a
    :class:`~repro.harness.chaos.FleetChaosSpec`: anything with their
    model/dataset/rate/seed/arrival fields and tier/prefix/tenant mix specs.
    """
    return generate_trace(
        get_dataset(spec.dataset),
        rate=spec.rate_per_gpu * num_gpus,
        num_requests=spec.num_requests,
        seed=spec.seed,
        model=get_model(spec.model),
        arrival_process=spec.arrival_process,
        burstiness_cv=spec.burstiness_cv,
        tier_mix=TierMix.parse(spec.tier_mix) if spec.tier_mix else None,
        prefix_mix=PrefixMix.parse(spec.prefix_mix) if spec.prefix_mix else None,
        tenant_mix=TenantMix.parse(spec.tenant_mix) if spec.tenant_mix else None,
    )


def rows_fingerprint(rows: Sequence[dict]) -> str:
    """Digest of a workload's defining rows (identical bytes, identical digest)."""
    return digest_lines(canonical_json(row) for row in rows)


@dataclass
class ArmRun:
    """One arm of a comparison: its run, fingerprint and audit.

    ``derived`` holds the harness's own metrics for the arm (the keys of its
    JSON report row); the rest is common to every harness.
    """

    name: str
    target: Any  # the ServingSystem or ServingFleet that ran
    submitted: list[Request]
    metrics: MetricsCollector
    fingerprint: RunFingerprint
    plan_events: list[dict]
    violations: list[str]
    derived: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            **self.derived,
            "fingerprint": self.fingerprint.value,
            "violations": self.violations,
        }


def run_arm(
    name: str,
    target,
    rows: Sequence[dict],
    fault_plan: Optional[str] = None,
    seed: int = 0,
    rng_registry: Sequence[str] = (),
) -> ArmRun:
    """Run ``target`` to completion over a fresh clone of ``rows``.

    With a ``fault_plan`` name, the matching injector is armed first — a
    :class:`~repro.faults.FleetFaultInjector` for a fleet, else a
    :class:`~repro.faults.FaultInjector` — with the plan scaled to the
    workload's last arrival.  The run is fingerprinted, then audited.
    """
    submitted = clone_requests(rows)
    plan_events: list[dict] = []
    if fault_plan is not None:
        horizon = max(r.arrival_time for r in submitted)
        if hasattr(target, "members"):
            plan = build_fleet_fault_plan(fault_plan, horizon, seed=seed)
            FleetFaultInjector(target, plan).arm()
        else:
            plan = build_fault_plan(fault_plan, horizon, seed=seed)
            FaultInjector(target, plan).arm()
        plan_events = plan.describe()
    metrics = target.run_to_completion(submitted)
    fingerprint = target.run_fingerprint(rng_registry)
    return ArmRun(
        name=name,
        target=target,
        submitted=submitted,
        metrics=metrics,
        fingerprint=fingerprint,
        plan_events=plan_events,
        violations=audit_run(target, submitted),
    )


def no_shed(run: ArmRun) -> list[str]:
    """Fault-free arms under ``nested-caps`` never shed: any shed is a
    violation there, stricter than the registry's shed-aware conservation."""
    if run.metrics.shed:
        ids = sorted(r.request_id for r in run.metrics.shed)
        return [f"requests shed in a fault-free run: {ids[:5]}"]
    return []


def scalar_fields(*specs) -> dict:
    """The plain (str/number/bool/None) fields of spec dataclasses, for reports."""
    return {
        f.name: getattr(spec, f.name)
        for spec in specs
        for f in fields(spec)
        if isinstance(getattr(spec, f.name), (str, int, float, bool, type(None)))
    }


@dataclass
class ArmSetReport:
    """Every arm of one comparison plus the verdicts drawn from them.

    ``passed`` needs every arm audit-clean and every verdict true.
    """

    spec: dict
    runs: dict[str, ArmRun]
    verdicts: dict[str, bool] = field(default_factory=dict)
    workload_fingerprint: Optional[str] = None

    @property
    def violations(self) -> list[str]:
        return [f"{name}: {v}" for name, run in self.runs.items() for v in run.violations]

    @property
    def passed(self) -> bool:
        return not self.violations and all(self.verdicts.values())

    def as_dict(self) -> dict:
        out: dict = {"spec": self.spec}
        if self.workload_fingerprint is not None:
            out["workload_fingerprint"] = self.workload_fingerprint
        out["runs"] = {name: run.as_dict() for name, run in self.runs.items()}
        out.update(self.verdicts)
        out["passed"] = self.passed
        return out
