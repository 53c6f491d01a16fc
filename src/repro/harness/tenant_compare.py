"""Tenant isolation: fair-share vs FIFO-within-tier under a noisy neighbour.

The differential question behind the fair-share subsystem: when one heavy
tenant floods the system with a burst, do the light tenants keep their
latency?  Three runs consume byte-identical cloned workloads (the
differential harness's ``workload_rows``/``clone_requests`` discipline):

1. **baseline** — the base mixed-tenant workload with no burst, under
   fair-share.  Pins what the light tenants' P99 TTFT looks like when
   nobody misbehaves.
2. **fair-share** — the same workload plus a synthetic heavy-tenant burst,
   under fair-share admission with per-tenant budgets.  The isolation
   invariant: the light tenants' P99 TTFT must stay within
   ``isolation_bound`` x the baseline.
3. **fifo** — the identical burst workload under plain ``nested-caps``
   (FIFO within each tier).  With no fair queueing and no budgets the
   burst queues ahead of everyone in its tier; the same bound should be
   *violated* — otherwise the experiment is not discriminating and the
   verdict says so.

Every run is audited by :func:`~repro.serving.audit.audit_run`: shed-aware
and per-tenant conservation (no request changes owner), token causality,
monotone timestamps, a fully drained system, and — for the budgeted runs —
the ``tenant_peak_*`` watermark counters never exceeding the configured
budgets at any sim instant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.harness.runner import (
    ArmRun,
    ArmSetReport,
    ExperimentSpec,
    build_system,
    generate_workload,
    resolve_slo,
    rows_fingerprint,
    run_arm,
    scalar_fields,
)
from repro.harness.slo import tier_slos
from repro.policies.fairshare import FairShareConfig
from repro.workloads.tenants import TenantMix
from repro.workloads.trace import workload_rows

#: The heavy tenant's name in the generated mix and the synthetic burst.
HEAVY_TENANT = "heavy"

#: Run labels (keys of the report's ``runs``).
BASELINE_RUN = "baseline"
FAIRSHARE_RUN = "fair-share"
FIFO_RUN = "fifo"

#: The default workload point the burst rides on.
DEFAULT_SPEC = ExperimentSpec(
    system="windserve",
    model="opt-13b",
    dataset="sharegpt",
    rate_per_gpu=3.0,
    num_requests=160,
)


@dataclass(frozen=True)
class TenantComparisonSpec:
    """The noisy-neighbour knobs: tenant population, budgets, burst, bound."""

    #: Light tenants sharing the system with the one heavy tenant.
    num_light: int = 2
    #: Heavy tenant's share of the *base* (pre-burst) arrival mix.
    heavy_share: float = 0.2
    #: WFQ weight of each light tenant (the heavy tenant keeps weight 1).
    light_weight: float = 4.0
    #: Per-tenant concurrency budget enforced in the fair-share runs.
    tenant_max_inflight: int = 8
    #: Synthetic heavy-tenant burst riding on top of the base workload.
    burst_requests: int = 48
    burst_prompt_tokens: int = 1024
    burst_output_tokens: int = 64
    #: Burst arrivals start this fraction into the base workload's span
    #: and are spread evenly over ``burst_window`` seconds.
    burst_start_frac: float = 0.25
    burst_window: float = 2.0
    #: Isolation invariant: light P99 TTFT under the burst must stay
    #: within this multiple of the no-burst baseline.
    isolation_bound: float = 1.5

    def __post_init__(self) -> None:
        if self.num_light < 1:
            raise ValueError("need at least one light tenant")
        if not 0 < self.heavy_share < 1:
            raise ValueError("heavy_share must be in (0, 1)")
        if not self.isolation_bound >= 1:
            raise ValueError("isolation_bound must be >= 1")
        if not 0 <= self.burst_start_frac < 1:
            raise ValueError("burst_start_frac must be in [0, 1)")

    def light_tenants(self) -> tuple[str, ...]:
        return tuple(f"light_{i}" for i in range(self.num_light))

    def tenant_mix(self) -> TenantMix:
        light_share = (1.0 - self.heavy_share) / self.num_light
        weights = [(HEAVY_TENANT, self.heavy_share)]
        weights.extend((name, light_share) for name in self.light_tenants())
        return TenantMix(weights=tuple(weights))

    def fairshare(self) -> FairShareConfig:
        return FairShareConfig(
            weights=tuple(
                (name, self.light_weight) for name in self.light_tenants()
            ),
            max_inflight=self.tenant_max_inflight,
        )


# -- workload construction ----------------------------------------------------


def burst_rows(spec: TenantComparisonSpec, base_rows: list[dict]) -> list[dict]:
    """Synthetic heavy-tenant burst rows riding on top of the base trace.

    Purely arithmetic (no RNG): ``burst_requests`` arrivals spread evenly
    over ``burst_window`` seconds starting ``burst_start_frac`` into the
    base workload's span, each a large prompt owned by the heavy tenant.
    """
    if not base_rows:
        return []
    next_id = max(row["id"] for row in base_rows) + 1
    horizon = max(row["arrival"] for row in base_rows)
    start = spec.burst_start_frac * horizon
    step = spec.burst_window / max(1, spec.burst_requests)
    return [
        {
            "id": next_id + i,
            "arrival": start + i * step,
            "prompt": spec.burst_prompt_tokens,
            "output": spec.burst_output_tokens,
            "tenant": HEAVY_TENANT,
        }
        for i in range(spec.burst_requests)
    ]


# -- verdicts -----------------------------------------------------------------


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))
    return ordered[index]


def _tenant_row(run: ArmRun, admission: str, light: tuple[str, ...], slo) -> dict:
    metrics = run.metrics
    light_ttfts = [
        r.ttft for r in metrics.completed if r.tenant in light and r.ttft is not None
    ]
    heavy_ttfts = [
        r.ttft
        for r in metrics.completed
        if r.tenant == HEAVY_TENANT and r.ttft is not None
    ]
    return {
        "name": run.name,
        "admission": admission,
        "submitted": len(run.submitted),
        "completed": len(metrics.completed),
        "shed": len(metrics.shed),
        "light_p99_ttft": _p99(light_ttfts),
        "light_mean_ttft": sum(light_ttfts) / len(light_ttfts) if light_ttfts else 0.0,
        "heavy_p99_ttft": _p99(heavy_ttfts),
        "budget_sheds": metrics.counters.get("tenant_budget_shed", 0),
        "peak_inflight": {
            key: value
            for key, value in sorted(metrics.counters.items())
            if key.startswith("tenant_peak_inflight[")
        },
        "tenant_report": metrics.tenant_report(tier_slos(slo)),
    }


def tenant_verdicts(rows: dict[str, dict], bound: float) -> dict[str, bool]:
    """The three isolation verdicts over the arms' light-tenant P99 TTFT.

    ``fifo_violates`` is the discriminating half: if FIFO also holds the
    bound, the point is too easy to claim fair-share earned anything.
    """
    base, fair, fifo = (rows.get(n) for n in (BASELINE_RUN, FAIRSHARE_RUN, FIFO_RUN))
    limit = None
    if base and base["light_p99_ttft"] > 0:
        limit = bound * base["light_p99_ttft"]
    return {
        "isolation_holds": bool(fair and limit and fair["light_p99_ttft"] <= limit),
        "fifo_violates": bool(fifo and limit and fifo["light_p99_ttft"] > limit),
        "fairshare_beats_fifo": bool(
            fair and fifo and fair["light_p99_ttft"] < fifo["light_p99_ttft"]
        ),
    }


# -- the runner ---------------------------------------------------------------


def run_tenant_comparison(
    spec: Optional[TenantComparisonSpec] = None, base: Optional[ExperimentSpec] = None
) -> ArmSetReport:
    """Run the three-way noisy-neighbour comparison on one workload.

    The base trace is generated once from ``base`` with the spec's tenant
    mix; the burst rows are appended deterministically; every arm receives
    freshly cloned request objects.
    """
    spec = spec or TenantComparisonSpec()
    base = replace(base or DEFAULT_SPEC, tenant_mix=spec.tenant_mix().spec_string())
    trace = generate_workload(base, base.gpus_used)
    base_rows = workload_rows(trace)
    with_burst = sorted(
        base_rows + burst_rows(spec, base_rows),
        key=lambda row: (row["arrival"], row["id"]),
    )
    runs = {}
    for name, admission, rows in (
        (BASELINE_RUN, "fair-share", base_rows),
        (FAIRSHARE_RUN, "fair-share", with_burst),
        (FIFO_RUN, "nested-caps", with_burst),
    ):
        experiment = replace(
            base,
            admission_policy=admission,
            fairshare=spec.fairshare() if admission == "fair-share" else None,
        )
        slo = resolve_slo(experiment)
        system = build_system(experiment, slo)
        run = run_arm(name, system, rows, rng_registry=trace.rng_registry)
        run.derived = _tenant_row(run, admission, spec.light_tenants(), slo)
        runs[name] = run
    rows = {name: run.derived for name, run in runs.items()}
    return ArmSetReport(
        spec=scalar_fields(base, spec),
        runs=runs,
        verdicts=tenant_verdicts(rows, spec.isolation_bound),
        workload_fingerprint=rows_fingerprint(with_burst),
    )
