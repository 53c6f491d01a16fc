"""Heterogeneous-fleet differentials: routing and failure re-planning.

Two questions decide whether the heterogeneous-fleet machinery earns its
keep, and both are answered the differential way — byte-identical cloned
workloads, one knob flipped per comparison:

* **Routing** — on a mixed fleet (A800 pairs beside an H100 pair), does
  scoring members in estimated *seconds* through each member's own latency
  model (``predicted-ttft``) beat hardware-blind request counting
  (``least-loaded``)?  Counting mis-ranks unequal hardware: an H100 member
  holding five requests can be genuinely faster to join than an A800
  holding three.

* **Re-planning** — when the fleet's fast member crashes mid-run
  (``member-crash`` hits member 1, the H100 in the default shape), does
  the failure-reactive re-planner — which widens a surviving A800 member
  over its home node's spare GPUs and re-queues its in-flight work through
  the crash-requeue path — recover at least as much SLO-met goodput as
  running degraded?

Every arm is audited by :func:`~repro.serving.audit.audit_run`, so the
verdicts are only trusted when the bookkeeping balances.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.harness.chaos import (
    FleetChaosSpec,
    build_chaos_fleet,
    fleet_slo,
    run_fleet_arm,
)
from repro.harness.runner import ArmRun, ArmSetReport, generate_workload, scalar_fields

#: Mixed shape whose member 1 — the ``member-crash`` plan's target — is
#: the fast (H100) member.  The A800 members run deliberately narrow
#: (TP-1, PP-1 per phase: 2 GPUs each), so with one pair per node each
#: home node keeps six spare GPUs and the re-planner can widen a survivor
#: four-fold (2 → 8 GPUs) — a capacity jump that dwarfs the fixed cost of
#: re-queueing the survivor's in-flight work through the rebuild.
DEFAULT_SHAPE = "a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1"

#: Routing arms: (baseline, challenger) — the challenger must win mean TTFT.
ROUTERS = ("least-loaded", "predicted-ttft")

#: Router the re-planning arms run under (the hetero-correct one).
REPLAN_ROUTER = "predicted-ttft"

#: The default comparison point; ``fault_plan`` is the plan both crash
#: arms run under.
DEFAULT_SPEC = FleetChaosSpec(
    fault_plan="member-crash",
    rate_per_gpu=3.0,
    num_requests=480,
    pairs_per_node=1,
    shape=DEFAULT_SHAPE,
)


def _hetero_row(
    run: ArmRun, spec: FleetChaosSpec, fault_plan: Optional[str], slo
) -> dict:
    fleet, completed = run.target, run.metrics.completed
    ttfts = [r.ttft for r in completed if r.ttft is not None]
    met = sum(1 for r in completed if slo.met_by(r))
    submitted = len(run.submitted)
    return {
        "label": run.name,
        "router": spec.policy,
        "fault_plan": fault_plan,
        "replan": spec.replan,
        "submitted": submitted,
        "completed": len(completed),
        "shed": len(run.metrics.shed),
        "retried": fleet.retried,
        "mean_ttft": sum(ttfts) / len(ttfts) if ttfts else 0.0,
        "slo_attainment": met / submitted if submitted else 0.0,
        "slo_goodput": met,  # completed requests that met the reference SLO
        "members_replanned": fleet.replanned_members,
        "replan_requeues": fleet.replan_requeues,
        "replans": list(fleet.replanner.replans) if fleet.replanner else [],
    }


def routing_wins(rows: dict[str, dict]) -> bool:
    """The seconds-based router beats count-based on mean TTFT."""
    baseline = rows.get(f"route:{ROUTERS[0]}")
    challenger = rows.get(f"route:{ROUTERS[-1]}")
    if baseline is None or challenger is None:
        return False
    return challenger["mean_ttft"] < baseline["mean_ttft"]


def replan_recovers(rows: dict[str, dict]) -> bool:
    """Re-planning recovers at least the degraded run's goodput."""
    degraded, replanned = rows.get("crash:no-replan"), rows.get("crash:replan")
    if degraded is None or replanned is None:
        return False
    return (
        replanned["members_replanned"] > 0
        and replanned["slo_goodput"] >= degraded["slo_goodput"]
    )


def run_hetero_comparison(base: Optional[FleetChaosSpec] = None) -> ArmSetReport:
    """Run both arm pairs on one byte-identical mixed-fleet workload:
    the routing pair fault-free, the crash pair replan off vs on."""
    base = base or DEFAULT_SPEC
    trace = generate_workload(base, build_chaos_fleet(base).num_gpus)
    slo = fleet_slo(base)
    arms = [
        (f"route:{router}", replace(base, policy=router), None) for router in ROUTERS
    ]
    arms += [
        (
            f"crash:{'replan' if replan else 'no-replan'}",
            replace(base, policy=REPLAN_ROUTER, replan=replan),
            base.fault_plan,
        )
        for replan in (False, True)
    ]
    runs = {}
    for label, spec, fault_plan in arms:
        run = run_fleet_arm(label, spec, trace, fault_plan)
        run.derived = _hetero_row(run, spec, fault_plan, slo)
        runs[label] = run
    rows = {name: run.derived for name, run in runs.items()}
    return ArmSetReport(
        spec=scalar_fields(base),
        runs=runs,
        verdicts={
            "routing_wins": routing_wins(rows),
            "replan_recovers": replan_recovers(rows),
        },
    )
