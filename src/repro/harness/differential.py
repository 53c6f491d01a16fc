"""Differential runner: WindServe vs baselines on an identical arrival trace.

Different schedulers are free to produce different *latencies*, but every
correct serving system fed the same workload must keep the invariants of
:func:`~repro.serving.audit.audit_run`.  Running WindServe and the
DistServe/vLLM baselines side by side on a byte-identical arrival trace
and auditing every arm turns any scheduler bug that breaks accounting into
a hard failure — independent of the golden store, which only pins exact
behaviour per scheduler.  These arms run fault-free under ``nested-caps``,
which never sheds, so a shed request is a violation here too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.harness.runner import (
    ArmSetReport,
    ExperimentSpec,
    build_system,
    generate_workload,
    no_shed,
    resolve_slo,
    rows_fingerprint,
    run_arm,
    scalar_fields,
)
from repro.workloads.trace import workload_rows

DEFAULT_SYSTEMS = ("windserve", "distserve", "vllm")

#: The default comparison point: a small Poisson ShareGPT workload.
DEFAULT_SPEC = ExperimentSpec(
    system=DEFAULT_SYSTEMS[0],
    model="opt-13b",
    dataset="sharegpt",
    rate_per_gpu=3.0,
    num_requests=40,
)


def run_differential(
    base: Optional[ExperimentSpec] = None, systems: Sequence[str] = DEFAULT_SYSTEMS
) -> ArmSetReport:
    """Run every system in ``systems`` on one byte-identical workload.

    The arrival trace is generated once from ``base``, reduced to its
    defining rows, and each arm receives freshly cloned request objects.
    """
    base = base or DEFAULT_SPEC
    trace = generate_workload(base, base.gpus_used)
    rows = workload_rows(trace)
    runs = {}
    for name in systems:
        spec = replace(base, system=name)
        if spec.gpus_used != base.gpus_used:
            raise ValueError(
                f"system {name} uses {spec.gpus_used} GPUs vs {base.gpus_used}; "
                "the shared workload rate would differ"
            )
        system = build_system(spec, resolve_slo(spec))
        run = run_arm(name, system, rows, rng_registry=trace.rng_registry)
        run.violations.extend(no_shed(run))
        run.derived = {
            "system": name,
            "completed": len(run.metrics.completed),
            "shed": len(run.metrics.shed),
            "summary": run.metrics.summary(),
        }
        runs[name] = run
    return ArmSetReport(
        spec=scalar_fields(base), runs=runs, workload_fingerprint=rows_fingerprint(rows)
    )
