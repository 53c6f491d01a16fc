"""Command-line interface.

Run single experiments, rate sweeps, or placement searches without writing
Python::

    python -m repro run --system windserve --model opt-13b --dataset sharegpt \
        --rate 4.0 --requests 500
    python -m repro sweep --systems windserve,distserve,vllm --rates 2,3,4,5
    python -m repro placement --model opt-13b --dataset sharegpt --rate 1.5
    python -m repro golden record
    python -m repro golden check
    python -m repro differential --seeds 0,1,2
    python -m repro chaos --plans decode-crash,link-degrade
    python -m repro chaos --smoke
    python -m repro prefix --smoke
    python -m repro tenants --smoke
    python -m repro models
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.harness.placement_search import search_placement
from repro.harness.report import format_table
from repro.harness.runner import SYSTEM_NAMES, ExperimentSpec, run_experiment
from repro.models.registry import MODEL_REGISTRY
from repro.workloads.datasets import DATASET_REGISTRY


def _parse_parallel(value: str) -> tuple[int, int]:
    """Parse 'tp2pp1' / '2,1' / '2' into (tp, pp)."""
    value = value.lower().replace("tp", "").replace("pp", ",").strip(",")
    parts = [p for p in value.replace(" ", "").split(",") if p]
    if len(parts) == 1:
        return int(parts[0]), 1
    if len(parts) == 2:
        return int(parts[0]), int(parts[1])
    raise argparse.ArgumentTypeError(f"cannot parse parallelism {value!r}")


def _fairshare_from_args(args: argparse.Namespace):
    """Build a FairShareConfig from the tenant budget flags (or None)."""
    weights = getattr(args, "tenant_weights", None)
    max_inflight = getattr(args, "tenant_max_inflight", None)
    max_tokens = getattr(args, "tenant_max_tokens", None)
    if weights is None and max_inflight is None and max_tokens is None:
        return None
    from repro.policies.fairshare import FairShareConfig

    return FairShareConfig(
        weights=FairShareConfig.parse_weights(weights) if weights else (),
        max_inflight=max_inflight,
        max_tokens=max_tokens,
    )


def _spec_from_args(args: argparse.Namespace, system: str, rate: float) -> ExperimentSpec:
    return ExperimentSpec(
        system=system,
        model=args.model,
        dataset=args.dataset,
        rate_per_gpu=rate,
        num_requests=args.requests,
        seed=args.seed,
        prefill_parallel=args.prefill_parallel,
        decode_parallel=args.decode_parallel,
        num_node_gpus=args.node_gpus,
        arrival_process=args.arrivals,
        burstiness_cv=args.burstiness,
        tier_mix=args.tier_mix,
        prefix_mix=args.prefix_mix,
        tenant_mix=getattr(args, "tenant_mix", None),
        admission_policy=getattr(args, "admission", "nested-caps"),
        fairshare=_fairshare_from_args(args),
    )


def _result_row(result) -> dict:
    row = result.row()
    row["slo_ttft_s"] = result.slo.ttft
    row["slo_tpot_s"] = result.slo.tpot
    return row


def cmd_run(args: argparse.Namespace) -> int:
    if (mix_error := _validate_tenant_mix(args)) is not None:
        print(mix_error, file=sys.stderr)
        return 2
    result = run_experiment(_spec_from_args(args, args.system, args.rate))
    row = _result_row(result)
    if args.json:
        print(json.dumps({"summary": row, "counters": result.counters}, indent=2))
    else:
        print(format_table([row], columns=list(row)[:12]))
        interesting = {k: v for k, v in result.counters.items() if v}
        if interesting:
            print("\ncounters:", ", ".join(f"{k}={v}" for k, v in sorted(interesting.items())))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for rate in args.rates:
        for system in args.systems:
            result = run_experiment(_spec_from_args(args, system, rate))
            rows.append(_result_row(result))
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(
            format_table(
                rows,
                columns=[
                    "rate_per_gpu",
                    "system",
                    "ttft_p50",
                    "ttft_p99",
                    "tpot_p90",
                    "tpot_p99",
                    "slo_attainment",
                    "swap_events",
                ],
            )
        )
    return 0


def cmd_placement(args: argparse.Namespace) -> int:
    scores = search_placement(
        system=args.system,
        model=args.model,
        dataset=args.dataset,
        rate_per_gpu=args.rate,
        num_requests=args.requests,
        num_node_gpus=args.node_gpus,
        seed=args.seed,
    )
    rows = [
        {
            "placement": s.label(),
            "gpus": s.gpus_used,
            "slo_attainment": s.slo_attainment,
            "goodput_per_gpu": s.goodput_per_gpu,
        }
        for s in scores
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows))
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.harness.breakdown import breakdown_rows
    from repro.harness.timeline import render_timeline
    from repro.harness.runner import build_system, generate_workload, resolve_slo

    if (mix_error := _validate_tenant_mix(args)) is not None:
        print(mix_error, file=sys.stderr)
        return 2
    spec = _spec_from_args(args, args.system, args.rate)
    slo = resolve_slo(spec)
    system = build_system(spec, slo)
    # The timeline needs tracing; flip it on before any batch runs.
    system.trace.enabled = True
    for instance in system.instances:
        instance.trace = system.trace
    metrics = system.run_to_completion(generate_workload(spec, spec.gpus_used))
    rows = breakdown_rows(metrics.completed, label=spec.system)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows, precision=4))
    print()
    print(render_timeline(system, bins=60))
    return 0


def cmd_golden(args: argparse.Namespace) -> int:
    from repro.harness.golden import (
        GOLDEN_MATRIX,
        check_goldens,
        record_goldens,
        render_migration_report,
        rerecord_goldens,
        validate_golden_store,
    )

    only = args.only or None
    if args.action == "list":
        for scenario in GOLDEN_MATRIX:
            print(scenario.name)
        return 0
    try:
        if args.action == "record":
            for path in record_goldens(
                args.dir, only=only, reason=args.reason, tag=args.tag
            ):
                print(f"recorded {path}")
            return 0
        if args.action == "rerecord":
            if not args.reason:
                print(
                    "error: rerecord requires --reason (the provenance line "
                    "reviewers read)",
                    file=sys.stderr,
                )
                return 2
            outcomes = rerecord_goldens(
                args.dir, reason=args.reason, tag=args.tag, only=only
            )
            report = render_migration_report(outcomes)
            print(report)
            if args.report_out is not None:
                args.report_out.write_text(report + "\n")
                print(f"\nmigration report written to {args.report_out}")
            return 0
        if args.action == "validate":
            problems = validate_golden_store(args.dir, only=only)
            for problem in problems:
                print(f"PROVENANCE: {problem}")
            if problems:
                print(f"\n{len(problems)} problem(s) in the golden store")
                return 1
            count = len(only) if only else len(GOLDEN_MATRIX)
            print(f"all {count} golden header(s) valid (format + provenance chain)")
            return 0
        diffs = check_goldens(args.dir, only=only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for diff in diffs:
        print(diff.report())
    failed = sum(not d.passed for d in diffs)
    if failed:
        print(
            f"\n{failed}/{len(diffs)} golden scenario(s) diverged. If the behaviour "
            "change is intentional, re-record with `python -m repro golden rerecord "
            "--reason ...` (see docs/determinism.md)."
        )
        return 1
    print(f"\nall {len(diffs)} golden scenario(s) match")
    return 0


def _emit_report(args: argparse.Namespace, report, success: str) -> int:
    """Print an :class:`ArmSetReport` and return the exit code.

    Shared by every comparison command: ``--out`` writes the JSON report,
    ``--json`` prints it (else a table of the arms' scalar metrics and the
    verdicts), each violation and failed verdict goes to stderr, and the
    exit code is 1 unless every arm is audit-clean and every verdict holds.
    """
    payload = report.as_dict()
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        rows = []
        for run in report.runs.values():
            row = {
                key: value
                for key, value in run.derived.items()
                if isinstance(value, (str, int, float, bool, type(None)))
            }
            row["fingerprint"] = run.fingerprint.value[:12]
            row["invariants"] = "ok" if run.passed else "VIOLATED"
            rows.append(row)
        print(format_table(rows, precision=4))
        for name, holds in report.verdicts.items():
            print(f"  [{'ok' if holds else 'FAILED'}] {name}")
    for violation in report.violations:
        print(f"[VIOLATED] {violation}", file=sys.stderr)
    for name, holds in report.verdicts.items():
        if not holds:
            print(f"verdict {name} failed", file=sys.stderr)
    if not report.passed:
        return 1
    print(f"\n{success}")
    return 0


def cmd_differential(args: argparse.Namespace) -> int:
    from repro.harness.differential import run_differential

    failures = 0
    for seed in args.seeds:
        spec = replace(_spec_from_args(args, args.systems[0], args.rate), seed=seed)
        report = run_differential(spec, systems=tuple(args.systems))
        failures += _emit_report(
            args,
            report,
            f"seed {seed}: all {len(report.runs)} systems kept every invariant on "
            f"workload {report.workload_fingerprint[:12]}",
        )
    return 1 if failures else 0


def _validate_tier_mix(args: argparse.Namespace) -> Optional[str]:
    """Parse-check ``--tier-mix`` up front; returns an error message or None."""
    if not args.tier_mix:
        return None
    from repro.workloads.arrivals import TierMix

    try:
        TierMix.parse(args.tier_mix)
    except ValueError as exc:
        return f"error: bad --tier-mix: {exc}"
    return None


def _validate_prefix_mix(args: argparse.Namespace) -> Optional[str]:
    """Parse-check ``--prefix-mix`` up front; returns an error message or None."""
    if not getattr(args, "prefix_mix", None):
        return None
    from repro.workloads.prefixes import PrefixMix

    try:
        PrefixMix.parse(args.prefix_mix)
    except ValueError as exc:
        return f"error: bad --prefix-mix: {exc}"
    return None


def _validate_tenant_mix(args: argparse.Namespace) -> Optional[str]:
    """Parse-check the tenant flags up front; returns an error message or None."""
    if getattr(args, "tenant_mix", None):
        from repro.workloads.tenants import TenantMix

        try:
            TenantMix.parse(args.tenant_mix)
        except ValueError as exc:
            return f"error: bad --tenant-mix: {exc}"
    try:
        _fairshare_from_args(args)
    except ValueError as exc:
        return f"error: bad tenant budget flags: {exc}"
    return None


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FAULT_PLAN_NAMES
    from repro.harness.chaos import DEFAULT_CHAOS_PLANS, run_chaos_matrix

    for mix_error in (
        _validate_tier_mix(args),
        _validate_prefix_mix(args),
        _validate_tenant_mix(args),
    ):
        if mix_error is not None:
            print(mix_error, file=sys.stderr)
            return 2
    if args.fleet:
        return _cmd_chaos_fleet(args)
    systems, plans = args.systems, args.plans
    if plans is None:
        plans = list(DEFAULT_CHAOS_PLANS)
    requests = args.requests
    if args.smoke:
        # One small deterministic cell for CI: fast, but still exercises
        # crash -> detect -> re-queue -> recover end to end.
        systems, plans, requests = ["windserve"], ["decode-crash"], min(requests, 60)
    for plan in plans:
        if plan not in FAULT_PLAN_NAMES:
            print(
                f"error: unknown fault plan {plan!r}; known: {FAULT_PLAN_NAMES}",
                file=sys.stderr,
            )
            return 2
    base = replace(_spec_from_args(args, systems[0], args.rate), num_requests=requests)
    report = run_chaos_matrix(base, systems=systems, plans=plans)
    return _emit_report(
        args,
        report,
        f"all {len(report.runs)} chaos run(s) satisfied the resilience invariants",
    )


def _cmd_chaos_fleet(args: argparse.Namespace) -> int:
    from repro.faults import FLEET_FAULT_PLAN_NAMES
    from repro.harness.chaos import (
        DEFAULT_FLEET_CHAOS_PLANS,
        FleetChaosSpec,
        run_fleet_chaos_matrix,
    )

    plans = args.plans if args.plans is not None else list(DEFAULT_FLEET_CHAOS_PLANS)
    requests = args.requests
    nodes, pairs, standby = args.nodes, args.pairs_per_node, args.standby
    if args.smoke:
        # One small member-crash cell with a warm standby: exercises the
        # whole fleet loop (crash -> heartbeat detect -> cross-node re-route
        # -> standby promotion -> rejoin) in a few seconds.
        plans, requests = ["member-crash"], min(requests, 48)
        nodes, pairs, standby = 2, 2, 1
    for plan in plans:
        if plan not in FLEET_FAULT_PLAN_NAMES:
            print(
                f"error: unknown fleet fault plan {plan!r}; "
                f"known: {FLEET_FAULT_PLAN_NAMES}",
                file=sys.stderr,
            )
            return 2
    base = FleetChaosSpec(
        model=args.model,
        dataset=args.dataset,
        rate_per_gpu=args.rate,
        num_requests=requests,
        seed=args.seed,
        arrival_process=args.arrivals,
        burstiness_cv=args.burstiness,
        num_nodes=nodes,
        pairs_per_node=pairs,
        policy=args.router or "round-robin",
        span_nodes=args.span_nodes,
        standby=standby,
        tier_mix=args.tier_mix,
        prefix_mix=args.prefix_mix,
        admission_policy=args.admission,
        tenant_mix=args.tenant_mix,
        fairshare=_fairshare_from_args(args),
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
    )
    report = run_fleet_chaos_matrix(base, plans=plans)
    return _emit_report(
        args,
        report,
        f"all {len(report.runs)} fleet chaos run(s) satisfied the resilience invariants",
    )


def cmd_prefix(args: argparse.Namespace) -> int:
    from repro.harness.prefix_compare import DEFAULT_SPEC, run_prefix_comparison

    if (mix_error := _validate_prefix_mix(args)) is not None:
        print(mix_error, file=sys.stderr)
        return 2
    base = replace(
        DEFAULT_SPEC,
        model=args.model,
        dataset=args.dataset,
        rate_per_gpu=args.rate,
        # One fast deterministic comparison cell for CI under --smoke.
        num_requests=min(args.requests, 160) if args.smoke else args.requests,
        seed=args.seed,
        num_nodes=args.nodes,
        pairs_per_node=args.pairs_per_node,
        prefix_cache_tokens=args.cache_tokens,
        prefix_mix=args.prefix_mix or DEFAULT_SPEC.prefix_mix,
    )
    return _emit_report(
        args,
        run_prefix_comparison(base),
        "prefix-affinity beats least-loaded on mean TTFT and total prefill "
        "tokens; all KV and conservation checks passed",
    )


def cmd_hetero(args: argparse.Namespace) -> int:
    from repro.harness.hetero_compare import DEFAULT_SPEC, run_hetero_comparison

    try:
        base = replace(
            DEFAULT_SPEC,
            model=args.model,
            dataset=args.dataset,
            rate_per_gpu=args.rate,
            # The default spec already runs in ~1s; the --smoke cap just
            # keeps explicit larger --requests honest in smoke mode.
            num_requests=min(args.requests, 480) if args.smoke else args.requests,
            seed=args.seed,
            pairs_per_node=args.pairs_per_node,
            fault_plan=args.fault_plan,
            shape=args.shape or DEFAULT_SPEC.shape,
        )
        base.parsed_shape()  # surface shape-spec errors as usage errors
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_report(
        args,
        run_hetero_comparison(base),
        "predicted-ttft beats least-loaded on the mixed fleet, and "
        "re-planning recovers at least the degraded run's SLO goodput; "
        "all chaos invariants passed",
    )


def cmd_tenants(args: argparse.Namespace) -> int:
    from repro.harness.tenant_compare import (
        DEFAULT_SPEC,
        TenantComparisonSpec,
        run_tenant_comparison,
    )

    try:
        spec = TenantComparisonSpec(
            num_light=args.light_tenants,
            light_weight=args.light_weight,
            tenant_max_inflight=args.tenant_max_inflight,
            # One fast deterministic comparison cell for CI under --smoke.
            burst_requests=(
                min(args.burst_requests, 32) if args.smoke else args.burst_requests
            ),
            isolation_bound=args.bound,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = replace(
        DEFAULT_SPEC,
        model=args.model,
        dataset=args.dataset,
        rate_per_gpu=args.rate,
        num_requests=min(args.requests, 80) if args.smoke else args.requests,
        seed=args.seed,
    )
    return _emit_report(
        args,
        run_tenant_comparison(spec, base),
        "fair-share held the isolation bound the FIFO baseline violated; "
        "budgets were never exceeded and all conservation checks passed",
    )


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.perfbench import (
        BenchSpec,
        record_bench,
        smoke_spec,
        summarize,
        validate_bench_payload,
    )

    if args.smoke:
        spec = smoke_spec(num_requests=args.requests or 2_000, seed=args.seed)
    else:
        spec = BenchSpec(
            label=args.label,
            num_requests=args.requests or 100_000,
            seed=args.seed,
            model=args.model,
            dataset=args.dataset,
        )
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
    path, payload = record_bench(
        spec, out=args.out, root=Path(args.root), baseline=baseline
    )
    problems = validate_bench_payload(payload)
    if problems:  # record_bench already validates; belt-and-braces for --smoke CI
        for problem in problems:
            print(f"SCHEMA: {problem}")
        return 1
    print(summarize(payload))
    print(f"wrote {path}")
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "params_b": spec.total_params / 1e9,
            "layers": spec.num_layers,
            "hidden": spec.hidden_size,
            "heads": spec.num_heads,
            "kv_heads": spec.num_kv_heads,
            "context": spec.max_context,
            "kv_kib_per_token": spec.kv_bytes_per_token / 1024,
        }
        for spec in MODEL_REGISTRY.values()
    ]
    print(format_table(rows, precision=1))
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": d.name,
            "prompt avg/med/p90": "/".join(str(x) for x in d.prompt_stats),
            "output avg/med/p90": "/".join(str(x) for x in d.output_stats),
        }
        for d in DATASET_REGISTRY.values()
    ]
    print(format_table(rows))
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="opt-13b", choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--dataset", default="sharegpt", choices=sorted(DATASET_REGISTRY))
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--prefill-parallel", type=_parse_parallel, default=(2, 1), metavar="TPxPPy"
    )
    parser.add_argument(
        "--decode-parallel", type=_parse_parallel, default=(2, 1), metavar="TPxPPy"
    )
    parser.add_argument("--node-gpus", type=int, default=8)
    parser.add_argument("--arrivals", choices=("poisson", "bursty"), default="poisson")
    parser.add_argument("--burstiness", type=float, default=2.0)
    parser.add_argument(
        "--tier-mix",
        default=None,
        metavar="SPEC",
        help="SLO-tier mix, e.g. 'interactive=0.2,standard=0.5,best_effort=0.3' "
        "(default: all requests in the standard tier)",
    )
    parser.add_argument(
        "--prefix-mix",
        default=None,
        metavar="SPEC",
        help="shared-prefix population, e.g. "
        "'none=0.25,assistant=0.5:384,fewshot=0.25:640' (name=weight:tokens; "
        "default: no shared prefixes)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _add_tenant_args(
    parser: argparse.ArgumentParser, admission: bool = True
) -> None:
    """Tenancy flags: population mix, fair-share budgets, admission choice.

    ``admission=False`` skips ``--admission`` for parsers (chaos) that
    already define it themselves.
    """
    parser.add_argument(
        "--tenant-mix",
        default=None,
        metavar="SPEC",
        help="tenant population, e.g. 'acme=0.6,beta=0.25,gamma=0.15' "
        "(default: all requests owned by the default tenant)",
    )
    parser.add_argument(
        "--tenant-weights",
        default=None,
        metavar="SPEC",
        help="WFQ weights for fair-share, e.g. 'acme=1,beta=4' "
        "(unlisted tenants get weight 1)",
    )
    parser.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=None,
        help="per-tenant concurrent-request budget (fair-share admission)",
    )
    parser.add_argument(
        "--tenant-max-tokens",
        type=int,
        default=None,
        help="per-tenant in-flight prompt+output token budget (fair-share)",
    )
    if admission:
        from repro.policies import ADMISSION_POLICIES

        parser.add_argument(
            "--admission",
            choices=ADMISSION_POLICIES.names(),
            default="nested-caps",
            help="admission policy (fair-share enables WFQ + tenant budgets)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WindServe reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--system", default="windserve", choices=SYSTEM_NAMES)
    run_p.add_argument("--rate", type=float, required=True, help="per-GPU req/s")
    _add_workload_args(run_p)
    _add_tenant_args(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep request rates across systems")
    sweep_p.add_argument(
        "--systems",
        type=lambda s: [x.strip() for x in s.split(",")],
        default=["windserve", "distserve", "vllm"],
    )
    sweep_p.add_argument(
        "--rates",
        type=lambda s: [float(x) for x in s.split(",")],
        required=True,
        help="comma-separated per-GPU rates",
    )
    _add_workload_args(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    place_p = sub.add_parser("placement", help="rank placements by simulation")
    place_p.add_argument("--system", default="distserve", choices=SYSTEM_NAMES)
    place_p.add_argument("--rate", type=float, required=True)
    _add_workload_args(place_p)
    place_p.set_defaults(func=cmd_placement)

    breakdown_p = sub.add_parser(
        "breakdown", help="per-stage latency decomposition + activity timeline"
    )
    breakdown_p.add_argument("--system", default="windserve", choices=SYSTEM_NAMES)
    breakdown_p.add_argument("--rate", type=float, required=True)
    _add_workload_args(breakdown_p)
    _add_tenant_args(breakdown_p)
    breakdown_p.set_defaults(func=cmd_breakdown)

    golden_p = sub.add_parser(
        "golden",
        help="record, rerecord (with provenance), check, or validate golden traces",
    )
    golden_p.add_argument(
        "action", choices=("record", "rerecord", "check", "validate", "list")
    )
    golden_p.add_argument(
        "--dir",
        type=Path,
        default=Path("tests") / "golden",
        help="golden store directory (default tests/golden)",
    )
    golden_p.add_argument(
        "--only",
        action="append",
        metavar="SCENARIO",
        help="restrict to a named scenario (repeatable; see `golden list`)",
    )
    golden_p.add_argument(
        "--reason",
        help="why the store is being re-recorded (required for rerecord; "
        "stamped into each golden's provenance header)",
    )
    golden_p.add_argument(
        "--tag",
        help="date-free PR tag stamped into provenance (e.g. pr8-cost-model)",
    )
    golden_p.add_argument(
        "--report-out",
        type=Path,
        metavar="PATH",
        help="also write the rerecord migration report to this file",
    )
    golden_p.set_defaults(func=cmd_golden)

    diff_p = sub.add_parser(
        "differential",
        help="run all systems on one identical workload and assert shared invariants",
    )
    diff_p.add_argument(
        "--systems",
        type=lambda s: [x.strip() for x in s.split(",")],
        default=["windserve", "distserve", "vllm"],
    )
    diff_p.add_argument(
        "--seeds",
        type=lambda s: [int(x) for x in s.split(",")],
        default=[0, 1, 2],
        help="comma-separated seeds, one differential run each",
    )
    diff_p.add_argument("--rate", type=float, default=3.0)
    _add_workload_args(diff_p)
    # Invariant checks don't need the default 500-request statistical power.
    diff_p.set_defaults(func=cmd_differential, requests=40)

    chaos_p = sub.add_parser(
        "chaos",
        help="inject fault plans and measure degraded-mode behaviour",
    )
    chaos_p.add_argument(
        "--systems",
        type=lambda s: [x.strip() for x in s.split(",")],
        default=["windserve", "distserve", "vllm"],
    )
    chaos_p.add_argument(
        "--plans",
        type=lambda s: [x.strip() for x in s.split(",")],
        default=None,
        help="comma-separated fault plans (FAULT_PLAN_NAMES, or "
        "FLEET_FAULT_PLAN_NAMES with --fleet)",
    )
    chaos_p.add_argument("--rate", type=float, default=3.0)
    chaos_p.add_argument(
        "--smoke",
        action="store_true",
        help="single fast cell (CI gate): windserve/decode-crash, or a "
        "member-crash fleet with warm standby under --fleet",
    )
    chaos_p.add_argument(
        "--fleet",
        action="store_true",
        help="run fleet-scope plans (member/node/NIC faults) against a "
        "WindServe fleet over a multi-node cluster",
    )
    chaos_p.add_argument("--nodes", type=int, default=2, help="fleet cluster nodes")
    chaos_p.add_argument("--pairs-per-node", type=int, default=2)
    chaos_p.add_argument(
        "--standby", type=int, default=0, help="warm standby members (autoscaled fleet)"
    )
    chaos_p.add_argument(
        "--span-nodes",
        action="store_true",
        help="place each pair's decode on the next node (hand-offs cross NICs)",
    )
    from repro.policies import ADMISSION_POLICIES, ROUTING_POLICIES

    chaos_p.add_argument(
        "--router",
        choices=ROUTING_POLICIES.names(),
        default=None,
        help="fleet routing policy (with --fleet; default round-robin)",
    )
    chaos_p.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES.names(),
        default="nested-caps",
        help="degraded-mode admission policy",
    )
    chaos_p.add_argument(
        "--tenant-rate",
        type=float,
        default=0.0,
        help="per-tenant gateway rate limit in submits/s (with --fleet; "
        "0 disables the token-bucket limiter)",
    )
    chaos_p.add_argument(
        "--tenant-burst",
        type=float,
        default=0.0,
        help="token-bucket burst size (with --fleet; default max(1, rate))",
    )
    _add_workload_args(chaos_p)
    _add_tenant_args(chaos_p, admission=False)
    # Chaos checks invariants, not percentiles; keep runs quick.
    chaos_p.set_defaults(func=cmd_chaos, requests=120)

    prefix_p = sub.add_parser(
        "prefix",
        help="compare prefix-affinity vs locality-blind routing on a "
        "shared-prefix workload",
    )
    prefix_p.add_argument("--rate", type=float, default=3.0, help="per-GPU req/s")
    prefix_p.add_argument("--requests", type=int, default=240)
    prefix_p.add_argument("--seed", type=int, default=0)
    prefix_p.add_argument("--model", default="opt-13b", choices=sorted(MODEL_REGISTRY))
    prefix_p.add_argument(
        "--dataset", default="sharegpt", choices=sorted(DATASET_REGISTRY)
    )
    prefix_p.add_argument("--nodes", type=int, default=2, help="fleet cluster nodes")
    prefix_p.add_argument("--pairs-per-node", type=int, default=2)
    prefix_p.add_argument(
        "--cache-tokens",
        type=int,
        default=2048,
        help="warm-prefix KV budget per prefill instance (tokens)",
    )
    prefix_p.add_argument(
        "--prefix-mix",
        default=None,
        metavar="SPEC",
        help="shared-prefix population (default: 8 x 512-token prefixes, 20%% none)",
    )
    prefix_p.add_argument(
        "--smoke", action="store_true", help="fast deterministic CI cell"
    )
    prefix_p.add_argument("--out", default=None, help="write the JSON report here")
    prefix_p.add_argument("--json", action="store_true")
    prefix_p.set_defaults(func=cmd_prefix)

    hetero_p = sub.add_parser(
        "hetero",
        help="heterogeneous-fleet differentials: seconds-based routing vs "
        "count-based, and failure-reactive re-planning vs running degraded",
    )
    hetero_p.add_argument(
        "--shape",
        default=None,
        metavar="SPEC",
        help="fleet shape spec, e.g. 'a800:2,h100' (default: narrow A800 "
        "pair beside an H100 pair; member 1 is the crash target)",
    )
    hetero_p.add_argument("--rate", type=float, default=3.0, help="per-GPU req/s")
    hetero_p.add_argument("--requests", type=int, default=480)
    hetero_p.add_argument("--seed", type=int, default=0)
    hetero_p.add_argument("--model", default="opt-13b", choices=sorted(MODEL_REGISTRY))
    hetero_p.add_argument(
        "--dataset", default="sharegpt", choices=sorted(DATASET_REGISTRY)
    )
    hetero_p.add_argument("--pairs-per-node", type=int, default=1)
    hetero_p.add_argument(
        "--fault-plan",
        default="member-crash",
        help="fleet fault plan the re-planning arm runs under",
    )
    hetero_p.add_argument(
        "--smoke", action="store_true", help="fast deterministic CI cell"
    )
    hetero_p.add_argument("--out", default=None, help="write the JSON report here")
    hetero_p.add_argument("--json", action="store_true")
    hetero_p.set_defaults(func=cmd_hetero)

    tenants_p = sub.add_parser(
        "tenants",
        help="compare fair-share vs FIFO-within-tier isolation under a "
        "heavy-tenant burst",
    )
    tenants_p.add_argument("--rate", type=float, default=3.0, help="per-GPU req/s")
    tenants_p.add_argument("--requests", type=int, default=160)
    tenants_p.add_argument("--seed", type=int, default=0)
    tenants_p.add_argument("--model", default="opt-13b", choices=sorted(MODEL_REGISTRY))
    tenants_p.add_argument(
        "--dataset", default="sharegpt", choices=sorted(DATASET_REGISTRY)
    )
    tenants_p.add_argument(
        "--light-tenants", type=int, default=2, help="light tenants sharing the system"
    )
    tenants_p.add_argument(
        "--light-weight", type=float, default=4.0, help="WFQ weight per light tenant"
    )
    tenants_p.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=8,
        help="per-tenant concurrency budget in the fair-share runs",
    )
    tenants_p.add_argument(
        "--burst-requests", type=int, default=48, help="heavy-tenant burst size"
    )
    tenants_p.add_argument(
        "--bound",
        type=float,
        default=1.5,
        help="isolation bound: max light P99 TTFT degradation vs no-burst baseline",
    )
    tenants_p.add_argument(
        "--smoke", action="store_true", help="fast deterministic CI cell"
    )
    tenants_p.add_argument("--out", default=None, help="write the JSON report here")
    tenants_p.add_argument("--json", action="store_true")
    tenants_p.set_defaults(func=cmd_tenants)

    bench_p = sub.add_parser(
        "bench",
        help="scale benchmark: record a BENCH_<n>.json perf-trajectory point",
    )
    bench_p.add_argument(
        "--requests",
        type=int,
        default=None,
        help="single-phase request count (default: 100000, or 2000 with --smoke)",
    )
    bench_p.add_argument(
        "--smoke", action="store_true", help="seconds-scale CI configuration"
    )
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--label", default="scale")
    bench_p.add_argument("--model", default="opt-13b", choices=sorted(MODEL_REGISTRY))
    bench_p.add_argument(
        "--dataset", default="sharegpt", choices=sorted(DATASET_REGISTRY)
    )
    bench_p.add_argument(
        "--out", default=None, help="explicit output path (default: next BENCH_<n>.json)"
    )
    bench_p.add_argument(
        "--root", default=".", help="directory holding the BENCH_<n>.json trajectory"
    )
    bench_p.add_argument(
        "--baseline",
        default=None,
        help="JSON file with pre-optimisation numbers to embed under 'baseline'",
    )
    bench_p.set_defaults(func=cmd_bench)

    models_p = sub.add_parser("models", help="list known model architectures")
    models_p.set_defaults(func=cmd_models)

    datasets_p = sub.add_parser("datasets", help="list workload profiles")
    datasets_p.set_defaults(func=cmd_datasets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for system in getattr(args, "systems", []) or []:
        if system not in SYSTEM_NAMES:
            parser.error(f"unknown system {system!r}; known: {SYSTEM_NAMES}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
