"""Scale benchmark harness: how fast the simulator itself runs.

The emulator argument (Revati, LLMServingSim — see PAPERS.md) only holds
if GPU-free simulation runs orders of magnitude faster than real time at
fleet scale.  This module pins that down as a *recorded trajectory*: a
:class:`BenchSpec` drives large workloads through single-instance, fleet,
and chaos configurations, measures wall-clock time, event throughput,
simulated-seconds per wall second, and peak RSS per phase, and writes a
schema-versioned ``BENCH_<n>.json`` at the repo root.  Every subsequent
performance PR appends the next point (``BENCH_2.json``, ...) so speed
regressions are as visible as behaviour regressions are in the golden
store.

Determinism rides along: each phase records the run fingerprint of its
(untraced) run, so two identically-seeded bench runs must agree byte for
byte on *what* was simulated even while the wall-clock numbers differ.

Usage::

    python -m repro bench                 # full run, records BENCH_<n>.json
    python -m repro bench --smoke         # seconds-scale CI configuration
    python -m repro bench --out out.json  # explicit output path

or through :func:`run_bench` / :func:`record_bench` from Python.
"""

from __future__ import annotations

import json
import platform
import re
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro.harness.runner import (
    ExperimentSpec,
    build_system,
    generate_workload,
    resolve_slo,
)

BENCH_FORMAT_VERSION = 1

#: Filename pattern of the recorded trajectory at the repo root.
BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Keys every phase entry must carry (schema contract, see
#: :func:`validate_bench_payload`).
PHASE_REQUIRED_KEYS = (
    "name",
    "kind",
    "num_requests",
    "completed",
    "shed",
    "gen_wall_s",
    "run_wall_s",
    "events",
    "events_per_sec",
    "sim_seconds",
    "sim_seconds_per_wall_second",
    "peak_rss_bytes",
    "fingerprint",
)

TOP_REQUIRED_KEYS = ("bench_format", "label", "host", "spec", "phases", "totals")

TOTALS_REQUIRED_KEYS = (
    "wall_s",
    "events",
    "events_per_sec",
    "sim_seconds",
    "completed_requests",
)


@dataclass(frozen=True)
class BenchPhase:
    """One benchmark configuration to drive.

    ``kind`` selects the machinery: ``"single"`` runs one serving system,
    ``"fleet"`` a multi-node WindServe fleet, ``"chaos"`` a single system
    with a deterministic fault plan injected.
    """

    name: str
    kind: str  # "single" | "fleet" | "chaos"
    num_requests: int
    system: str = "windserve"
    rate_per_gpu: float = 3.5
    fault_plan: str = "decode-crash"
    fleet_nodes: int = 2
    fleet_pairs_per_node: int = 2
    # Shared-prefix phases: a prefix population plus a per-instance
    # warm-prefix KV budget (None/0 keeps the workload prefix-free).
    prefix_mix: Optional[str] = None
    prefix_cache_tokens: int = 0
    # Heterogeneous fleet phases: a fleet-shape spec (per-member GPU type
    # + parallelism); None keeps the homogeneous fleet layout.
    fleet_shape: Optional[str] = None


@dataclass(frozen=True)
class BenchSpec:
    """Everything needed to reproduce one benchmark point."""

    label: str = "scale"
    num_requests: int = 100_000
    model: str = "opt-13b"
    dataset: str = "sharegpt"
    seed: int = 0
    arrival_process: str = "poisson"
    burstiness_cv: float = 2.0
    phases: tuple[BenchPhase, ...] = ()

    def resolved_phases(self) -> tuple[BenchPhase, ...]:
        if self.phases:
            return self.phases
        return standard_phases(self.num_requests)


def standard_phases(num_requests: int) -> tuple[BenchPhase, ...]:
    """The default single/fleet/chaos phase mix for ``num_requests``.

    The single-instance phase carries the full request count (it is the
    raw-speed headline); the fleet, chaos, and shared-prefix phases run
    smaller slices so the whole bench stays bounded while still exercising
    the heartbeat, routing, recovery, and prefix-cache machinery at scale.
    """

    return (
        BenchPhase("single-windserve", "single", num_requests),
        BenchPhase("fleet-2x2", "fleet", max(1, num_requests // 5)),
        BenchPhase(
            "chaos-decode-crash", "chaos", max(1, num_requests // 10), rate_per_gpu=3.0
        ),
        BenchPhase(
            "prefix-cached",
            "single",
            max(1, num_requests // 5),
            prefix_mix="none=0.25,assistant=0.5:384,fewshot=0.25:640",
            prefix_cache_tokens=4096,
        ),
        BenchPhase(
            "fleet-hetero",
            "fleet",
            max(1, num_requests // 10),
            fleet_pairs_per_node=1,
            fleet_shape="a800:2,h100:2",
        ),
    )


def smoke_spec(num_requests: int = 2_000, seed: int = 0) -> BenchSpec:
    """A seconds-scale configuration for CI and tests."""
    return BenchSpec(label="smoke", num_requests=num_requests, seed=seed)


# -- measurement ---------------------------------------------------------------


def _peak_rss_bytes() -> int:
    """Process-lifetime peak resident set size in bytes (monotone)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak * 1024) if sys.platform != "darwin" else int(peak)


def _run_single(spec: BenchSpec, phase: BenchPhase, chaos: bool) -> dict:
    from repro.serving.instance import InstanceConfig

    exp = ExperimentSpec(
        system=phase.system,
        model=spec.model,
        dataset=spec.dataset,
        rate_per_gpu=phase.rate_per_gpu,
        num_requests=phase.num_requests,
        seed=spec.seed,
        arrival_process=spec.arrival_process,
        burstiness_cv=spec.burstiness_cv,
        instance_config=InstanceConfig(prefix_cache_tokens=phase.prefix_cache_tokens),
        prefix_mix=phase.prefix_mix,
    )
    system = build_system(exp, resolve_slo(exp))
    t0 = time.perf_counter()
    workload = generate_workload(exp, exp.gpus_used)
    gen_wall = time.perf_counter() - t0
    if chaos:
        from repro.faults import FaultInjector, build_fault_plan

        horizon = max(r.arrival_time for r in workload)
        plan = build_fault_plan(phase.fault_plan, horizon, seed=spec.seed)
        FaultInjector(system, plan).arm()
    t1 = time.perf_counter()
    metrics = system.run_to_completion(workload)
    run_wall = time.perf_counter() - t1
    return _phase_row(
        phase,
        gen_wall=gen_wall,
        run_wall=run_wall,
        events=system.sim.events_processed,
        sim_seconds=system.sim.now,
        completed=len(metrics.completed),
        shed=len(metrics.shed),
        fingerprint=system.run_fingerprint(workload.rng_registry).value,
    )


def _run_fleet(spec: BenchSpec, phase: BenchPhase) -> dict:
    from repro.harness.chaos import FleetChaosSpec, build_chaos_fleet

    fleet_spec = FleetChaosSpec(
        fault_plan="none",
        model=spec.model,
        dataset=spec.dataset,
        rate_per_gpu=phase.rate_per_gpu,
        num_requests=phase.num_requests,
        seed=spec.seed,
        arrival_process=spec.arrival_process,
        burstiness_cv=spec.burstiness_cv,
        num_nodes=phase.fleet_nodes,
        pairs_per_node=phase.fleet_pairs_per_node,
        shape=phase.fleet_shape,
    )
    fleet = build_chaos_fleet(fleet_spec)
    t0 = time.perf_counter()
    workload = generate_workload(fleet_spec, fleet.num_gpus)
    gen_wall = time.perf_counter() - t0
    t1 = time.perf_counter()
    metrics = fleet.run_to_completion(workload)
    run_wall = time.perf_counter() - t1
    return _phase_row(
        phase,
        gen_wall=gen_wall,
        run_wall=run_wall,
        events=fleet.sim.events_processed,
        sim_seconds=fleet.sim.now,
        completed=len(metrics.completed),
        shed=len(metrics.shed),
        fingerprint=fleet.run_fingerprint(workload.rng_registry).value,
    )


def _phase_row(
    phase: BenchPhase,
    gen_wall: float,
    run_wall: float,
    events: int,
    sim_seconds: float,
    completed: int,
    shed: int,
    fingerprint: str,
) -> dict:
    run_wall = max(run_wall, 1e-9)
    return {
        "name": phase.name,
        "kind": phase.kind,
        "num_requests": phase.num_requests,
        "completed": completed,
        "shed": shed,
        "gen_wall_s": gen_wall,
        "run_wall_s": run_wall,
        "events": events,
        "events_per_sec": events / run_wall,
        "sim_seconds": sim_seconds,
        "sim_seconds_per_wall_second": sim_seconds / run_wall,
        "peak_rss_bytes": _peak_rss_bytes(),
        "fingerprint": fingerprint,
    }


def run_bench(spec: BenchSpec) -> dict:
    """Run every phase of ``spec`` and return the BENCH payload dict."""
    phases = []
    for phase in spec.resolved_phases():
        if phase.kind == "single":
            row = _run_single(spec, phase, chaos=False)
        elif phase.kind == "chaos":
            row = _run_single(spec, phase, chaos=True)
        elif phase.kind == "fleet":
            row = _run_fleet(spec, phase)
        else:
            raise ValueError(f"unknown bench phase kind {phase.kind!r}")
        phases.append(row)
    total_wall = sum(p["gen_wall_s"] + p["run_wall_s"] for p in phases)
    run_wall = max(sum(p["run_wall_s"] for p in phases), 1e-9)
    total_events = sum(p["events"] for p in phases)
    payload = {
        "bench_format": BENCH_FORMAT_VERSION,
        "label": spec.label,
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "spec": {
            **{k: v for k, v in asdict(spec).items() if k != "phases"},
            "phases": [asdict(p) for p in spec.resolved_phases()],
        },
        "phases": phases,
        "totals": {
            "wall_s": total_wall,
            "run_wall_s": run_wall,
            "events": total_events,
            "events_per_sec": total_events / run_wall,
            "sim_seconds": sum(p["sim_seconds"] for p in phases),
            "completed_requests": sum(p["completed"] for p in phases),
            "peak_rss_bytes": _peak_rss_bytes(),
        },
    }
    return payload


# -- schema validation ---------------------------------------------------------


def validate_bench_payload(payload: dict) -> list[str]:
    """Schema check for a BENCH payload; returns human-readable problems.

    Checked: required keys at every level, positive rates, non-negative
    counters, and monotone peak-RSS across the phase sequence (``ru_maxrss``
    is a process-lifetime maximum, so it can never decrease).
    """
    problems: list[str] = []
    for key in TOP_REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if payload["bench_format"] != BENCH_FORMAT_VERSION:
        problems.append(
            f"bench_format {payload['bench_format']!r} != {BENCH_FORMAT_VERSION}"
        )
    phases = payload["phases"]
    if not isinstance(phases, list) or not phases:
        return problems + ["phases must be a non-empty list"]
    prev_rss = 0
    for i, row in enumerate(phases):
        for key in PHASE_REQUIRED_KEYS:
            if key not in row:
                problems.append(f"phase #{i}: missing key {key!r}")
        if any(key not in row for key in PHASE_REQUIRED_KEYS):
            continue
        label = f"phase #{i} ({row['name']})"
        if row["events"] <= 0:
            problems.append(f"{label}: events must be positive")
        if row["events_per_sec"] <= 0:
            problems.append(f"{label}: events_per_sec must be positive")
        if row["sim_seconds"] <= 0:
            problems.append(f"{label}: sim_seconds must be positive")
        if row["sim_seconds_per_wall_second"] <= 0:
            problems.append(f"{label}: sim_seconds_per_wall_second must be positive")
        if row["run_wall_s"] <= 0 or row["gen_wall_s"] < 0:
            problems.append(f"{label}: wall times must be positive")
        if row["completed"] < 0 or row["shed"] < 0:
            problems.append(f"{label}: counters must be non-negative")
        if row["completed"] + row["shed"] > row["num_requests"]:
            problems.append(f"{label}: completed+shed exceeds num_requests")
        if row["peak_rss_bytes"] < prev_rss:
            problems.append(f"{label}: peak_rss_bytes decreased ({row['peak_rss_bytes']} < {prev_rss})")
        prev_rss = row["peak_rss_bytes"]
        if not isinstance(row["fingerprint"], str) or len(row["fingerprint"]) != 64:
            problems.append(f"{label}: fingerprint must be a SHA-256 hex digest")
    totals = payload["totals"]
    for key in TOTALS_REQUIRED_KEYS:
        if key not in totals:
            problems.append(f"totals: missing key {key!r}")
    if all(key in totals for key in TOTALS_REQUIRED_KEYS):
        if totals["events"] != sum(p.get("events", 0) for p in phases):
            problems.append("totals.events does not equal the sum over phases")
        if totals["events_per_sec"] <= 0:
            problems.append("totals.events_per_sec must be positive")
    return problems


# -- trajectory I/O ------------------------------------------------------------


def trajectory_files(root: Path) -> list[tuple[int, Path]]:
    """Recorded ``BENCH_<n>.json`` files under ``root``, ordered by n."""
    out = []
    for path in Path(root).iterdir():
        match = BENCH_FILE_RE.match(path.name)
        if match:
            out.append((int(match.group(1)), path))
    return sorted(out)


def fingerprint_changes(prev: dict, cur: dict) -> list[str]:
    """Names of the phases both payloads ran whose fingerprints differ.

    A speed-only change must leave this empty against the previous
    trajectory point; phases present in only one payload are ignored.
    """
    before = {row["name"]: row["fingerprint"] for row in prev["phases"]}
    return [
        row["name"]
        for row in cur["phases"]
        if row["name"] in before and before[row["name"]] != row["fingerprint"]
    ]


def next_bench_path(root: Path) -> Path:
    """The next free ``BENCH_<n>.json`` slot under ``root``."""
    recorded = trajectory_files(root)
    n = recorded[-1][0] + 1 if recorded else 1
    return Path(root) / f"BENCH_{n}.json"


def record_bench(
    spec: BenchSpec,
    out: Optional[Path] = None,
    root: Path = Path("."),
    baseline: Optional[dict] = None,
) -> tuple[Path, dict]:
    """Run ``spec``, validate, and write the payload; returns (path, payload).

    ``baseline`` (optional) is embedded verbatim under the ``baseline`` key —
    the pre-optimisation numbers a speedup claim is measured against.
    """
    payload = run_bench(spec)
    if baseline is not None:
        payload["baseline"] = baseline
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError("bench payload failed schema validation: " + "; ".join(problems))
    path = Path(out) if out is not None else next_bench_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, payload


def summarize(payload: dict) -> str:
    """Human-readable one-screen summary of a BENCH payload."""
    lines = [
        f"bench '{payload['label']}' (format v{payload['bench_format']}) "
        f"on {payload['host']['platform']}",
    ]
    for row in payload["phases"]:
        lines.append(
            f"  {row['name']:<22} {row['num_requests']:>8} req  "
            f"{row['events']:>10} ev  {row['events_per_sec']:>10.0f} ev/s  "
            f"{row['sim_seconds_per_wall_second']:>8.1f}x realtime  "
            f"{row['run_wall_s']:>7.2f}s wall  "
            f"{row['peak_rss_bytes'] / (1 << 20):>7.1f} MiB peak"
        )
    totals = payload["totals"]
    lines.append(
        f"  {'TOTAL':<22} {totals['completed_requests']:>8} req  "
        f"{totals['events']:>10} ev  {totals['events_per_sec']:>10.0f} ev/s  "
        f"{totals['wall_s']:>7.2f}s wall"
    )
    baseline = payload.get("baseline")
    if baseline and baseline.get("events_per_sec"):
        speedup = totals["events_per_sec"] / baseline["events_per_sec"]
        lines.append(
            f"  speedup vs baseline '{baseline.get('label', '?')}': {speedup:.2f}x "
            f"({baseline['events_per_sec']:.0f} -> {totals['events_per_sec']:.0f} ev/s)"
        )
    return "\n".join(lines)


def baseline_summary(payload: dict, label: str = "baseline") -> dict:
    """Compact baseline block derived from a full BENCH payload."""
    return {
        "label": label,
        "events_per_sec": payload["totals"]["events_per_sec"],
        "run_wall_s": payload["totals"]["run_wall_s"],
        "events": payload["totals"]["events"],
        "phases": {
            row["name"]: {
                "events_per_sec": row["events_per_sec"],
                "run_wall_s": row["run_wall_s"],
            }
            for row in payload["phases"]
        },
    }
