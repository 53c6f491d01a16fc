"""Experiment harness: SLO derivation, system builders, rate sweeps, reports."""

from repro.harness.slo import PAPER_SLOS, derive_slo, paper_slo
from repro.harness.runner import (
    ArmRun,
    ArmSetReport,
    ExperimentResult,
    ExperimentSpec,
    build_system,
    generate_workload,
    run_arm,
    run_experiment,
    sweep_rates,
)
from repro.harness.report import format_table
from repro.harness.placement_search import search_placement
from repro.harness.timeline import TimelineReport, render_timeline, sparkline
from repro.harness.capacity import CapacityResult, find_capacity
from repro.harness.comparison import Comparison, compare_systems
from repro.harness.breakdown import aggregate_breakdown, breakdown_rows, render_breakdown
from repro.harness.differential import run_differential
from repro.harness.chaos import (
    FleetChaosSpec,
    chaos_invariants,
    run_chaos,
    run_chaos_matrix,
)
from repro.harness.golden import (
    GOLDEN_MATRIX,
    GoldenDiff,
    GoldenScenario,
    check_goldens,
    record_goldens,
    run_scenario,
)

__all__ = [
    "PAPER_SLOS",
    "derive_slo",
    "paper_slo",
    "ArmRun",
    "ArmSetReport",
    "ExperimentResult",
    "ExperimentSpec",
    "build_system",
    "generate_workload",
    "run_arm",
    "run_experiment",
    "sweep_rates",
    "format_table",
    "search_placement",
    "TimelineReport",
    "render_timeline",
    "sparkline",
    "CapacityResult",
    "find_capacity",
    "Comparison",
    "compare_systems",
    "aggregate_breakdown",
    "breakdown_rows",
    "render_breakdown",
    "run_differential",
    "FleetChaosSpec",
    "chaos_invariants",
    "run_chaos",
    "run_chaos_matrix",
    "GOLDEN_MATRIX",
    "GoldenDiff",
    "GoldenScenario",
    "check_goldens",
    "record_goldens",
    "run_scenario",
]
