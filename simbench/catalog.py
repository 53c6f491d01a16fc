"""What the benchmark runs and what it reports.

This module holds data only and imports nothing from the program under
test, so the parent process (``run.py``) can read it without paying the
program's import cost.  ``BENCHMARK.json`` at the repository root must list
the same workload and metric names; ``tests/test_simbench.py`` checks that.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadDef:
    """One traffic mix.

    Every workload serves a 13B model on WindServe with 2+2 GPUs at TP2
    per prefill/decode pair, with Poisson arrivals in simulated time: an
    open loop, so the generator is never late and each request is timed
    from its scheduled arrival.
    """

    name: str
    kind: str  # "single": one WindServe pair; "fleet": a ServingFleet
    model: str
    dataset: str
    rate_per_gpu: float  # requests per simulated second per GPU
    num_requests: int
    # Fleet-only knobs.
    num_nodes: int = 0
    pairs_per_node: int = 0
    router: str = ""
    prefix_count: int = 0
    prefix_tokens: int = 0
    prefix_none: float = 0.0
    prefix_cache_tokens: int = 0
    fault_plan: str = "none"


# Request counts are large enough that a seed's TTFT p99 sits within a few
# percent of every other seed's: the run-to-run spread across seeds must
# stay below the bounds in BENCHMARK.json.  Rates sit below the point where
# a queue builds up for good (see README.md for the measurements).
WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            name="chat-decode",
            kind="single",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=2.5,
            num_requests=8000,
        ),
        WorkloadDef(
            name="summarize-prefill",
            kind="single",
            # OPT-13B's 2K context truncates 95% of LongBench prompts to
            # one length; the paper pairs LongBench with LLaMA2-13B.
            model="llama2-13b",
            dataset="longbench",
            rate_per_gpu=0.75,
            num_requests=8000,
        ),
        WorkloadDef(
            name="fleet-prefix-crash",
            kind="fleet",
            model="opt-13b",
            dataset="sharegpt",
            rate_per_gpu=1.75,
            num_requests=10000,
            num_nodes=2,
            pairs_per_node=2,
            router="prefix-affinity",
            prefix_count=12,
            prefix_tokens=512,
            prefix_none=0.2,
            prefix_cache_tokens=2048,
            fault_plan="member-crash",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: allowed worsening, share of median


# Host metrics are medians over the untraced runs of one invocation; run
# and CPU time are in ``ref`` units, multiples of the reference kernel's time
# measured alongside the run (see ``hostspeed.py``).  Modelled metrics are
# simulated time and repeat exactly for a seed.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_ref", "ref", "lower", 0.2),
    Metric("cpu_ref", "ref", "lower", 0.2),
    Metric("tokens_per_ref", "tokens/ref", "higher", 0.2),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    Metric("ttft_p50_s", "s", "lower", 0.2),
    Metric("ttft_p99_s", "s", "lower", 0.25),
    Metric("tpot_p50_s", "s", "lower", 0.15),
    Metric("tpot_p99_s", "s", "lower", 0.25),
    Metric("slo_attainment", "fraction", "higher", 0.1),
    Metric("completed_frac", "fraction", "higher", 0.05),
)

#: Host metrics: the parent reports their median and quartiles.
HOST_METRICS = ("setup_s", "run_ref", "cpu_ref", "tokens_per_ref", "peak_rss_mb")

# Per-layer metrics, grouped by the program's module layers.  ``*_s``
# without ``sim`` in the name is host time measured in the traced run;
# ``*_sim_s`` and the wait metrics are simulated seconds.
PER_LAYER: tuple[Metric, ...] = (
    # sim (event engine)
    Metric("sim.events", "count", "lower"),
    Metric("sim.cancelled", "count", "lower"),
    Metric("sim.us_per_event", "us", "lower"),
    Metric("sim.self_s", "s", "lower"),
    # serving (Instance, batching)
    Metric("serving.self_s", "s", "lower"),
    Metric("serving.kick_s", "s", "lower"),
    Metric("serving.decode_iter_s", "s", "lower"),
    Metric("serving.decode_iter_calls", "count", "lower"),
    Metric("serving.decode_batch_mean", "requests", "higher"),
    Metric("serving.prefill_wait_p99_s", "s", "lower"),
    Metric("serving.decode_wait_mean_s", "s", "lower"),
    # core (WindServe, streams, rescheduling, fleet)
    Metric("core.self_s", "s", "lower"),
    Metric("core.route_s", "s", "lower"),
    Metric("core.dispatch_share", "fraction", "higher"),
    Metric("core.dispatch_rejected", "count", "lower"),
    Metric("core.handoff_s", "s", "lower"),
    Metric("core.reschedule_s", "s", "lower"),
    Metric("core.reschedules", "count", "lower"),
    Metric("core.reschedule_abort_ratio", "fraction", "lower"),
    Metric("core.fleet_submit_s", "s", "lower"),
    Metric("core.requeued", "count", "lower"),
    Metric("core.recovery_sim_s", "s", "lower"),
    # policies
    Metric("policies.self_s", "s", "lower"),
    Metric("policies.select_s", "s", "lower"),
    Metric("policies.admit_s", "s", "lower"),
    Metric("policies.shed", "count", "lower"),
    # kvcache (+ hardware.memory)
    Metric("kvcache.self_s", "s", "lower"),
    Metric("kvcache.extend_calls", "count", "lower"),
    Metric("kvcache.extend_s", "s", "lower"),
    Metric("kvcache.new_block_ratio", "fraction", "higher"),
    Metric("kvcache.alloc_s", "s", "lower"),
    Metric("kvcache.free_s", "s", "lower"),
    Metric("kvcache.gpu_util_peak", "fraction", "lower"),
    Metric("kvcache.swap_outs", "count", "lower"),
    Metric("kvcache.transfers", "count", "lower"),
    Metric("kvcache.transfer_gb", "GB", "lower"),
    Metric("kvcache.transfer_sim_s", "s", "lower"),
    Metric("kvcache.transfer_s", "s", "lower"),
    Metric("kvcache.prefix_hit_rate", "fraction", "higher"),
    Metric("kvcache.prefix_tokens_saved", "tokens", "higher"),
    Metric("kvcache.prefix_evictions", "count", "lower"),
    Metric("kvcache.prefix_s", "s", "lower"),
    # perf (+ models)
    Metric("perf.self_s", "s", "lower"),
    Metric("perf.calls", "count", "lower"),
    Metric("perf.s", "s", "lower"),
    Metric("perf.sbd_calls", "count", "lower"),
    Metric("perf.compute_busy_sim_s", "s", "lower"),
    Metric("perf.io_busy_sim_s", "s", "lower"),
    # workloads + set-up
    Metric("setup.import_s", "s", "lower"),
    Metric("setup.build_s", "s", "lower"),
    Metric("workloads.generate_s", "s", "lower"),
    # bookkeeping (sim.trace, serving.metrics, sim.fingerprint)
    Metric("bookkeeping.self_s", "s", "lower"),
    Metric("sim.trace.emit_calls", "count", "lower"),
    Metric("sim.trace.emit_s", "s", "lower"),
    Metric("serving.metrics.record_s", "s", "lower"),
    Metric("sim.fingerprint_s", "s", "lower"),
    # tracing itself
    Metric("trace.overhead", "ratio", "lower"),
    Metric("trace.unattributed_share", "fraction", "lower"),
)

#: Layers whose self times partition the traced ``run_s``.
LAYERS = ("sim", "serving", "core", "policies", "kvcache", "perf", "bookkeeping")
