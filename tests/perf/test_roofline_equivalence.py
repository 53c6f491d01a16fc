"""The compiled roofline is bit-identical to its specification.

``LatencyModel`` folds every spec-, GPU- and parallelism-derived constant
once at construction and prices a batch as straight-line arithmetic.
``ReferenceLatencyModel`` below is the same model written directly as a
composition of ``repro.models.costs`` (Table 1 and the hybrid
decomposition) and ``ParallelConfig``'s sharding and communication
methods, re-deriving every constant on every call.  The property asserts
the two agree to the last bit on all four ``BatchTiming`` fields: every
golden trace and bench fingerprint depends on these floats, so an
approximate match would not be a match.

Run a deeper search with ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.replanning import ReplanningDistServeSystem
from repro.core.config import FleetShape
from repro.core.fleet import build_windserve_fleet
from repro.core.replan import FleetReplanner
from repro.hardware.gpu import GPU_REGISTRY, A800_80GB
from repro.hardware.topology import NodeTopology
from repro.models.costs import (
    hybrid_flops_attn_decode,
    hybrid_flops_attn_prefill,
    hybrid_flops_linear,
    hybrid_io_bytes_attn_decode,
    hybrid_io_bytes_attn_prefill,
    hybrid_io_bytes_linear,
    model_flops_decode,
    model_flops_prefill,
    model_flops_prefill_extend,
    model_io_bytes_decode,
    model_io_bytes_prefill,
    model_io_bytes_prefill_extend,
)
from repro.models.parallelism import ParallelConfig
from repro.models.registry import MODEL_REGISTRY, get_model
from repro.perf.roofline import (
    PER_LAYER_OVERHEAD_S,
    PER_PASS_OVERHEAD_S,
    BatchTiming,
    LatencyModel,
    gemm_saturation,
)
from repro.serving.metrics import SLO
from repro.serving.placement import plan_pd_placement
from repro.serving.system import SystemConfig
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace import generate_trace


class ReferenceLatencyModel:
    """The roofline as a direct composition of ``repro.models.costs``."""

    def __init__(self, spec, gpu, parallel) -> None:
        self.spec = spec
        self.gpu = gpu
        self.parallel = parallel

    def _assemble(self, compute_time, io_time, tokens_moved):
        comm = self.parallel.tp_allreduce_time(self.spec, tokens_moved)
        comm += self.parallel.pp_activation_time(self.spec, tokens_moved)
        overhead = PER_PASS_OVERHEAD_S + self.spec.num_layers * PER_LAYER_OVERHEAD_S
        duration = max(compute_time, io_time) + comm + overhead
        return BatchTiming(duration, compute_time, io_time, comm)

    def _compute_time(self, flops, saturation_tokens):
        sat = gemm_saturation(saturation_tokens) if saturation_tokens is not None else 1.0
        return self.parallel.shard_flops(flops) / (self.gpu.effective_flops * sat)

    def _io_time(self, io_bytes):
        return self.parallel.shard_io_bytes(io_bytes) / self.gpu.effective_bandwidth

    def prefill(self, num_tokens):
        if num_tokens <= 0:
            return BatchTiming(0.0, 0.0, 0.0, 0.0)
        compute = self._compute_time(model_flops_prefill(self.spec, num_tokens), num_tokens)
        io = self._io_time(model_io_bytes_prefill(self.spec, num_tokens))
        return self._assemble(compute, io, num_tokens)

    def prefill_extend(self, new_tokens, prior_context):
        if new_tokens <= 0:
            return BatchTiming(0.0, 0.0, 0.0, 0.0)
        compute = self._compute_time(
            model_flops_prefill_extend(self.spec, new_tokens, prior_context), new_tokens
        )
        io = self._io_time(model_io_bytes_prefill_extend(self.spec, new_tokens, prior_context))
        return self._assemble(compute, io, new_tokens)

    def decode(self, batch_size, sum_context):
        if batch_size <= 0:
            return BatchTiming(0.0, 0.0, 0.0, 0.0)
        compute = self._compute_time(model_flops_decode(self.spec, batch_size, sum_context), None)
        io = self._io_time(model_io_bytes_decode(self.spec, batch_size, sum_context))
        return self._assemble(compute, io, batch_size)

    def hybrid(self, prefill_tokens, batch_size, sum_context, prefill_prior_context=0):
        if prefill_tokens <= 0:
            return self.decode(batch_size, sum_context)
        if batch_size <= 0:
            return self.prefill_extend(prefill_tokens, prefill_prior_context)
        spec = self.spec
        all_tokens = prefill_tokens + batch_size
        linear_compute = self._compute_time(
            hybrid_flops_linear(spec, prefill_tokens, batch_size), all_tokens
        )
        linear_io_time = self._io_time(hybrid_io_bytes_linear(spec, prefill_tokens, batch_size))
        p_attn_compute = self._compute_time(
            hybrid_flops_attn_prefill(spec, prefill_tokens, prefill_prior_context),
            prefill_tokens,
        )
        p_attn_io_time = self._io_time(
            hybrid_io_bytes_attn_prefill(spec, prefill_tokens, prefill_prior_context)
        )
        d_attn_compute = self._compute_time(hybrid_flops_attn_decode(spec, sum_context), None)
        d_attn_io_time = self._io_time(hybrid_io_bytes_attn_decode(spec, batch_size, sum_context))
        busy = (
            max(linear_compute, linear_io_time)
            + max(p_attn_compute, p_attn_io_time)
            + max(d_attn_compute, d_attn_io_time)
        )
        comm = self.parallel.tp_allreduce_time(spec, all_tokens)
        comm += self.parallel.pp_activation_time(spec, all_tokens)
        overhead = PER_PASS_OVERHEAD_S + spec.num_layers * PER_LAYER_OVERHEAD_S
        return BatchTiming(
            busy + comm + overhead,
            linear_compute + p_attn_compute + d_attn_compute,
            linear_io_time + p_attn_io_time + d_attn_io_time,
            comm,
        )


def reference_timing(model: LatencyModel, method: str, *args: int) -> BatchTiming:
    """What the specification says ``model.<method>(*args)`` must return."""
    reference = ReferenceLatencyModel(model.spec, model.gpu, model.parallel)
    return getattr(reference, method)(*args)


def assert_bit_identical(actual: BatchTiming, expected: BatchTiming) -> None:
    # float.hex tells -0.0 from 0.0 too, which == does not.
    assert isinstance(actual, BatchTiming)
    assert [x.hex() for x in actual] == [float(x).hex() for x in expected], (actual, expected)
    assert actual == expected
    assert actual.compute_bound == expected.compute_bound


def assert_matches_spec(model: LatencyModel, n: int, prior: int, b: int, ctx: int) -> None:
    for method, args in (
        ("prefill", (n,)),
        ("prefill_extend", (n, prior)),
        ("decode", (b, ctx)),
        ("hybrid", (n, b, ctx, prior)),
    ):
        assert_bit_identical(getattr(model, method)(*args), reference_timing(model, method, *args))


SPECS = sorted(MODEL_REGISTRY.values(), key=lambda spec: spec.name)
GPUS = sorted(GPU_REGISTRY.values(), key=lambda gpu: gpu.name)
PARALLELS = [
    ParallelConfig(tp=tp, pp=pp, tp_efficiency=eff)
    for tp in (1, 2, 4, 8)
    for pp in (1, 2, 4)
    for eff in (0.92, 0.8)
]


# Serving-sized counts keep every FLOP and byte total an integer below 2**53,
# where any float regrouping happens to be exact too; the huge counts push
# the totals past 2**53, where a reordered float operation rounds
# differently and the property can see it.
def counts(serving_max: int) -> st.SearchStrategy[int]:
    return st.integers(0, serving_max) | st.integers(0, 1 << 44)


@settings(deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    gpu=st.sampled_from(GPUS),
    parallel=st.sampled_from(PARALLELS),
    n=counts(1 << 17),
    prior=counts(1 << 17),
    b=counts(4096),
    ctx=counts(1 << 26),
    repeat=st.booleans(),
)
def test_compiled_model_is_bit_identical_to_costs(spec, gpu, parallel, n, prior, b, ctx, repeat):
    model = LatencyModel(spec, gpu, parallel)
    assert_matches_spec(model, n, prior, b, ctx)
    if repeat:  # a second pass reads the memoised communication times
        assert_matches_spec(model, n, prior, b, ctx)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_zero_inputs_match_on_every_triple(spec):
    """0 tokens, batch 0 and empty context, for every GPU and parallelism."""
    for gpu in GPUS:
        for parallel in PARALLELS:
            model = LatencyModel(spec, gpu, parallel)
            for n, prior, b, ctx in ((0, 0, 0, 0), (1, 0, 1, 0), (0, 7, 3, 0), (5, 0, 0, 9)):
                assert_matches_spec(model, n, prior, b, ctx)
            assert model.prefill(0) == model.decode(0, 123) == BatchTiming(0.0, 0.0, 0.0, 0.0)


def test_helpers_match_spec():
    """``_compute_time``/``_io_time`` price raw FLOPs and bytes as before."""
    model = LatencyModel(get_model("llama2-70b"), A800_80GB, ParallelConfig(tp=4, pp=2))
    reference = ReferenceLatencyModel(model.spec, model.gpu, model.parallel)
    for flops, tokens in ((1.5e12, 512), (3e9, None), (7, 1)):
        assert model._compute_time(flops, tokens) == reference._compute_time(flops, tokens)
    for io_bytes in (2.6e10, 7, 0.0):
        assert model._io_time(io_bytes) == reference._io_time(io_bytes)


# -- constants stay fresh when an instance changes parallelism ---------------

PROBES = ((2048, 0, 16, 16 * 700), (300, 1200, 48, 48 * 1500), (1, 0, 1, 1))


def assert_prices_like_fresh_model(latency: LatencyModel, parallel: ParallelConfig) -> None:
    fresh = LatencyModel(latency.spec, latency.gpu, parallel)
    assert latency.parallel == parallel
    for n, prior, b, ctx in PROBES:
        assert latency.prefill(n) == fresh.prefill(n)
        assert latency.prefill_extend(n, prior) == fresh.prefill_extend(n, prior)
        assert latency.decode(b, ctx) == fresh.decode(b, ctx)
        assert latency.hybrid(n, b, ctx, prior) == fresh.hybrid(n, b, ctx, prior)
        assert_matches_spec(latency, n, prior, b, ctx)


def warm(latency: LatencyModel) -> None:
    """Price every probe so any memo holds entries for the old parallelism."""
    for n, prior, b, ctx in PROBES:
        latency.hybrid(n, b, ctx, prior)
        latency.prefill(n)
        latency.decode(b, ctx)


def test_reconfigure_reprices_with_new_parallelism():
    alternatives = [
        plan_pd_placement(
            NodeTopology(num_gpus=8), ParallelConfig(tp=2, pp=pp), ParallelConfig(tp=2, pp=4 - pp)
        )
        for pp in (1, 3)
    ]
    system = ReplanningDistServeSystem(
        SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.3, tpot=0.1)),
        alternatives=alternatives,
        topology=NodeTopology(num_gpus=8),
    )
    inst = system.decode_instance
    old = inst.parallel
    warm(inst.latency)
    new = ParallelConfig(tp=2, pp=1)
    assert new != old
    inst.reconfigure(new, system.alternatives[1].decode_gpus)
    assert_prices_like_fresh_model(inst.latency, new)
    assert inst.latency.decode(16, 16 * 700) != LatencyModel(inst.spec, inst.gpu, old).decode(
        16, 16 * 700
    )


def test_rebuild_placement_reprices_with_new_parallelism():
    fleet = build_windserve_fleet(
        SystemConfig(model=get_model("opt-13b"), slo=SLO(ttft=0.25, tpot=0.1)),
        pairs_per_node=1,
        policy="predicted-ttft",
        shape=FleetShape.parse("a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1"),
    )
    fleet.replanner = FleetReplanner()
    member = fleet.members[0]
    before = (member.prefill_instance.parallel, member.decode_instance.parallel)
    for instance in member.instances:
        warm(instance.latency)
    fleet.load_workload(
        list(
            generate_trace(
                SHAREGPT,
                rate=3.0 * fleet.num_gpus,
                num_requests=60,
                seed=0,
                model=get_model("opt-13b"),
            )
        )
    )
    fleet.sim.run(until=0.4)
    fleet.fail_member(1)
    assert fleet.replanned_members == 1 and member.name == fleet.replanner.replans[0]["member"]
    after = (member.prefill_instance.parallel, member.decode_instance.parallel)
    assert after != before
    for instance in member.instances:
        assert_prices_like_fresh_model(instance.latency, instance.parallel)
