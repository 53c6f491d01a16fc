"""Roofline batch-latency estimation.

One forward pass takes ``max(compute_time, io_time)`` on each GPU (compute
and HBM traffic overlap in well-pipelined kernels) plus tensor-parallel
all-reduce and pipeline-parallel activation-transfer time, plus a small
per-layer kernel-launch overhead.  The paper's Profiler fits exactly these
shapes (``a_p N + b_p N^2 + c_p`` for prefill, ``a_d sum(L) + c_d`` for
decode); here we derive the constants from hardware and model specs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.hardware.gpu import GPUSpec
from repro.models.parallelism import ParallelConfig
from repro.models.spec import ModelSpec

# Fixed CPU-side + launch overhead per forward pass, per layer.  Covers
# scheduler step, kernel launches, sampling.
PER_LAYER_OVERHEAD_S = 8e-6
PER_PASS_OVERHEAD_S = 1.5e-3

# GEMM efficiency grows with the token (M) dimension; half of peak is
# reached around this many tokens.  Chunked prefill suffers from this:
# a 512-token chunk runs its GEMMs measurably below a 2048-token prefill.
GEMM_SATURATION_HALF_TOKENS = 96


def gemm_saturation(tokens: int) -> float:
    """Fraction of the large-GEMM compute efficiency achieved at ``tokens``."""
    if tokens <= 0:
        return 1.0
    return tokens / (tokens + GEMM_SATURATION_HALF_TOKENS)


class BatchTiming(NamedTuple):
    """Latency decomposition of one forward pass on one pipeline stage set.

    ``duration`` is wall-clock; ``compute_time`` and ``io_time`` are the
    separate tensor-core-busy and HBM-busy components used for the Fig. 2
    utilisation accounting.
    """

    duration: float
    compute_time: float
    io_time: float
    comm_time: float

    @property
    def compute_bound(self) -> bool:
        return self.compute_time >= self.io_time


_IDLE = BatchTiming(0.0, 0.0, 0.0, 0.0)


class _CommTimes(dict):
    """Per-pass TP all-reduce + PP activation time, memoised by token count."""

    def __init__(self, spec: ModelSpec, parallel: ParallelConfig) -> None:
        super().__init__()
        self.spec = spec
        self.parallel = parallel

    def __missing__(self, tokens: int) -> float:
        comm = self.parallel.tp_allreduce_time(self.spec, tokens)
        comm += self.parallel.pp_activation_time(self.spec, tokens)
        self[tokens] = comm
        return comm


class LatencyModel:
    """Estimates forward-pass latency for a (model, GPU, parallelism) triple.

    ``repro.models.costs`` is the written specification of every FLOP and
    byte.  This class evaluates the same formulas with each spec-, GPU- and
    parallelism-derived constant folded once here, so a timing is
    straight-line arithmetic.  Integer terms are regrouped freely (token
    counts are ints, so they stay exact); every float operation keeps the
    operands and order of the ``costs`` composition, which keeps each
    timing bit-identical to it (``tests/perf/test_roofline_equivalence.py``).
    """

    def __init__(self, spec: ModelSpec, gpu: GPUSpec, parallel: ParallelConfig) -> None:
        self.spec = spec
        self.gpu = gpu
        self.parallel = parallel

        layers, hidden = spec.num_layers, spec.hidden_size
        kv = spec.kv_bytes_per_token_per_layer
        activation = 8 * hidden * spec.dtype_bytes
        self._layers = layers
        # Per-layer integer coefficients (FLOPs / bytes per token).
        self._attn_flops = 2 * spec.attn_params_per_layer
        self._ffn_flops = 2 * spec.ffn_params_per_layer
        self._linear_flops = 2 * spec.params_per_layer
        self._score_flops = 4 * hidden
        self._weight_bytes = spec.weight_bytes_per_layer
        self._kv_bytes = kv
        self._activation_bytes = activation
        self._lm_head_flops = 2 * hidden * spec.vocab_size
        self._lm_head_bytes = spec.vocab_size * hidden * spec.dtype_bytes
        # Whole-model integer coefficients of the fused hybrid pass.
        self._model_linear_flops = layers * self._linear_flops
        self._model_score_flops = layers * self._score_flops
        self._model_kv_bytes = layers * kv
        self._model_activation_bytes = layers * activation
        self._streamed_bytes = layers * self._weight_bytes + self._lm_head_bytes
        # Float constants.  Dividing by 1.0 is exact, so TP-1 needs no branch.
        self._flops_per_s = gpu.effective_flops
        self._bytes_per_s = gpu.effective_bandwidth
        self._shard = 1.0 if parallel.tp == 1 else parallel.tp * parallel.tp_efficiency
        self._overhead = PER_PASS_OVERHEAD_S + layers * PER_LAYER_OVERHEAD_S
        self._comm = _CommTimes(spec, parallel)

    # -- internals --------------------------------------------------------

    def _compute_time(self, flops: float, saturation_tokens: int | None) -> float:
        sat = gemm_saturation(saturation_tokens) if saturation_tokens is not None else 1.0
        return flops / self._shard / (self._flops_per_s * sat)

    def _io_time(self, io_bytes: float) -> float:
        return io_bytes / self._shard / self._bytes_per_s

    # -- public API ---------------------------------------------------------

    def prefill(self, num_tokens: int) -> BatchTiming:
        """One prefill pass over ``num_tokens`` prompt tokens (possibly batched)."""
        n = num_tokens
        if n <= 0:
            return _IDLE
        flops = (
            self._layers
            * (
                float(n * self._attn_flops + n * n * self._score_flops)
                + float(n * self._ffn_flops)
            )
            + self._lm_head_flops
        )
        io_bytes = (
            self._layers
            * float(self._weight_bytes + n * (self._activation_bytes + self._kv_bytes))
            + self._lm_head_bytes
        )
        sat = n / (n + GEMM_SATURATION_HALF_TOKENS)
        compute = flops / self._shard / (self._flops_per_s * sat)
        io = io_bytes / self._shard / self._bytes_per_s
        comm = self._comm[n]
        return BatchTiming(max(compute, io) + comm + self._overhead, compute, io, comm)

    def prefill_extend(self, new_tokens: int, prior_context: int) -> BatchTiming:
        """Prefill one chunk of ``new_tokens`` attending over ``prior_context``
        already-cached tokens (chunked-prefill step)."""
        n = new_tokens
        if n <= 0:
            return _IDLE
        flops = (
            self._layers
            * float(n * (self._linear_flops + (prior_context + n) * self._score_flops))
            + self._lm_head_flops
        )
        io_bytes = (
            self._layers
            * float(
                self._weight_bytes
                + (prior_context + n) * self._kv_bytes
                + n * self._activation_bytes
            )
            + self._lm_head_bytes
        )
        sat = n / (n + GEMM_SATURATION_HALF_TOKENS)
        compute = flops / self._shard / (self._flops_per_s * sat)
        io = io_bytes / self._shard / self._bytes_per_s
        comm = self._comm[n]
        return BatchTiming(max(compute, io) + comm + self._overhead, compute, io, comm)

    def decode(self, batch_size: int, sum_context: int) -> BatchTiming:
        """One decode iteration for ``batch_size`` requests with total context
        ``sum_context`` tokens.  Decode kernels are bandwidth-bound; no GEMM
        saturation penalty is applied to their (irrelevant) compute estimate."""
        b = batch_size
        if b <= 0:
            return _IDLE
        flops = (
            self._layers
            * (
                float(b * self._attn_flops + sum_context * self._score_flops)
                + float(b * self._ffn_flops)
            )
            + b * self._lm_head_flops
        )
        io_bytes = (
            self._layers
            * float(
                self._weight_bytes
                + (sum_context + b) * self._kv_bytes
                + b * self._activation_bytes
            )
            + self._lm_head_bytes
        )
        compute = flops / self._shard / self._flops_per_s
        io = io_bytes / self._shard / self._bytes_per_s
        comm = self._comm[b]
        return BatchTiming(max(compute, io) + comm + self._overhead, compute, io, comm)

    def hybrid(
        self,
        prefill_tokens: int,
        batch_size: int,
        sum_context: int,
        prefill_prior_context: int = 0,
    ) -> BatchTiming:
        """One fused pass combining a prefill chunk and decode requests
        (vLLM-style hybrid continuous batching / chunked prefill)."""
        if prefill_tokens <= 0:
            return self.decode(batch_size, sum_context)
        if batch_size <= 0:
            return self.prefill_extend(prefill_tokens, prefill_prior_context)
        n, b = prefill_tokens, batch_size
        attended = prefill_prior_context + n
        total = n + b
        shard, flops_per_s, bytes_per_s = self._shard, self._flops_per_s, self._bytes_per_s
        # Linear ops (QKVO projections, FFN, LM head) fuse across prefill and
        # decode tokens: weights stream once, compute covers every token, and
        # each token pays the per-layer activation traffic (the same
        # 8*tokens*H*dtype bytes *per layer* that decode()/prefill() charge).
        linear_flops = float(
            total * self._model_linear_flops + (1 + b) * self._lm_head_flops
        )
        linear_bytes = float(self._streamed_bytes + total * self._model_activation_bytes)
        sat = total / (total + GEMM_SATURATION_HALF_TOKENS)
        linear_compute = linear_flops / shard / (flops_per_s * sat)
        linear_io_time = linear_bytes / shard / bytes_per_s

        # Attention kernels run per phase: the prefill chunk's score/value
        # GEMMs (compute-bound, re-reading prior-chunk KV) then the decode
        # batch's paged attention (bandwidth-bound KV sweep).
        sat = n / (n + GEMM_SATURATION_HALF_TOKENS)
        p_attn_compute = (
            float(n * attended * self._model_score_flops) / shard / (flops_per_s * sat)
        )
        p_attn_io_time = float(attended * self._model_kv_bytes) / shard / bytes_per_s
        d_attn_compute = float(sum_context * self._model_score_flops) / shard / flops_per_s
        d_attn_io_time = float((sum_context + b) * self._model_kv_bytes) / shard / bytes_per_s

        # Each group overlaps its own compute against its own HBM traffic;
        # the groups themselves serialise.
        busy = (
            max(linear_compute, linear_io_time)
            + max(p_attn_compute, p_attn_io_time)
            + max(d_attn_compute, d_attn_io_time)
        )
        comm = self._comm[total]
        # The breakdown sums each group's tensor-core-busy and HBM-busy
        # components, so (as for the single-phase passes) duration >=
        # max(compute_time, io_time) + comm_time and neither side
        # double-counts the other's traffic.
        return BatchTiming(
            busy + comm + self._overhead,
            linear_compute + p_attn_compute + d_attn_compute,
            linear_io_time + p_attn_io_time + d_attn_io_time,
            comm,
        )

    def pipeline_slots(self) -> int:
        """Concurrent batches the instance keeps in flight (PP pipelining)."""
        return self.parallel.pp
