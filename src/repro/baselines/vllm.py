"""vLLM baseline: colocated continuous batching with chunked prefill.

Models vLLM v0.4.2 with ``enable_chunked_prefill``: every engine iteration
fuses the running decode batch with prefill chunks drawn from the waiting
queue under a ``max_batched_tokens`` budget.  Decode tokens take priority in
the budget (vLLM's scheduler policy); KV pressure preempts the
latest-arrived request to CPU swap.  Multiple replicas divide the node, and
new requests join the least-loaded replica.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.models.parallelism import ParallelConfig
from repro.serving.batching import Batch
from repro.serving.instance import Instance, Lane
from repro.serving.placement import plan_colocated_placement
from repro.serving.request import Phase, Request, tier_ordered
from repro.serving.system import ServingSystem, SystemConfig


class VLLMInstance(Instance):
    """One colocated engine replica running hybrid iterations."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prefilling: deque[Request] = deque()

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        decode_requests = list(lane.running)
        budget = max(0, self.config.max_batched_tokens - len(decode_requests))
        plan: list[tuple[Request, int]] = []
        prior_context = 0
        chunk_tokens = 0

        # Continue partially prefilled requests first, then admit new ones.
        for request in list(self.prefilling):
            if budget <= 0:
                break
            if request.extra.get("chunk_in_flight"):
                if self._chunk_actually_in_flight(request):
                    continue
                # Stale marker: no lane is running a chunk for this request
                # (it was re-queued here after a crash elsewhere with the
                # flag still set).  Skipping would starve it forever.
                request.extra.pop("chunk_in_flight", None)
            chunk = min(budget, request.remaining_prefill_tokens)
            if not self.kv.can_extend(request.request_id, chunk):
                break
            self.kv.extend(request.request_id, chunk)
            request.extra["chunk_in_flight"] = True
            plan.append((request, chunk))
            prior_context += request.prefilled_tokens
            chunk_tokens += chunk
            budget -= chunk

        while budget > 0 and self.waiting:
            if self.total_running + len(self.prefilling) >= self.config.max_decode_batch_size:
                break
            request = self.waiting[0]
            chunk = min(budget, request.remaining_prefill_tokens)
            if not self.kv.can_allocate(chunk):
                break
            self.waiting.popleft()
            self.kv.allocate(request.request_id, chunk)
            request.phase = Phase.PREFILLING
            if request.prefill_start is None:
                request.prefill_start = self.sim.now
            request.extra["chunk_in_flight"] = True
            self.prefilling.append(request)
            plan.append((request, chunk))
            chunk_tokens += chunk
            budget -= chunk

        if not decode_requests and not plan:
            return None

        timing = self.latency.hybrid(
            chunk_tokens,
            len(decode_requests),
            lane.context,
            prefill_prior_context=prior_context,
        )
        duration = timing.duration
        if chunk_tokens and decode_requests:
            duration /= self.contention.chunked_prefill_decode_overlap
        return Batch(
            "hybrid" if chunk_tokens else "decode",
            duration,
            prefill_requests=[r for r, _ in plan],
            prefill_tokens=chunk_tokens,
            decode_requests=decode_requests,
            timing=timing,
            meta={"plan": plan},
        )

    def _chunk_actually_in_flight(self, request: Request) -> bool:
        """True when some lane's in-flight batch holds a chunk of ``request``."""
        return any(
            lane.current_batch is not None
            and request in lane.current_batch.prefill_requests
            for lane in self.lanes
        )

    def enqueue(self, request: Request) -> None:
        # A request can only wait here with no chunk in flight; drop any
        # stale marker a crash-requeue path failed to clear so the chunking
        # loop cannot skip the request forever.
        request.extra.pop("chunk_in_flight", None)
        super().enqueue(request)

    def _supports_recompute(self) -> bool:
        return True  # colocated engine can re-prefill locally

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        now = self.sim.now
        for request, chunk in batch.meta.get("plan", []):
            request.extra["chunk_in_flight"] = False
            request.prefilled_tokens += chunk
            if request.prefill_done:
                self.prefilling.remove(request)
                if request.output_generated > 0:
                    # Recompute-preempted request resuming: the first token
                    # was already emitted before preemption.
                    self.start_decoding(request, lane)
                    continue
                request.first_token_time = now
                request.output_generated = 1
                if request.output_tokens <= 1:
                    self._retire(request, now)
                    continue
                request.decode_queue_enter = now
                request.decode_start = now
                self.start_decoding(request, lane)
        self.finish_decode_iteration(lane, batch)

    def load(self) -> int:
        """Rough load indicator for replica routing."""
        return len(self.waiting) + len(self.prefilling) + self.total_running


class VLLMSystem(ServingSystem):
    """Colocated chunked-prefill serving across one or more replicas."""

    name = "vllm"

    def __init__(
        self,
        config: SystemConfig,
        parallel: Optional[ParallelConfig] = None,
        num_replicas: int = 1,
        topology=None,
        sim=None,
    ) -> None:
        super().__init__(config, topology, sim)
        parallel = parallel or ParallelConfig(tp=2)
        replicas = plan_colocated_placement(self.topology, parallel, num_replicas)
        self.replicas: list[VLLMInstance] = []
        for i, (gpus, cfg) in enumerate(replicas):
            inst = VLLMInstance(
                f"vllm-{i}",
                self.sim,
                config.model,
                config.gpu,
                cfg,
                gpus,
                self.metrics,
                self.transfers,
                config.instance,
                trace=self.trace,
            )
            self.replicas.append(self.register(inst))  # type: ignore[arg-type]

    def submit(self, request: Request) -> None:
        alive = [r for r in self.replicas if r.name not in self.known_failed]
        target = min(alive or self.replicas, key=lambda r: r.load())
        target.enqueue(request)

    def recover_lost_requests(self, instance, lost: list[Request]) -> None:
        """Re-route crash orphans to the least-loaded surviving replica,
        highest SLO tier first (stable within a tier)."""
        for request in tier_ordered(lost):
            if request.finished:
                continue
            self._reset_for_requeue(request)
            self.submit(request)
