"""DistServe baseline: static phase disaggregation.

Faithful to the behaviour the paper measures against:

* the prefill instance runs pure prefill batches (FCFS, token-capped) and
  does **not** retain KV after hand-off — all live KV sits in the decode
  instance (the memory imbalance of §2.2);
* after a request's prefill, its KV is transferred to the decode instance;
  the request only joins the decode queue when the transfer completes, and
  the transfer can only start once the decode instance has blocks free —
  head-of-line decode queuing under memory pressure;
* there is no cross-instance coordination: an overloaded prefill instance
  cannot borrow the decode instance's idle compute, and an overloaded decode
  instance swaps KV to host DRAM.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.models.parallelism import ParallelConfig
from repro.serving.batching import Batch
from repro.serving.instance import Instance, Lane
from repro.serving.placement import Placement, plan_pd_placement
from repro.serving.request import Phase, Request, tier_ordered
from repro.serving.system import ServingSystem, SystemConfig


class DistServePrefillInstance(Instance):
    """Pure-prefill engine: FCFS batches capped by a token budget."""

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        if not self.waiting:
            return None
        batch_requests: list[Request] = []
        tokens = 0
        while self.waiting:
            request = self.waiting[0]
            needed = request.remaining_prefill_tokens
            if (
                batch_requests
                and tokens + needed > self.config.max_prefill_tokens_per_batch
            ):
                break
            if not self.kv.can_allocate(needed):
                break
            self.waiting.popleft()
            self.kv.allocate(request.request_id, needed)
            request.phase = Phase.PREFILLING
            if request.prefill_start is None:
                request.prefill_start = self.sim.now
            batch_requests.append(request)
            tokens += needed
        if not batch_requests:
            return None
        timing = self.latency.prefill(tokens)
        return Batch(
            "prefill",
            timing.duration,
            prefill_requests=batch_requests,
            prefill_tokens=tokens,
            timing=timing,
        )

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        now = self.sim.now
        for request in batch.prefill_requests:
            request.prefilled_tokens = request.prefill_required
            if request.output_generated == 0:
                # First pass (not a recompute after a replanning restart).
                request.first_token_time = now
                request.output_generated = 1
                if request.output_tokens <= 1:
                    self._retire(request, now)
                    continue
                request.decode_queue_enter = now
            request.phase = Phase.TRANSFERRING
            assert self.system is not None
            self.system.begin_handoff(request)  # type: ignore[attr-defined]


class DistServeDecodeInstance(Instance):
    """Pure-decode engine: continuous batching with CPU swap on KV pressure."""

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        while self.waiting and lane.batch_size < self.config.max_decode_batch_size:
            request = self.waiting.popleft()
            if request.decode_start is None:
                request.decode_start = self.sim.now
            self.start_decoding(request, lane)
        if not lane.running:
            return None
        timing = self.latency.decode(len(lane.running), lane.context)
        return Batch(
            "decode", timing.duration, decode_requests=list(lane.running), timing=timing
        )

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        self.finish_decode_iteration(lane, batch)


class DistServeSystem(ServingSystem):
    """Static PD serving with blocking post-prefill KV hand-off."""

    name = "distserve"

    def __init__(
        self,
        config: SystemConfig,
        placement: Optional[Placement] = None,
        topology=None,
        sim=None,
        prefill_gpu=None,
        decode_gpu=None,
    ) -> None:
        super().__init__(config, topology, sim)
        if placement is None:
            placement = plan_pd_placement(
                self.topology, ParallelConfig(tp=2), ParallelConfig(tp=2)
            )
        self.placement = placement
        self.prefill_instance = self.register(
            DistServePrefillInstance(
                "prefill",
                self.sim,
                config.model,
                prefill_gpu or config.gpu,
                placement.prefill_parallel,
                placement.prefill_gpus,
                self.metrics,
                self.transfers,
                config.instance,
                trace=self.trace,
            )
        )
        self.decode_instance = self.register(
            DistServeDecodeInstance(
                "decode",
                self.sim,
                config.model,
                decode_gpu or config.gpu,
                placement.decode_parallel,
                placement.decode_gpus,
                self.metrics,
                self.transfers,
                config.decode_instance_config,
                trace=self.trace,
            )
        )
        self._handoff: deque[Request] = deque()
        # A lost hand-off is absorbed by re-prefilling; swaps still stall.
        self.transfers.failure_kinds = frozenset({"kv-handoff"})

    # -- routing -------------------------------------------------------------

    def submit(self, request: Request) -> None:
        self.prefill_instance.enqueue(request)

    # -- KV hand-off -------------------------------------------------------------

    def begin_handoff(self, request: Request) -> None:
        """Queue a prefilled request for KV transfer to the decode instance."""
        self._handoff.append(request)
        self._pump_handoffs()

    def _pump_handoffs(self) -> None:
        if self.halted or self.prefill_instance.failed or self.decode_instance.failed:
            return
        decode = self.decode_instance
        while self._handoff:
            request = self._handoff[0]
            needed = request.context_tokens
            if not decode.kv.can_allocate(needed):
                self.metrics.bump("handoff_blocked")
                break  # head-of-line blocking until decode KV frees
            self._handoff.popleft()
            decode.kv.allocate(request.request_id, needed)
            nbytes = int(request.prefilled_tokens * self.config.model.kv_bytes_per_token)
            self.transfers.transfer(
                nbytes,
                list(self.prefill_instance.gpus),
                list(decode.gpus),
                on_complete=lambda job, r=request, se=self.prefill_instance.epoch, de=decode.epoch: self._handoff_done(r, se, de),
                kind="kv-handoff",
                request_id=request.request_id,
                request=request,
            )

    def _handoff_done(
        self,
        request: Request,
        src_epoch: Optional[int] = None,
        dst_epoch: Optional[int] = None,
    ) -> None:
        if self.halted or request.finished:
            return
        if request.phase is not Phase.TRANSFERRING:
            return  # re-queued by a failure handler while the copy flew
        prefill, decode = self.prefill_instance, self.decode_instance
        if src_epoch is not None and src_epoch != prefill.epoch:
            # Source crashed mid-copy: the destination bytes are torn.
            if decode.kv.has(request.request_id):
                decode.kv.free(request.request_id)
            self.metrics.bump("torn_handoff")
            self._requeue_on_prefill(request)
            return
        if decode.failed or (dst_epoch is not None and dst_epoch != decode.epoch):
            # Destination lost the allocation: retry once it is back.
            self._handoff.appendleft(request)
            self.metrics.bump("handoff_deferred")
            self._pump_handoffs()
            return
        # DistServe does not retain KV in the prefill instance.
        if not prefill.failed and prefill.kv.has(request.request_id):
            prefill.kv.free(request.request_id)
        prefill.kick()
        request.phase = Phase.WAITING_DECODE
        decode.enqueue(request)

    # -- crash recovery ------------------------------------------------------------

    def _requeue_on_prefill(self, request: Request) -> None:
        if request.finished:
            return
        request.restart_prefill()
        self._mark_requeued(request)
        self.prefill_instance.enqueue(request)

    def recover_lost_requests(self, instance, lost: list[Request]) -> None:
        # Stable tier order: interactive re-queues ahead of best-effort.
        lost = tier_ordered(lost)
        prefill = self.prefill_instance
        if instance is self.decode_instance:
            for request in lost:
                self._requeue_on_prefill(request)
        else:
            for request in lost:
                if request.finished:
                    continue
                self._reset_for_requeue(request)
                prefill.waiting.append(request)
            prefill.kick()

    def on_instance_crashed(self, instance) -> None:
        if instance is self.prefill_instance:
            # Queued hand-offs lost their only (prefill-side) KV copy.
            while self._handoff:
                self._stash_orphan(instance, self._handoff.popleft())

    def after_recovery(self, instance) -> None:
        instance.kick()
        self._pump_handoffs()

    def on_transfer_failed(self, job) -> None:
        request = job.meta.get("request")
        if request is None or request.finished:
            return
        # The hand-off copy never made it: drop both sides and re-prefill.
        for instance in (self.decode_instance, self.prefill_instance):
            if not instance.failed and instance.kv.has(request.request_id):
                instance.kv.free(request.request_id)
        self._requeue_on_prefill(request)

    # -- events ------------------------------------------------------------------

    def on_request_finished(self, request: Request, instance) -> None:
        # Freed KV may unblock a queued hand-off.
        self._pump_handoffs()

    def on_kv_dropped(self, request: Request, instance) -> None:
        """A replanning restart lost this request's KV: recompute it.

        The request re-prefills its full live context on the prefill
        instance and re-enters the decode pipeline via a fresh hand-off."""
        request.restart_prefill()
        self.metrics.bump("replan_recompute")
        self.prefill_instance.enqueue(request)
