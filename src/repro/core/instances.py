"""WindServe's prefill and decode instances.

The prefill instance runs pure prefill batches normally, but switches to
chunked-prefill hybrid iterations whenever rescheduled decode jobs are
resident (bounding prefill-decode interference, §3.3).  It launches the
prefill->decode KV transfer *during* the prefill pass (asynchronous,
layer-overlapped) and can retain KV backups after hand-off.

The decode instance runs continuous-batching decode iterations, hosts the
assist stream for dispatched prefills (SBD, §3.4), and triggers Dynamic
Rescheduling checks after every iteration.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.core.streams import AssistStream
from repro.serving.batching import Batch
from repro.serving.instance import Instance, Lane
from repro.serving.request import Phase, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.windserve import WindServeSystem


class WindServePrefillInstance(Instance):
    """Prefill engine with async hand-off, backups, and chunked-prefill mode."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prefilling: deque[Request] = deque()

    @property
    def _system(self) -> "WindServeSystem":
        assert self.system is not None
        return self.system  # type: ignore[return-value]

    def queued_prefill_tokens(self) -> int:
        waiting = super().queued_prefill_tokens()
        return waiting + sum(r.remaining_prefill_tokens for r in self.prefilling)

    # -- batch formation ----------------------------------------------------

    def _ensure_kv(self, tokens: int) -> bool:
        """Free backup space (then unreferenced warm prefixes) if needed to
        fit a new prompt's KV — live traffic always beats the caches."""
        if self.kv.can_allocate(tokens):
            return True
        self._system.evict_backups(tokens)
        if self.kv.can_allocate(tokens):
            return True
        if self.prefix_cache is not None:
            self.prefix_cache.evict_unreferenced(tokens)
        return self.kv.can_allocate(tokens)

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        decode_requests = list(lane.running)
        chunked_mode = bool(decode_requests)
        if chunked_mode:
            budget = max(0, self.config.max_batched_tokens - len(decode_requests))
        else:
            budget = self.config.max_prefill_tokens_per_batch

        plan: list[tuple[Request, int]] = []
        chunk_tokens = 0
        prior_context = 0
        for request in list(self.prefilling):
            if budget <= 0:
                break
            if request.extra.get("chunk_in_flight"):
                continue
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
            request = self.waiting[0]
            # Warm shared prefix?  Preset prefilled_tokens so only the
            # uncached suffix is scheduled (shortened-prefill path).
            self._apply_prefix_hit(request)
            chunk = min(budget, request.remaining_prefill_tokens)
            if not self._ensure_kv(chunk):
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

        if not plan and not decode_requests:
            return None
        if chunk_tokens:
            # Audit counter (not fingerprinted): actual prefill work done,
            # net of prefix-cache skips — the differential harness compares
            # this across routing policies.
            self.metrics.bump("prefill_tokens_computed", chunk_tokens)

        # Launch overlapped KV transfers for prompts completing in this pass.
        transfer_launched = False
        for request, chunk in plan:
            if (
                request.prefilled_tokens + chunk >= request.prefill_required
                and request.output_tokens > 1
            ):
                if self._system.prepare_async_handoff(request):
                    transfer_launched = True

        if decode_requests:
            timing = self.latency.hybrid(
                chunk_tokens,
                len(decode_requests),
                lane.context,
                prefill_prior_context=prior_context,
            )
            duration = timing.duration
            if chunk_tokens:
                duration /= self.contention.chunked_prefill_decode_overlap
            kind = "hybrid" if chunk_tokens else "decode"
        else:
            timing = self.latency.prefill_extend(chunk_tokens, prior_context)
            duration = timing.duration
            kind = "prefill"
        if transfer_launched:
            duration *= self._system.ws_config.async_prefill_slowdown
        return Batch(
            kind,
            duration,
            prefill_requests=[r for r, _ in plan],
            prefill_tokens=chunk_tokens,
            decode_requests=decode_requests,
            timing=timing,
            meta={"plan": plan},
        )

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        now = self.sim.now
        for request, chunk in batch.meta.get("plan", []):
            request.extra["chunk_in_flight"] = False
            request.prefilled_tokens += chunk
            if request.prefill_done:
                self.prefilling.remove(request)
                self._settle_prefix(request)
                if request.output_generated:
                    # Crash-recovery re-prefill over the full context: the
                    # request already emitted tokens, so resume decoding
                    # without resetting its first-token timestamp.
                    request.decode_queue_enter = now
                    self._system.complete_handoff(request)
                    continue
                request.first_token_time = now
                request.output_generated = 1
                if request.output_tokens <= 1:
                    self._retire(request, now)
                    continue
                request.decode_queue_enter = now
                self._system.complete_handoff(request)
        self.finish_decode_iteration(lane, batch)


class WindServeDecodeInstance(Instance):
    """Decode engine with an assist stream and rescheduling triggers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.assist = AssistStream(self)

    @property
    def _system(self) -> "WindServeSystem":
        assert self.system is not None
        return self.system  # type: ignore[return-value]

    def current_decode_load(self) -> tuple[int, int]:
        """(batch size, summed context) of all running decode requests."""
        return self.total_running, sum(lane.context for lane in self.lanes)

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        # "hybrid" co-location (the no-split ablation): assist prefills fold
        # into a regular hybrid batch instead of a separate stream.
        mode = self._system.ws_config.effective_colocation_mode
        assist_request: Optional[Request] = None
        if self.assist.queue and mode == "hybrid" and self.assist.active is None:
            assist_request = self.assist.queue.popleft()
            if assist_request.prefill_start is None:
                assist_request.prefill_start = self.sim.now

        while self.waiting and lane.batch_size < self.config.max_decode_batch_size:
            request = self.waiting.popleft()
            if request.decode_start is None:
                request.decode_start = self.sim.now
            self.start_decoding(request, lane)

        if assist_request is None and not lane.running:
            return None

        if assist_request is not None:
            timing = self.latency.hybrid(
                assist_request.prompt_tokens, len(lane.running), lane.context
            )
            self.metrics.bump("prefill_tokens_computed", assist_request.prompt_tokens)
            return Batch(
                "hybrid",
                timing.duration,
                prefill_requests=[assist_request],
                prefill_tokens=assist_request.prompt_tokens,
                decode_requests=list(lane.running),
                timing=timing,
            )

        timing = self.latency.decode(len(lane.running), lane.context)
        duration = timing.duration
        kind = "decode"
        if mode == "static-partition":
            # The decode partition only ever sees (1 - f) of the GPU — even
            # when no prefill is dispatched (§3.4's criticism of MPS/MIG).
            fraction = self._system.ws_config.static_partition_fraction
            duration /= 1.0 - fraction
            kind = "partitioned-decode"
        else:
            assist_tokens = self.assist.active_prefill_tokens
            if assist_tokens:
                duration /= self.contention.decode_retention(assist_tokens)
                kind = "sbd"
        return Batch(
            kind, duration, decode_requests=list(lane.running), timing=timing
        )

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        now = self.sim.now
        for request in batch.prefill_requests:  # no-split assist completions
            request.prefilled_tokens = request.prompt_tokens
            request.first_token_time = now
            request.output_generated = 1
            if request.output_tokens <= 1:
                self._retire(request, now)
                continue
            request.decode_queue_enter = now
            request.decode_start = now
            self.start_decoding(request, lane)
        self.finish_decode_iteration(lane, batch)
        self._system.maybe_reschedule()

    def swap_candidates(self, exclude: Optional[Request] = None) -> list[Request]:
        # A mid-migration request's KV is being copied out; evicting it here
        # would tear the transfer, so it is never preemption-eligible.
        return [
            r
            for r in self.running_requests
            if r is not exclude and not r.extra.get("migrating")
        ]
