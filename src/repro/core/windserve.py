"""WindServe: the assembled system.

Wires the Global Scheduler (Profiler + Coordinator), the WindServe prefill
and decode instances, asynchronous layer-overlapped KV hand-off, KV
backups, and the stall-free migration manager into one serving system with
the same outer interface as the baselines.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.config import WindServeConfig
from repro.core.coordinator import Coordinator, Route
from repro.core.instances import WindServeDecodeInstance, WindServePrefillInstance
from repro.core.profiler import Profiler
from repro.core.rescheduling import MigrationManager
from repro.models.parallelism import ParallelConfig
from repro.serving.placement import Placement, plan_pd_placement
from repro.serving.request import Phase, Request, tier_ordered
from repro.serving.system import ServingSystem, SystemConfig

# Assist budget used when no TPOT SLO is configured to derive one from.
DEFAULT_ASSIST_BUDGET_TOKENS = 2048


class WindServeSystem(ServingSystem):
    """Phase-disaggregated serving with stream-based dynamic scheduling."""

    name = "windserve"

    def __init__(
        self,
        config: SystemConfig,
        ws_config: Optional[WindServeConfig] = None,
        placement: Optional[Placement] = None,
        topology=None,
        sim=None,
        prefill_gpu=None,
        decode_gpu=None,
    ) -> None:
        super().__init__(config, topology, sim)
        self.ws_config = ws_config or WindServeConfig()
        if placement is None:
            placement = plan_pd_placement(
                self.topology, ParallelConfig(tp=2), ParallelConfig(tp=2)
            )
        self.placement = placement
        self.prefill_instance = self.register(
            WindServePrefillInstance(
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
            WindServeDecodeInstance(
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
        self.prefill_profiler = Profiler(self.prefill_instance.latency)
        self.decode_profiler = Profiler(self.decode_instance.latency)
        self.assist_budget_tokens = self._derive_assist_budget()
        self.coordinator = Coordinator(self)
        self.migrations = MigrationManager(self)
        self.backups: dict[int, int] = {}
        self._handoff: deque[Request] = deque()
        # Transfer kinds whose permanent failure we can absorb by
        # re-prefilling; swaps stall instead (nothing can replace them).
        self.transfers.failure_kinds = frozenset(
            {"kv-handoff", "kv-async", "migration-bulk", "migration-residual"}
        )

    def rebuild_placement(
        self, placement: Placement, prefill_gpu=None, decode_gpu=None
    ) -> None:
        """Re-split this member onto a new placement (fleet re-planning).

        Call between ``crash()`` (which drains the member: KV freed,
        queues swept, callbacks inert) and ``restart()``.  Fresh prefill
        and decode instances are built on the new placement — optionally
        on different GPU types — and the Global Scheduler machinery
        (profilers, coordinator, migration manager) is rebuilt around
        them.  The new instances inherit the crashed ones' history
        (:meth:`~repro.serving.instance.Instance.inherit`), so the audits
        still see the member's whole KV and prefix-cache ledgers.
        """
        if not self.halted:
            raise RuntimeError("rebuild_placement requires a drained (crashed) member")
        old_prefill, old_decode = self.prefill_instance, self.decode_instance
        self.placement = placement
        self.instances = []
        self.prefill_instance = self.register(
            WindServePrefillInstance(
                "prefill",
                self.sim,
                self.config.model,
                prefill_gpu or old_prefill.gpu,
                placement.prefill_parallel,
                placement.prefill_gpus,
                self.metrics,
                self.transfers,
                self.config.instance,
                trace=self.trace,
            )
        )
        self.decode_instance = self.register(
            WindServeDecodeInstance(
                "decode",
                self.sim,
                self.config.model,
                decode_gpu or old_decode.gpu,
                placement.decode_parallel,
                placement.decode_gpus,
                self.metrics,
                self.transfers,
                self.config.decode_instance_config,
                trace=self.trace,
            )
        )
        self.prefill_instance.inherit(old_prefill)
        self.decode_instance.inherit(old_decode)
        self.prefill_profiler = Profiler(self.prefill_instance.latency)
        self.decode_profiler = Profiler(self.decode_instance.latency)
        self.assist_budget_tokens = self._derive_assist_budget()
        self.coordinator = Coordinator(self)
        self.migrations = MigrationManager(self)
        self.backups.clear()
        self._handoff.clear()
        self.known_failed.clear()
        self._orphans.clear()

    def _derive_assist_budget(self) -> int:
        cfg = self.ws_config
        if cfg.assist_budget_tokens is not None:
            return cfg.assist_budget_tokens
        slo = self.config.slo
        if slo is None:
            return DEFAULT_ASSIST_BUDGET_TOKENS
        return self.decode_profiler.find_assist_budget(
            self.decode_instance.contention,
            slo.tpot,
            reference_batch=16,
            reference_context=self.config.model.max_context // 2,
        )

    # -- routing (Algorithm 1) ----------------------------------------------

    def submit(self, request: Request) -> None:
        route = self.coordinator.route_new_request(request)
        # The truth-level ``failed`` guard models the allocation RPC failing
        # fast even before the heartbeat monitor declares the instance dead.
        if route is Route.ASSIST and not self.decode_instance.failed:
            # KV for the dispatched prefill is written directly into the
            # decode instance — no hand-off transfer later.
            self.decode_instance.kv.allocate(request.request_id, request.prompt_tokens + 1)
            self.decode_instance.assist.submit(request)
        else:
            self.prefill_instance.enqueue(request)

    # -- asynchronous KV hand-off ----------------------------------------------

    def prepare_async_handoff(self, request: Request) -> bool:
        """Start the prefill->decode KV copy overlapped with the prefill pass.

        Returns True when the transfer was launched (decode KV reserved);
        False falls back to the post-prefill blocking hand-off.
        """
        if not self.ws_config.async_transfer:
            return False
        if self.decode_instance.failed:
            return False  # cannot reserve KV on a dead instance
        # ``prefill_required`` equals ``prompt_tokens`` on the first pass and
        # the full live context on a post-crash recompute.
        needed = request.prefill_required + 1
        if not self.decode_instance.kv.can_allocate(needed):
            self.metrics.bump("async_handoff_unavailable")
            return False
        self.decode_instance.kv.allocate(request.request_id, needed)
        nbytes = int(request.prefill_required * self.config.model.kv_bytes_per_token)
        job = self.transfers.transfer(
            nbytes,
            list(self.prefill_instance.gpus),
            list(self.decode_instance.gpus),
            kind="kv-async",
            request_id=request.request_id,
            request=request,
            sys_epoch=self.crash_epoch,
        )
        # The last layer's KV can only ship after the pass finishes.
        residual = self._residual_transfer_time(nbytes)
        request.extra["handoff_ready"] = job.finish + residual
        request.extra["handoff_src_epoch"] = self.prefill_instance.epoch
        request.extra["handoff_dst_epoch"] = self.decode_instance.epoch
        self.metrics.bump("async_handoff")
        return True

    def _residual_transfer_time(self, nbytes: int) -> float:
        per_layer = max(1, nbytes // self.config.model.num_layers)
        return self.transfers.estimate_duration(
            per_layer,
            list(self.prefill_instance.gpus),
            list(self.decode_instance.gpus),
        )

    def complete_handoff(self, request: Request) -> None:
        """Called when a request's prefill finishes on the prefill instance."""
        ready = request.extra.pop("handoff_ready", None)
        request.phase = Phase.TRANSFERRING
        if ready is None:
            self._handoff.append(request)
            self.pump_handoffs()
            return
        src_epoch = request.extra.pop("handoff_src_epoch", None)
        dst_epoch = request.extra.pop("handoff_dst_epoch", None)
        at = max(self.sim.now, ready)
        self.sim.call_at(
            at, self._handoff_arrive, request, src_epoch, dst_epoch, self.crash_epoch
        )

    def pump_handoffs(self) -> None:
        """Post-prefill (fallback) transfers, DistServe-style serialization."""
        if self.halted or self.prefill_instance.failed or self.decode_instance.failed:
            return
        decode = self.decode_instance
        while self._handoff:
            request = self._handoff[0]
            if not decode.kv.can_allocate(request.context_tokens):
                self.metrics.bump("handoff_blocked")
                break
            self._handoff.popleft()
            decode.kv.allocate(request.request_id, request.context_tokens)
            # ``prefilled_tokens`` equals ``prompt_tokens`` on a first pass
            # and the full recomputed context after crash recovery.
            nbytes = int(request.prefilled_tokens * self.config.model.kv_bytes_per_token)
            self.transfers.transfer(
                nbytes,
                list(self.prefill_instance.gpus),
                list(decode.gpus),
                on_complete=lambda job, r=request, se=self.prefill_instance.epoch, de=decode.epoch, ce=self.crash_epoch: self._handoff_arrive(r, se, de, ce),
                kind="kv-handoff",
                request_id=request.request_id,
                request=request,
                sys_epoch=self.crash_epoch,
            )

    def _handoff_arrive(
        self,
        request: Request,
        src_epoch: Optional[int] = None,
        dst_epoch: Optional[int] = None,
        sys_epoch: Optional[int] = None,
    ) -> None:
        if self.halted or request.finished:
            return
        if sys_epoch is not None and sys_epoch != self.crash_epoch:
            # The whole system crashed while the copy flew: the fleet
            # re-owns every request that was in flight here, so this stale
            # arrival must not re-queue it locally.
            return
        if request.phase is not Phase.TRANSFERRING:
            return  # re-queued by a failure handler while the copy flew
        prefill, decode = self.prefill_instance, self.decode_instance
        if src_epoch is not None and src_epoch != prefill.epoch:
            # The source crashed mid-copy: the decode-side bytes are torn.
            if decode.kv.has(request.request_id):
                decode.kv.free(request.request_id)
            self.metrics.bump("torn_handoff")
            self._requeue_after_crash(request)
            return
        if decode.failed or (dst_epoch is not None and dst_epoch != decode.epoch):
            # The destination lost its allocation: park in the blocking
            # queue; the transfer re-runs once the instance is back.
            self._handoff.appendleft(request)
            self.metrics.bump("handoff_deferred")
            self.pump_handoffs()
            return
        self._finish_prefill_side(request)
        request.phase = Phase.WAITING_DECODE
        decode.enqueue(request)

    # -- crash recovery ---------------------------------------------------------

    def _requeue_after_crash(self, request: Request) -> None:
        """Re-queue a request whose decode-side KV died.

        Exploits §3.3 backups: when the prefill instance still holds the
        prompt KV, only the tokens generated since hand-off are recomputed
        (the request re-enters the prefilling set with its backup extended);
        otherwise the full context re-prefills from the prompt.
        """
        if request.finished:
            return
        request.extra.pop("chunk_in_flight", None)
        request.extra.pop("handoff_ready", None)
        request.extra.pop("handoff_src_epoch", None)
        request.extra.pop("handoff_dst_epoch", None)
        request.extra.pop("migrating", None)
        prefill = self.prefill_instance
        backed = self.backups.pop(request.request_id, 0)
        if backed and not prefill.failed and prefill.kv.has(request.request_id):
            request.prefill_required = request.context_tokens
            request.prefilled_tokens = min(backed, request.context_tokens)
            request.recompute_count += 1
            request.phase = Phase.WAITING_PREFILL
            prefill.prefilling.append(request)
            self.metrics.bump("backup_restore")
        else:
            request.restart_prefill()
            # Parks in the waiting queue if the prefill instance is also
            # down; drains at its recovery.
            prefill.waiting.append(request)
        self._mark_requeued(request)
        prefill.kick()

    def recover_lost_requests(self, instance, lost: list[Request]) -> None:
        # Stable tier order: interactive re-queues ahead of best-effort.
        lost = tier_ordered(lost)
        if instance is self.decode_instance:
            for request in lost:
                self._requeue_after_crash(request)
        else:
            decode = self.decode_instance
            for request in lost:
                if request.finished:
                    continue
                if "handoff_ready" in request.extra and decode.kv.has(
                    request.request_id
                ):
                    # An async hand-off was mid-flight when the source died:
                    # release the decode-side reservation (the bytes are torn).
                    decode.kv.free(request.request_id)
                request.extra.pop("handoff_src_epoch", None)
                request.extra.pop("handoff_dst_epoch", None)
                self._reset_for_requeue(request)
                self.prefill_instance.waiting.append(request)
            self.prefill_instance.kick()

    def on_instance_crashed(self, instance) -> None:
        for request in self.migrations.handle_instance_failure(instance):
            self._stash_orphan(instance, request)
        if instance is self.prefill_instance:
            # Backup KV died with the pool, and queued hand-offs lost their
            # source copy: both must recompute from the prompt.
            self.backups.clear()
            while self._handoff:
                self._stash_orphan(instance, self._handoff.popleft())

    def after_recovery(self, instance) -> None:
        instance.kick()
        self.prefill_instance.kick()
        self.pump_handoffs()

    def on_transfer_failed(self, job) -> None:
        if self.halted:
            return
        launched_epoch = job.meta.get("sys_epoch")
        if launched_epoch is not None and launched_epoch != self.crash_epoch:
            return  # launched before a whole-system crash; the fleet re-owns
        request_id = job.meta.get("request_id")
        if job.kind in ("migration-bulk", "migration-residual"):
            state = self.migrations.active.get(request_id)
            if state is not None:
                self.migrations.abort_transfer_failure(state)
            return
        request = job.meta.get("request")
        if request is None or request.finished:
            return
        decode, prefill = self.decode_instance, self.prefill_instance
        if decode.kv.has(request_id):
            decode.kv.free(request_id)
        if not request.prefill_done:
            # A kv-async copy failed while the prefill pass is still
            # running: fall back to the post-prefill blocking hand-off.
            request.extra.pop("handoff_ready", None)
            request.extra.pop("handoff_src_epoch", None)
            request.extra.pop("handoff_dst_epoch", None)
            return
        self.consume_backup(request)
        if not prefill.failed and prefill.kv.has(request_id):
            prefill.kv.free(request_id)
        request.restart_prefill()
        self._mark_requeued(request)
        prefill.enqueue(request)

    # -- KV backups (§3.3) -----------------------------------------------------

    def _finish_prefill_side(self, request: Request) -> None:
        """Free the prefill instance's copy of the KV, or retain it as backup."""
        cfg = self.ws_config
        prefill, decode = self.prefill_instance, self.decode_instance
        keep = (
            not prefill.failed
            and cfg.backup_enabled
            and request.prompt_tokens >= cfg.backup_min_prompt_tokens
            and prefill.kv.gpu_capacity_blocks > 0
            and prefill.kv.free_gpu_blocks / prefill.kv.gpu_capacity_blocks
            > cfg.backup_prefill_free_frac
            and decode.kv.free_gpu_blocks / max(1, decode.kv.gpu_capacity_blocks)
            < cfg.backup_decode_pressure_frac
        )
        if keep:
            self.backups[request.request_id] = request.prompt_tokens
            self.metrics.bump("backup_kept")
        else:
            prefill.kv.free(request.request_id)
        prefill.kick()

    def backup_tokens(self, request: Request) -> int:
        return self.backups.get(request.request_id, 0)

    def consume_backup(self, request: Request) -> None:
        self.backups.pop(request.request_id, None)

    def evict_backups(self, tokens_needed: int) -> None:
        """Drop backups (oldest first) until ``tokens_needed`` KV fits."""
        prefill = self.prefill_instance
        for request_id in list(self.backups):
            if prefill.kv.can_allocate(tokens_needed):
                return
            del self.backups[request_id]
            prefill.kv.free(request_id)
            self.metrics.bump("backup_evicted")

    # -- rescheduling -------------------------------------------------------------

    def maybe_reschedule(self) -> None:
        if self.halted:
            return
        self.migrations.maybe_reschedule()

    # -- events ---------------------------------------------------------------------

    def on_request_finished(self, request: Request, instance) -> None:
        if request.request_id in self.backups:
            del self.backups[request.request_id]
            self.prefill_instance.kv.free(request.request_id)
        self.pump_handoffs()
