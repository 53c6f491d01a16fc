"""Dynamic Rescheduling with stall-free migration (paper §3.2.2 and §3.3).

When the decode instance's free KV blocks fall below a watermark, WindServe
migrates the *longest-context* running requests to the prefill instance
(freeing the most blocks per migration — the opposite of Llumnix's
shortest-first policy, as the paper notes).  Migration is *stall-free*:

1. **Bulk leg** — the request's KV at migration start is transferred while
   the request keeps decoding on the decode instance (new tokens' KV keeps
   being produced there).
2. **Residual leg** — once the bulk arrives, the KV produced meanwhile is
   small (bounded by ``migration_pause_iterations`` worth of tokens); the
   request pauses, the residual transfers, and decoding resumes on the
   prefill instance.

If the request was *backed up* (the prefill instance retained its prompt KV
after hand-off, §3.3), the bulk leg shrinks by the backed-up bytes — often
to nearly nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.serving.request import Phase, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.windserve import WindServeSystem


@dataclass
class MigrationState:
    """Tracking for one in-flight stall-free migration."""

    request: Request
    context_at_start: int
    bulk_bytes: int
    leg: int = 1


class MigrationManager:
    """Executes Dynamic Rescheduling decisions for a WindServe system."""

    def __init__(self, system: "WindServeSystem") -> None:
        self.system = system
        self.active: dict[int, MigrationState] = {}

    # -- trigger -------------------------------------------------------------

    def maybe_reschedule(self) -> None:
        """Migrate long-context requests while decode KV is below watermark."""
        cfg = self.system.ws_config
        if not cfg.rescheduling_enabled:
            return
        decode = self.system.decode_instance
        prefill = self.system.prefill_instance
        if decode.failed or prefill.failed:
            return
        total = decode.kv.gpu_capacity_blocks
        if total <= 0:
            return
        free_frac = decode.kv.free_gpu_blocks / total

        if free_frac >= cfg.reschedule_watermark_frac:
            return
        candidates = sorted(
            (
                r
                for r in decode.running_requests
                if r.request_id not in self.active and r.decode_iterations_remaining > 2
            ),
            key=lambda r: r.context_tokens,
            reverse=(cfg.reschedule_policy == "longest-context"),
        )
        projected_free = decode.kv.free_gpu_blocks
        for request in candidates:
            if projected_free / total >= cfg.reschedule_stop_frac:
                break
            headroom = cfg.migration_pause_iterations + 4
            needed = request.context_tokens + headroom
            backed = self.system.backup_tokens(request)
            extra_needed = max(0, needed - backed)
            if backed:
                if not prefill.kv.can_extend(request.request_id, extra_needed):
                    continue
            elif not prefill.kv.can_allocate(needed):
                break
            self._start(request)
            projected_free += decode.kv.get(request.request_id).blocks

    # -- state machine -----------------------------------------------------------

    def _start(self, request: Request) -> None:
        system = self.system
        spec = system.config.model
        backed = system.backup_tokens(request)
        bulk_tokens = max(0, request.context_tokens - backed)
        bulk_bytes = int(bulk_tokens * spec.kv_bytes_per_token)
        prefill = system.prefill_instance
        if backed:
            prefill.kv.extend(request.request_id, max(0, request.context_tokens - backed))
            system.consume_backup(request)
        else:
            prefill.kv.allocate(request.request_id, request.context_tokens)
        state = MigrationState(
            request=request,
            context_at_start=request.context_tokens,
            bulk_bytes=bulk_bytes,
        )
        self.active[request.request_id] = state
        request.extra["migrating"] = True
        system.metrics.bump("reschedule_started")
        system.trace.emit(
            system.sim.now,
            "global-scheduler",
            "migration-start",
            request_id=request.request_id,
            bulk_bytes=bulk_bytes,
            backed_tokens=backed,
        )
        system.transfers.transfer(
            bulk_bytes,
            list(system.decode_instance.gpus),
            list(prefill.gpus),
            on_complete=lambda job, s=state: self._bulk_done(s),
            kind="migration-bulk",
            request_id=request.request_id,
        )

    def _bulk_done(self, state: MigrationState) -> None:
        system = self.system
        if system.halted:
            return
        request = state.request
        if self.active.get(request.request_id) is not state:
            return  # cancelled by a crash or transfer-failure handler
        if request.finished:
            self._abort(state)
            return
        # Pause: remove from its decode lane (or the swap queue, if memory
        # pressure preempted it mid-migration) and transfer the KV generated
        # during the bulk leg (the stall window the paper bounds).
        decode = system.decode_instance
        for lane in decode.lanes:
            if request in lane.running:
                lane.remove(request)
                break
        if request in decode.swapped:
            decode.swapped.remove(request)
        request.phase = Phase.MIGRATING
        delta_tokens = max(0, request.context_tokens - state.context_at_start)
        if delta_tokens and system.prefill_instance.kv.can_extend(
            request.request_id, delta_tokens
        ):
            system.prefill_instance.kv.extend(request.request_id, delta_tokens)
        residual_bytes = int(delta_tokens * system.config.model.kv_bytes_per_token)
        state.leg = 2
        system.transfers.transfer(
            residual_bytes,
            list(system.decode_instance.gpus),
            list(system.prefill_instance.gpus),
            on_complete=lambda job, s=state: self._residual_done(s),
            kind="migration-residual",
            request_id=request.request_id,
        )

    def _residual_done(self, state: MigrationState) -> None:
        system = self.system
        if system.halted:
            return
        request = state.request
        if self.active.get(request.request_id) is not state:
            return  # cancelled by a crash or transfer-failure handler
        self.active.pop(request.request_id, None)
        request.extra.pop("migrating", None)
        if request.finished:  # defensive: cannot normally finish while paused
            system.prefill_instance.kv.free(request.request_id)
            return
        # Free the decode-side blocks — this is the whole point.
        system.decode_instance.kv.free(request.request_id)
        request.migration_count += 1
        system.metrics.bump("reschedule_completed")
        system.trace.emit(
            system.sim.now,
            "global-scheduler",
            "migration-done",
            request_id=request.request_id,
        )
        system.prefill_instance.start_decoding(request)
        system.prefill_instance.kick()
        system.decode_instance.kick()
        system.pump_handoffs()

    def _abort(self, state: MigrationState) -> None:
        """Request finished during the bulk leg: drop the prefill-side copy."""
        request = state.request
        self.active.pop(request.request_id, None)
        request.extra.pop("migrating", None)
        self.system.prefill_instance.kv.free(request.request_id)
        self.system.metrics.bump("reschedule_aborted")

    # -- failure handling -------------------------------------------------------

    def handle_instance_failure(self, instance) -> list[Request]:
        """Cancel migrations touching a crashed ``instance``.

        Returns the requests that are now orphaned (their only live KV copy
        died mid-migration) so the system can re-queue them.  Requests whose
        surviving-side copy is complete are resumed in place instead.
        """
        system = self.system
        decode = system.decode_instance
        prefill = system.prefill_instance
        rescued: list[Request] = []
        for state in list(self.active.values()):
            request = state.request
            self.active.pop(request.request_id, None)
            request.extra.pop("migrating", None)
            if instance is decode:
                # Source died: the decode-side KV (the authoritative copy)
                # is gone and the prefill-side copy is incomplete.
                if not prefill.failed and prefill.kv.has(request.request_id):
                    prefill.kv.free(request.request_id)
                if not request.finished:
                    rescued.append(request)
            else:
                # Destination died (its partial copy was freed by ``fail``).
                # A leg-1 request is still decoding normally; a paused leg-2
                # request resumes on the decode instance, whose KV is intact.
                if not request.finished and request.phase is Phase.MIGRATING:
                    decode.start_decoding(request)
            system.metrics.bump("reschedule_aborted")
        if instance is not decode:
            decode.kick()
        return rescued

    def abort_transfer_failure(self, state: MigrationState) -> None:
        """A migration leg's transfer failed permanently: cancel in place.

        The decode-side KV is untouched, so the request either keeps
        decoding (bulk leg) or resumes where it paused (residual leg).
        """
        system = self.system
        request = state.request
        if self.active.get(request.request_id) is not state:
            return
        self.active.pop(request.request_id, None)
        request.extra.pop("migrating", None)
        prefill = system.prefill_instance
        if not prefill.failed and prefill.kv.has(request.request_id):
            prefill.kv.free(request.request_id)
        if not request.finished and request.phase is Phase.MIGRATING:
            system.decode_instance.start_decoding(request)
        system.metrics.bump("reschedule_aborted")
        system.decode_instance.kick()

    # -- queries ----------------------------------------------------------------

    def is_migrating(self, request: Request) -> bool:
        return request.request_id in self.active
