"""Generic serving instance: execution lanes, KV pool, swap machinery.

An :class:`Instance` owns a set of GPUs running one model replica with a
given parallelism.  It executes one batch per *lane* at a time — a lane is a
pipeline-parallel interleave slot, so a ``PP-2`` instance keeps two batches
in flight, which models pipeline throughput without simulating per-stage
micro-batches.

Subclasses implement the scheduling policy by overriding ``_form_batch``
(what to run next on a free lane) and ``_on_batch_complete`` (what the
results mean).  Shared machinery here covers continuous-batching decode
iterations, KV growth, and CPU swap preemption — the substrate every system
in the paper builds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.hardware.gpu import GB, GPUSpec
from repro.kvcache.blocks import BlockLocation, KVBlockManager
from repro.kvcache.transfer import KVTransferEngine
from repro.models.parallelism import ParallelConfig
from repro.models.spec import ModelSpec
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import LatencyModel
from repro.policies.preemption import PREEMPTION_POLICIES
from repro.serving.batching import Batch
from repro.serving.metrics import MetricsCollector
from repro.serving.request import TIER_PRIORITY, Phase, Request
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.system import ServingSystem


@dataclass(frozen=True)
class InstanceConfig:
    """Tunables shared by all instance types."""

    block_size: int = 16
    activation_reserve_gb: float = 8.0
    cpu_swap_gb: float = 128.0
    max_prefill_tokens_per_batch: int = 8192
    max_decode_batch_size: int = 256
    max_batched_tokens: int = 512  # chunked-prefill budget per hybrid iteration
    preemption_mode: str = "swap"  # "swap" (to CPU DRAM) or "recompute"
    swap_in_free_blocks: int = 64
    kv_capacity_override_tokens: Optional[int] = None
    # Swap-victim selection policy name (see repro.policies.preemption).
    preemption_policy: str = "latest-arrived"
    # Automatic prefix caching (repro.kvcache.prefix): tokens of warm
    # shared-prefix KV this instance may keep resident.  0 (the default)
    # disables the cache entirely, keeping prefix-free runs byte-identical.
    prefix_cache_tokens: int = 0


class Lane:
    """One pipeline interleave slot: runs one batch at a time.

    ``running`` is read-only outside this class: membership changes go
    through :meth:`add`/:meth:`remove`/:meth:`clear`, which keep
    ``members`` (the same requests as a set, for O(1) membership tests)
    and ``context`` (the summed ``context_tokens`` of ``running``) exact,
    so batch formers read the decode context in O(1).  The only other writer
    of ``context`` is :meth:`Instance.finish_decode_iteration`, which adds
    one per token it appends to a running request.
    """

    __slots__ = (
        "index", "busy", "busy_until", "running", "members", "context", "current_batch"
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy = False
        self.busy_until = 0.0
        self.running: list[Request] = []
        self.members: set[Request] = set()
        self.context = 0
        # The batch in flight; pure-prefill batch members may live in no
        # other pool, so crash handling must be able to find them here.
        self.current_batch: Optional[Batch] = None

    @property
    def batch_size(self) -> int:
        return len(self.running)

    def add(self, request: Request) -> None:
        self.running.append(request)
        self.members.add(request)
        self.context += request.context_tokens

    def remove(self, request: Request) -> None:
        self.running.remove(request)
        self.members.discard(request)
        self.context -= request.context_tokens

    def clear(self) -> None:
        self.running.clear()
        self.members.clear()
        self.context = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lane({self.index}, busy={self.busy}, running={len(self.running)})"


class Instance:
    """Base serving instance; see module docstring."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        spec: ModelSpec,
        gpu: GPUSpec,
        parallel: ParallelConfig,
        gpus: tuple[int, ...],
        metrics: MetricsCollector,
        transfers: KVTransferEngine,
        config: InstanceConfig,
        contention: Optional[StreamContentionModel] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        if len(gpus) != parallel.num_gpus:
            raise ValueError(
                f"{name}: placement has {len(gpus)} GPUs but parallelism "
                f"{parallel.label()} needs {parallel.num_gpus}"
            )
        self.name = name
        self.sim = sim
        self.spec = spec
        self.gpu = gpu
        self.parallel = parallel
        self.gpus = gpus
        self.metrics = metrics
        self.transfers = transfers
        self.config = config
        self.contention = contention or StreamContentionModel()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.latency = LatencyModel(spec, gpu, parallel)
        self.preemption = PREEMPTION_POLICIES.create(config.preemption_policy)
        self.system: Optional["ServingSystem"] = None

        self.kv = KVBlockManager(
            gpu_capacity_tokens=self._kv_capacity_tokens(),
            cpu_capacity_tokens=int(config.cpu_swap_gb * GB / spec.kv_bytes_per_token),
            block_size=config.block_size,
            bytes_per_token=spec.kv_bytes_per_token,
        )
        self.prefix_cache = self._build_prefix_cache()
        self.lanes = [Lane(i) for i in range(parallel.pp)]
        self.waiting: deque[Request] = deque()
        self.swapped: list[Request] = []
        self._swapping_in: set[int] = set()
        self.paused_until = 0.0
        self.halted = False  # failure injection: drop all future work
        # Recoverable-failure state (chaos injection).  ``failed`` is ground
        # truth (transport-level guards); schedulers must instead consult
        # ``system.known_failed``, filled at heartbeat detection.  ``epoch``
        # increments on every fail so stale completions/transfer callbacks
        # from before a crash can be recognised and dropped.
        self.failed = False
        self.epoch = 0
        self.compute_slowdown = 1.0  # straggler injection; 1.0 == healthy
        self.retired_kv: list[KVBlockManager] = []

    # -- construction helpers ----------------------------------------------

    def _build_prefix_cache(self):
        """A prefix cache over the current pool, or None when disabled.

        A rebuilt cache (recovery, reconfiguration) starts cold but keeps
        the old index's cumulative stats, so ``tokens_served`` stays equal
        to the instance's ``prefix_tokens_saved`` counter across rebuilds.
        """
        if self.config.prefix_cache_tokens <= 0:
            return None
        from repro.kvcache.prefix import PrefixCacheIndex

        cache = PrefixCacheIndex(self.kv, self.config.prefix_cache_tokens)
        old = getattr(self, "prefix_cache", None)
        if old is not None:
            cache.stats = old.stats
        return cache

    def inherit(self, old: "Instance") -> None:
        """Take over the history of the instance this one replaces: its KV
        ledgers (archived into ``retired_kv`` for the freed-exactly-once
        audit) and its prefix-cache stats (for the saved-tokens ledger)."""
        self.retired_kv.extend(old.retired_kv + [old.kv])
        if self.prefix_cache is not None and old.prefix_cache is not None:
            self.prefix_cache.stats = old.prefix_cache.stats

    def _kv_capacity_tokens(self) -> int:
        if self.config.kv_capacity_override_tokens is not None:
            return self.config.kv_capacity_override_tokens
        per_gpu_budget = (
            self.gpu.hbm_capacity_bytes
            - self.parallel.weight_bytes_per_gpu(self.spec)
            - int(self.config.activation_reserve_gb * GB)
        )
        if per_gpu_budget <= 0:
            raise ValueError(
                f"{self.name}: model weights do not fit — "
                f"{self.spec.name} on {self.parallel.num_gpus}x {self.gpu.name}"
            )
        total = per_gpu_budget * self.parallel.num_gpus
        return int(total / self.spec.kv_bytes_per_token)

    # -- queue API ------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Add a request to this instance's waiting queue.

        FCFS within a tier; a higher-tier request is inserted ahead of all
        queued lower-tier work (never ahead of its own tier), so interactive
        traffic jumps best-effort backlogs while single-tier workloads keep
        the exact FCFS order the tier-free goldens pin down.

        Fair-share admission stamps a WFQ virtual-time key into
        ``extra["fs_key"]``; within an equal tier, a keyed request is
        inserted ahead of keyed work with a strictly larger key (FIFO on
        ties and against unkeyed work), so tenant fairness orders the
        queue *inside* the tier bands without touching tier priority.
        Key-free runs take the exact pre-existing path.
        """
        rank = TIER_PRIORITY[request.tier]
        key = request.extra.get("fs_key")
        slot = len(self.waiting)
        if key is None:
            while slot > 0 and TIER_PRIORITY[self.waiting[slot - 1].tier] > rank:
                slot -= 1
        else:
            while slot > 0:
                ahead = self.waiting[slot - 1]
                ahead_rank = TIER_PRIORITY[ahead.tier]
                if ahead_rank > rank:
                    slot -= 1
                    continue
                if ahead_rank == rank:
                    ahead_key = ahead.extra.get("fs_key")
                    if ahead_key is not None and ahead_key > key:
                        slot -= 1
                        continue
                break
        if slot == len(self.waiting):
            self.waiting.append(request)
        else:
            self.waiting.insert(slot, request)
        self.kick()

    @property
    def running_requests(self) -> list[Request]:
        return [r for lane in self.lanes for r in lane.running]

    @property
    def total_running(self) -> int:
        return sum(lane.batch_size for lane in self.lanes)

    def queued_prefill_tokens(self) -> int:
        """Prompt tokens waiting in the queue (the Profiler's overload input)."""
        return sum(r.remaining_prefill_tokens for r in self.waiting)

    # -- execution loop ----------------------------------------------------------

    def kick(self) -> None:
        """Try to start work on every idle lane."""
        if self.halted or self.failed:
            return
        if self.sim.now < self.paused_until - 1e-12:
            return  # replanning stall: whoever paused us schedules the resume
        self._try_swap_in()
        for lane in self.lanes:
            if lane.busy:
                continue
            batch = self._form_batch(lane)
            if batch is None:
                continue
            self._execute(lane, batch)

    def _execute(self, lane: Lane, batch: Batch) -> None:
        # ``* 1.0`` is bit-exact: healthy runs are byte-identical to runs
        # without the straggler machinery.
        duration = batch.duration * self.compute_slowdown
        lane.busy = True
        lane.current_batch = batch
        lane.busy_until = self.sim.now + duration
        if batch.timing is not None:
            self.metrics.record_batch(
                self.name,
                duration,
                batch.timing.compute_time,
                batch.timing.io_time,
                lanes=len(self.lanes),
            )
        self.trace.emit(
            self.sim.now,
            self.name,
            "batch-start",
            kind=batch.kind,
            prefill_tokens=batch.prefill_tokens,
            decode_batch=batch.decode_batch_size,
            duration=duration,
        )
        self.sim.schedule(duration, self._complete, lane, batch, self.epoch)

    def _complete(self, lane: Lane, batch: Batch, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self.epoch:
            return  # launched before a crash; the results died with the node
        lane.busy = False
        lane.current_batch = None
        if self.halted or self.failed:
            return  # the node died mid-batch; results are lost
        self._on_batch_complete(lane, batch)
        self.kick()

    # -- policy hooks (subclasses override) -----------------------------------------

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        raise NotImplementedError

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        raise NotImplementedError

    # -- shared decode machinery ------------------------------------------------

    def least_loaded_lane(self) -> Lane:
        return min(self.lanes, key=lambda lane: lane.batch_size)

    def start_decoding(self, request: Request, lane: Optional[Lane] = None) -> None:
        """Place a request (whose KV is resident here) into a decode lane."""
        target = lane or self.least_loaded_lane()
        request.phase = Phase.DECODING
        target.add(request)

    def finish_decode_iteration(self, lane: Lane, batch: Batch) -> None:
        """Apply the results of one decode iteration: grow KV, emit tokens,
        retire finished requests, preempt under memory pressure.

        Requests are visited in batch order.  A token that fits the
        request's last KV block is appended in place (the
        :meth:`KVBlockManager.appends_in_place` contract, inlined); only a
        block-boundary crossing takes :meth:`_grow_kv`, at the same loop
        position, so preemption victims are chosen against the same state.
        ``_grow_kv`` and ``_retire`` can reach listeners that replace
        ``self.kv``, so the allocation map is re-read after each.
        """
        now = self.sim.now
        members = lane.members
        allocations = self.kv.allocations
        block_size = self.config.block_size
        gpu = BlockLocation.GPU
        for request in batch.decode_requests:
            if request not in members:
                continue  # migrated or preempted mid-flight
            alloc = allocations.get(request.request_id)
            if (
                alloc is not None
                and alloc.tokens < alloc.blocks * block_size
                and alloc.location is gpu
            ):
                alloc.tokens += 1
            else:
                grown = self._grow_kv(lane, request)
                allocations = self.kv.allocations
                if not grown:
                    continue  # the request itself was preempted to CPU swap
            request.output_generated += 1
            lane.context += 1
            if request.output_generated >= request.output_tokens:
                lane.remove(request)
                self._retire(request, now)
                allocations = self.kv.allocations

    def _grow_kv(self, lane: Lane, request: Request) -> bool:
        """Reserve KV for the request's next token, preempting if needed.

        Returns False when the request itself had to be swapped out (its
        token is not counted; it resumes after swap-in)."""
        while not self.kv.can_extend(request.request_id, 1):
            victim = self._pick_swap_victim(exclude=request)
            if victim is None:
                victim = request
            self._preempt(victim)
            if victim is request:
                return False
        self.kv.extend(request.request_id, 1)
        return True

    def _preempt(self, victim: Request) -> None:
        """Evict a running request's KV: CPU swap or recompute, per config."""
        if self.config.preemption_mode == "recompute" and self._supports_recompute():
            self._recompute_preempt(victim)
        else:
            self._swap_out(victim)

    def _supports_recompute(self) -> bool:
        """Only instances that can run prefill locally may recompute."""
        return False

    def _recompute_preempt(self, victim: Request) -> None:
        """Drop the victim's KV and requeue it for a full re-prefill."""
        for lane in self.lanes:
            if victim in lane.running:
                lane.remove(victim)
                break
        self.kv.free(victim.request_id)
        victim.restart_prefill()
        self.metrics.bump("recompute_preempt")
        self.waiting.appendleft(victim)
        self.trace.emit(
            self.sim.now, self.name, "recompute-preempt", request_id=victim.request_id
        )

    def _retire(self, request: Request, now: float) -> None:
        request.phase = Phase.FINISHED
        request.finish_time = now
        self.kv.free(request.request_id)
        self.metrics.record_completion(request)
        self.trace.emit(now, self.name, "finish", request_id=request.request_id)
        if self.system is not None:
            self.system.on_request_finished(request, self)
            for listener in list(self.system.finish_listeners):
                listener(request, self)

    # -- swapping ----------------------------------------------------------------

    def swap_candidates(self, exclude: Optional[Request] = None) -> list[Request]:
        """Running requests *eligible* for preemption.

        Subclasses narrow eligibility (e.g. a mid-migration request must not
        be evicted); the preemption policy only orders this set.
        """
        return [r for r in self.running_requests if r is not exclude]

    def _pick_swap_victim(self, exclude: Optional[Request] = None) -> Optional[Request]:
        return self.preemption.pick_swap_victim(self, exclude)

    def _swap_out(self, victim: Request) -> None:
        for lane in self.lanes:
            if victim in lane.running:
                lane.remove(victim)
                break
        victim.phase = Phase.SWAPPED
        victim.swap_out_count += 1
        self.metrics.bump("swap_out")
        nbytes = self.kv.swap_out(victim.request_id)
        self.transfers.swap(nbytes, list(self.gpus), kind="swap-out")
        self.swapped.append(victim)
        self.trace.emit(
            self.sim.now, self.name, "swap-out", request_id=victim.request_id, nbytes=nbytes
        )

    def _swap_in_watermark(self) -> int:
        """Free blocks required before swapping back in (scaled for small pools)."""
        return min(self.config.swap_in_free_blocks, max(1, self.kv.gpu_capacity_blocks // 20))

    def _try_swap_in(self) -> None:
        if not self.swapped:
            return
        # Drop entries whose allocation left this instance (e.g. migrated away).
        self.swapped = [r for r in self.swapped if self.kv.has(r.request_id)]
        while (
            self.swapped
            and self.kv.free_gpu_blocks >= self._swap_in_watermark()
            and self.kv.can_swap_in(self.swapped[0].request_id)
        ):
            request = self.swapped.pop(0)
            if request.request_id in self._swapping_in:
                continue
            self._swapping_in.add(request.request_id)
            nbytes = self.kv.swap_in(request.request_id)
            self.metrics.bump("swap_in")
            self.transfers.swap(
                nbytes,
                list(self.gpus),
                on_complete=lambda job, r=request: self._swap_in_done(r),
                kind="swap-in",
            )

    def _swap_in_done(self, request: Request) -> None:
        self._swapping_in.discard(request.request_id)
        if self.halted or self.failed:
            return
        if request.finished or not self.kv.has(request.request_id):
            return  # retired or migrated away while the copy was in flight
        if request.extra.get("migrating") or request.phase == Phase.MIGRATING:
            return  # the migration manager owns this request now
        self.start_decoding(request)
        self.trace.emit(self.sim.now, self.name, "swap-in", request_id=request.request_id)
        self.kick()

    # -- automatic prefix caching ------------------------------------------------

    def _apply_prefix_hit(self, request: Request) -> int:
        """Try to serve ``request``'s shared prefix from the warm cache.

        On a hit the request's ``prefilled_tokens`` is preset (the same
        shortened-prefill mechanism §3.3 backup re-prefill uses) so the
        batch former only schedules the uncached suffix.  At most one
        attempt per (request, instance): the grant is memoised in
        ``request.extra`` and a reference is held on the cache entry until
        :meth:`_settle_prefix` releases it at prefill completion.  Returns
        the tokens skipped (0 on miss / cache off / no shared prefix).
        """
        cache = self.prefix_cache
        if cache is None or request.prefix_hash == 0:
            return 0
        if "prefix_cached" in request.extra:
            return request.extra["prefix_cached"]
        if (
            request.prefilled_tokens
            or request.output_generated
            or request.recompute_count
        ):
            return 0  # only a fresh first prefill can reuse; re-prefills recompute
        want = min(request.prefix_len, request.prefill_required - 1)
        if want <= 0:
            return 0
        cached = cache.acquire(request.request_id, request.prefix_hash, want)
        request.extra["prefix_cached"] = cached
        if cached:
            request.prefilled_tokens = cached
            self.metrics.bump("prefix_hits")
            self.metrics.bump("prefix_tokens_saved", cached)
            self.trace.emit(
                self.sim.now,
                self.name,
                "prefix-hit",
                request_id=request.request_id,
                tokens=cached,
            )
        else:
            self.metrics.bump("prefix_misses")
        return cached

    def _settle_prefix(self, request: Request) -> None:
        """Prefill finished: release the request's warm-prefix hold, or —
        if it computed a cold prefix from scratch — publish it for
        followers."""
        cache = self.prefix_cache
        if cache is None or request.prefix_hash == 0:
            return
        if cache.holding(request.request_id):
            cache.release(request.request_id)
            return
        if request.recompute_count or request.output_generated > 1:
            return  # recomputes / restarted decodes don't publish
        tokens = min(request.prefix_len, request.prefill_required - 1)
        if tokens > 0 and cache.insert(request.prefix_hash, tokens):
            self.metrics.bump("prefix_inserts")
            self.trace.emit(
                self.sim.now,
                self.name,
                "prefix-insert",
                request_id=request.request_id,
                prefix_hash=request.prefix_hash,
                tokens=tokens,
            )

    # -- recoverable failures (chaos injection) ----------------------------------

    def fail(self) -> list[Request]:
        """Crash this instance: all resident KV and in-flight work is lost.

        Returns the unfinished requests that were resident here so the
        system can stash them for re-queueing once the failure is
        *detected* (schedulers do not learn of the crash until the
        heartbeat monitor declares it).  Unlike :meth:`ServingSystem.halt`,
        a failed instance can later :meth:`recover`.
        """
        if self.failed or self.halted:
            return []
        self.failed = True
        self.epoch += 1
        lost: dict[int, Request] = {}

        def collect(requests) -> None:
            for request in requests:
                if request is not None and not request.finished:
                    lost.setdefault(request.request_id, request)

        for lane in self.lanes:
            collect(lane.running)
            if lane.current_batch is not None:
                # Pure-prefill batch members live in no other pool.
                collect(lane.current_batch.prefill_requests)
                collect(lane.current_batch.decode_requests)
                lane.current_batch = None
            lane.clear()
            lane.busy = False
            lane.busy_until = 0.0
        collect(self.waiting)
        self.waiting.clear()
        collect(self.swapped)
        self.swapped.clear()
        self._swapping_in.clear()
        prefilling = getattr(self, "prefilling", None)
        if prefilling is not None:
            collect(list(prefilling))
            prefilling.clear()
        assist = getattr(self, "assist", None)
        if assist is not None:
            collect(list(assist.queue))
            assist.queue.clear()
            if assist.active is not None:
                collect([assist.active.request])
                assist.active = None
        # HBM contents are gone: free every allocation (GPU and CPU-swap)
        # so the pool's alloc/free ledger stays balanced.
        for alloc in self.kv.residents(BlockLocation.GPU) + self.kv.residents(
            BlockLocation.CPU
        ):
            self.kv.free(alloc.request_id)
        if self.prefix_cache is not None:
            # The residents sweep above already freed the cache's blocks;
            # reset() forgets the entries without double-freeing.
            self.prefix_cache.reset()
        self.metrics.bump("instance_crash")
        return list(lost.values())

    def recover(self) -> None:
        """Bring a failed instance back with an empty, fresh KV pool."""
        if not self.failed:
            return
        self.failed = False
        # Keep the (fully freed) crashed pool so post-run audits can check
        # the KV ledger across the instance's whole history.
        self.retired_kv.append(self.kv)
        self.kv = KVBlockManager(
            gpu_capacity_tokens=self._kv_capacity_tokens(),
            cpu_capacity_tokens=int(
                self.config.cpu_swap_gb * GB / self.spec.kv_bytes_per_token
            ),
            block_size=self.config.block_size,
            bytes_per_token=self.spec.kv_bytes_per_token,
        )
        # The recovered instance comes back with a cold prefix cache over
        # the fresh pool.
        self.prefix_cache = self._build_prefix_cache()
        self.lanes = [Lane(i) for i in range(self.parallel.pp)]
        self.swapped = []
        self._swapping_in = set()
        self.metrics.bump("instance_recover")
        if self.system is not None:
            self.system.on_instance_recovered(self)
        self.kick()

    def sweep_waiting(self) -> list[Request]:
        """Drain the waiting queue (arrivals routed here between the crash
        and its detection); the system re-queues them elsewhere."""
        lost = [r for r in self.waiting if not r.finished]
        self.waiting.clear()
        if self.prefix_cache is not None:
            # A queued request may already hold a warm-prefix reference
            # (taken at the head of the queue while waiting for KV room);
            # it is leaving this instance, so drop the hold and let it try
            # again wherever it lands.
            for request in lost:
                self.prefix_cache.release(request.request_id)
                request.extra.pop("prefix_cached", None)
        return lost

    # -- reconfiguration (replanning restarts) ----------------------------------

    def reconfigure(self, parallel: ParallelConfig, gpus: tuple[int, ...]) -> None:
        """Restart this instance with a new parallelism and GPU set.

        Models a replanning restart that preserves live KV (a best case for
        the replanning baseline): allocations carry over into the resized
        pool; anything that no longer fits is displaced to CPU swap.  All
        lanes must be idle (the caller stalls execution first).
        """
        if len(gpus) != parallel.num_gpus:
            raise ValueError(
                f"{self.name}: reconfigure got {len(gpus)} GPUs for {parallel.label()}"
            )
        if any(lane.busy for lane in self.lanes):
            raise RuntimeError(f"{self.name}: cannot reconfigure with batches in flight")
        if self.prefix_cache is not None:
            # Cached prefixes belong to no live request; drop them rather
            # than migrating them into the resized pool (they rebuild
            # organically from traffic).
            self.prefix_cache.drain()
        old_kv = self.kv
        self.parallel = parallel
        self.gpus = gpus
        self.latency = LatencyModel(self.spec, self.gpu, parallel)

        running = self.running_requests
        self.lanes = [Lane(i) for i in range(parallel.pp)]
        for i, request in enumerate(running):
            self.lanes[i % parallel.pp].add(request)

        self.kv = KVBlockManager(
            gpu_capacity_tokens=self._kv_capacity_tokens(),
            cpu_capacity_tokens=int(
                self.config.cpu_swap_gb * GB / self.spec.kv_bytes_per_token
            ),
            block_size=self.config.block_size,
            bytes_per_token=self.spec.kv_bytes_per_token,
        )
        by_request = {r.request_id: r for r in running + self.swapped + list(self.waiting)}
        dropped: list[Request] = []
        for alloc in old_kv.residents(BlockLocation.GPU) + old_kv.residents(
            BlockLocation.CPU
        ):
            request = by_request.get(alloc.request_id)
            target = alloc.location
            if target == BlockLocation.GPU and not self.kv.can_allocate(alloc.tokens):
                target = BlockLocation.CPU  # displaced by the shrink
            if target == BlockLocation.CPU and alloc.blocks > self.kv.free_cpu_blocks:
                # Neither pool can hold it: the restart loses this KV and the
                # request must recompute through the pipeline.
                self._evict_from_queues(request)
                if request is not None:
                    dropped.append(request)
                self.metrics.bump("reconfigure_dropped")
                continue
            if target == BlockLocation.CPU and alloc.location == BlockLocation.GPU:
                self._evict_from_queues(request)
                if request is not None:
                    request.phase = Phase.SWAPPED
                    request.swap_out_count += 1
                    self.swapped.append(request)
                    self.metrics.bump("swap_out")
            self.kv.adopt(alloc.request_id, alloc.tokens, target)
        self.prefix_cache = self._build_prefix_cache()
        self.metrics.bump("reconfigure")
        self.trace.emit(
            self.sim.now, self.name, "reconfigure", parallel=parallel.label(), gpus=gpus
        )
        if self.system is not None:
            for request in dropped:
                self.system.on_kv_dropped(request, self)

    def _evict_from_queues(self, request: Optional[Request]) -> None:
        if request is None:
            return
        for lane in self.lanes:
            if request in lane.running:
                lane.remove(request)
                return
        if request in self.swapped:
            self.swapped.remove(request)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name}, gpus={self.gpus}, "
            f"{self.parallel.label()}, waiting={len(self.waiting)}, "
            f"running={self.total_running})"
        )
