"""PagedAttention-style KV block manager.

KV cache is allocated in fixed-size blocks of tokens (vLLM's design, which
the paper adopts).  The manager tracks, per request, how many tokens are
cached and where the blocks live (GPU or swapped to CPU DRAM).  All
accounting is instance-level: an instance's pool aggregates the KV budget of
its GPUs, since KV tensors shard evenly across TP/PP ranks.

Decode fast path.  A decode step appends one token per running request, and
with ``block_size`` tokens per block only one step in ``block_size`` crosses
a block boundary.  The contract (:meth:`KVBlockManager.appends_in_place`):
while an allocation is on GPU and ``alloc.tokens < alloc.blocks *
block_size``, ``extend(request_id, 1)`` reserves no block and reduces to
``alloc.tokens += 1``, so a hot loop may bump ``tokens`` in place on the
object from :attr:`KVBlockManager.allocations`.  Every other case (block
boundary, no allocation, swapped to CPU) must go through
``can_extend``/``extend``.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.hardware.memory import MemoryPool, OutOfMemoryError


class BlockLocation(enum.Enum):
    GPU = "gpu"
    CPU = "cpu"


@dataclass
class KVAllocation:
    """Book-keeping for one request's cached KV."""

    request_id: int
    tokens: int
    blocks: int
    location: BlockLocation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KVAllocation(req={self.request_id}, tokens={self.tokens}, "
            f"blocks={self.blocks}, {self.location.value})"
        )


class KVBlockManager:
    """Allocates KV blocks for requests against a GPU pool and a CPU swap pool.

    Args:
        gpu_capacity_tokens: Total tokens' worth of KV the instance can hold
            in GPU memory.
        cpu_capacity_tokens: Swap-pool capacity (CPU DRAM), in tokens.
        block_size: Tokens per block (vLLM default 16).
        bytes_per_token: KV bytes per cached token across the instance
            (for transfer-size computations).
    """

    def __init__(
        self,
        gpu_capacity_tokens: int,
        cpu_capacity_tokens: int,
        block_size: int,
        bytes_per_token: float,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.bytes_per_token = bytes_per_token
        self.gpu_capacity_blocks = gpu_capacity_tokens // block_size
        self.cpu_capacity_blocks = cpu_capacity_tokens // block_size
        self._gpu = MemoryPool(self.gpu_capacity_blocks, name="kv-gpu-blocks")
        self._cpu = MemoryPool(self.cpu_capacity_blocks, name="kv-cpu-blocks")
        self._allocations: dict[int, KVAllocation] = {}
        # Lifecycle audit: how often each request id was allocated/adopted
        # into this manager and freed out of it, plus frees that found no
        # allocation.  The differential runner asserts every allocation is
        # matched by exactly one free at drain.
        self.alloc_events: Counter[int] = Counter()
        self.free_events: Counter[int] = Counter()
        self.redundant_frees: int = 0

    # -- introspection -------------------------------------------------------

    def blocks_for(self, tokens: int) -> int:
        # Integer ceiling division: exact for any token count, unlike
        # float-division ceil, and measurably cheaper on the hot path.
        return -(-tokens // self.block_size)

    @property
    def free_gpu_blocks(self) -> int:
        return self._gpu.free

    @property
    def used_gpu_blocks(self) -> int:
        return self._gpu.used

    @property
    def gpu_utilization(self) -> float:
        return self._gpu.utilization

    @property
    def free_gpu_tokens(self) -> int:
        return self._gpu.free * self.block_size

    @property
    def free_cpu_blocks(self) -> int:
        return self._cpu.free

    def has(self, request_id: int) -> bool:
        return request_id in self._allocations

    def get(self, request_id: int) -> KVAllocation:
        return self._allocations[request_id]

    @property
    def allocations(self) -> Mapping[int, KVAllocation]:
        """Live allocations by request id; read-only except for the
        in-place token bump :meth:`appends_in_place` permits."""
        return self._allocations

    def appends_in_place(self, alloc: KVAllocation) -> bool:
        """Whether appending one token to ``alloc`` needs no new block, so
        ``alloc.tokens += 1`` is exactly ``extend(alloc.request_id, 1)``."""
        return (
            alloc.location is BlockLocation.GPU
            and alloc.tokens < alloc.blocks * self.block_size
        )

    def tokens_of(self, request_id: int) -> int:
        alloc = self._allocations.get(request_id)
        return alloc.tokens if alloc else 0

    def bytes_of(self, request_id: int) -> int:
        return int(self.tokens_of(request_id) * self.bytes_per_token)

    def residents(self, location: BlockLocation = BlockLocation.GPU) -> list[KVAllocation]:
        """Allocations currently at ``location``."""
        return [a for a in self._allocations.values() if a.location == location]

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_for(tokens) <= self._gpu.free

    def can_extend(self, request_id: int, new_tokens: int) -> bool:
        alloc = self._allocations.get(request_id)
        if alloc is None:
            return self.can_allocate(new_tokens)
        needed = self.blocks_for(alloc.tokens + new_tokens) - alloc.blocks
        return needed <= self._gpu.free

    # -- allocation ----------------------------------------------------------

    def allocate(self, request_id: int, tokens: int) -> KVAllocation:
        """Allocate GPU blocks for a new request's ``tokens`` of KV."""
        if request_id in self._allocations:
            raise ValueError(f"request {request_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        self._gpu.reserve(blocks)
        alloc = KVAllocation(request_id, tokens, blocks, BlockLocation.GPU)
        self._allocations[request_id] = alloc
        self.alloc_events[request_id] += 1
        return alloc

    def extend(self, request_id: int, new_tokens: int) -> KVAllocation:
        """Grow a request's cached KV by ``new_tokens`` (decode appends)."""
        alloc = self._allocations.get(request_id)
        if alloc is None:
            return self.allocate(request_id, new_tokens)
        if alloc.location != BlockLocation.GPU:
            raise ValueError(f"request {request_id} is swapped out; swap in first")
        needed = self.blocks_for(alloc.tokens + new_tokens) - alloc.blocks
        if needed > 0:
            self._gpu.reserve(needed)
            alloc.blocks += needed
        alloc.tokens += new_tokens
        return alloc

    def free(self, request_id: int) -> None:
        """Release all blocks of a finished/migrated request."""
        alloc = self._allocations.pop(request_id, None)
        if alloc is None:
            self.redundant_frees += 1
            return
        pool = self._gpu if alloc.location == BlockLocation.GPU else self._cpu
        pool.release(alloc.blocks)
        self.free_events[request_id] += 1

    def adopt(self, request_id: int, tokens: int, location: BlockLocation) -> KVAllocation:
        """Re-register an allocation carried over from another manager
        (instance reconfiguration keeps live KV across a restart)."""
        if request_id in self._allocations:
            raise ValueError(f"request {request_id} already has an allocation")
        blocks = self.blocks_for(tokens)
        pool = self._gpu if location == BlockLocation.GPU else self._cpu
        pool.reserve(blocks)
        alloc = KVAllocation(request_id, tokens, blocks, location)
        self._allocations[request_id] = alloc
        self.alloc_events[request_id] += 1
        return alloc

    # -- swapping --------------------------------------------------------------

    def swap_out(self, request_id: int) -> int:
        """Move a request's blocks GPU -> CPU; returns bytes to transfer."""
        alloc = self._allocations[request_id]
        if alloc.location != BlockLocation.GPU:
            raise ValueError(f"request {request_id} is already swapped out")
        try:
            self._cpu.reserve(alloc.blocks)
        except OutOfMemoryError:
            raise OutOfMemoryError(
                f"CPU swap pool full while swapping out request {request_id}"
            ) from None
        self._gpu.release(alloc.blocks)
        alloc.location = BlockLocation.CPU
        return int(alloc.tokens * self.bytes_per_token)

    def can_swap_in(self, request_id: int) -> bool:
        alloc = self._allocations[request_id]
        return alloc.blocks <= self._gpu.free

    def swap_in(self, request_id: int) -> int:
        """Move a request's blocks CPU -> GPU; returns bytes to transfer."""
        alloc = self._allocations[request_id]
        if alloc.location != BlockLocation.CPU:
            raise ValueError(f"request {request_id} is not swapped out")
        self._gpu.reserve(alloc.blocks)
        self._cpu.release(alloc.blocks)
        alloc.location = BlockLocation.GPU
        return int(alloc.tokens * self.bytes_per_token)
