"""Property-based tests for the KV block manager.

Hypothesis generates arbitrary alloc/extend/free/adopt/swap sequences; the
manager must never double-free, never leak, and never exceed pool capacity,
regardless of the order operations arrive in.  The decode fast-path
contract (``appends_in_place``) must agree exactly with what ``extend(rid,
1)`` would do.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import OutOfMemoryError
from repro.kvcache.blocks import BlockLocation, KVBlockManager

GPU_TOKENS = 4096
CPU_TOKENS = 2048
BLOCK = 16

# One operation: (op-name, request-id, token-count)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "extend", "free", "adopt_gpu", "adopt_cpu", "swap_out", "swap_in"]),
        st.integers(0, 7),
        st.integers(1, 700),
    ),
    max_size=60,
)


def _manager() -> KVBlockManager:
    return KVBlockManager(
        gpu_capacity_tokens=GPU_TOKENS,
        cpu_capacity_tokens=CPU_TOKENS,
        block_size=BLOCK,
        bytes_per_token=8.0,
    )


def _apply(kv: KVBlockManager, op: str, rid: int, tokens: int) -> None:
    """Drive one operation, swallowing only *expected* rejections."""
    try:
        if op == "alloc":
            kv.allocate(rid, tokens)
        elif op == "extend":
            kv.extend(rid, tokens)
        elif op == "free":
            kv.free(rid)
        elif op == "adopt_gpu":
            kv.adopt(rid, tokens, BlockLocation.GPU)
        elif op == "adopt_cpu":
            kv.adopt(rid, tokens, BlockLocation.CPU)
        elif op == "swap_out":
            kv.swap_out(rid)
        elif op == "swap_in":
            kv.swap_in(rid)
    except (OutOfMemoryError, ValueError, KeyError):
        pass  # full pool / double-alloc / unknown id are legal rejections


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_pools_never_exceed_capacity(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
        assert 0 <= kv.used_gpu_blocks <= kv.gpu_capacity_blocks
        assert 0 <= kv.free_gpu_blocks <= kv.gpu_capacity_blocks
        assert kv.used_gpu_blocks + kv.free_gpu_blocks == kv.gpu_capacity_blocks
        assert 0 <= kv.free_cpu_blocks <= kv.cpu_capacity_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_freeing_everything_restores_both_pools(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
    for rid in range(8):
        kv.free(rid)
    assert kv.used_gpu_blocks == 0
    assert kv.free_gpu_blocks == kv.gpu_capacity_blocks
    assert kv.free_cpu_blocks == kv.cpu_capacity_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_block_accounting_matches_live_allocations(ops):
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
        gpu_blocks = sum(
            a.blocks for a in kv.residents(BlockLocation.GPU)
        )
        cpu_blocks = sum(a.blocks for a in kv.residents(BlockLocation.CPU))
        assert gpu_blocks == kv.used_gpu_blocks
        assert cpu_blocks == kv.cpu_capacity_blocks - kv.free_cpu_blocks


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_lifecycle_counters_balance_after_full_teardown(ops):
    """Every allocation is freed exactly once once all ids are freed."""
    kv = _manager()
    for op, rid, tokens in ops:
        _apply(kv, op, rid, tokens)
    for rid in range(8):
        kv.free(rid)
    assert kv.alloc_events == kv.free_events


@settings(max_examples=100, deadline=None)
@given(rid=st.integers(0, 7), tokens=st.integers(1, 500))
def test_double_allocate_rejected_and_harmless(rid, tokens):
    kv = _manager()
    kv.allocate(rid, tokens)
    used = kv.used_gpu_blocks
    try:
        kv.allocate(rid, tokens)
        raise AssertionError("double allocate must raise")
    except ValueError:
        pass
    assert kv.used_gpu_blocks == used
    kv.free(rid)
    assert kv.used_gpu_blocks == 0
    # A second free is redundant, counted, and leaves pools untouched.
    kv.free(rid)
    assert kv.redundant_frees == 1
    assert kv.free_gpu_blocks == kv.gpu_capacity_blocks


def _state(kv: KVBlockManager) -> tuple:
    return (
        {rid: (a.tokens, a.blocks, a.location) for rid, a in kv.allocations.items()},
        kv.free_gpu_blocks,
        kv.used_gpu_blocks,
        kv.free_cpu_blocks,
        dict(kv.alloc_events),
        dict(kv.free_events),
        kv.redundant_frees,
    )


@settings(max_examples=300, deadline=None)
@given(ops=OPS, rid=st.integers(0, 7), fill_block=st.booleans())
def test_in_place_append_contract(ops, rid, fill_block):
    """``appends_in_place`` holds iff ``extend(rid, 1)`` would reserve zero
    blocks, and then bumping ``tokens`` in place leaves the manager in
    exactly the state ``extend(rid, 1)`` would."""
    kv = _manager()
    for op, r, tokens in ops:
        _apply(kv, op, r, tokens)
    alloc = kv.allocations.get(rid)
    if fill_block and alloc is not None and alloc.location is BlockLocation.GPU:
        # Land exactly on a block boundary, the case the fast path must refuse.
        room = alloc.blocks * BLOCK - alloc.tokens
        if room:
            kv.extend(rid, room)

    reference = copy.deepcopy(kv)
    try:
        reference.extend(rid, 1)
        reserved = kv.free_gpu_blocks - reference.free_gpu_blocks
    except (OutOfMemoryError, ValueError):
        reserved = None  # swapped out or no room: extend refuses outright
    in_place = alloc is not None and kv.appends_in_place(alloc)
    assert in_place == (reserved == 0)
    if in_place:
        alloc.tokens += 1
        assert _state(kv) == _state(reference)
