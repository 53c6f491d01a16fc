"""Post-run consistency auditing: the one invariant registry.

:func:`audit_run` checks every invariant a drained run must satisfy and
returns a list of human-readable violations (empty when clean).  Every run
path calls it — the comparison harnesses, the golden store and the
benchmark — so each invariant has exactly one implementation:

* request conservation, shed-aware: submitted == completed + shed, with no
  duplicate, phantom or both-completed-and-shed request;
* per-tier and per-tenant conservation: no request vanishes from, or
  changes, the tier or tenant it was submitted with;
* per-request token causality and monotone lifecycle timestamps
  (:func:`audit_request`);
* KV freed exactly once per allocation, in the live pool and in every pool
  a crash retired, after draining warm prefix caches;
* a drained system: nothing waiting, running, swapped, mid-batch or failed,
  and no failure knowledge left behind;
* the prefix-cache saved-tokens counter equals what the indexes served;
* fair-share budget watermarks never exceeded the configured budgets.

Run it after fingerprinting: the KV check drains the prefix caches.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Sequence

from repro.serving.request import Phase, Request

_TIME_EPS = 1e-9


def audit_request(request: Request) -> list[str]:
    """Invariant violations for one supposedly finished request."""
    problems: list[str] = []
    rid = request.request_id

    if not request.finished:
        problems.append(f"request {rid}: not finished (phase={request.phase.value})")
        return problems
    if request.first_token_time is None or request.finish_time is None:
        problems.append(f"request {rid}: finished without timestamps")
        return problems

    if request.output_generated != request.output_tokens:
        problems.append(
            f"request {rid}: generated {request.output_generated} of "
            f"{request.output_tokens} tokens"
        )
    # A recompute re-prefills the live context; otherwise the whole prompt
    # must have been prefilled (cached prefix tokens count as prefilled).
    required = request.prefill_required
    if not request.recompute_count:
        required = max(required, request.prompt_tokens)
    if request.prefilled_tokens < required:
        problems.append(
            f"request {rid}: finished with incomplete prefill "
            f"({request.prefilled_tokens}/{required} tokens)"
        )

    # Token causality and lifecycle order: arrival <= prefill start <=
    # first token <= decode start <= finish.
    order = [("arrival", request.arrival_time)]
    for name, value in (
        ("prefill_start", request.prefill_start),
        ("first_token", request.first_token_time),
        ("decode_start", request.decode_start),
        ("finish", request.finish_time),
    ):
        if value is not None:
            order.append((name, value))
    for (name_a, a), (name_b, b) in zip(order, order[1:]):
        if b < a - _TIME_EPS:
            problems.append(
                f"request {rid}: {name_b} ({b:.6f}) before {name_a} ({a:.6f})"
            )

    if request.decode_queue_delay is not None and request.decode_queue_delay < -_TIME_EPS:
        problems.append(f"request {rid}: decode started before entering the decode queue")
    return problems


def _sample(ids) -> list:
    return sorted(ids)[:5]


def _conservation(
    submitted: Sequence[Request], completed: Sequence[Request], shed: Sequence[Request]
) -> list[str]:
    problems = []
    submitted_ids = {r.request_id for r in submitted}
    done = Counter(r.request_id for r in completed)
    shed_ids = {r.request_id for r in shed}
    duplicates = [rid for rid, count in done.items() if count > 1]
    if duplicates:
        problems.append(f"requests completed more than once: {_sample(duplicates)}")
    both = done.keys() & shed_ids
    if both:
        problems.append(f"requests both completed and shed: {_sample(both)}")
    accounted = done.keys() | shed_ids
    dropped = submitted_ids - accounted
    if dropped:
        problems.append(f"requests silently dropped: {_sample(dropped)}")
    phantom = accounted - submitted_ids
    if phantom:
        problems.append(f"phantom request ids never submitted: {_sample(phantom)}")
    for request in shed:
        if request.phase is not Phase.SHED:
            problems.append(
                f"request {request.request_id}: shed but phase={request.phase.value}"
            )
    return problems


def _keyed_conservation(
    attr: str,
    submitted: Sequence[Request],
    completed: Sequence[Request],
    shed: Sequence[Request],
) -> list[str]:
    """Per-``attr`` (tier or tenant) conservation: each class's submitted
    count equals its completed + shed, and no outcome changed class in
    flight (a retry or requeue must never reclassify a request)."""
    problems = []
    owner = {r.request_id: getattr(r, attr) for r in submitted}
    mutated = [
        r.request_id
        for r in chain(completed, shed)
        if r.request_id in owner and getattr(r, attr) != owner[r.request_id]
    ]
    if mutated:
        problems.append(f"requests changed {attr} in flight: {_sample(mutated)}")
    n_submitted = Counter(owner.values())
    n_completed = Counter(getattr(r, attr) for r in completed)
    n_shed = Counter(getattr(r, attr) for r in shed)
    for key in sorted(n_submitted.keys() | n_completed.keys() | n_shed.keys()):
        if n_submitted[key] != n_completed[key] + n_shed[key]:
            problems.append(
                f"{attr} {key!r} lost requests: submitted {n_submitted[key]} != "
                f"completed {n_completed[key]} + shed {n_shed[key]}"
            )
    return problems


def _kv_lifecycle(label: str, instance) -> list[str]:
    """KV freed exactly once, in the live pool and every retired one.

    A still-warm prefix cache is deliberate residency, not a leak: it is
    drained (idempotently) before the balance check.
    """
    problems = []
    if instance.prefix_cache is not None:
        instance.prefix_cache.drain()
    pools = [(instance.kv, "kv")]
    pools += [(kv, f"retired-kv#{i}") for i, kv in enumerate(instance.retired_kv)]
    for kv, pool in pools:
        unbalanced = {
            rid: (kv.alloc_events[rid], kv.free_events[rid])
            for rid in kv.alloc_events.keys() | kv.free_events.keys()
            if kv.alloc_events[rid] != kv.free_events[rid]
        }
        if unbalanced:
            sample = dict(sorted(unbalanced.items())[:5])
            problems.append(
                f"{label}/{pool}: alloc/free imbalance (rid -> allocs,frees) {sample}"
            )
        if kv.used_gpu_blocks != 0:
            problems.append(f"{label}/{pool}: {kv.used_gpu_blocks} GPU KV blocks leaked")
    return problems


def _drained(label: str, instance) -> list[str]:
    problems = []
    if instance.waiting:
        problems.append(f"{label}: {len(instance.waiting)} requests stuck waiting")
    if instance.total_running:
        problems.append(f"{label}: {instance.total_running} requests stuck running")
    if instance.swapped:
        problems.append(f"{label}: {len(instance.swapped)} requests stuck swapped")
    if any(lane.busy for lane in instance.lanes):
        problems.append(f"{label}: lane still busy after drain")
    if instance.failed:
        problems.append(f"{label}: still failed after the drain")
    return problems


def _prefix_ledger(prefix: str, system) -> list[str]:
    """The saved-prefill-tokens counter equals what the indexes served."""
    caches = [i.prefix_cache for i in system.instances if i.prefix_cache is not None]
    if not caches:
        return []
    counter = system.metrics.counters.get("prefix_tokens_saved", 0)
    served = sum(cache.stats.tokens_served for cache in caches)
    if counter != served:
        return [
            f"{prefix}prefix_tokens_saved counter ({counter}) != index ledger ({served})"
        ]
    return []


def _budget_watermarks(prefix: str, system) -> list[str]:
    """Fair-share budgets never exceeded at any sim instant."""
    config = system.config.fairshare
    if config is None:
        return []
    problems = []
    for key, peak in sorted(system.metrics.counters.items()):
        for counter, budget in (
            ("tenant_peak_inflight[", config.max_inflight),
            ("tenant_peak_tokens[", config.max_tokens),
        ):
            if budget and key.startswith(counter) and peak > budget:
                problems.append(f"{prefix}{key} = {peak} exceeds budget {budget}")
    return problems


def audit_run(target, submitted: Sequence[Request]) -> list[str]:
    """Every invariant violation of a drained run (empty when clean).

    ``target`` is a :class:`~repro.serving.system.ServingSystem` or a
    :class:`~repro.core.fleet.ServingFleet`; ``submitted`` is every request
    handed to it.  Call it after fingerprinting: the KV check drains the
    warm prefix caches.
    """
    members = getattr(target, "members", None)
    fleet = members is not None
    systems = list(members) if fleet else [target]
    metrics = target.merged_metrics() if fleet else target.metrics
    completed, shed = metrics.completed, metrics.shed

    problems = _conservation(submitted, completed, shed)
    problems.extend(_keyed_conservation("tier", submitted, completed, shed))
    problems.extend(_keyed_conservation("tenant", submitted, completed, shed))
    for request in completed:
        problems.extend(audit_request(request))
    for system in systems:
        prefix = f"{system.name}/" if fleet else ""
        # The ledger reads the cache stats before the KV check drains them.
        problems.extend(_prefix_ledger(prefix, system))
        problems.extend(_budget_watermarks(prefix, system))
        for instance in system.instances:
            label = prefix + instance.name
            problems.extend(_kv_lifecycle(label, instance))
            problems.extend(_drained(label, instance))
        if system.known_failed:
            problems.append(
                f"{prefix}failure knowledge never cleared: {sorted(system.known_failed)}"
            )
    if fleet:
        if target.crashed:
            problems.append(
                f"members still crashed after the drain: {sorted(target.crashed)}"
            )
        if target.failed:
            problems.append(f"failure knowledge never cleared: {sorted(target.failed)}")
    return problems
