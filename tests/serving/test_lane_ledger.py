"""The per-lane context ledger never drifts from its definition.

``Lane.context`` is the summed ``context_tokens`` of ``Lane.running``; the
batch formers price every decode pass from it instead of re-summing.  It
is kept by ``Lane.add``/``remove``/``clear`` plus one increment per token
in ``Instance.finish_decode_iteration``, so any path that changes a
running request's context — or touches ``running`` directly — behind the
ledger's back would silently misprice batches.  These tests wrap every
``_form_batch`` to recompute the ledger (and the ``members`` set) from
scratch on every lane before each batch, over golden scenarios that cover
crashes, CPU swap and migration, tier displacement, replanning restarts
and both baselines; each run must also still match its recorded golden.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.golden import check_goldens
from repro.serving.instance import Instance, Lane
from repro.serving.request import Request

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

LEDGER_SCENARIOS = [
    "windserve-chaos-crash-s1",  # decode-instance crash clears lanes
    "windserve-pressure-r3.5-s3",  # CPU swap and live migration
    "windserve-chaos-tiered-s11",  # SLO-tier displacement
    "windserve-hetero-s15",  # fleet replan and instance reconfigure
    "distserve-pressure-r3.5-s3",  # DistServe decode under KV pressure
    "vllm-chaos-crash-s10",  # vLLM hybrid batches across a crash
]


def _instance_classes() -> list[type]:
    found, todo = [], [Instance]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _assert_ledgers(instance: Instance) -> None:
    for lane in instance.lanes:
        expected = sum(r.context_tokens for r in lane.running)
        assert lane.context == expected, (
            f"{instance.name} lane {lane.index}: ledger {lane.context} != {expected}"
        )
        assert len(lane.members) == len(lane.running)
        assert lane.members == set(lane.running)


@pytest.fixture
def checked(monkeypatch) -> list[int]:
    """Wrap every concrete ``_form_batch``; returns a list of check counts."""
    counts = [0]

    def wrap(original):
        def form_batch(self, lane):
            _assert_ledgers(self)
            counts[0] += 1
            return original(self, lane)

        return form_batch

    for cls in _instance_classes():
        if "_form_batch" in vars(cls):
            monkeypatch.setattr(cls, "_form_batch", wrap(vars(cls)["_form_batch"]))
    return counts


@pytest.mark.parametrize("name", LEDGER_SCENARIOS)
def test_ledger_matches_running_before_every_batch(name, checked):
    (diff,) = check_goldens(GOLDEN_DIR, only=[name])
    assert diff.passed, "\n".join(diff.messages)
    assert checked[0] > 0


def _request(rid: int, prompt: int, generated: int = 0) -> Request:
    request = Request(request_id=rid, arrival_time=0.0, prompt_tokens=prompt, output_tokens=8)
    request.output_generated = generated
    return request


def test_lane_methods_keep_the_ledger():
    lane = Lane(0)
    a, b = _request(1, 100), _request(2, 40, generated=3)
    lane.add(a)
    lane.add(b)
    assert lane.context == 143
    a.output_generated += 1
    lane.context += 1  # what finish_decode_iteration does per token
    lane.remove(a)
    assert lane.context == 43 and lane.running == [b] and lane.members == {b}
    lane.clear()
    assert lane.context == 0 and not lane.running and not lane.members
