"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.hardware import A800_80GB, NodeTopology
from repro.models import ParallelConfig, get_model
from repro.perf import LatencyModel, StreamContentionModel
from repro.serving import SLO, SystemConfig
from repro.serving.instance import InstanceConfig
from repro.sim import Simulator

# Tier-1 runs Hypothesis' default budget.  ``--hypothesis-profile=deep``
# searches much further; CI uses it on the roofline bit-equivalence
# property.  Tests that pin ``max_examples`` themselves keep their count.
settings.register_profile("deep", max_examples=20_000, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def topology() -> NodeTopology:
    return NodeTopology(num_gpus=8)


@pytest.fixture
def small_topology() -> NodeTopology:
    return NodeTopology(num_gpus=4)


@pytest.fixture
def opt13b():
    return get_model("opt-13b")


@pytest.fixture
def llama70b():
    return get_model("llama2-70b")


@pytest.fixture
def tp2() -> ParallelConfig:
    return ParallelConfig(tp=2)


@pytest.fixture
def latency_opt13b_tp2(opt13b, tp2) -> LatencyModel:
    return LatencyModel(opt13b, A800_80GB, tp2)


@pytest.fixture
def contention() -> StreamContentionModel:
    return StreamContentionModel()


@pytest.fixture
def opt13b_config(opt13b) -> SystemConfig:
    return SystemConfig(model=opt13b, slo=SLO(ttft=0.25, tpot=0.1))


@pytest.fixture
def tiny_instance_config() -> InstanceConfig:
    """Small KV pool so memory-pressure paths trigger quickly in tests."""
    return InstanceConfig(kv_capacity_override_tokens=4096, cpu_swap_gb=16.0)
