"""Tests of the benchmark itself; run with ``python3 -m pytest simbench/tests``.

Tiny instances of each workload keep the whole file to well under a minute.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads
from catalog import END_TO_END, LAYERS, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = 150


@pytest.fixture(scope="module")
def spawned():
    """One untraced and one traced tiny run per workload, each in its own process."""
    return {
        name: (run.spawn(name, 1, requests=TINY), run.spawn(name, 1, traced=True, requests=TINY))
        for name in WORKLOADS
    }


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_printed_metric_names_match_benchmark_json(spawned):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for untraced, traced in spawned.values():
        e2e, _ = run.end_to_end([untraced])
        assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
        layers = run.per_layer([untraced], traced)
        assert list(layers) == [m["name"] for m in spec["per_layer"]]
        assert all(isinstance(v, (int, float)) for v in {**e2e, **layers}.values())


def test_traced_and_untraced_runs_agree_and_pass_checks(spawned):
    for name, (untraced, traced) in spawned.items():
        assert untraced["problems"] == [] and traced["problems"] == [], name
        assert run.disagreements([untraced, traced]) == [], name
        assert traced["missing_hooks"] == [], name
        counts = untraced["counts"]
        assert counts["sent"] == TINY
        assert counts["completed"] + counts["shed"] == counts["sent"]


def test_layer_self_times_are_nonnegative_and_within_run_s(spawned):
    for name, (_, traced) in spawned.items():
        layers, run_s = traced["layers"], traced["host"]["run_s"]
        self_times = [layers[f"{layer}.self_s"] for layer in LAYERS]
        assert all(t >= 0 for t in self_times), name
        assert sum(self_times) <= run_s, name
        assert 0 <= layers["trace.unattributed_share"] <= 1, name


def test_disagreements_flag_a_changed_fingerprint(spawned):
    untraced, traced = spawned["chat-decode"]
    changed = dict(traced, fingerprint="0" * 64)
    assert run.disagreements([untraced, changed]) == [
        "fingerprint of a traced run differs from the first run"
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracer_uninstalls_cleanly_and_keeps_the_fingerprint(name):
    plain = workloads.prepare(WORKLOADS[name], seed=2, num_requests=TINY)
    workloads.run(plain)

    hooked = [
        (cls, method, cls.__dict__[method])
        for _, _, path, methods in tracing.HOOKS
        for method in methods
        for cls in tracing._with_subclasses(tracing._resolve(path))
        if method in cls.__dict__
    ]
    traced = workloads.prepare(WORKLOADS[name], seed=2, num_requests=TINY)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[method] is not original for cls, method, original in hooked)
        workloads.run(traced)
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[method] is original for cls, method, original in hooked)
    assert tracer.missing == []
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    assert workloads.work_counts(traced) == workloads.work_counts(plain)
    assert workloads.check(traced) == []


def test_check_catches_a_lost_request():
    prepared = workloads.prepare(WORKLOADS["chat-decode"], seed=3, num_requests=TINY)
    workloads.run(prepared)
    prepared.metrics.completed.pop()
    problems = workloads.check(prepared)
    assert any(p.startswith("conservation") for p in problems)


def test_peak_rss_belongs_to_one_run():
    # Measured in one long-lived process, ru_maxrss is the lifetime peak, so
    # a small run after a large one would report the large run's peak.
    large = run.spawn("chat-decode", 0, requests=4000)
    small = run.spawn("chat-decode", 0, requests=50)
    assert small["host"]["peak_rss_mb"] < large["host"]["peak_rss_mb"] - 1.0


def test_host_speed_probe_restores_the_alarm_and_times_only_the_run():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostSpeedProbe()
    probe.start()
    hostspeed.kernel(3000)  # long enough for a few alarms
    wall_s, cpu_s = probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < wall_s <= probe.wall_s and 0 < cpu_s <= probe.cpu_s
    assert probe.samples >= hostspeed.MIN_SAMPLES

    # Samples taken after a short run only fill up the mean; they are not
    # subtracted from the run's time.
    short = hostspeed.HostSpeedProbe()
    short.start()
    assert short.stop() == (0.0, 0.0)
    assert short.samples == hostspeed.MIN_SAMPLES and short.kernel_wall_s > 0


def test_untraced_runs_report_host_speed_normalised_times(spawned):
    for name, (untraced, traced) in spawned.items():
        host = untraced["host"]
        assert host["run_ref"] == pytest.approx(host["run_s"] / (host["kernel_ms"] / 1e3)), name
        assert 0 < host["setup_s"] and 0 < host["setup_wall_s"], name
        assert 0 < host["probe_share"] < 0.2, name
        assert "run_ref" not in traced["host"], name
