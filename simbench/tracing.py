"""Per-layer timing of a run, from outside the program.

``Tracer.install()`` replaces public methods of the program's classes with
timing wrappers and ``uninstall()`` puts the originals back.  Each wrapper
is a span: it keeps a stack of child time, so a span's *self* time is its
duration minus the time of the spans nested inside it.  Callables handed to
``Simulator.schedule``/``call_at`` are wrapped too, and their self time is
charged to the layer of the module that defined them; what is left of
``Simulator.run`` is the engine's own time.

Spans are aggregated per key as they close instead of kept one by one: a
chat-decode run makes millions of KV calls, and a span list that size would
dominate the process's memory.

A hook whose class or method is missing (the program was refactored) is
skipped and listed in ``Tracer.missing``; its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from catalog import LAYERS

#: Module prefix -> layer, longest prefix wins.  Callback self time is
#: charged by the module that defined the callable.
MODULE_LAYERS = {
    "repro.sim.engine": "sim",
    "repro.sim.trace": "bookkeeping",
    "repro.sim.fingerprint": "bookkeeping",
    "repro.serving.metrics": "bookkeeping",
    "repro.serving": "serving",
    "repro.baselines": "serving",
    "repro.core": "core",
    "repro.faults": "core",
    "repro.policies": "policies",
    "repro.kvcache": "kvcache",
    "repro.hardware": "kvcache",
    "repro.perf": "perf",
    "repro.models": "perf",
}

# (span key, layer, "module:Class", methods).  Subclasses that override a
# method get their own wrapper under the same key.
HOOKS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim.run", "sim", "repro.sim.engine:Simulator", ("run",)),
    ("serving.kick", "serving", "repro.serving.instance:Instance", ("kick",)),
    (
        "serving.decode_iter",
        "serving",
        "repro.serving.instance:Instance",
        ("finish_decode_iteration",),
    ),
    ("core.route", "core", "repro.core.coordinator:Coordinator", ("route_new_request",)),
    ("core.handoff", "core", "repro.core.windserve:WindServeSystem", ("pump_handoffs",)),
    (
        "core.reschedule",
        "core",
        "repro.core.rescheduling:MigrationManager",
        ("maybe_reschedule",),
    ),
    ("core.fleet_submit", "core", "repro.core.fleet:ServingFleet", ("submit",)),
    ("policies.select", "policies", "repro.policies.base:RoutingPolicy", ("select",)),
    ("policies.admit", "policies", "repro.policies.base:AdmissionPolicy", ("admit",)),
    (
        "kvcache.extend",
        "kvcache",
        "repro.kvcache.blocks:KVBlockManager",
        ("can_extend", "extend"),
    ),
    ("kvcache.alloc", "kvcache", "repro.kvcache.blocks:KVBlockManager", ("allocate", "adopt")),
    ("kvcache.free", "kvcache", "repro.kvcache.blocks:KVBlockManager", ("free",)),
    (
        "kvcache.transfer",
        "kvcache",
        "repro.kvcache.transfer:KVTransferEngine",
        ("transfer", "swap"),
    ),
    (
        "kvcache.prefix",
        "kvcache",
        "repro.kvcache.prefix:PrefixCacheIndex",
        ("lookup", "acquire", "release", "insert", "evict_unreferenced"),
    ),
    (
        "perf.latency",
        "perf",
        "repro.perf.roofline:LatencyModel",
        ("prefill", "prefill_extend", "decode", "hybrid"),
    ),
    ("perf.sbd", "perf", "repro.perf.interference:StreamContentionModel", ("sbd",)),
    ("sim.trace.emit", "bookkeeping", "repro.sim.trace:TraceLog", ("emit",)),
    (
        "serving.metrics.record",
        "bookkeeping",
        "repro.serving.metrics:MetricsCollector",
        ("record_completion", "record_shed", "record_batch", "record_fault_event", "bump"),
    ),
)

_TIMED_FLAG = "_simbench_span"


def _resolve(path: str) -> Optional[type]:
    module_name, _, class_name = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None)


def _with_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def layer_of_module(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS.get(best, "other")


class Tracer:
    """Installs timing wrappers and aggregates what they measure."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # "<key>:<method>" -> calls
        self.layer_of_key: dict[str, str] = {}
        self.extra: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        # Child time of each open span; the bottom entry collects the
        # time of top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[type, str, Any]] = []
        self._callback_layers: dict[Any, str] = {}

    # -- spans ---------------------------------------------------------------

    def timed(self, key: str, layer: str, fn: Callable, label: str) -> Callable:
        """Wrap ``fn`` in a span charged to ``key``."""
        self.layer_of_key[key] = layer
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter
        count_key = f"{key}:{label}"

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[key] += dt - child
                calls[count_key] += 1

        setattr(span, _TIMED_FLAG, True)
        return span

    def callback(self, fn: Callable) -> Callable:
        """Wrap an event callback, charged to its defining module's layer."""
        target = getattr(fn, "__func__", fn)
        code = getattr(target, "__code__", target)
        layer = self._callback_layers.get(code)
        if layer is None:
            layer = layer_of_module(getattr(target, "__module__", None) or "")
            self._callback_layers[code] = layer
        return self.timed(f"callback.{layer}", layer, fn, "event")

    # -- installation --------------------------------------------------------

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, layer, path, methods in HOOKS:
            base = _resolve(path)
            if base is None:
                self.missing.append(path)
                continue
            for name in methods:
                owners = [c for c in _with_subclasses(base) if name in c.__dict__]
                if not owners:
                    self.missing.append(f"{path}.{name}")
                for cls in owners:
                    timed = self.timed(key, layer, cls.__dict__[name], name)
                    self._patch(cls, name, self._probe(key, name, timed))
        self._install_engine_probes()

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()

    def _install_engine_probes(self) -> None:
        engine = _resolve("repro.sim.engine:Simulator")
        event = _resolve("repro.sim.engine:Event")
        tracer = self
        for name in ("schedule", "call_at"):
            if engine is None or name not in engine.__dict__:
                self.missing.append(f"repro.sim.engine:Simulator.{name}")
                continue
            original = engine.__dict__[name]

            def enqueue(sim, when, fn, *args, _original=original, **kwargs):
                if not getattr(fn, _TIMED_FLAG, False):
                    fn = tracer.callback(fn)
                return _original(sim, when, fn, *args, **kwargs)

            self._patch(engine, name, enqueue)
        if event is None or "cancel" not in event.__dict__:
            self.missing.append("repro.sim.engine:Event.cancel")
            return
        cancel = event.__dict__["cancel"]

        def counted_cancel(ev):
            if ev.pending:
                tracer.extra["cancelled"] += 1
            return cancel(ev)

        self._patch(event, "cancel", counted_cancel)

    # -- probes: counts read at a hook, outside its span ----------------------

    def _probe(self, key: str, name: str, timed: Callable) -> Callable:
        extra = self.extra
        if key == "kvcache.extend" and name == "extend":

            def extend(kv, request_id, new_tokens, *args, **kwargs):
                before = kv.get(request_id).blocks if kv.has(request_id) else 0
                alloc = timed(kv, request_id, new_tokens, *args, **kwargs)
                if alloc.blocks > before:
                    extra["new_blocks"] += 1
                    extra["gpu_util_peak"] = max(extra["gpu_util_peak"], kv.gpu_utilization)
                return alloc

            return extend
        if key == "kvcache.alloc":

            def allocate(kv, *args, **kwargs):
                alloc = timed(kv, *args, **kwargs)
                extra["gpu_util_peak"] = max(extra["gpu_util_peak"], kv.gpu_utilization)
                return alloc

            return allocate
        if key == "kvcache.transfer":

            def transfer(engine, nbytes, *args, **kwargs):
                job = timed(engine, nbytes, *args, **kwargs)
                extra["transfers"] += 1
                extra["transfer_bytes"] += nbytes
                extra["transfer_sim_s"] += job.finish - job.start
                return job

            return transfer
        if key == "sim.trace.emit":

            def emit(log, when, component, tag, **payload):
                if tag == "batch-start" and payload.get("decode_batch"):
                    extra["decode_batches"] += 1
                    extra["decode_batch_requests"] += payload["decode_batch"]
                return timed(log, when, component, tag, **payload)

            return emit
        return timed

    # -- results ---------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for key, seconds in self.self_s.items():
            out[self.layer_of_key[key]] += seconds
        return dict(out)

    def calls_of(self, key: str, *methods: str) -> int:
        if methods:
            return sum(self.calls.get(f"{key}:{m}", 0) for m in methods)
        prefix = key + ":"
        return sum(n for k, n in self.calls.items() if k.startswith(prefix))

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced run that took ``run_s`` seconds."""
        s, x = self.self_s, self.extra
        layers = self.layer_self()
        extend_calls = self.calls_of("kvcache.extend", "extend")
        decode_batches = x["decode_batches"]
        out = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
        out.update({
            "sim.cancelled": int(x["cancelled"]),
            "serving.kick_s": s.get("serving.kick", 0.0),
            "serving.decode_iter_s": s.get("serving.decode_iter", 0.0),
            "serving.decode_iter_calls": self.calls_of("serving.decode_iter"),
            "serving.decode_batch_mean": (
                x["decode_batch_requests"] / decode_batches if decode_batches else 0.0
            ),
            "core.route_s": s.get("core.route", 0.0),
            "core.handoff_s": s.get("core.handoff", 0.0),
            "core.reschedule_s": s.get("core.reschedule", 0.0),
            "core.fleet_submit_s": s.get("core.fleet_submit", 0.0),
            "policies.select_s": s.get("policies.select", 0.0),
            "policies.admit_s": s.get("policies.admit", 0.0),
            "kvcache.extend_calls": extend_calls,
            "kvcache.extend_s": s.get("kvcache.extend", 0.0),
            "kvcache.new_block_ratio": x["new_blocks"] / extend_calls if extend_calls else 0.0,
            "kvcache.alloc_s": s.get("kvcache.alloc", 0.0),
            "kvcache.free_s": s.get("kvcache.free", 0.0),
            "kvcache.gpu_util_peak": x["gpu_util_peak"],
            "kvcache.transfers": int(x["transfers"]),
            "kvcache.transfer_gb": x["transfer_bytes"] / 1e9,
            "kvcache.transfer_sim_s": x["transfer_sim_s"],
            "kvcache.transfer_s": s.get("kvcache.transfer", 0.0),
            "kvcache.prefix_s": s.get("kvcache.prefix", 0.0),
            "perf.calls": self.calls_of("perf.latency") + self.calls_of("perf.sbd"),
            "perf.s": s.get("perf.latency", 0.0) + s.get("perf.sbd", 0.0),
            "perf.sbd_calls": self.calls_of("perf.sbd"),
            "sim.trace.emit_calls": self.calls_of("sim.trace.emit"),
            "sim.trace.emit_s": s.get("sim.trace.emit", 0.0),
            "serving.metrics.record_s": s.get("serving.metrics.record", 0.0),
        })
        attributed = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.unattributed_share"] = (run_s - attributed) / run_s if run_s > 0 else 0.0
        return out
