"""One benchmark run in a fresh interpreter: set up, run, check, report.

``run.py`` starts this script once per run so that the import lands in
``setup_s`` and ``peak_rss_mb`` belongs to this workload alone.  Set-up
and the untraced run are timed against the host's speed (``hostspeed.py``).
It prints one JSON object on its last line of standard output.

    python3 simbench/measure.py --workload chat-decode --seed 0 \
        --spawned-at <time.monotonic() of the parent at spawn> [--traced]
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from catalog import WORKLOADS  # noqa: E402
from hostspeed import REF_S, HostSpeedProbe  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB.

    On Linux this is ``VmHWM``: ``ru_maxrss`` also counts the parent's
    resident set at the fork that started this process.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def measure(
    workload_name: str,
    seed: int,
    spawned_at: float,
    traced: bool = False,
    num_requests: int | None = None,
) -> dict:
    setup_probe = HostSpeedProbe()
    setup_probe.start()
    try:
        t0 = time.perf_counter()
        import workloads  # the program's whole import happens here

        import_s = time.perf_counter() - t0
        prepared = workloads.prepare(WORKLOADS[workload_name], seed, num_requests)
    finally:
        setup_end = time.monotonic()
        setup_probe_s = setup_probe.stop()[0]
    setup_wall_s = setup_end - spawned_at - setup_probe_s

    # The traced run measures layers, not the host: a probe sample would
    # land in the self time of whatever layer it interrupted.
    tracer = probe = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = HostSpeedProbe()
        probe.start()
    probe_wall_s = probe_cpu_s = 0.0
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        workloads.run(prepared)
        run_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe_wall_s, probe_cpu_s = probe.stop()
    run_s -= probe_wall_s
    cpu_s -= probe_cpu_s
    rss = peak_rss_mb()

    f0 = time.perf_counter()
    fingerprint = workloads.fingerprint(prepared)
    fingerprint_s = time.perf_counter() - f0
    counts = workloads.work_counts(prepared)
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "fingerprint": fingerprint,
        "counts": counts,
        "host": {
            "setup_s": setup_wall_s * REF_S / setup_probe.kernel_wall_s,
            "setup_wall_s": setup_wall_s,
            "run_s": run_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": rss,
            "setup.import_s": import_s,
            "setup.build_s": prepared.build_s,
            "workloads.generate_s": prepared.generate_s,
            "sim.fingerprint_s": fingerprint_s,
        },
        "modelled": workloads.modelled(prepared),
        "layer_counts": workloads.layer_counts(prepared),
    }
    if probe is not None:
        run_ref = run_s / probe.kernel_wall_s
        result["host"].update(
            run_ref=run_ref,
            cpu_ref=cpu_s / probe.kernel_cpu_s,
            tokens_per_ref=(counts["prefill_tokens"] + counts["decode_tokens"]) / run_ref,
            kernel_ms=probe.kernel_wall_s * 1e3,
            probe_share=probe_wall_s / (run_s + probe_wall_s),
        )
    if tracer is not None:
        result["layers"] = tracer.metrics(run_s)
        result["missing_hooks"] = tracer.missing
    result["problems"] = workloads.check(prepared)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--requests", type=int, default=None, help="override the request count")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else STARTED
    result = measure(args.workload, args.seed, spawned_at, args.traced, args.requests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
