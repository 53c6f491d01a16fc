"""Simulator benchmark: simulator speed and modelled SLOs per workload.

Run from the repository root:

    python3 simbench/run.py --workload chat-decode --seed 0 --seconds 40 --trace 0
    python3 simbench/run.py --workload all --seed 0

Each run is ``measure.py`` in a fresh, single-threaded interpreter, one at
a time.  ``--trace 0`` repeats untraced runs for about ``--seconds`` (at least
three runs) and reports the end-to-end metrics: host-time ones as the
median over runs, modelled ones (simulated time) exactly.  ``--trace 1``
makes one untraced and one traced run and reports the per-layer metrics.
``--workload all`` does both for every workload.

Every run is checked (see ``workloads.check``), and all runs of one seed
must agree on the fingerprint, the work counts and every modelled number.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (requests) and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when a run could not
complete (for example without the program's sources next to this
directory), in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, HOST_METRICS, PER_LAYER, WORKLOADS  # noqa: E402

MIN_RUNS = 3
RUN_TIMEOUT_S = 170


class RunError(RuntimeError):
    """A run did not complete, so there is nothing to report."""


def spawn(workload: str, seed: int, traced: bool = False, requests: int | None = None) -> dict:
    """One run of ``measure.py`` in a fresh interpreter; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Never write bytecode: every run compiles the program's modules, so
    # set-up time does not depend on what earlier runs left behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if requests:
        cmd += ["--requests", str(requests)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload}: run exceeded {RUN_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RunError(f"{workload}: run exited with {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def disagreements(runs: list[dict]) -> list[str]:
    """Everything that must repeat exactly across runs of one seed."""
    first = runs[0]
    problems = []
    for run in runs[1:]:
        for field in ("fingerprint", "counts", "modelled", "layer_counts"):
            if run[field] != first[field]:
                kind = "traced" if run["traced"] else "untraced"
                problems.append(f"{field} of a {kind} run differs from the first run")
    return problems


def end_to_end(runs: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics of untraced runs, plus human-readable lines."""
    metrics, lines = {}, []
    units = {m.name: m.unit for m in END_TO_END}
    modelled = runs[0]["modelled"]
    for name in HOST_METRICS:
        q1, med, q3 = quartiles([r["host"][name] for r in runs])
        metrics[name] = med
        lines.append(
            f"  {name:<16} {med:>14.6g} {units[name]:<10} median of {len(runs)} runs"
            f" [q1 {q1:.6g}, q3 {q3:.6g}]"
        )
    # The raw host times the ``ref`` metrics are made of, for the reader.
    for name, unit in (("setup_wall_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("kernel_ms", "ms")):
        q1, med, q3 = quartiles([r["host"][name] for r in runs])
        lines.append(
            f"  ({name:<14} {med:>14.6g} {unit:<10} median of {len(runs)} runs"
            f" [q1 {q1:.6g}, q3 {q3:.6g}], not a metric)"
        )
    for m in END_TO_END:
        if m.name in HOST_METRICS:
            continue
        value = modelled[m.name]
        metrics[m.name] = value
        if m.name.startswith("ttft"):
            note = f"over {modelled['ttft_samples']} completed requests"
        elif m.name.startswith("tpot"):
            note = f"over {modelled['tpot_samples']} completed multi-token requests"
        else:
            note = f"of {runs[0]['counts']['sent']} requests sent"
        lines.append(f"  {m.name:<16} {value:>14.6g} {m.unit:<10} simulated, {note}")
    return metrics, lines


def per_layer(untraced: list[dict], traced: dict) -> dict:
    """Per-layer metrics: counts from the untraced runs, times traced."""
    run_s = statistics.median(r["host"]["run_s"] for r in untraced)
    events = untraced[0]["counts"]["events"]
    out = dict(untraced[0]["layer_counts"])
    out.update(traced["layers"])
    for name in ("setup.import_s", "setup.build_s", "workloads.generate_s", "sim.fingerprint_s"):
        out[name] = statistics.median(r["host"][name] for r in untraced)
    out["sim.us_per_event"] = run_s / events * 1e6 if events else 0.0
    out["trace.overhead"] = traced["host"]["run_s"] / run_s
    return {m.name: out[m.name] for m in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns metrics, outcome and report lines."""
    started = time.monotonic()
    untraced = [spawn(name, seed)]
    if trace:
        runs = untraced + [spawn(name, seed, traced=True)]
    else:
        # Start another run only while it can finish within ``seconds``.
        while len(untraced) < MIN_RUNS or (time.monotonic() - started) * (
            len(untraced) + 1
        ) / len(untraced) <= seconds:
            untraced.append(spawn(name, seed))
        runs = untraced
    sent = [r["counts"]["sent"] for r in runs]
    problems = disagreements(runs)
    # A run that fails a check loses its requests; runs that disagree
    # cannot say which of them is right, so all of them do.
    failed = sum(sent) if problems else sum(s for s, r in zip(sent, runs) if r["problems"])
    for run in runs:
        problems.extend(run["problems"])
    counts = runs[0]["counts"]
    lines = [
        f"{name}  seed {seed}  fingerprint {runs[0]['fingerprint'][:16]}",
        "  work: " + ", ".join(f"{k} {v}" for k, v in counts.items()),
    ]
    if trace:
        metrics = per_layer(untraced, runs[-1])
        units = {m.name: m.unit for m in PER_LAYER}
        lines.append("  per-layer metrics (host times from the traced run):")
        lines += [f"    {k:<30} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
        missing = runs[-1].get("missing_hooks") or []
        if missing:
            lines.append("  hooks not found (their metrics read 0): " + ", ".join(missing))
    else:
        metrics, e2e_lines = end_to_end(untraced)
        lines.append("  end-to-end metrics:")
        lines += e2e_lines
    lines += [f"  CHECK FAILED: {p}" for p in problems[:20]]
    return {
        "metrics": metrics,
        "correct": not problems,
        "attempted": sum(sent),
        "failed": failed,
        "lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    try:
        for name in names:
            for trace in traces:
                result = run_workload(name, args.seed, args.seconds, trace)
                print("\n".join(result["lines"]), flush=True)
                results[(name, trace)] = result
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    by_workload: dict = {}
    for (name, _), result in results.items():
        by_workload.setdefault(name, {}).update(
            {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
        )
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": by_workload if args.workload == "all" else by_workload[args.workload],
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
