"""Request traces: generation, statistics, serialisation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.models.spec import ModelSpec
from repro.serving.request import DEFAULT_TENANT, DEFAULT_TIER, Request
from repro.sim.random import RandomStreams
from repro.workloads.arrivals import TierMix, gamma_arrivals, poisson_arrivals
from repro.workloads.datasets import DatasetProfile
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix


@dataclass(frozen=True)
class TraceStats:
    """Table 2-style summary of a trace."""

    num_requests: int
    rate: float
    prompt_avg: float
    prompt_median: float
    prompt_p90: float
    output_avg: float
    output_median: float
    output_p90: float


class Trace:
    """An ordered collection of requests with arrival timestamps."""

    def __init__(self, requests: list[Request], rate: float = 0.0, name: str = "trace") -> None:
        self.requests = sorted(requests, key=lambda r: r.arrival_time)
        self.rate = rate
        self.name = name
        # Named RNG streams touched while sampling this trace (empty for
        # loaded/synthetic traces); folded into run fingerprints.
        self.rng_registry: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx: int) -> Request:
        return self.requests[idx]

    @property
    def duration(self) -> float:
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time

    def stats(self) -> TraceStats:
        prompts = np.array([r.prompt_tokens for r in self.requests], dtype=float)
        outputs = np.array([r.output_tokens for r in self.requests], dtype=float)
        if len(prompts) == 0:
            nan = float("nan")
            return TraceStats(0, self.rate, nan, nan, nan, nan, nan, nan)
        return TraceStats(
            num_requests=len(prompts),
            rate=self.rate,
            prompt_avg=float(prompts.mean()),
            prompt_median=float(np.median(prompts)),
            prompt_p90=float(np.percentile(prompts, 90)),
            output_avg=float(outputs.mean()),
            output_median=float(np.median(outputs)),
            output_p90=float(np.percentile(outputs, 90)),
        )

    # -- serialisation ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        rows = workload_rows(self.requests)
        Path(path).write_text(json.dumps({"name": self.name, "rate": self.rate, "rows": rows}))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        data = json.loads(Path(path).read_text())
        return cls(
            clone_requests(data["rows"]),
            rate=data.get("rate", 0.0),
            name=data.get("name", "trace"),
        )


def workload_rows(requests: Iterable[Request]) -> list[dict]:
    """Requests reduced to their defining bytes (trace files, workload
    fingerprints, per-arm clones).

    The tier, prefix and tenant keys appear only when a request carries a
    non-default value, so files and digests of tier-, prefix- and
    tenant-free workloads stay byte-identical to older recordings.
    """
    rows = []
    for r in requests:
        row = {
            "id": r.request_id,
            "arrival": r.arrival_time,
            "prompt": r.prompt_tokens,
            "output": r.output_tokens,
        }
        if r.tier != DEFAULT_TIER:
            row["tier"] = r.tier
        if r.prefix_len:
            row["prefix_hash"] = r.prefix_hash
            row["prefix_len"] = r.prefix_len
        if r.tenant != DEFAULT_TENANT:
            row["tenant"] = r.tenant
        rows.append(row)
    return rows


def clone_requests(rows: Iterable[dict]) -> list[Request]:
    """Fresh, unmutated request objects rebuilt from :func:`workload_rows`."""
    return [
        Request(
            request_id=row["id"],
            prompt_tokens=row["prompt"],
            output_tokens=row["output"],
            arrival_time=row["arrival"],
            tier=row.get("tier", DEFAULT_TIER),
            prefix_hash=row.get("prefix_hash", 0),
            prefix_len=row.get("prefix_len", 0),
            tenant=row.get("tenant", DEFAULT_TENANT),
        )
        for row in rows
    ]


def generate_trace(
    dataset: DatasetProfile,
    rate: float,
    num_requests: int,
    seed: int = 0,
    model: Optional[ModelSpec] = None,
    start_id: int = 0,
    arrival_process: str = "poisson",
    burstiness_cv: float = 2.0,
    tier_mix: Optional[TierMix] = None,
    prefix_mix: Optional[PrefixMix] = None,
    tenant_mix: Optional[TenantMix] = None,
) -> Trace:
    """Sample an arrival trace from a dataset profile.

    ``arrival_process`` is ``"poisson"`` (the paper's setting) or
    ``"bursty"`` (Gamma renewals with inter-arrival CV ``burstiness_cv``).
    When ``model`` is given, prompt+output lengths are clamped so the full
    sequence fits the model's context window (as real benchmark harnesses
    must do — OPT's 2K limit truncates long ShareGPT turns).  With a
    ``tier_mix``, each request draws an SLO tier from the dedicated
    ``"tiers"`` RNG stream; without one the stream is never touched, so
    tier-free traces (and their RNG registries) are byte-identical to
    pre-tier recordings.  A ``prefix_mix`` works the same way over the
    dedicated ``"prefix"`` stream: each request draws a shared-prefix
    assignment (``prefix_hash``/``prefix_len``), clamped so at least one
    prompt token always remains to compute.  A ``tenant_mix`` assigns each
    request an owning tenant from the dedicated ``"tenants"`` stream —
    again only touched when a mix is given, keeping tenant-free traces
    byte-identical to pre-tenant recordings.
    """
    streams = RandomStreams(seed)
    if arrival_process == "poisson":
        arrivals = poisson_arrivals(rate, num_requests, streams.get("arrivals"))
    elif arrival_process == "bursty":
        arrivals = gamma_arrivals(
            rate, num_requests, streams.get("arrivals"), cv=burstiness_cv
        )
    else:
        raise ValueError(f"unknown arrival_process {arrival_process!r}")
    prompts = dataset.prompt.sample(streams.get("prompt-lengths"), num_requests)
    outputs = dataset.output.sample(streams.get("output-lengths"), num_requests)
    tiers = None
    if tier_mix is not None:
        tiers = tier_mix.sample(streams.get("tiers"), num_requests)
    prefixes = None
    if prefix_mix is not None:
        prefixes = prefix_mix.sample(streams.get("prefix"), num_requests)
    tenants = None
    if tenant_mix is not None:
        tenants = tenant_mix.sample(streams.get("tenants"), num_requests)

    requests = []
    for i in range(num_requests):
        prompt, output = int(prompts[i]), int(outputs[i])
        if model is not None:
            prompt = min(prompt, model.max_context - 2)
            output = max(1, min(output, model.max_context - prompt))
        if prefixes is not None:
            p_hash, p_len = prefixes[i]
            # The shared header is a leading slice of the prompt; at least
            # one prompt token must remain uncached so prefill still runs.
            p_len = min(p_len, prompt - 1)
            if p_len <= 0:
                p_hash, p_len = 0, 0
        else:
            p_hash, p_len = 0, 0
        requests.append(
            Request(
                request_id=start_id + i,
                prompt_tokens=prompt,
                output_tokens=output,
                arrival_time=float(arrivals[i]),
                tier=tiers[i] if tiers is not None else DEFAULT_TIER,
                prefix_hash=p_hash,
                prefix_len=p_len,
                tenant=tenants[i] if tenants is not None else DEFAULT_TENANT,
            )
        )
    trace = Trace(requests, rate=rate, name=f"{dataset.name}-r{rate:g}-n{num_requests}")
    trace.rng_registry = streams.registry()
    return trace
