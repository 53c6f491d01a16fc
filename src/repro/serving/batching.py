"""Batch descriptors formed by instance schedulers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.perf.roofline import BatchTiming
from repro.serving.request import Request


@dataclass
class Batch:
    """One forward pass an instance has decided to execute.

    ``kind`` is one of:

    * ``"prefill"`` — pure prefill pass over ``prefill_requests``;
    * ``"decode"`` — one decode iteration over ``decode_requests``;
    * ``"hybrid"`` — fused chunked-prefill + decode pass (vLLM / chunked mode);
    * ``"sbd"`` — decode iteration co-running with an assist prefill in a
      separate stream (WindServe's stream-based disaggregation).
    """

    kind: str
    duration: float
    prefill_requests: list[Request] = field(default_factory=list)
    prefill_tokens: int = 0
    decode_requests: list[Request] = field(default_factory=list)
    timing: Optional[BatchTiming] = None
    meta: dict = field(default_factory=dict)

    @property
    def decode_batch_size(self) -> int:
        return len(self.decode_requests)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Batch({self.kind}, prefill={len(self.prefill_requests)}r/"
            f"{self.prefill_tokens}t, decode={len(self.decode_requests)}r, "
            f"{self.duration * 1e3:.2f} ms)"
        )
