"""Host-clock access for the suite: the only module that reads it.

Everything the engine reports is simulated time; the suite additionally
records what the *simulator* costs on the host.  Keeping every
``perf_counter`` call here (and nowhere else under ``benchmarks/suite``)
is what lets the repository's ``code/wall-clock`` lint stay meaningful
for the rest of the tree.
"""
# lint: allow-file(wall-clock)

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional


def now() -> float:
    """Host seconds on a monotonic clock."""
    return time.perf_counter()


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class HostSpan:
    """One benchmark-side span: a call the suite made into a layer."""

    span_id: int
    parent: Optional[int]
    name: str
    #: ``setup`` | ``measure`` | ``verify`` | ``probe`` | ``cycle``
    role: str
    cycle: int
    start_s: float
    end_s: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Duration minus the part its direct children cover."""
        return self.duration_s - self.child_s

    def to_dict(self, workload: str, origin_s: float) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "workload": workload,
            "cycle": self.cycle,
            "name": self.name,
            "role": self.role,
            "start_s": self.start_s - origin_s,
            "end_s": self.end_s - origin_s,
            "self_s": self.self_s,
        }


class SpanRecorder:
    """Keeps spans in memory; they are written out when the run ends."""

    def __init__(self) -> None:
        self.origin_s = now()
        self.spans: List[HostSpan] = []
        self.cycle = 0
        self._stack: List[HostSpan] = []

    @contextmanager
    def span(self, name: str, role: str) -> Iterator[HostSpan]:
        parent = self._stack[-1] if self._stack else None
        span = HostSpan(
            span_id=len(self.spans) + 1,
            parent=parent.span_id if parent else None,
            name=name,
            role=role,
            cycle=self.cycle,
            start_s=now(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_s = now()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.duration_s

    def elapsed_s(self) -> float:
        return now() - self.origin_s


def fastest_ns_per_op(
    run: Callable[..., int],
    prepare: Optional[Callable[[], object]] = None,
    batches: int = 5,
) -> float:
    """Host nanoseconds per op of the fastest of ``batches`` batches.

    ``run`` executes a fixed-input micro-loop and returns how many
    operations it performed (so its work is consumed inside the timed
    region).  ``prepare`` runs untimed before every batch and its
    result is passed to ``run`` — for probes that consume their input.
    The fastest batch, not the median, for the reason given in
    :mod:`benchmarks.suite.runner`: identical work, additive noise.
    """
    samples: List[float] = []
    for _ in range(batches):
        args = () if prepare is None else (prepare(),)
        started = now()
        ops = run(*args)
        samples.append((now() - started) * 1e9 / max(1, ops))
    return min(samples)
