"""Pure helpers of the benchmark: summary statistics, output checks and
the span tracer.  Nothing here imports the simulator, so the tests of
these rules run without it."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: percentiles the tail rule may report, highest first.  The ladder
#: tops out at p95 so that a run making more ops (a faster program or
#: host) reports the same percentile as one making fewer: from 200
#: samples on, the tail is always p95.
TAIL_LADDER = (95.0, 90.0, 75.0)
#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10
#: below this many samples only the median is reported
TAIL_MIN_SAMPLES = 40

_MASK64 = (1 << 64) - 1


# -- statistics -----------------------------------------------------------

def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` for the highest ladder percentile that has
    at least ``TAIL_BEYOND`` samples beyond it.  Under
    ``TAIL_MIN_SAMPLES`` samples there is no tail: the median is
    returned as percentile 50."""
    if not samples:
        raise ValueError("tail of no samples")
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return 50.0, statistics.median(samples)
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= TAIL_BEYOND:
            return pct, percentile(samples, pct)
    raise AssertionError("unreachable: the ladder ends at p75")


def samples_beyond(n: int, pct: float) -> float:
    """How many of *n* samples lie beyond percentile *pct*."""
    return n * (100.0 - pct) / 100.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method)."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per_op_medians(samples: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Median of each op's samples across passes, keyed by op id, in
    first-seen order.  Totals are built from these medians, so one slow
    pass (a host hiccup) moves no figure."""
    grouped: Dict[str, List[float]] = {}
    for op, value in samples:
        grouped.setdefault(op, []).append(value)
    return {op: statistics.median(values) for op, values in grouped.items()}


# -- output checks --------------------------------------------------------

def to_signed(value: int) -> int:
    """A 64-bit machine word as a signed integer."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def outputs_match(outputs: Sequence[int], expected: Sequence[int]) -> bool:
    """The program's ``out()`` stream equals the workload's Python
    oracle (``WorkloadInstance.expected_output``)."""
    return [to_signed(v) for v in outputs] == list(expected)


def memory_digest(memory: Mapping[int, int]) -> str:
    """sha256 over a final-memory map, in address order."""
    blob = ";".join("%d:%d" % (addr, memory[addr] & _MASK64)
                    for addr in sorted(memory)).encode()
    return hashlib.sha256(blob).hexdigest()


def check_cell(outputs: Sequence[int], memory: Mapping[int, int],
               expected: Sequence[int], base_digest: str) -> bool:
    """A chaos-grid cell is right when its outputs equal the oracle and
    its final memory equals the fault-free run's: faults may change
    timing, never architectural state."""
    return (outputs_match(outputs, expected)
            and memory_digest(memory) == base_digest)


def check_served(payload: Mapping[str, object], key: str,
                 expected: Sequence[int], client_key: str) -> bool:
    """A served payload is right when its outputs equal the oracle and
    the content address it came under equals the key the client
    computed for the same spec."""
    outputs = payload.get("outputs")
    return (isinstance(outputs, list) and outputs_match(outputs, expected)
            and key == client_key)


# -- tracing --------------------------------------------------------------

class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans recorded around calls into the program, kept in memory.

    Each span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``op`` the id of
    the operation the span belongs to.  With ``enabled`` off, ``span``
    returns one shared no-op context and records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.op = ""
        self._stack: List[int] = []

    def span(self, name: str) -> object:
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: each span's duration
        minus the part of it its child spans cover."""
        covered = [0.0] * len(self.spans)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        for index, intervals in children.items():
            covered[index] = _union_length(intervals)
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _op) in \
                enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[index]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent,
                             tracer.op])
        tracer._stack.append(self.index)

    def __exit__(self, *exc: object) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def layer_of(span_name: str) -> str:
    """Layer a span belongs to: the part of its name before the first
    dot (``sim.simulate`` -> ``sim``); spans without one belong to the
    benchmark itself."""
    return span_name.split(".", 1)[0] if "." in span_name else "bench"
