"""Merge N per-radar frame streams into one timestamp-ordered stream.

Watermark logic runs in the timestamp domain so replay at any speed is
bit-identical to live operation.  A frame is released once every
registered source has progressed past its timestamp, or once newer
traffic has advanced more than the reorder horizon beyond it.  The
watermark is the timestamp of the last frame released; a frame stamped
before it is late, and late data is discarded and counted, the one
rule of watermark stream processing (Akidau et al., "The Dataflow
Model", VLDB 2015).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class UnknownSource(KeyError):
    pass


@dataclass(frozen=True)
class MergeConfig:
    reorder_horizon_ms: float = 100.0

    def __post_init__(self):
        if self.reorder_horizon_ms <= 0:
            raise ValueError("reorder_horizon_ms must be > 0")


class Merger:
    """Reorders frames from registered sources into one stream.

    Frames are (ts_ns, source_id, payload) triples internally; ``push``
    returns the list of frames released by that push, in timestamp
    order.  A frame stamped before the watermark is dropped.  Counters:
    ``received``, ``emitted``, ``late_dropped``.
    """

    def __init__(self, cfg: MergeConfig, source_ids):
        self.cfg = cfg
        self._horizon_ns = int(cfg.reorder_horizon_ms * 1e6)
        # each source's newest timestamp; -inf until it first reports
        self._latest: dict[str, float] = dict.fromkeys(source_ids, -math.inf)
        self._heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self._watermark = -math.inf
        self.received = 0
        self.emitted = 0
        self.late_dropped = 0

    def push(self, source_id: str, ts_ns: int, frame):
        latest = self._latest
        if source_id not in latest:
            raise UnknownSource(source_id)
        self.received += 1
        if ts_ns < self._watermark:
            self.late_dropped += 1
            return []
        if ts_ns > latest[source_id]:
            latest[source_id] = ts_ns
        heapq.heappush(self._heap, (ts_ns, self._seq, source_id, frame))
        self._seq += 1
        # the horizon behind the newest frame forces the watermark along;
        # once every source has reported, the slowest one's latest frame
        # may raise it further
        stamps = latest.values()
        return self._release(max(max(stamps) - self._horizon_ns,
                                 min(stamps)))

    def _release(self, limit):
        """Pop every buffered frame stamped at or before ``limit``."""
        heap, out = self._heap, []
        while heap and heap[0][0] <= limit:
            ts, _, src, frame = heapq.heappop(heap)
            out.append((ts, src, frame))
        if out:
            self._watermark = out[-1][0]
        self.emitted += len(out)
        return out

    def flush(self):
        """Release everything still buffered, in timestamp order."""
        return self._release(math.inf)
