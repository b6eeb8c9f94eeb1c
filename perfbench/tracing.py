"""Outside-in tracing of a radarfuse ``Pipeline``.

The stage objects a ``Pipeline`` holds are swapped for proxies that
time each call into their public entry points and pass everything else
through.  Nothing inside the program is changed, so the spans cover the
calls into each module, not the work inside it.

A span is ``(span_id, parent_id, name, start_ns, end_ns)``.  Each fed
record is one root span (``pipeline.feed_record``) and the stage calls
it cascades into are its children; the record's span id is the
identifier its children share.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from radarfuse.tracking import EventKind

FEED = "pipeline.feed_record"
FLUSH = "pipeline.flush"
REPLAY = "recording.replay"
DECODE = "tlv.decode"
TO_WORLD = "geometry.to_world"
BUFFER = "filtering.buffer"
MERGE = "fusion.merge"
CLUSTER = "clustering.cluster"
TRACK = "tracking.step"
GRID = "occupancy.step"
TELEMETRY = "telemetry.publish"

HISTOGRAM_BIN = 50  # points per bin of the clustering window-size histogram


class Tracer:
    """In-memory span recorder with an explicit stack of open spans."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans)
        self.spans.append(None)
        self._open.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def iterate(self, name: str, iterator):
        """Yield from ``iterator``, one span per ``next`` call."""
        while True:
            try:
                item = self.call(name, next, iterator)
            except StopIteration:
                return
            yield item


class _Stage:
    """Proxy for one stage object: timed methods, other attributes passed
    through."""

    def __init__(self, target, **timed):
        self._target = target
        for attr, fn in timed.items():
            setattr(self, attr, fn)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Probe:
    """Instruments one ``Pipeline`` and accumulates its layer counts."""

    def __init__(self, pipe, tracer: Tracer):
        self.pipe = pipe
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.window_points: list[int] = []
        self.tracks_max = 0
        self._instrument()

    # -- wiring -----------------------------------------------------------

    def _timed(self, name, fn, observe=None):
        call = self.tracer.call

        def timed(*args):
            result = call(name, fn, *args)
            if observe is not None:
                observe(args, result)
            return result
        return timed

    def _instrument(self):
        pipe, tracer, counts = self.pipe, self.tracer, self.counts

        def decode(decoder):
            def feed(data, ts_ns):
                frames = decoder.feed(data, ts_ns)
                for points in tracer.iterate(DECODE, frames):
                    counts["tlv.frames"] += 1
                    counts["tlv.points"] += len(points)
                    yield points
            return feed

        def buffer_push(args, emitted):
            counts["buffer.frames"] += 1
            counts["buffer.points_in"] += len(args[1])
            if emitted is not None:
                counts["buffer.points_out"] += len(emitted[1])

        def buffer_flush(args, frames):
            counts["buffer.points_out"] += sum(len(p) for _, p in frames)

        def merge_push(args, released):
            counts["merge.frames"] += 1

        def clustered(args, results):
            for r in results:
                self.window_points.append(len(r.labels))
                counts["cluster.windows"] += 1
                counts["cluster.clusters"] += len(r.centroids)

        def tracked(args, result):
            snapshot, events = result
            counts["track.steps"] += 1
            counts["track.created"] += sum(e.kind is EventKind.CREATED
                                           for e in events)
            self.tracks_max = max(self.tracks_max, len(snapshot))

        def stepped(args, result):
            events, statuses = result
            counts["grid.steps"] += 1
            counts["grid.events"] += len(events)
            counts["grid.statuses"] += len(statuses)

        def offered(args, result):
            counts["telemetry.offered"] += 1

        pipe.tree = _Stage(pipe.tree, to_world=self._timed(
            TO_WORLD, pipe.tree.to_world))
        for lane in pipe.lanes.values():
            lane.decoder = _Stage(lane.decoder, feed=decode(lane.decoder))
            lane.buffer = _Stage(
                lane.buffer,
                push=self._timed(BUFFER, lane.buffer.push, buffer_push),
                flush=self._timed(BUFFER, lane.buffer.flush, buffer_flush))
        pipe.merger = _Stage(
            pipe.merger,
            push=self._timed(MERGE, pipe.merger.push, merge_push),
            flush=self._timed(MERGE, pipe.merger.flush))
        pipe.clusterer = _Stage(
            pipe.clusterer,
            push=self._timed(CLUSTER, pipe.clusterer.push, clustered),
            flush=self._timed(CLUSTER, pipe.clusterer.flush, clustered))
        pipe.tracker = _Stage(pipe.tracker, step=self._timed(
            TRACK, pipe.tracker.step, tracked))
        pipe.grid = _Stage(pipe.grid, step=self._timed(
            GRID, pipe.grid.step, stepped))
        if pipe.publisher is not None:
            pub = pipe.publisher
            pipe.publisher = _Stage(
                pub,
                offer_status=self._timed(TELEMETRY, pub.offer_status, offered),
                offer_event=self._timed(TELEMETRY, pub.offer_event, offered),
                pump=self._timed(TELEMETRY, pub.pump))

    # -- entry points the replay loop calls ---------------------------------

    def records(self, iterator):
        return self.tracer.iterate(REPLAY, iterator)

    def feed_record(self, record):
        return self.tracer.call(FEED, self.pipe.feed_record, record)

    def flush(self):
        return self.tracer.call(FLUSH, self.pipe.flush)


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: total duration, self time (ns) and call count."""
    total: dict = defaultdict(int)
    child: dict = defaultdict(int)
    calls: Counter = Counter()
    for span_id, parent, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[spans[parent][2]] += end - start
    self_ns = {name: total[name] - child[name] for name in total}
    return dict(total), self_ns, dict(calls)


def layer_metrics(probe: Probe, records: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    total, self_ns, calls = span_totals(probe.tracer.spans)
    c = probe.counts
    us = lambda name: total.get(name, 0) / 1e3  # noqa: E731
    per = lambda num, den: num / den if den else 0.0  # noqa: E731
    pub = probe.pipe.publisher
    sizes = sorted(probe.window_points)
    glue_ns = self_ns.get(FEED, 0)
    return {
        "recording.replay_us_per_record": per(us(REPLAY), records),
        "tlv.decode_us_per_frame": per(us(DECODE), c["tlv.frames"]),
        "tlv.points_per_frame": per(c["tlv.points"], c["tlv.frames"]),
        "geometry.to_world_us_per_frame": per(us(TO_WORLD), c["tlv.frames"]),
        "geometry.to_world_calls": calls.get(TO_WORLD, 0),
        "filtering.buffer_us_per_frame": per(us(BUFFER), c["buffer.frames"]),
        "filtering.threshold_kept_ratio": per(c["buffer.points_in"],
                                              calls.get(TO_WORLD, 0)),
        "filtering.buffer_kept_ratio": per(c["buffer.points_out"],
                                           c["buffer.points_in"]),
        "pipeline.glue_us_per_record": per(glue_ns / 1e3, records),
        "fusion.merge_us_per_frame": per(us(MERGE), c["merge.frames"]),
        "fusion.late_dropped": probe.pipe.merger.late_dropped,
        "clustering.us_per_window": per(us(CLUSTER), c["cluster.windows"]),
        "clustering.us_per_point": per(us(CLUSTER), sum(sizes)),
        "clustering.windows": c["cluster.windows"],
        "clustering.window_points_p50": percentile(sizes, 50),
        "clustering.window_points_p99": percentile(sizes, 99),
        "clustering.window_points_max": sizes[-1] if sizes else 0,
        "clustering.clusters_per_window": per(c["cluster.clusters"],
                                              c["cluster.windows"]),
        "tracking.step_us_per_window": per(us(TRACK), c["track.steps"]),
        "tracking.tracks_max": probe.tracks_max,
        "tracking.tracks_created": c["track.created"],
        "occupancy.step_us_per_window": per(us(GRID), c["grid.steps"]),
        "occupancy.statuses": c["grid.statuses"],
        "occupancy.events": c["grid.events"],
        "telemetry.offered": c["telemetry.offered"],
        "telemetry.published": pub.published if pub is not None else 0,
        "telemetry.dropped": pub.dropped if pub is not None else 0,
        "telemetry.us_per_message": per(us(TELEMETRY),
                                        c["telemetry.offered"]),
    }


def self_time_shares(spans, wall_s: float) -> dict:
    """Self time of each span name as a share of the pass's wall time."""
    _, self_ns, _ = span_totals(spans)
    return {name: ns / 1e9 / wall_s
            for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])}


def window_histogram(sizes) -> dict:
    """Clustering windows by point count, in bins of ``HISTOGRAM_BIN``."""
    hist = Counter(s // HISTOGRAM_BIN * HISTOGRAM_BIN for s in sizes)
    return {f"{lo}-{lo + HISTOGRAM_BIN - 1}": hist[lo] for lo in sorted(hist)}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0 for an empty sequence."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def write_spans(spans, path):
    """Write spans as tab-separated ``id parent name start_ns end_ns``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id\tparent_id\tname\tstart_ns\tend_ns\n")
        for span_id, parent, name, start, end in spans:
            fh.write(f"{span_id}\t{'' if parent is None else parent}\t"
                     f"{name}\t{start}\t{end}\n")
