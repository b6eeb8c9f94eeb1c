"""Wires the stages into a processing graph.

Stage order mirrors the node architecture: per-radar decode ->
threshold filter -> world-frame transform -> buffer filter -> merge ->
windowed clustering -> tracking -> occupancy -> telemetry/logs.
From the decoder on, a frame is one float array: a radar's ``(n, 5)``
point array (layout in :mod:`radarfuse.tlv`) through the threshold,
then its kept points' ``(n, 3)`` world positions from to-world on.  A
record from a radar the config does not name is dropped and counted in
``unknown_radar_records``.

:class:`Pipeline` is the one driver: synchronous and push-based.  The
timestamps inside the data drive all logic, so a replay is fully
deterministic at any pacing, MQTT output included; that is what makes
offline A/B comparisons and the regression tests meaningful.  The
publisher, when there is one, is pumped inline after each clustering
window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import tlv
from .clustering import WindowClusterer
from .config import PipelineConfig
from .filtering import BufferFilter, ThresholdConfig, threshold_filter
from .fusion import Merger
from .geometry import TransformTree
from .occupancy import OccupancyGrid
from .recording import LogRecord
from .telemetry import Publisher
from .tracking import Tracker


@dataclass
class _RadarLane:
    threshold: ThresholdConfig
    decoder: tlv.FrameDecoder
    buffer: BufferFilter


class Pipeline:
    """Synchronous pipeline over immutable per-stage messages."""

    def __init__(self, cfg: PipelineConfig, status_sink=None, event_sink=None,
                 publisher: Publisher | None = None):
        self.cfg = cfg
        self.tree = TransformTree({r.radar_id: r.pose for r in cfg.radars})
        self.lanes: dict[str, _RadarLane] = {}
        for r in cfg.radars:
            self.lanes[r.radar_id] = _RadarLane(
                threshold=r.threshold,
                decoder=tlv.FrameDecoder(),
                buffer=BufferFilter(r.buffer),
            )
        self.merger = Merger(cfg.merge, source_ids=list(self.lanes))
        self.clusterer = WindowClusterer(cfg.clustering)
        self.tracker = Tracker(cfg.tracker)
        self.grid = OccupancyGrid(cfg=cfg.grid, zones=list(cfg.zones))
        self.status_sink = status_sink or (lambda s: None)
        self.event_sink = event_sink or (lambda e: None)
        self.publisher = publisher
        self.unknown_radar_records = 0

    # -- per-stage feeds -------------------------------------------------

    def feed_record(self, record: LogRecord):
        """Entry point for one replayed/recorded log record."""
        radar_id, ts_ns = record.radar_id, record.ts_ns
        lane = self.lanes.get(radar_id)
        if lane is None:
            self.unknown_radar_records += 1
            return
        for points in lane.decoder.feed(record.payload, ts_ns):
            kept = threshold_filter(points, lane.threshold)
            positions = self.tree.to_world(radar_id, kept)
            emitted = lane.buffer.push(ts_ns, positions)
            if emitted is not None:
                self._feed_merger(radar_id, *emitted)

    def _feed_merger(self, radar_id: str, ts_ns: int, positions):
        for ts, _, frame in self.merger.push(radar_id, ts_ns, positions):
            self._feed_clusterer(ts, frame)

    def _feed_clusterer(self, ts_ns: int, positions):
        for result in self.clusterer.push(ts_ns, positions):
            self._feed_tracker(result)

    def _feed_tracker(self, result):
        snapshot, _ = self.tracker.step(result.centroids, result.ts_ns)
        events, statuses = self.grid.step(snapshot, result.ts_ns)
        for ev in events:
            self.event_sink(ev)
            if self.publisher is not None:
                self.publisher.offer_event(ev)
        for st in statuses:
            self.status_sink(st)
            if self.publisher is not None:
                self.publisher.offer_status(st)
        if self.publisher is not None:
            self.publisher.pump()

    def flush(self):
        """Drain every stage at end of input."""
        for radar_id, lane in self.lanes.items():
            for ts, positions in lane.buffer.flush():
                self._feed_merger(radar_id, ts, positions)
        for ts, _, positions in self.merger.flush():
            self._feed_clusterer(ts, positions)
        for result in self.clusterer.flush():
            self._feed_tracker(result)
        if self.publisher is not None:
            self.publisher.pump()


class JsonlSink:
    """Writes one JSON line per status/event, in a stable key order."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def status(self, st):
        self._fh.write(json.dumps(
            {"t_s": st.ts_ns / 1e9, "zone_id": st.zone_id, "count": st.count,
             "occupants": [[tid, round(d, 3)] for tid, d in st.occupants]},
            separators=(",", ":")) + "\n")

    def event(self, ev):
        self._fh.write(json.dumps(
            {"t_s": ev.ts_ns / 1e9, "kind": ev.kind, "track_id": ev.track_id,
             "zone_id": ev.zone_id}, separators=(",", ":")) + "\n")

    def close(self):
        self._fh.flush()
        self._fh.close()


def replay_through(cfg: PipelineConfig, records, status_sink=None,
                   event_sink=None, publisher=None) -> Pipeline:
    """Push an iterable of LogRecords through a fresh pipeline."""
    pipe = Pipeline(cfg, status_sink=status_sink, event_sink=event_sink,
                    publisher=publisher)
    for record in records:
        pipe.feed_record(record)
    pipe.flush()
    return pipe

