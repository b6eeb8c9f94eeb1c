"""Zone occupancy: debounced (track, zone) membership.

Membership is the pair (confirmed track, zone whose rectangle holds the
track's position).  Each pair is a small one-counter automaton: a run of
H_on consecutive ticks inside turns it occupied, a run of H_off
consecutive ticks outside turns it back off, and any tick that agrees
with the pair's state resets the run.  A pair whose track is gone from
the snapshot (a deleted track) leaves at once.  Only tracks inside the
closed grid bounds count; a confirmed track outside them is counted in
``out_of_bounds_count`` and is outside every zone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .recording import check_duration
from .tracking import TargetTrack, TrackStatus


@dataclass(frozen=True)
class Zone:
    zone_id: str
    len_x: float
    len_y: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        # the id is an MQTT topic level, so it may hold no separator or
        # wildcard
        if any(c in self.zone_id for c in "/+#"):
            raise ValueError(f"zone_id {self.zone_id!r} contains an MQTT "
                             "wildcard or separator")
        if self.len_x <= 0 or self.len_y <= 0:
            raise ValueError("zone side lengths must be > 0")

    def contains(self, x: float, y: float) -> bool:
        cx, cy = self.center
        return (abs(x - cx) <= self.len_x / 2.0
                and abs(y - cy) <= self.len_y / 2.0)


@dataclass(frozen=True)
class GridConfig:
    # 1/1: track confirmation already delays an enter, and a track
    # leaves a zone on its first window outside it; a longer exit
    # debounce keeps tracks that coast out of the room counted longer
    on_threshold: int = 1     # H_on, consecutive ticks inside a zone
    off_threshold: int = 1    # H_off, consecutive ticks outside it
    status_period: float = 2.0  # s
    bounds_x: tuple[float, float] = (0.0, 12.0)
    bounds_y: tuple[float, float] = (0.0, 6.0)

    def __post_init__(self):
        if self.on_threshold < 1 or self.off_threshold < 1:
            raise ValueError("hysteresis thresholds must be >= 1")
        check_duration("status_period", self.status_period, 1e9)
        for name in ("bounds_x", "bounds_y"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be [lo, hi] with lo < hi")


@dataclass
class CellState:
    occupied: bool = False
    run: int = 0    # consecutive ticks that contradict `occupied`


def cell_tick(cell: CellState, present: bool, h_on: int, h_off: int) -> CellState:
    """One tick of the hysteresis automaton (pure)."""
    if present == cell.occupied:
        return CellState(cell.occupied, 0)
    run = cell.run + 1
    if run >= (h_off if cell.occupied else h_on):
        return CellState(not cell.occupied, 0)
    return CellState(cell.occupied, run)


@dataclass(frozen=True)
class OccupancyEvent:
    kind: str             # "enter" | "exit"
    track_id: int
    zone_id: str
    ts_ns: int


@dataclass(frozen=True)
class ZoneStatus:
    zone_id: str
    occupants: list[tuple[int, float]]  # (track_id, dwell_seconds)
    count: int
    ts_ns: int


@dataclass
class OccupancyGrid:
    """Sequential consumer of track snapshots, producer of zone events
    and periodic statuses."""

    cfg: GridConfig
    zones: list[Zone]
    out_of_bounds_count: int = 0
    _pairs: dict[tuple[int, str], CellState] = field(default_factory=dict)
    _membership: dict[tuple[int, str], int] = field(default_factory=dict)  # -> enter ts
    _last_status_ns: int | None = None

    def step(self, tracks: list[TargetTrack], ts_ns: int):
        """Returns (events, statuses); statuses is empty between periods."""
        (x0, x1), (y0, y1) = self.cfg.bounds_x, self.cfg.bounds_y
        inside: set[tuple[int, str]] = set()
        for t in tracks:
            if t.status is not TrackStatus.CONFIRMED:
                continue
            x, y = float(t.state[0]), float(t.state[1])
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                self.out_of_bounds_count += 1
                continue
            inside.update((t.track_id, zone.zone_id) for zone in self.zones
                          if zone.contains(x, y))

        alive = {t.track_id for t in tracks}
        h_on, h_off = self.cfg.on_threshold, self.cfg.off_threshold
        for pair in inside | set(self._pairs):
            nxt = cell_tick(self._pairs.get(pair, CellState()),
                            pair in inside, h_on, h_off)
            # a pair whose track was deleted leaves at once
            if pair[0] in alive and (nxt.occupied or nxt.run):
                self._pairs[pair] = nxt
            else:
                self._pairs.pop(pair, None)
        current = {pair for pair, s in self._pairs.items() if s.occupied}

        events = []
        for pair in sorted(current - set(self._membership)):
            self._membership[pair] = ts_ns
            events.append(OccupancyEvent("enter", pair[0], pair[1], ts_ns))
        for pair in sorted(set(self._membership) - current):
            del self._membership[pair]
            events.append(OccupancyEvent("exit", pair[0], pair[1], ts_ns))

        statuses = []
        period_ns = int(self.cfg.status_period * 1e9)
        if self._last_status_ns is None or ts_ns - self._last_status_ns >= period_ns:
            self._last_status_ns = ts_ns
            statuses = self._statuses(ts_ns)
        return events, statuses

    def _statuses(self, ts_ns: int) -> list[ZoneStatus]:
        out = []
        for zone in self.zones:
            occupants = sorted(
                (tid, (ts_ns - enter_ns) / 1e9)
                for (tid, zid), enter_ns in self._membership.items()
                if zid == zone.zone_id)
            out.append(ZoneStatus(zone_id=zone.zone_id, occupants=occupants,
                                  count=len(occupants), ts_ns=ts_ns))
        return out
