"""Per-target Kalman tracking of cluster centroids.

One filter per target, created on an unmatched centroid and retired
after a configurable silence.  Constant-velocity motion with
white-acceleration process noise; the observation is the centroid
position itself, so the update step is the linear Kalman form.
Association is greedy globally-nearest over gated pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

VELOCITY_CLAMP = 10.0  # m/s, sanity bound on |v|


class OutOfOrderWindow(ValueError):
    pass


class NonPSDCovariance(AssertionError):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    gate_distance: float = 1.0        # m
    miss_timeout: float = 10.0        # s
    confirm_hits: int = 3
    max_targets: int = 20
    process_noise_accel: float = 2.0  # m/s^2 std
    measurement_noise: float = 0.15   # m std

    def __post_init__(self):
        for name in ("gate_distance", "miss_timeout", "confirm_hits",
                     "max_targets", "process_noise_accel", "measurement_noise"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


class TrackStatus(str, Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


@dataclass
class TargetTrack:
    track_id: int
    state: np.ndarray        # (x, y, z, vx, vy, vz)
    covariance: np.ndarray   # 6x6
    status: TrackStatus
    hits: int
    last_update_ns: int

    @property
    def position(self) -> np.ndarray:
        return self.state[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[3:]

    def copy(self) -> "TargetTrack":
        return TargetTrack(self.track_id, self.state.copy(),
                           self.covariance.copy(), self.status, self.hits,
                           self.last_update_ns)


class EventKind(str, Enum):
    CREATED = "created"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass(frozen=True)
class TrackEvent:
    kind: EventKind
    track_id: int
    ts_ns: int


def _check_psd(p: np.ndarray):
    if np.min(np.linalg.eigvalsh(p)) < -1e-9:
        raise NonPSDCovariance("covariance lost positive semi-definiteness")


def predict(track: TargetTrack, dt: float, cfg: TrackerConfig) -> TargetTrack:
    """Constant-velocity propagation by dt seconds."""
    t = track.copy()
    if dt == 0.0:
        return t
    f = np.eye(6)
    f[0, 3] = f[1, 4] = f[2, 5] = dt
    q_accel = cfg.process_noise_accel ** 2
    q11 = q_accel * dt ** 4 / 4.0
    q12 = q_accel * dt ** 3 / 2.0
    q22 = q_accel * dt ** 2
    q = np.zeros((6, 6))
    for a in range(3):
        q[a, a] = q11
        q[a, a + 3] = q[a + 3, a] = q12
        q[a + 3, a + 3] = q22
    t.state = f @ t.state
    t.covariance = f @ t.covariance @ f.T + q
    t.covariance = 0.5 * (t.covariance + t.covariance.T)
    return t


def gated_distance(track: TargetTrack, centroid_pos,
                   cfg: TrackerConfig) -> float | None:
    """Distance from the predicted position to a centroid inside the
    inclusive Euclidean gate, or None outside it."""
    d = math.dist(tuple(track.position), tuple(centroid_pos))
    return d if d <= cfg.gate_distance else None


def update(track: TargetTrack, centroid_pos, ts_ns: int,
           cfg: TrackerConfig) -> TargetTrack:
    """Linear Kalman measurement update with z = position."""
    t = track.copy()
    h = np.zeros((3, 6))
    h[0, 0] = h[1, 1] = h[2, 2] = 1.0
    r = cfg.measurement_noise ** 2 * np.eye(3)
    z = np.asarray(centroid_pos, dtype=float)
    innovation = z - h @ t.state
    s = h @ t.covariance @ h.T + r
    k = t.covariance @ h.T @ np.linalg.inv(s)
    t.state = t.state + k @ innovation
    ikh = np.eye(6) - k @ h
    # Joseph form keeps the covariance PSD under roundoff
    t.covariance = ikh @ t.covariance @ ikh.T + k @ r @ k.T
    t.covariance = 0.5 * (t.covariance + t.covariance.T)
    _check_psd(t.covariance)
    speed = float(np.linalg.norm(t.state[3:]))
    if speed > VELOCITY_CLAMP:
        t.state[3:] *= VELOCITY_CLAMP / speed
    t.hits += 1
    t.last_update_ns = ts_ns
    if t.status is TrackStatus.TENTATIVE and t.hits >= cfg.confirm_hits:
        t.status = TrackStatus.CONFIRMED
    return t


def associate(tracks: list[TargetTrack], centroid_positions,
              cfg: TrackerConfig):
    """Greedy globally-nearest matching over gated pairs.

    Returns (matches, unmatched_centroid_indices, unmatched_tracks) where
    matches is a list of (track, centroid_index).  Ties break on lower
    track_id, then lower centroid index.
    """
    pairs = []
    for t in tracks:
        for ci, pos in enumerate(centroid_positions):
            d = gated_distance(t, pos, cfg)
            if d is not None:
                pairs.append((d, t.track_id, ci, t))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    used_tracks: set[int] = set()
    used_centroids: set[int] = set()
    matches = []
    for d, tid, ci, t in pairs:
        if tid in used_tracks or ci in used_centroids:
            continue
        used_tracks.add(tid)
        used_centroids.add(ci)
        matches.append((t, ci))
    unmatched_c = [ci for ci in range(len(centroid_positions))
                   if ci not in used_centroids]
    unmatched_t = [t for t in tracks if t.track_id not in used_tracks]
    return matches, unmatched_c, unmatched_t


@dataclass
class Tracker:
    """Sequential multi-target tracker state machine."""

    cfg: TrackerConfig
    tracks: list[TargetTrack] = field(default_factory=list)
    next_id: int = 0
    dropped_new_targets: int = 0
    _last_ts: int | None = None

    def step(self, centroid_positions, ts_ns: int):
        """Process one clustering window; returns (snapshot, events)."""
        if self._last_ts is not None and ts_ns < self._last_ts:
            raise OutOfOrderWindow(f"window {ts_ns} after {self._last_ts}")
        events: list[TrackEvent] = []
        dt = 0.0 if self._last_ts is None else (ts_ns - self._last_ts) / 1e9
        self._last_ts = ts_ns

        self.tracks = [predict(t, dt, self.cfg) for t in self.tracks]
        matches, unmatched_c, _ = associate(self.tracks, centroid_positions,
                                            self.cfg)

        updated: dict[int, TargetTrack] = {}
        for t, ci in matches:
            was_tentative = t.status is TrackStatus.TENTATIVE
            u = update(t, centroid_positions[ci], ts_ns, self.cfg)
            if was_tentative and u.status is TrackStatus.CONFIRMED:
                events.append(TrackEvent(EventKind.CONFIRMED, u.track_id, ts_ns))
            updated[u.track_id] = u
        self.tracks = [updated.get(t.track_id, t) for t in self.tracks]

        for ci in unmatched_c:
            if len(self.tracks) >= self.cfg.max_targets:
                self.dropped_new_targets += 1
                continue
            pos = centroid_positions[ci]
            state = np.array([pos[0], pos[1], pos[2], 0.0, 0.0, 0.0])
            cov = np.diag([self.cfg.measurement_noise ** 2] * 3 + [4.0] * 3)
            t = TargetTrack(track_id=self.next_id, state=state, covariance=cov,
                            status=TrackStatus.TENTATIVE, hits=1,
                            last_update_ns=ts_ns)
            self.next_id += 1
            self.tracks.append(t)
            events.append(TrackEvent(EventKind.CREATED, t.track_id, ts_ns))
            if self.cfg.confirm_hits == 1:
                t.status = TrackStatus.CONFIRMED
                events.append(TrackEvent(EventKind.CONFIRMED, t.track_id, ts_ns))

        timeout_ns = int(self.cfg.miss_timeout * 1e9)
        alive = []
        for t in self.tracks:
            if ts_ns - t.last_update_ns > timeout_ns:
                events.append(TrackEvent(EventKind.DELETED, t.track_id, ts_ns))
            else:
                alive.append(t)
        self.tracks = alive

        snapshot = [t.copy() for t in self.tracks]
        return snapshot, events
