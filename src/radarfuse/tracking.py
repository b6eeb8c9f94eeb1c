"""Per-target Kalman tracking of cluster centroids.

One filter per target, created on an unmatched centroid and retired
after a configurable silence.  Constant-velocity motion with
white-acceleration process noise; the observation is the centroid
position itself, so the update step is the linear Kalman form.
A window's centroids arrive as one ``(k, 3)`` array.  Association is
greedy globally-nearest over gated pairs of one track x centroid
distance matrix, :func:`radarfuse.geometry.sq_distances`.  Tracks are
never mutated once built: ``predict`` and ``update`` return new ones,
so a snapshot returned by ``Tracker.step`` stays as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .geometry import sq_distances

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


@dataclass(frozen=True)
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
    if dt == 0.0:
        return track
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
    cov = f @ track.covariance @ f.T + q
    return replace(track, state=f @ track.state,
                   covariance=0.5 * (cov + cov.T))


def gated_distances(tracks: list[TargetTrack], centroids,
                    cfg: TrackerConfig) -> np.ndarray:
    """The track x centroid matrix of distances from each predicted
    position to each centroid, inf outside the inclusive Euclidean
    gate."""
    predicted = np.array([t.position for t in tracks]).reshape(-1, 3)
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 3)
    d = np.sqrt(sq_distances(predicted, centroids))
    d[d > cfg.gate_distance] = np.inf
    return d


def update(track: TargetTrack, centroid_pos, ts_ns: int,
           cfg: TrackerConfig) -> TargetTrack:
    """Linear Kalman measurement update with z = position."""
    p = track.covariance
    r = cfg.measurement_noise ** 2 * np.eye(3)
    innovation = np.asarray(centroid_pos, dtype=float) - track.state[:3]
    k = p[:, :3] @ np.linalg.inv(p[:3, :3] + r)
    state = track.state + k @ innovation
    ikh = np.eye(6)
    ikh[:, :3] -= k
    # Joseph form keeps the covariance PSD under roundoff
    cov = ikh @ p @ ikh.T + k @ r @ k.T
    cov = 0.5 * (cov + cov.T)
    _check_psd(cov)
    speed = float(np.linalg.norm(state[3:]))
    if speed > VELOCITY_CLAMP:
        state[3:] *= VELOCITY_CLAMP / speed
    hits = track.hits + 1
    status = TrackStatus.CONFIRMED if hits >= cfg.confirm_hits else track.status
    return replace(track, state=state, covariance=cov, status=status,
                   hits=hits, last_update_ns=ts_ns)


def birth(pos, cfg: TrackerConfig):
    """(state, covariance) of a filter started at a measurement: at rest,
    with the measurement noise on position."""
    state = np.array([pos[0], pos[1], pos[2], 0.0, 0.0, 0.0])
    return state, np.diag([cfg.measurement_noise ** 2] * 3 + [4.0] * 3)


def associate(tracks: list[TargetTrack], centroids, cfg: TrackerConfig):
    """Greedy globally-nearest matching over gated pairs.

    Returns (matches, unmatched_centroid_indices) where matches is a
    list of (track, centroid_index).  Ties break on lower track_id,
    then lower centroid index.
    """
    d = gated_distances(tracks, centroids, cfg)
    ti, ci = np.nonzero(np.isfinite(d))
    track_ids = np.array([t.track_id for t in tracks], dtype=int)
    order = np.lexsort((ci, track_ids[ti], d[ti, ci]))
    used_tracks: set[int] = set()
    used_centroids: set[int] = set()
    matches = []
    for i, c in zip(ti[order].tolist(), ci[order].tolist()):
        if i in used_tracks or c in used_centroids:
            continue
        used_tracks.add(i)
        used_centroids.add(c)
        matches.append((tracks[i], c))
    unmatched = [c for c in range(d.shape[1]) if c not in used_centroids]
    return matches, unmatched


@dataclass
class Tracker:
    """Sequential multi-target tracker state machine."""

    cfg: TrackerConfig
    tracks: list[TargetTrack] = field(default_factory=list)
    next_id: int = 0
    dropped_new_targets: int = 0
    covariance_resets: int = 0
    _last_ts: int | None = None

    def step(self, centroids, ts_ns: int):
        """Process one clustering window's (k, 3) centroid array;
        returns (snapshot, events)."""
        if self._last_ts is not None and ts_ns < self._last_ts:
            raise OutOfOrderWindow(f"window {ts_ns} after {self._last_ts}")
        events: list[TrackEvent] = []
        dt = 0.0 if self._last_ts is None else (ts_ns - self._last_ts) / 1e9
        self._last_ts = ts_ns

        # a track silent past miss_timeout is retired before association,
        # so no centroid can revive it
        timeout_ns = int(self.cfg.miss_timeout * 1e9)
        live = []
        for t in self.tracks:
            if ts_ns - t.last_update_ns > timeout_ns:
                events.append(TrackEvent(EventKind.DELETED, t.track_id, ts_ns))
            else:
                live.append(predict(t, dt, self.cfg))
        matches, unmatched_c = associate(live, centroids, self.cfg)

        updated: dict[int, TargetTrack] = {}
        for t, ci in matches:
            try:
                u = update(t, centroids[ci], ts_ns, self.cfg)
            except NonPSDCovariance:
                # restart the filter at its measurement, keeping the
                # track's id, hits and status
                self.covariance_resets += 1
                state, cov = birth(centroids[ci], self.cfg)
                u = replace(t, state=state, covariance=cov,
                            last_update_ns=ts_ns)
            if u.status is not t.status:
                events.append(TrackEvent(EventKind.CONFIRMED, u.track_id, ts_ns))
            updated[u.track_id] = u
        self.tracks = [updated.get(t.track_id, t) for t in live]

        for ci in unmatched_c:
            if len(self.tracks) >= self.cfg.max_targets:
                self.dropped_new_targets += 1
                continue
            status = (TrackStatus.CONFIRMED if self.cfg.confirm_hits == 1
                      else TrackStatus.TENTATIVE)
            state, cov = birth(centroids[ci], self.cfg)
            t = TargetTrack(track_id=self.next_id, state=state, covariance=cov,
                            status=status, hits=1, last_update_ns=ts_ns)
            self.next_id += 1
            self.tracks.append(t)
            events.append(TrackEvent(EventKind.CREATED, t.track_id, ts_ns))
            if status is TrackStatus.CONFIRMED:
                events.append(TrackEvent(EventKind.CONFIRMED, t.track_id, ts_ns))

        return list(self.tracks), events
