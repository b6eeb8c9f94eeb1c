"""Per-target Kalman tracking of cluster centroids.

One filter per target, created on an unmatched centroid and retired
after a configurable silence.  Constant-velocity motion with
white-acceleration process noise; the observation is the centroid
position itself, so the update step is the linear Kalman form.

A window's tracks are stepped together.  Their states and covariances
are stacked into ``(T, 6)`` and ``(T, 6, 6)`` arrays, and
:func:`predict_stacked` propagates them all with one F and Q.  F and Q
are cached per (dt, config) and R per config, all read-only: windows
are almost always one window length apart, so a step builds no
constant matrix.  The window's centroids arrive as one ``(k, 3)``
array; association is greedy globally-nearest over gated pairs of one
track x centroid distance matrix
(:func:`radarfuse.geometry.sq_distances` from the stacked predicted
positions).  :func:`update_stacked` applies the Joseph-form update to
the matched rows with one stacked ``inv`` and one stacked ``eigvalsh``
PSD check.  Each matrix of a stack goes through the same BLAS and
LAPACK calls as it would alone, so the results are bit-identical to
stepping the tracks one at a time; ``predict`` and ``update`` are the
one-track (T = 1) case.  Tracks are never mutated once built, so a
snapshot returned by ``Tracker.step`` stays as it was.
"""

from __future__ import annotations

import functools
import math
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EYE6 = _read_only(np.eye(6))


@functools.lru_cache(maxsize=64)
def _transition(dt: float, cfg: TrackerConfig):
    """(F, Q) of the constant-velocity model over dt seconds.  Cached
    and read-only: nearly every window is one window length after the
    last, so the same pair serves almost every step."""
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
    return _read_only(f), _read_only(q)


@functools.lru_cache(maxsize=8)
def _measurement_cov(cfg: TrackerConfig) -> np.ndarray:
    """R, the 3x3 measurement noise covariance; cached and read-only."""
    return _read_only(cfg.measurement_noise ** 2 * np.eye(3))


def predict_stacked(states: np.ndarray, covs: np.ndarray, dt: float,
                    cfg: TrackerConfig):
    """Constant-velocity propagation of ``(T, 6)`` states and ``(T, 6,
    6)`` covariances by dt seconds, one F and Q for all T."""
    if dt == 0.0:
        return states, covs
    f, q = _transition(dt, cfg)
    cov = f @ covs @ f.T + q
    return (f @ states[:, :, None])[:, :, 0], 0.5 * (cov + cov.swapaxes(1, 2))


def _clamp_speed(v: np.ndarray):
    """Scale each ``(m, 3)`` velocity row faster than VELOCITY_CLAMP
    back onto it, in place."""
    # |v| <= sqrt(3) max|v_i| < 1.75 max|v_i|: below this no row can
    # pass the clamp, and no norm is taken
    if not np.abs(v).max(initial=0.0) * 1.75 > VELOCITY_CLAMP:
        return
    for row in v:
        speed = float(np.linalg.norm(row))
        if speed > VELOCITY_CLAMP:
            row *= VELOCITY_CLAMP / speed


def update_stacked(states: np.ndarray, covs: np.ndarray, z: np.ndarray,
                   cfg: TrackerConfig):
    """Linear Kalman measurement update of ``(m, 6)`` states and ``(m,
    6, 6)`` covariances with ``(m, 3)`` measured positions.

    Returns (states, covariances, psd): ``psd[i]`` is False when row
    i's updated covariance lost positive semi-definiteness, and that
    row is then not to be used.
    """
    r = _measurement_cov(cfg)
    innovation = z - states[:, :3]
    k = covs[:, :, :3] @ np.linalg.inv(covs[:, :3, :3] + r)
    states = states + (k @ innovation[:, :, None])[:, :, 0]
    ikh = np.empty((len(k), 6, 6))     # I - KH, with H = [I 0]
    np.subtract(_EYE6[:, :3], k, out=ikh[:, :, :3])
    ikh[:, :, 3:] = _EYE6[:, 3:]
    # Joseph form keeps the covariance PSD under roundoff
    cov = ikh @ covs @ ikh.swapaxes(1, 2) + k @ r @ k.swapaxes(1, 2)
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    psd = ~(np.linalg.eigvalsh(cov).min(axis=1) < -1e-9)
    _clamp_speed(states[:, 3:])
    return states, cov, psd


def _hit(track: TargetTrack, state, cov, ts_ns: int,
         cfg: TrackerConfig) -> TargetTrack:
    """``track`` after a successful update to (state, cov) at ts_ns."""
    hits = track.hits + 1
    status = TrackStatus.CONFIRMED if hits >= cfg.confirm_hits else track.status
    return TargetTrack(track.track_id, state, cov, status, hits, ts_ns)


def predict(track: TargetTrack, dt: float, cfg: TrackerConfig) -> TargetTrack:
    """One track through :func:`predict_stacked`."""
    states, covs = predict_stacked(track.state[None], track.covariance[None],
                                   dt, cfg)
    return replace(track, state=states[0], covariance=covs[0])


def update(track: TargetTrack, centroid_pos, ts_ns: int,
           cfg: TrackerConfig) -> TargetTrack:
    """One track through :func:`update_stacked`; raises
    NonPSDCovariance where that flags the row."""
    z = np.asarray(centroid_pos, dtype=float).reshape(1, 3)
    states, covs, psd = update_stacked(track.state[None],
                                       track.covariance[None], z, cfg)
    if not psd[0]:
        raise NonPSDCovariance("covariance lost positive semi-definiteness")
    return _hit(track, states[0], covs[0], ts_ns, cfg)


def gated_distances(positions, centroids, cfg: TrackerConfig) -> np.ndarray:
    """The track x centroid matrix of distances from each ``(T, 3)``
    predicted position to each centroid, inf outside the inclusive
    Euclidean gate."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 3)
    d = np.sqrt(sq_distances(positions, centroids))
    d[d > cfg.gate_distance] = np.inf
    return d


def birth(pos, cfg: TrackerConfig):
    """(state, covariance) of a filter started at a measurement: at rest,
    with the measurement noise on position."""
    state = np.array([pos[0], pos[1], pos[2], 0.0, 0.0, 0.0])
    return state, np.diag([cfg.measurement_noise ** 2] * 3 + [4.0] * 3)


def associate(positions, track_ids, centroids, cfg: TrackerConfig):
    """Greedy globally-nearest matching over gated pairs of predicted
    track positions and centroids.

    Returns (matches, unmatched_centroid_indices) where matches is a
    list of (track row, centroid_index) in match order.  Ties break on
    lower track id, then lower centroid index.
    """
    d = gated_distances(positions, centroids, cfg)
    n_centroids = d.shape[1]
    # a window has a handful of gated pairs: sorting them in Python
    # costs less than numpy's per-call overhead
    pairs = sorted((dist, tid, i, c)
                   for i, (tid, row) in enumerate(zip(track_ids, d.tolist()))
                   for c, dist in enumerate(row) if dist != math.inf)
    used_tracks: set[int] = set()
    used_centroids: set[int] = set()
    matches = []
    for _, _, i, c in pairs:
        if i in used_tracks or c in used_centroids:
            continue
        used_tracks.add(i)
        used_centroids.add(c)
        matches.append((i, c))
    unmatched = [c for c in range(n_centroids) if c not in used_centroids]
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
        cfg = self.cfg
        centroids = np.asarray(centroids, dtype=float).reshape(-1, 3)
        dt = 0.0 if self._last_ts is None else (ts_ns - self._last_ts) / 1e9
        self._last_ts = ts_ns

        # a track silent past miss_timeout is retired before association,
        # so no centroid can revive it
        timeout_ns = int(cfg.miss_timeout * 1e9)
        live, events = [], []
        for t in self.tracks:
            if ts_ns - t.last_update_ns > timeout_ns:
                events.append(TrackEvent(EventKind.DELETED, t.track_id, ts_ns))
            else:
                live.append(t)

        states, covs = predict_stacked(
            np.array([t.state for t in live]).reshape(-1, 6),
            np.array([t.covariance for t in live]).reshape(-1, 6, 6), dt, cfg)
        matches, unmatched_c = associate(states[:, :3],
                                         [t.track_id for t in live],
                                         centroids, cfg)

        # every live track moves to its prediction; a matched one then
        # takes its update instead
        self.tracks = tracks = [
            TargetTrack(t.track_id, state, cov, t.status, t.hits,
                        t.last_update_ns)
            for t, state, cov in zip(live, states, covs)]
        if matches:
            rows, cols = zip(*matches)
            new_states, new_covs, psd = update_stacked(
                states.take(rows, axis=0), covs.take(rows, axis=0),
                centroids.take(cols, axis=0), cfg)
            for i, ci, state, cov, ok in zip(rows, cols, new_states,
                                             new_covs, psd):
                t = live[i]
                if ok:
                    u = _hit(t, state, cov, ts_ns, cfg)
                else:
                    # restart the filter at its measurement, keeping the
                    # track's id, hits and status
                    self.covariance_resets += 1
                    state, cov = birth(centroids[ci], cfg)
                    u = TargetTrack(t.track_id, state, cov, t.status, t.hits,
                                    ts_ns)
                if u.status is not t.status:
                    events.append(TrackEvent(EventKind.CONFIRMED, u.track_id,
                                             ts_ns))
                tracks[i] = u

        for ci in unmatched_c:
            if len(self.tracks) >= cfg.max_targets:
                self.dropped_new_targets += 1
                continue
            status = (TrackStatus.CONFIRMED if cfg.confirm_hits == 1
                      else TrackStatus.TENTATIVE)
            state, cov = birth(centroids[ci], cfg)
            t = TargetTrack(track_id=self.next_id, state=state, covariance=cov,
                            status=status, hits=1, last_update_ns=ts_ns)
            self.next_id += 1
            self.tracks.append(t)
            events.append(TrackEvent(EventKind.CREATED, t.track_id, ts_ns))
            if status is TrackStatus.CONFIRMED:
                events.append(TrackEvent(EventKind.CONFIRMED, t.track_id, ts_ns))

        return list(self.tracks), events
