"""Per-target Kalman tracking of cluster centroids.

One filter per target, created on an unmatched centroid and retired
after a configurable silence.  Constant-velocity motion with
white-acceleration process noise; the observation is the centroid
position itself, so the update step is the linear Kalman form.

The birth covariance, Q and R are isotropic and H = [I 0], so the 6x6
covariance stays three equal 2x2 blocks, one per axis, with no
cross-axis terms: the axes are decoupled coordinates.  A track keeps
that block as ``axis_cov = (p_pp, p_pv, p_vv)``; ``covariance`` lays
it out on the 6x6 as a read-only array.  Predict, the Joseph-form
update, the PSD check (the closed-form 2x2 minimum eigenvalue) and the
velocity clamp run per track in Python floats, through one set of
per-axis helpers that ``Tracker.step`` and the one-track ``predict``
and ``update`` share.  The window's centroids arrive as one ``(k, 3)``
array; association is greedy globally-nearest over gated pairs of one
track x centroid distance matrix
(:func:`radarfuse.geometry.sq_distances` from the stacked predicted
positions).  Tracks are never mutated once built, so a snapshot
returned by ``Tracker.step`` stays as it was.
"""

from __future__ import annotations

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
    axis_cov: tuple          # (p_pp, p_pv, p_vv), the same on every axis
    status: TrackStatus
    hits: int
    last_update_ns: int

    @property
    def position(self) -> np.ndarray:
        return self.state[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[3:]

    @property
    def covariance(self) -> np.ndarray:
        """The 6x6 covariance: ``axis_cov`` on each axis, zero across
        axes; read-only."""
        a, b, c = self.axis_cov
        p = np.zeros((6, 6))
        for axis in range(3):
            p[axis::3, axis::3] = ((a, b), (b, c))
        p.flags.writeable = False
        return p


class EventKind(str, Enum):
    CREATED = "created"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass(frozen=True)
class TrackEvent:
    kind: EventKind
    track_id: int
    ts_ns: int


def min_eigenvalue(a: float, b: float, c: float) -> float:
    """The smaller eigenvalue of the symmetric block [[a, b], [b, c]]."""
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)


def _predict_axes(state: list, cov: tuple, dt: float, cfg: TrackerConfig):
    """(state, axis_cov) of a six-float state and its axis block after
    dt seconds of constant velocity."""
    if dt == 0.0:
        return state, cov
    q_accel = cfg.process_noise_accel ** 2
    x, y, z, vx, vy, vz = state
    a, b, c = cov
    bc = b + dt * c
    return ([x + dt * vx, y + dt * vy, z + dt * vz, vx, vy, vz],
            ((a + dt * b) + bc * dt + q_accel * dt ** 4 / 4.0,
             bc + q_accel * dt ** 3 / 2.0,
             c + q_accel * dt ** 2))


def _update_axes(state: list, cov: tuple, z, cfg: TrackerConfig):
    """Linear Kalman update of a six-float state and its axis block
    with a measured position ``z`` (three floats).

    Returns (state, axis_cov, psd): ``psd`` is False when the updated
    block lost positive semi-definiteness, and the result is then not
    to be used.  Every sum keeps the order of its 6x6 matrix product,
    so the floats are those of the 6x6 filter in ``tests/_reference.py``.
    """
    r = cfg.measurement_noise ** 2
    a, b, c = cov
    s_inv = 1.0 / (a + r)
    kp, kv = a * s_inv, b * s_inv       # the gain's two distinct entries
    x, y, zz, vx, vy, vz = state
    nx, ny, nz = z[0] - x, z[1] - y, z[2] - zz
    state = [x + kp * nx, y + kp * ny, zz + kp * nz,
             vx + kv * nx, vy + kv * ny, vz + kv * nz]
    # Joseph form (I - KH) P (I - KH)' + K R K' keeps the block PSD
    # under roundoff; I - KH is [[i0, 0], [i3, 1]] on each axis
    i0, i3 = 1.0 - kp, 0.0 - kv
    p00, p01 = i0 * a, i0 * b
    p10, p11 = i3 * a + b, i3 * b + c
    kpr, kvr = kp * r, kv * r
    cov = (p00 * i0 + kpr * kp,
           0.5 * ((p00 * i3 + p01 + kpr * kv) + (p10 * i0 + kvr * kp)),
           (p10 * i3 + p11) + kvr * kv)
    # |v| <= sqrt(3) max|v_i| < 1.75 max|v_i|: below this the speed
    # cannot pass the clamp, and no norm is taken
    if max(abs(state[3]), abs(state[4]), abs(state[5])) * 1.75 \
            > VELOCITY_CLAMP:
        speed = float(np.linalg.norm(state[3:]))
        if speed > VELOCITY_CLAMP:
            scale = VELOCITY_CLAMP / speed
            state[3:] = [v * scale for v in state[3:]]
    return state, cov, not min_eigenvalue(*cov) < -1e-9


def _hit(track: TargetTrack, state, cov, ts_ns: int,
         cfg: TrackerConfig) -> TargetTrack:
    """``track`` after a successful update to (state, cov) at ts_ns."""
    hits = track.hits + 1
    status = TrackStatus.CONFIRMED if hits >= cfg.confirm_hits else track.status
    return TargetTrack(track.track_id, state, cov, status, hits, ts_ns)


def predict(track: TargetTrack, dt: float, cfg: TrackerConfig) -> TargetTrack:
    """``track`` propagated by dt seconds of constant velocity."""
    state, cov = _predict_axes(track.state.tolist(), track.axis_cov, dt, cfg)
    return replace(track, state=np.array(state), axis_cov=cov)


def update(track: TargetTrack, centroid_pos, ts_ns: int,
           cfg: TrackerConfig) -> TargetTrack:
    """``track`` after its Kalman update with a measured position;
    raises NonPSDCovariance where the updated covariance lost positive
    semi-definiteness."""
    z = np.asarray(centroid_pos, dtype=float).reshape(3).tolist()
    state, cov, psd = _update_axes(track.state.tolist(), track.axis_cov, z,
                                   cfg)
    if not psd:
        raise NonPSDCovariance("covariance lost positive semi-definiteness")
    return _hit(track, np.array(state), cov, ts_ns, cfg)


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
    """(state, axis_cov) of a filter started at a measurement: at rest,
    with the measurement noise on position."""
    state = np.array([pos[0], pos[1], pos[2], 0.0, 0.0, 0.0])
    return state, (cfg.measurement_noise ** 2, 0.0, 4.0)


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

        predicted = [_predict_axes(t.state.tolist(), t.axis_cov, dt, cfg)
                     for t in live]
        matches, unmatched_c = associate(
            np.array([state[:3] for state, _ in predicted]).reshape(-1, 3),
            [t.track_id for t in live], centroids, cfg)

        # a matched track takes its update, in match order; every other
        # live track moves to its prediction
        cents = centroids.tolist()
        updated = {}
        for i, ci in matches:
            t = live[i]
            state, cov, psd = _update_axes(*predicted[i], cents[ci], cfg)
            if psd:
                u = _hit(t, np.array(state), cov, ts_ns, cfg)
            else:
                # restart the filter at its measurement, keeping the
                # track's id, hits and status
                self.covariance_resets += 1
                state, cov = birth(cents[ci], cfg)
                u = TargetTrack(t.track_id, state, cov, t.status, t.hits,
                                ts_ns)
            if u.status is not t.status:
                events.append(TrackEvent(EventKind.CONFIRMED, u.track_id,
                                         ts_ns))
            updated[i] = u
        self.tracks = [
            updated[i] if i in updated else
            TargetTrack(t.track_id, np.array(state), cov, t.status, t.hits,
                        t.last_update_ns)
            for i, (t, (state, cov)) in enumerate(zip(live, predicted))]

        for ci in unmatched_c:
            if len(self.tracks) >= cfg.max_targets:
                self.dropped_new_targets += 1
                continue
            status = (TrackStatus.CONFIRMED if cfg.confirm_hits == 1
                      else TrackStatus.TENTATIVE)
            state, cov = birth(cents[ci], cfg)
            t = TargetTrack(track_id=self.next_id, state=state, axis_cov=cov,
                            status=status, hits=1, last_update_ns=ts_ns)
            self.next_id += 1
            self.tracks.append(t)
            events.append(TrackEvent(EventKind.CREATED, t.track_id, ts_ns))
            if status is TrackStatus.CONFIRMED:
                events.append(TrackEvent(EventKind.CONFIRMED, t.track_id, ts_ns))

        return list(self.tracks), events
