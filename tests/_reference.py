"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own data structures and
shortcuts (no grid hash, no seed lists): plain O(n^2) definitions
straight from the textbook semantics, kept simple enough to audit by
eye.
"""

import math
from dataclasses import replace

import numpy as np

from radarfuse.tracking import (VELOCITY_CLAMP, EventKind, NonPSDCovariance,
                                OutOfOrderWindow, TargetTrack, TrackEvent,
                                TrackStatus)

NOISE = -1


def brute_to_world(pose, row):
    """World row ``[x, y, z, doppler, snr]`` of one decoded point row
    ``(range, azimuth, elevation, doppler, snr)``, one point at a time:
    spherical to local Cartesian, then rotation and translation."""
    r, az, el, doppler, snr = row
    local = np.array([r * math.cos(el) * math.sin(az),
                      r * math.cos(el) * math.cos(az),
                      r * math.sin(el)])
    x, y, z = pose.matrix() @ local + pose.translation
    return [x, y, z, doppler, snr]


def brute_dbscan(positions, eps, min_pts):
    """O(n^2) DBSCAN; returns (labels, core_flags)."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    if n == 0:
        return [], []
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    neigh = [np.flatnonzero(d2[i] <= eps * eps).tolist() for i in range(n)]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        stack = list(neigh[i])
        while stack:
            j = stack.pop(0)
            if labels[j] == NOISE:
                labels[j] = cluster
                if core[j]:
                    stack.extend(neigh[j])
        cluster += 1
    return labels, core


def brute_optics(positions, min_pts, max_eps):
    """Textbook OPTICS with an explicit seed list; returns one
    (index, reachability, core_distance) triple per point, in order.
    The next point is the seed of least (reachability, index); with no
    seeds left, the lowest unprocessed index starts a new component."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    inf = float("inf")
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    neigh = [np.flatnonzero(d2[i] <= max_eps * max_eps).tolist()
             for i in range(n)]
    core = []
    for i in range(n):
        ds = sorted(float(np.sqrt(d2[i, j])) for j in neigh[i])
        core.append(ds[min_pts - 1] if len(ds) >= min_pts else inf)
    processed = [False] * n
    out = []
    for start in range(n):
        if processed[start]:
            continue
        seeds = {start: inf}
        while seeds:
            i = min(seeds, key=lambda k: (seeds[k], k))
            reach = seeds.pop(i)
            processed[i] = True
            out.append((i, reach, core[i]))
            if core[i] == inf:
                continue
            for j in neigh[i]:
                if not processed[j]:
                    r = max(core[i], float(np.sqrt(d2[i, j])))
                    seeds[j] = min(seeds.get(j, inf), r)
    return out


def brute_associate(tracks, centroids, gate):
    """Greedy globally-nearest matching by a double loop: every (track,
    centroid) pair within the inclusive gate, taken in order of
    (distance, track_id, centroid index), matches when neither side is
    taken yet.  Returns ([(track_id, centroid_index)], unmatched
    centroid indices)."""
    pairs = []
    for t in tracks:
        x, y, z = (float(v) for v in t.state[:3])
        for ci, (cx, cy, cz) in enumerate(centroids):
            dx, dy, dz = x - cx, y - cy, z - cz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d <= gate:
                pairs.append((d, t.track_id, ci))
    pairs.sort()
    used_tracks, used_centroids, matches = set(), set(), []
    for _, tid, ci in pairs:
        if tid in used_tracks or ci in used_centroids:
            continue
        used_tracks.add(tid)
        used_centroids.add(ci)
        matches.append((tid, ci))
    unmatched = [ci for ci in range(len(centroids))
                 if ci not in used_centroids]
    return matches, unmatched


def core_partition(labels, core):
    """Frozen set-of-sets of core point indices per cluster."""
    groups = {}
    for i, (lab, is_core) in enumerate(zip(labels, core)):
        if is_core and lab != NOISE:
            groups.setdefault(lab, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def brute_buffer_survival(frames, frame_index, point_index, radius, min_support):
    """Survival predicate for one point (a row of its frame's (n, 3)
    positions): >= min_support points within radius across all
    subsequent frames."""
    pos = np.array(frames[frame_index][1][point_index], dtype=float)
    support = 0
    for _, pts in frames[frame_index + 1:]:
        for q in pts:
            if np.linalg.norm(pos - np.array(q, dtype=float)) <= radius:
                support += 1
    return support >= min_support


def brute_buffer_survival_window(frames, frame_index, point_index, radius,
                                 min_support, window_frames):
    """Survival predicate for one point under a buffer of F =
    window_frames: >= min_support points with squared distance <= radius**2
    across the next F frames only (fewer at the end of the stream)."""
    pos = np.array(frames[frame_index][1][point_index], dtype=float)
    support = 0
    for _, pts in frames[frame_index + 1:frame_index + 1 + window_frames]:
        for q in pts:
            q = np.array(q, dtype=float)
            if ((pos - q) ** 2).sum() <= radius * radius:
                support += 1
    return support >= min_support


def reference_hysteresis(sequence, h_on, h_off):
    """Occupancy after each tick, computed from the raw history: a cell
    turns on when the last h_on ticks were all present, off when the
    last h_off were all absent."""
    out = []
    occupied = False
    history = []
    for present in sequence:
        history.append(present)
        if not occupied and len(history) >= h_on and all(history[-h_on:]):
            occupied = True
            history = []
        elif occupied and len(history) >= h_off and not any(history[-h_off:]):
            occupied = False
            history = []
        out.append(occupied)
    return out


def loop_step_sample(series, times):
    """A sorted step series [(t, v), ...] sampled at ``times`` by one
    forward scan: the value of the last step at or before t + 1e-9,
    else 0."""
    out = np.empty(len(times))
    j = -1
    for i, t in enumerate(times):
        while j + 1 < len(series) and series[j + 1][0] <= t + 1e-9:
            j += 1
        out[i] = series[j][1] if j >= 0 else 0.0
    return out


def loop_moving_average(values, window_samples):
    """Trailing mean over at most ``window_samples`` values, one
    cumulative-sum difference per index."""
    out = np.empty(len(values))
    csum = np.concatenate([[0.0], np.cumsum(values)])
    for i in range(len(values)):
        lo = max(0, i + 1 - window_samples)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def _polyline_pos(waypoints, arc: float) -> np.ndarray:
    """Position at arc length along a ping-pong loop over the polyline."""
    pts = [np.array(p, dtype=float) for p in waypoints]
    if len(pts) == 1:
        return pts[0]
    seg = [float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:])]
    total = sum(seg)
    if total == 0:
        return pts[0]
    m = arc % (2 * total)
    if m > total:
        m = 2 * total - m
    for a, b, L in zip(pts, pts[1:], seg):
        if m <= L and L > 0:
            return a + (m / L) * (b - a)
        m -= L
    return pts[-1]


def brute_walker_position(w, t: float):
    """World XY of walker spec ``w`` at scenario time t, or None before
    entry: one time at a time, the polyline rebuilt on every call."""
    if t < w.entry_time:
        return None
    travel = t - w.entry_time
    for start, end in w.dwells:
        lo = max(start, w.entry_time)
        travel -= max(0.0, min(t, end) - lo) if lo < min(t, end) else 0.0
    return _polyline_pos(w.waypoints, w.speed * travel)


def _brute_check_psd(p):
    if np.min(np.linalg.eigvalsh(p)) < -1e-9:
        raise NonPSDCovariance("covariance lost positive semi-definiteness")


def brute_predict(track, dt, cfg):
    """Constant-velocity propagation of one track by dt seconds."""
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


def brute_update(track, centroid_pos, ts_ns, cfg):
    """Joseph-form Kalman update of one track with z = position."""
    p = track.covariance
    r = cfg.measurement_noise ** 2 * np.eye(3)
    innovation = np.asarray(centroid_pos, dtype=float) - track.state[:3]
    k = p[:, :3] @ np.linalg.inv(p[:3, :3] + r)
    state = track.state + k @ innovation
    ikh = np.eye(6)
    ikh[:, :3] -= k
    cov = ikh @ p @ ikh.T + k @ r @ k.T
    cov = 0.5 * (cov + cov.T)
    _brute_check_psd(cov)
    speed = float(np.linalg.norm(state[3:]))
    if speed > VELOCITY_CLAMP:
        state[3:] *= VELOCITY_CLAMP / speed
    hits = track.hits + 1
    status = TrackStatus.CONFIRMED if hits >= cfg.confirm_hits else track.status
    return replace(track, state=state, covariance=cov, status=status,
                   hits=hits, last_update_ns=ts_ns)


def _brute_birth(pos, cfg):
    state = np.array([pos[0], pos[1], pos[2], 0.0, 0.0, 0.0])
    return state, np.diag([cfg.measurement_noise ** 2] * 3 + [4.0] * 3)


def brute_track_step(tracker, centroids, ts_ns):
    """One window of a ``Tracker`` stepped one track at a time: predict
    each live track, match by ``brute_associate``, update each match in
    match order.  Mutates ``tracker``'s fields as ``Tracker.step`` does
    and returns (snapshot, events)."""
    cfg = tracker.cfg
    if tracker._last_ts is not None and ts_ns < tracker._last_ts:
        raise OutOfOrderWindow(f"window {ts_ns} after {tracker._last_ts}")
    events = []
    dt = 0.0 if tracker._last_ts is None else (ts_ns - tracker._last_ts) / 1e9
    tracker._last_ts = ts_ns

    timeout_ns = int(cfg.miss_timeout * 1e9)
    live = []
    for t in tracker.tracks:
        if ts_ns - t.last_update_ns > timeout_ns:
            events.append(TrackEvent(EventKind.DELETED, t.track_id, ts_ns))
        else:
            live.append(brute_predict(t, dt, cfg))
    centroids = [tuple(float(v) for v in c) for c in centroids]
    pairs, unmatched_c = brute_associate(live, centroids, cfg.gate_distance)
    by_id = {t.track_id: t for t in live}

    updated = {}
    for tid, ci in pairs:
        t = by_id[tid]
        try:
            u = brute_update(t, centroids[ci], ts_ns, cfg)
        except NonPSDCovariance:
            tracker.covariance_resets += 1
            state, cov = _brute_birth(centroids[ci], cfg)
            u = replace(t, state=state, covariance=cov, last_update_ns=ts_ns)
        if u.status is not t.status:
            events.append(TrackEvent(EventKind.CONFIRMED, u.track_id, ts_ns))
        updated[u.track_id] = u
    tracker.tracks = [updated.get(t.track_id, t) for t in live]

    for ci in unmatched_c:
        if len(tracker.tracks) >= cfg.max_targets:
            tracker.dropped_new_targets += 1
            continue
        status = (TrackStatus.CONFIRMED if cfg.confirm_hits == 1
                  else TrackStatus.TENTATIVE)
        state, cov = _brute_birth(centroids[ci], cfg)
        t = TargetTrack(track_id=tracker.next_id, state=state, covariance=cov,
                        status=status, hits=1, last_update_ns=ts_ns)
        tracker.next_id += 1
        tracker.tracks.append(t)
        events.append(TrackEvent(EventKind.CREATED, t.track_id, ts_ns))
        if status is TrackStatus.CONFIRMED:
            events.append(TrackEvent(EventKind.CONFIRMED, t.track_id, ts_ns))

    return list(tracker.tracks), events
