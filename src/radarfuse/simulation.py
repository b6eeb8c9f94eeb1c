"""Synthetic multi-radar scenarios with ground truth.

Walkers follow waypoint polylines (ping-pong at the ends) at constant
speed, frozen during configured dwell windows.  Each radar tick, every
walker visible in that radar's field of view sheds a Poisson number of
noisy points; ghosts pop up uniformly in the room for a single frame.
When doppler-zero suppression is on, a walker whose radial speed toward
a radar is below the suppression threshold sheds nothing to that radar,
mimicking firmware that only reports moving reflectors.

Trajectories are arrays: :func:`walker_positions` and
:func:`walker_velocities` evaluate a walker's path over a whole array of
times, NaN before entry, so each radar's ticks get every walker's
position, velocity and field-of-view check in one pass before the tick
loop, which keeps only the seeded draws and the doppler arithmetic.
A tick is array code: its walker and ghost rows go through one
spherical conversion and one encodability mask, and a :class:`SimFrame`
holds the kept points as the ``(n, 5)`` point array of :mod:`radarfuse.tlv`,
which :func:`tlv.encode_frame` packs as it is and the decoder returns.

Everything is driven by one seeded generator in a fixed iteration
order, so a scenario renders to byte-identical logs every run.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tlv
from .geometry import Pose
from .recording import LogRecord, Recorder

DOPPLER_SUPPRESSION_THRESHOLD = 0.05  # m/s
_UNITS = tlv.DecodeUnits()  # every simulated radar encodes with the defaults


class InvalidScenario(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class WalkerSpec:
    walker_id: int
    waypoints: tuple[tuple[float, float], ...]  # ((x, y), ...)
    entry_time: float = 0.0                     # s, absolute scenario time
    speed: float = 1.0                          # m/s
    dwells: tuple[tuple[float, float], ...] = ()  # ((start_s, end_s), ...)


@dataclass(frozen=True)
class RadarSpec:
    radar_id: str
    pose: Pose = Pose()
    azimuth_fov: float = math.radians(120)   # full span
    elevation_fov: float = math.radians(30)  # full span
    max_range: float = 14.0
    frame_rate: float = 10.0
    phase: float = 0.0                        # s, tick offset


@dataclass(frozen=True)
class NoiseSpec:
    pos_sigma: float = 0.1
    points_per_target: float = 6.0
    ghost_rate: float = 0.5       # ghosts per radar frame
    dropout_prob: float = 0.02    # whole-walker frame dropout per radar


@dataclass(frozen=True)
class Scenario:
    room_x: tuple[float, float] = (0.0, 12.0)
    room_y: tuple[float, float] = (0.0, 6.0)
    room_height: float = 2.35
    body_height: float = 1.0
    radars: tuple[RadarSpec, ...] = ()
    walkers: tuple[WalkerSpec, ...] = ()
    noise: NoiseSpec = NoiseSpec()
    doppler_zero_suppression: bool = True
    duration: float = 60.0
    seed: int = 0


def validate_scenario(sc: Scenario):
    if not sc.radars:
        raise InvalidScenario("radars", "at least one radar required")
    if sc.duration <= 0:
        raise InvalidScenario("duration", "must be > 0")
    for i, r in enumerate(sc.radars):
        for name in ("frame_rate", "max_range"):
            if not getattr(r, name) > 0:
                raise InvalidScenario(f"radars[{i}].{name}", "must be > 0")
    for name in ("pos_sigma", "points_per_target", "ghost_rate"):
        if not getattr(sc.noise, name) >= 0:
            raise InvalidScenario(f"noise.{name}", "must be >= 0")
    if not 0 <= sc.noise.dropout_prob <= 1:
        raise InvalidScenario("noise.dropout_prob", "must be in [0, 1]")
    for i, w in enumerate(sc.walkers):
        if w.speed < 0:
            raise InvalidScenario(f"walkers[{i}].speed", "must be >= 0")
        if len(w.waypoints) < 1:
            raise InvalidScenario(f"walkers[{i}].waypoints", "need >= 1 point")
        for j, (x, y) in enumerate(w.waypoints):
            if not (sc.room_x[0] <= x <= sc.room_x[1]
                    and sc.room_y[0] <= y <= sc.room_y[1]):
                raise InvalidScenario(f"walkers[{i}].waypoints[{j}]",
                                      "outside room bounds")


def walker_positions(w: WalkerSpec, times) -> np.ndarray:
    """World XY at each scenario time, as an ``(n, 2)`` array; rows
    before entry are NaN.

    Dwell time is subtracted from the time since entry, the arc length
    is folded into a ping-pong loop over the polyline, and each row is
    interpolated on the first segment that holds it."""
    t = np.asarray(times, dtype=float)
    travel = t - w.entry_time
    for start, end in w.dwells:
        lo = max(start, w.entry_time)
        hi = np.minimum(t, end)
        travel -= np.where(lo < hi, hi - lo, 0.0)
    m = w.speed * travel
    pts = [np.array(p, dtype=float) for p in w.waypoints]
    seg = [float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:])]
    total = sum(seg)
    out = np.tile(pts[-1] if total else pts[0], (len(t), 1))
    if total:
        m %= 2 * total
        m = np.where(m > total, 2 * total - m, m)
        placed = np.zeros(len(t), dtype=bool)
        for a, b, L in zip(pts, pts[1:], seg):
            here = ~placed & (m <= L) & (L > 0)
            out[here] = a + (m[here, None] / L) * (b - a)
            placed |= here
            m -= L
    out[t < w.entry_time] = np.nan
    return out


def walker_velocities(w: WalkerSpec, times, h: float = 0.02) -> np.ndarray:
    """World XY velocity at each scenario time, as an ``(n, 2)`` array:
    the central difference of :func:`walker_positions` over ``h`` either
    side, clipped at entry; rows before entry are NaN."""
    t = np.asarray(times, dtype=float)
    a = walker_positions(w, np.maximum(t - h, w.entry_time))
    b = walker_positions(w, t + h)
    vel = (b - a) / (2 * h)
    vel[t < w.entry_time] = np.nan
    return vel


@dataclass(frozen=True)
class SimFrame:
    radar_id: str
    ts_ns: int
    points: np.ndarray     # (n, 5) point array, layout in radarfuse.tlv
    labels: tuple          # "walker:<id>" | "ghost", one per row of points


# raw bounds of the wire fields, in tlv.POINT_DTYPE order, that a
# simulated point meets: symmetric, so one short of the codec's -128 and
# -32768
_RAW_LO = np.array([-127, -127, -32767, 0, 0])
_RAW_HI = np.array([127, 127, 32767, 65535, 65535])


def _encodable(points) -> np.ndarray:
    """Mask of the rows of an ``(n, 5)`` point array kept by the
    simulator: every raw value within the bounds above."""
    raw = tlv.quantize(points, _UNITS)
    return ((raw >= _RAW_LO) & (raw <= _RAW_HI)).all(axis=1)


def _spherical(local: np.ndarray) -> np.ndarray:
    """Range, azimuth and elevation of each row of an ``(n, 3)`` array of
    radar-frame positions, as an ``(n, 3)`` array; the origin is 0, 0, 0."""
    rng = np.linalg.norm(local, axis=1)
    sin_el = np.divide(local[:, 2], rng, out=np.zeros_like(rng),
                       where=rng > 0)
    return np.column_stack([rng, np.arctan2(local[:, 0], local[:, 1]),
                            np.arcsin(np.clip(sin_el, -1.0, 1.0))])


def _in_view(radar: RadarSpec, local: np.ndarray) -> np.ndarray:
    """Mask of the rows of an ``(n, 3)`` array of radar-frame positions
    that lie ahead of the radar, within its range and its field of view;
    a NaN row is out of view."""
    r, az, el = _spherical(local).T
    return ((local[:, 1] > 0) & (r <= radar.max_range)
            & (np.abs(az) <= radar.azimuth_fov / 2)
            & (np.abs(el) <= radar.elevation_fov / 2))


def simulate_frames(sc: Scenario):
    """Yield labeled SimFrames for every radar tick, in timestamp order."""
    validate_scenario(sc)
    rng = np.random.default_rng(sc.seed)
    walkers = sorted(sc.walkers, key=lambda w: w.walker_id)
    names = [f"walker:{w.walker_id}" for w in walkers]
    ticks = []
    for radar in sorted(sc.radars, key=lambda r: r.radar_id):
        n = int(sc.duration * radar.frame_rate)
        times = [t for k in range(n)
                 if (t := radar.phase + k / radar.frame_rate) <= sc.duration]
        # world -> radar: rot @ v - offset, the inverse of the pose
        pos = radar.pose.translation
        rot = radar.pose.matrix().T
        offset = rot @ pos
        # every walker's body position and velocity at every tick, tick
        # by walker; NaN before the walker enters
        bodies = np.full((len(times), len(walkers), 3), sc.body_height)
        vel = np.zeros_like(bodies)
        for j, w in enumerate(walkers):
            bodies[:, j, :2] = walker_positions(w, times)
            vel[:, j, :2] = walker_velocities(w, times)
        seen = _in_view(radar, bodies.reshape(-1, 3) @ rot.T - offset)
        ticks += [(t, radar.radar_id, radar, pos, rot, offset, *row)
                  for t, *row in zip(times, bodies, vel,
                                     seen.reshape(bodies.shape[:2]))]
    ticks.sort(key=lambda x: (x[0], x[1]))
    # a walker row is (x, y, z, doppler, snr) = z * spread + center for
    # five standard normals z; a ghost row is uniform in [lo, hi)
    spread = np.array([sc.noise.pos_sigma] * 3 + [0.03, 3.0])
    ghost_lo = np.array([sc.room_x[0], sc.room_y[0], 0.2, -3.0, 8.0])
    ghost_hi = np.array([sc.room_x[1], sc.room_y[1], sc.room_height, 3.0,
                         20.0])

    for t, _, radar, pos, rot, offset, bodies, vel, seen in ticks:
        ts_ns = int(round(t * 1e9))
        rows, labels = [], []
        for j in np.flatnonzero(seen):
            to_radar = bodies[j] - pos
            radial = float(vel[j] @ to_radar) / max(float(np.linalg.norm(to_radar)), 1e-9)
            if (sc.doppler_zero_suppression
                    and abs(radial) < DOPPLER_SUPPRESSION_THRESHOLD):
                continue
            if rng.random() < sc.noise.dropout_prob:
                continue
            n_pts = rng.poisson(sc.noise.points_per_target)
            z = rng.standard_normal((n_pts, 5))
            walker = z * spread + [*bodies[j], radial, 15.0]
            walker[:, 4] = np.maximum(0.0, walker[:, 4])
            rows.append(walker)
            labels += [names[j]] * len(walker)

        n_walker = len(labels)
        n_ghosts = rng.poisson(sc.noise.ghost_rate)
        rows.append(ghost_lo + (ghost_hi - ghost_lo)
                    * rng.random((n_ghosts, 5)))
        labels += ["ghost"] * n_ghosts

        rows = np.concatenate(rows)
        points = np.column_stack([_spherical(rows[:, :3] @ rot.T - offset),
                                  rows[:, 3:]])
        # a ghost also needs a range the radar reports
        r = points[n_walker:, 0]
        keep = _encodable(points)
        keep[n_walker:] &= (r > 0) & (r <= radar.max_range)
        yield SimFrame(radar_id=radar.radar_id, ts_ns=ts_ns,
                       points=points[keep],
                       labels=tuple(itertools.compress(labels, keep)))


def ground_truth_series(sc: Scenario, tick: float = 0.5):
    """Per-tick occupancy truth: list of dicts with time, count, walkers."""
    times = []
    t = 0.0
    while t <= sc.duration + 1e-9:
        times.append(t)
        t += tick
    paths = [(w, walker_positions(w, times), walker_velocities(w, times))
             for w in sc.walkers]
    out = []
    for i, t in enumerate(times):
        walkers = [{"id": w.walker_id,
                    "x": round(float(xy[i, 0]), 3),
                    "y": round(float(xy[i, 1]), 3),
                    "speed": round(float(np.linalg.norm(vel[i])), 3)}
                   for w, xy, vel in paths if not np.isnan(xy[i, 0])]
        out.append({"t_s": round(t, 3), "count": len(walkers),
                    "walkers": walkers})
    return out


def simulate(sc: Scenario, log_path, truth_path=None):
    """Render a scenario to a raw-TLV recording plus a truth file."""
    rec = Recorder(log_path, radar_ids=sorted(r.radar_id for r in sc.radars),
                   clock=lambda: 0.0)
    try:
        for frame in simulate_frames(sc):
            blob = tlv.encode_frame(frame.points, _UNITS)
            rec.write(LogRecord(ts_ns=frame.ts_ns, radar_id=frame.radar_id,
                                payload=blob))
    finally:
        rec.close()
    if truth_path is not None:
        with open(truth_path, "w", encoding="utf-8") as fh:
            for row in ground_truth_series(sc):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def paper_scenario(seed: int = 7) -> Scenario:
    """Bundled reference scenario: a 12 x 6 m lab, two tilted wall radars
    facing each other plus one ceiling radar, four walkers entering 15 s
    apart, sit-still dwell segments and a brief grouping episode."""
    wall_a = RadarSpec(
        radar_id="wall_a",
        pose=Pose(x=0.05, y=3.0, z=2.35, yaw=-math.pi / 2,
                  pitch=math.radians(-5.0)),
        azimuth_fov=math.radians(120), elevation_fov=math.radians(30),
        max_range=14.0, frame_rate=10.0, phase=0.0)
    wall_b = RadarSpec(
        radar_id="wall_b",
        pose=Pose(x=11.95, y=3.0, z=2.35, yaw=math.pi / 2,
                  pitch=math.radians(-5.0)),
        azimuth_fov=math.radians(120), elevation_fov=math.radians(30),
        max_range=14.0, frame_rate=10.0, phase=0.003)
    ceiling = RadarSpec(
        radar_id="ceiling",
        pose=Pose(x=6.0, y=3.0, z=2.35, pitch=-math.pi / 2),
        azimuth_fov=math.radians(120), elevation_fov=math.radians(120),
        max_range=5.0, frame_rate=10.0, phase=0.006)

    walkers = (
        WalkerSpec(walker_id=0, entry_time=0.0, speed=1.1,
                   waypoints=((1.0, 1.0), (10.5, 1.2), (10.5, 4.8),
                              (1.2, 4.6)),
                   dwells=((22.0, 28.0), (62.0, 68.0), (92.0, 98.0))),
        WalkerSpec(walker_id=1, entry_time=15.0, speed=1.0,
                   waypoints=((0.8, 0.8), (6.2, 2.4), (10.8, 1.0),
                              (6.0, 4.5)),
                   dwells=((33.0, 39.0), (70.0, 76.0), (100.0, 106.0))),
        WalkerSpec(walker_id=2, entry_time=30.0, speed=1.2,
                   waypoints=((0.8, 5.2), (5.2, 3.4), (9.5, 5.0),
                              (11.0, 2.2)),
                   dwells=((46.0, 52.0), (78.0, 84.0), (104.0, 110.0))),
        WalkerSpec(walker_id=3, entry_time=45.0, speed=1.0,
                   waypoints=((0.8, 2.0), (4.8, 4.6), (7.2, 2.2),
                              (3.0, 1.0)),
                   dwells=((56.0, 61.0), (86.0, 92.0))),
    )

    return Scenario(radars=(wall_a, wall_b, ceiling), walkers=walkers,
                    noise=NoiseSpec(), doppler_zero_suppression=True,
                    duration=115.0, seed=seed)


class EmptySeries(ValueError):
    pass


@dataclass(frozen=True)
class EvalMetrics:
    mae: float
    convergence_time_s: float | None
    peak_estimate: float

    def to_dict(self) -> dict:
        return {"mae": self.mae,
                "convergence_time_s": self.convergence_time_s,
                "peak_estimate": self.peak_estimate}


def _step_sample(series, times):
    """Sample a step series [(t, v), ...] (sorted) at the given times."""
    ts, vs = np.array(series, dtype=float).T
    j = np.searchsorted(ts, times + 1e-9, side="right") - 1
    return np.where(j >= 0, vs[j], 0.0)


def _moving_average(values: np.ndarray, window_samples: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(values)])
    hi = np.arange(1, len(values) + 1)
    lo = np.maximum(0, hi - window_samples)
    return (csum[hi] - csum[lo]) / (hi - lo)


def evaluate(estimate_series, truth_series, smoothing_seconds: float = 30.0,
             dt: float = 0.5, hold_seconds: float = 10.0) -> EvalMetrics:
    """Compare an estimated count series with ground truth.

    Both series are [(t_s, count), ...].  A trailing moving average of
    ``smoothing_seconds`` is applied to both; convergence is the first
    instant from which the smoothed estimate stays within +-0.5 of the
    smoothed truth for at least ``hold_seconds``; the MAE is over the
    post-convergence interval (over everything when never converged).
    """
    if not estimate_series or not truth_series:
        raise EmptySeries("both series must be non-empty")
    estimate_series = sorted(estimate_series)
    truth_series = sorted(truth_series)
    t0 = min(estimate_series[0][0], truth_series[0][0])
    t1 = max(estimate_series[-1][0], truth_series[-1][0])
    times = np.arange(t0, t1 + dt / 2, dt)
    est = _step_sample(estimate_series, times)
    tru = _step_sample(truth_series, times)
    w = max(1, int(round(smoothing_seconds / dt)))
    est_s = _moving_average(est, w)
    tru_s = _moving_average(tru, w)

    diff_ok = np.abs(est_s - tru_s) <= 0.5
    hold = max(1, int(round(hold_seconds / dt)))
    conv_idx = None
    run = 0
    for i, ok in enumerate(diff_ok):
        run = run + 1 if ok else 0
        if run >= hold:
            conv_idx = i - hold + 1
            break
    mae_slice = slice(conv_idx, None) if conv_idx is not None else slice(None)
    mae = float(np.mean(np.abs(est_s[mae_slice] - tru_s[mae_slice])))
    return EvalMetrics(
        mae=mae,
        convergence_time_s=float(times[conv_idx]) if conv_idx is not None else None,
        peak_estimate=float(np.max(est)),
    )
