"""Synthetic multi-radar scenarios with ground truth.

Walkers follow waypoint polylines (ping-pong at the ends) at constant
speed, frozen during configured dwell windows.  Each radar tick, every
walker visible in that radar's field of view sheds a Poisson number of
noisy points; ghosts pop up uniformly in the room for a single frame.
When doppler-zero suppression is on, a walker whose radial speed toward
a radar is below the suppression threshold sheds nothing to that radar,
mimicking firmware that only reports moving reflectors.

Trajectories are arrays: :func:`walker_positions` and
:func:`walker_motion` (positions and velocities) evaluate a walker's
path over a whole array of times, NaN before entry.  A scenario
renders ``_CHUNK_TICKS`` ticks at a time, so a render's memory is
bounded by the chunk, not by the duration.  Each radar's ticks get
every walker's position, velocity, radial speed and field-of-view
check a chunk at a time, and the ticks of all radars are merged in
``(timestamp, radar id)`` order.  Per tick only the seeded draws run,
and the rotation of the tick's rows into its radar's frame (one
product over a whole chunk can differ from it in the last bit on some
BLAS builds).  The row arithmetic, the spherical conversion, the
quantisation and the encodability mask run once per chunk.
:func:`_chunks` yields each chunk's ``(n, 5)`` point array of
:mod:`radarfuse.tlv` with each row's walker, and :func:`simulate`
packs the chunk's kept raw values with :func:`tlv.pack_raw`, so each
point is quantised once.

Everything is driven by one seeded generator in a fixed iteration
order, so a scenario renders to byte-identical logs every run.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from . import tlv
from .geometry import Pose
from .recording import LogRecord, Recorder, check_outputs

DOPPLER_SUPPRESSION_THRESHOLD = 0.05  # m/s
GHOST_FLOOR = 0.2  # m, the lowest world z a ghost is drawn at


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


def _non_finite(value, path: str = ""):
    """Yield the path of every NaN or infinite float in ``value``, a
    float, a dataclass or a tuple of these, in field order."""
    if isinstance(value, float):
        if not math.isfinite(value):
            yield path
    elif is_dataclass(value):
        for f in fields(value):
            yield from _non_finite(getattr(value, f.name),
                                   f"{path}.{f.name}" if path else f.name)
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")


def validate_scenario(sc: Scenario):
    for path in _non_finite(sc):
        raise InvalidScenario(path, "must be finite")
    if not sc.radars:
        raise InvalidScenario("radars", "at least one radar required")
    if sc.duration <= 0:
        raise InvalidScenario("duration", "must be > 0")
    if sc.seed < 0:
        raise InvalidScenario("seed", "must be >= 0")
    if not sc.room_height > GHOST_FLOOR:
        raise InvalidScenario("room_height",
                              f"must be > the ghost floor {GHOST_FLOOR} m")
    seen = set()
    for i, r in enumerate(sc.radars):
        if r.radar_id in seen:
            raise InvalidScenario(f"radars[{i}].radar_id",
                                  f"duplicate radar_id {r.radar_id!r}")
        seen.add(r.radar_id)
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


def walker_motion(w: WalkerSpec, times, h: float = 0.02):
    """World XY positions and velocities at each scenario time, two
    ``(n, 2)`` arrays from one evaluation of the path: the positions of
    :func:`walker_positions`, and the central difference of them over
    ``h`` either side, clipped at entry; rows before entry are NaN."""
    t = np.asarray(times, dtype=float)
    xy = walker_positions(w, np.concatenate(
        [t, np.maximum(t - h, w.entry_time), t + h]))
    n = len(t)
    vel = (xy[2 * n:] - xy[n:2 * n]) / (2 * h)
    vel[t < w.entry_time] = np.nan
    return xy[:n], vel


# ticks rendered together, in timestamp order over all radars and, for
# each radar's walker paths, in time order: the array work of a chunk is
# one call, and a render holds a chunk's arrays, not the scenario's.
# Larger chunks leave numpy buffers above glibc's mmap threshold.
_CHUNK_TICKS = 32

# raw low bounds of the wire fields, in tlv.POINT_DTYPE order, that a
# simulated point meets: the negative of the codec's high bound for a
# signed field, so one short of the codec's -128 and -32768
_RAW_LO = np.where(tlv.RAW_LO < 0, -tlv.RAW_HI, 0)


def _encodable(raw) -> np.ndarray:
    """Mask of the rows of an ``(n, 5)`` array of raw values, as
    :func:`tlv.quantize` gives them, kept by the simulator: every value
    between the low bounds above and ``tlv.RAW_HI``."""
    return ((raw >= _RAW_LO) & (raw <= tlv.RAW_HI)).all(axis=1)


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


def _radial_speeds(vel: np.ndarray, to_radar: np.ndarray) -> np.ndarray:
    """Speed along ``to_radar`` of each row of two ``(n, 3)`` arrays:
    ``float(v @ t) / max(float(norm(t)), 1e-9)`` row by row, bit for bit,
    since a stacked ``(1, 3) @ (3, 1)`` product is numpy's 1-D dot."""
    def dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    return dot(vel, to_radar) / np.maximum(np.sqrt(dot(to_radar, to_radar)),
                                           1e-9)


class _Tick(NamedTuple):
    t: float                 # s
    radar_id: str
    max_range: float
    rot: np.ndarray          # world -> radar: rot @ v - offset
    offset: np.ndarray
    centers: np.ndarray      # (walkers, 5): x, y, z, radial speed, 15
    emitters: list           # indices of the walkers that shed points


def _radar_ticks(sc: Scenario, radar: RadarSpec, walkers):
    """The ticks of ``radar`` in time order.  A walker emits when it is
    in view and, under doppler-zero suppression, moving toward or away
    from the radar.  Positions, velocities and the view check are
    computed ``_CHUNK_TICKS`` ticks at a time."""
    # world -> radar: rot @ v - offset, the inverse of the pose
    pos = radar.pose.translation
    rot = radar.pose.matrix().T
    offset = rot @ pos
    n = int(sc.duration * radar.frame_rate)
    for k in range(0, n, _CHUNK_TICKS):
        times = radar.phase + np.arange(k, min(k + _CHUNK_TICKS, n)) \
            / radar.frame_rate
        times = times[times <= sc.duration]
        # every walker's body position and velocity at every tick, tick
        # by walker; NaN before the walker enters
        bodies = np.full((len(times), len(walkers), 3), sc.body_height)
        vel = np.zeros_like(bodies)
        for j, w in enumerate(walkers):
            bodies[:, j, :2], vel[:, j, :2] = walker_motion(w, times)
        flat = bodies.reshape(-1, 3)
        emits = _in_view(radar, flat @ rot.T - offset)
        radial = _radial_speeds(vel.reshape(-1, 3), flat - pos)
        if sc.doppler_zero_suppression:
            emits &= np.abs(radial) >= DOPPLER_SUPPRESSION_THRESHOLD
        centers = np.column_stack([flat, radial, np.full(len(flat), 15.0)])
        for t, row, emit in zip(times.tolist(),
                                centers.reshape(len(times), len(walkers), 5),
                                emits.reshape(len(times),
                                              len(walkers)).tolist()):
            yield _Tick(t, radar.radar_id, radar.max_range, rot, offset, row,
                        [j for j, e in enumerate(emit) if e])


def _chunks(sc: Scenario):
    """Render a valid scenario a chunk of ticks at a time.

    Yields ``(ticks, points, raw, keep, owner)`` per chunk of at most
    ``_CHUNK_TICKS`` ticks of all radars in ``(timestamp, radar id)``
    order.  ``ticks`` lists ``(ts_ns, radar_id, start, stop)``: the
    tick's rows of the ``(n, 5)`` point array ``points`` and of its raw
    values ``raw``, walker rows first, then ghost rows.  ``keep`` marks
    the rows a radar reports, and ``owner`` is each row's walker index
    among the walkers sorted by id, -1 for a ghost.

    The seeded draws run tick by tick in a fixed order, and so does the
    rotation of each tick's rows into its radar's frame; the rest runs
    once per chunk."""
    rng = np.random.default_rng(sc.seed)
    noise = sc.noise
    walkers = sorted(sc.walkers, key=lambda w: w.walker_id)
    ticks = heapq.merge(*(_radar_ticks(sc, radar, walkers) for radar in
                          sorted(sc.radars, key=lambda r: r.radar_id)),
                        key=lambda tick: (tick.t, tick.radar_id))
    # a walker row is (x, y, z, doppler, snr) = z * spread + center for
    # five standard normals z; a ghost row is lo + span * u, uniform in
    # [lo, lo + span)
    spread = np.array([noise.pos_sigma] * 3 + [0.03, 3.0])
    ghost_lo = np.array([sc.room_x[0], sc.room_y[0], GHOST_FLOOR, -3.0,
                         8.0])
    ghost_span = np.array([sc.room_x[1], sc.room_y[1], sc.room_height, 3.0,
                           20.0]) - ghost_lo
    while chunk := list(itertools.islice(ticks, _CHUNK_TICKS)):
        draws, centers, owners, bounds = [], [], [], [0]
        for tick in chunk:
            n = bounds[-1]
            for j in tick.emitters:
                if rng.random() < noise.dropout_prob:
                    continue
                z = rng.standard_normal(
                    (rng.poisson(noise.points_per_target), 5))
                draws.append(z)
                centers.append(tick.centers[j])
                owners.append(j)
                n += len(z)
            u = rng.random((rng.poisson(noise.ghost_rate), 5))
            draws.append(u)
            centers.append(ghost_lo)
            owners.append(-1)
            bounds.append(n + len(u))
        counts = [len(d) for d in draws]
        owner = np.repeat(owners, counts)
        ghost = owner < 0
        rows = (np.concatenate(draws)
                * np.where(ghost[:, None], ghost_span, spread)
                + np.repeat(centers, counts, axis=0))
        rows[:, 4] = np.maximum(0.0, rows[:, 4])  # a ghost's snr is >= 8
        local = np.empty((len(rows), 3))
        for tick, a, b in zip(chunk, bounds, bounds[1:]):
            local[a:b] = rows[a:b, :3] @ tick.rot.T - tick.offset
        points = np.column_stack([_spherical(local), rows[:, 3:]])
        raw = tlv.quantize(points)
        keep = _encodable(raw)
        # a ghost also needs a range the radar reports
        r = points[:, 0]
        max_range = np.repeat([tick.max_range for tick in chunk],
                              np.diff(bounds))
        keep &= ~ghost | ((r > 0) & (r <= max_range))
        yield ([(int(round(tick.t * 1e9)), tick.radar_id, a, b)
                for tick, a, b in zip(chunk, bounds, bounds[1:])],
               points, raw, keep, owner)


def ground_truth_series(sc: Scenario, tick: float = 0.5):
    """Per-tick occupancy truth: list of dicts with time, count, walkers."""
    times = []
    t = 0.0
    while t <= sc.duration + 1e-9:
        times.append(t)
        t += tick
    paths = [(w, *walker_motion(w, times)) for w in sc.walkers]
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


def simulate(sc: Scenario, log_path, truth_path=None, inputs=()):
    """Render a scenario to a raw-TLV recording plus a truth file; an
    invalid scenario raises :class:`InvalidScenario`, and a path that
    cannot be written, or that names one of the files ``inputs`` the
    caller read, the error of :func:`recording.check_outputs`, before
    either file is opened."""
    validate_scenario(sc)
    check_outputs(log_path, truth_path, inputs=inputs)
    rec = Recorder(log_path, radar_ids=sorted(r.radar_id for r in sc.radars),
                   clock=lambda: 0.0)
    try:
        for ticks, _, raw, keep, _ in _chunks(sc):
            # the kept rows of a chunk, packed once; a tick's records are
            # the slice between the kept rows before it and through it
            records = tlv.pack_raw(raw[keep])
            ends = np.concatenate([[0], np.cumsum(keep)]) * tlv.POINT_SIZE
            ends = ends.tolist()
            for ts_ns, radar_id, a, b in ticks:
                blob = tlv.MAGIC + tlv.pack_tlv(records[ends[a]:ends[b]])
                rec.write(LogRecord(ts_ns=ts_ns, radar_id=radar_id,
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
    # the wall radars keep RadarSpec's default field of view, range and rate
    wall_a = RadarSpec(radar_id="wall_a",
                       pose=Pose(x=0.05, y=3.0, z=2.35, yaw=-math.pi / 2,
                                 pitch=math.radians(-5.0)))
    wall_b = RadarSpec(radar_id="wall_b",
                       pose=Pose(x=11.95, y=3.0, z=2.35, yaw=math.pi / 2,
                                 pitch=math.radians(-5.0)),
                       phase=0.003)
    ceiling = RadarSpec(radar_id="ceiling",
                        pose=Pose(x=6.0, y=3.0, z=2.35, pitch=-math.pi / 2),
                        elevation_fov=math.radians(120), max_range=5.0,
                        phase=0.006)

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
                    duration=115.0, seed=seed)


EVAL_STEP = 0.5  # s, evaluate's sampling step
EVAL_HOLD = 10.0  # s, how long an estimate must hold to count as converged
# the most samples evaluate takes: about 11.6 days at EVAL_STEP
MAX_EVAL_SAMPLES = 2_000_000


class EmptySeries(ValueError):
    pass


class SpanTooLong(ValueError):
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


def evaluate(estimate_series, truth_series,
             smoothing_seconds: float = 30.0) -> EvalMetrics:
    """Compare an estimated count series with ground truth.

    Both series are [(t_s, count), ...], sampled every ``EVAL_STEP``.  A
    trailing moving average of ``smoothing_seconds`` is applied to both;
    convergence is the first instant from which the smoothed estimate
    stays within +-0.5 of the smoothed truth for at least ``EVAL_HOLD``;
    the MAE is over the post-convergence interval (over everything when
    never converged).  A span of ``MAX_EVAL_SAMPLES`` steps or more
    raises :class:`SpanTooLong` before any sample is allocated.
    """
    if not estimate_series or not truth_series:
        raise EmptySeries("both series must be non-empty")
    estimate_series = sorted(estimate_series)
    truth_series = sorted(truth_series)
    t0 = min(estimate_series[0][0], truth_series[0][0])
    t1 = max(estimate_series[-1][0], truth_series[-1][0])
    if not (t1 - t0) / EVAL_STEP < MAX_EVAL_SAMPLES:
        raise SpanTooLong(f"a span of {t1 - t0:g} s is more than "
                          f"{MAX_EVAL_SAMPLES} samples of {EVAL_STEP:g} s")
    times = np.arange(t0, t1 + EVAL_STEP / 2, EVAL_STEP)
    est = _step_sample(estimate_series, times)
    tru = _step_sample(truth_series, times)
    # a window past the series' length averages all of it
    w = min(len(times), max(1, int(round(smoothing_seconds / EVAL_STEP))))
    est_s = _moving_average(est, w)
    tru_s = _moving_average(tru, w)

    diff_ok = np.abs(est_s - tru_s) <= 0.5
    hold = round(EVAL_HOLD / EVAL_STEP)
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
