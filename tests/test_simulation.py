import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarfuse import simulation, tlv
from radarfuse.geometry import Pose, TransformTree
from radarfuse.simulation import (EmptySeries, InvalidScenario, NoiseSpec,
                                  RadarSpec, Scenario, WalkerSpec,
                                  _encodable, _moving_average,
                                  _radial_speeds, _step_sample,
                                  evaluate, ground_truth_series,
                                  paper_scenario, simulate, walker_motion,
                                  walker_positions)

from _reference import (brute_walker_position, labelled_frames,
                        loop_moving_average, loop_step_sample)


def overhead_radar(**kw):
    """Radar looking straight down at the room from 3 m, wide FoV."""
    defaults = dict(radar_id="r0",
                    pose=Pose(x=6.0, y=3.0, z=3.0, pitch=-math.pi / 2),
                    azimuth_fov=math.radians(150),
                    elevation_fov=math.radians(150),
                    max_range=10.0, frame_rate=10.0)
    defaults.update(kw)
    return RadarSpec(**defaults)


def one_walker(**kw):
    defaults = dict(walker_id=0, entry_time=0.0, speed=1.0,
                    waypoints=((1.0, 1.0), (11.0, 1.0)))
    defaults.update(kw)
    return WalkerSpec(**defaults)


def quiet_noise(**kw):
    defaults = dict(pos_sigma=0.0, points_per_target=6.0, ghost_rate=0.0,
                    dropout_prob=0.0)
    defaults.update(kw)
    return NoiseSpec(**defaults)


class TestWalkerKinematics:
    def test_before_entry(self):
        w = one_walker(entry_time=5.0)
        pos = walker_positions(w, [4.9, 5.0])
        assert np.isnan(pos[0]).all()
        assert pos[1].tolist() == [1.0, 1.0]
        assert np.isnan(walker_motion(w, [4.9])[1]).all()

    def test_constant_speed_on_segment(self):
        w = one_walker(speed=2.0)
        assert walker_positions(w, [3.0])[0] == pytest.approx([7.0, 1.0])

    def test_ping_pong_reflects(self):
        w = one_walker(speed=1.0)  # 10 m segment
        assert walker_positions(w, [12.0, 20.0]) == pytest.approx(
            np.array([[9.0, 1.0], [1.0, 1.0]]))

    def test_dwell_freezes_position(self):
        w = one_walker(speed=1.0, dwells=((2.0, 4.0),))
        frozen, still, moving = walker_positions(w, [2.0, 3.5, 5.0])
        assert still == pytest.approx(frozen)
        # afterwards motion resumes from where it stopped
        assert moving == pytest.approx([4.0, 1.0])

    def test_velocity_zero_during_dwell(self):
        w = one_walker(speed=1.0, dwells=((2.0, 4.0),))
        still, moving = walker_motion(w, [3.0, 8.0])[1]
        assert np.linalg.norm(still) == pytest.approx(0.0)
        assert np.linalg.norm(moving) == pytest.approx(1.0, abs=1e-6)

    def test_single_waypoint_is_stationary(self):
        w = one_walker(waypoints=((3.0, 3.0),))
        assert walker_positions(w, [9.0])[0] == pytest.approx([3.0, 3.0])


# coordinates and times on a 0.5 lattice, so waypoints repeat, segments
# have zero length and times fall on entries, dwell ends, segment ends
# and fold points; plus arbitrary floats
_coord = st.one_of(st.integers(0, 12).map(lambda k: k * 0.5),
                   st.floats(0.0, 6.0))
_time = st.one_of(st.integers(-2, 60).map(lambda k: k * 0.5),
                  st.floats(-1.0, 40.0))


@st.composite
def walkers_and_times(draw):
    pool = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4))
    waypoints = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=6)))
    w = WalkerSpec(walker_id=0, waypoints=waypoints,
                   entry_time=draw(_time),
                   speed=draw(st.one_of(st.sampled_from([0.0, 1.0, 1.1]),
                                        st.floats(0.1, 3.0))),
                   dwells=tuple(draw(st.lists(st.tuples(_time, _time),
                                              max_size=3))))
    times = draw(st.lists(_time, max_size=20))
    times += [w.entry_time] + [t for d in w.dwells for t in d]
    if w.speed > 0:
        # arc lengths of every segment end and of the fold points
        pts = [np.array(p, dtype=float) for p in waypoints]
        arcs = np.cumsum([0.0] + [float(np.linalg.norm(b - a))
                                  for a, b in zip(pts, pts[1:])])
        for arc in [*arcs, 2 * arcs[-1], 3 * arcs[-1]]:
            times.append(w.entry_time + float(arc) / w.speed)
    return w, times


@settings(max_examples=400, deadline=None)
@given(walkers_and_times())
def test_walker_positions_match_brute_force(case):
    w, times = case
    h = 0.02
    nan = [math.nan, math.nan]

    def brute(t):
        xy = brute_walker_position(w, t)
        return nan if xy is None else xy

    expect = np.array([brute(t) for t in times]).reshape(-1, 2)
    got = walker_positions(w, times)
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.isnan(got[np.array(times) < w.entry_time]).all()
    expect_vel = np.array(
        [nan if t < w.entry_time else
         (brute(t + h) - brute(max(t - h, w.entry_time))) / (2 * h)
         for t in times]).reshape(-1, 2)
    assert np.array_equal(walker_motion(w, times, h)[1], expect_vel,
                          equal_nan=True)


class TestValidation:
    def test_no_radars(self):
        with pytest.raises(InvalidScenario, match="radars"):
            list(labelled_frames(Scenario(radars=(), duration=1.0)))

    def test_waypoint_out_of_room(self):
        sc = Scenario(radars=(overhead_radar(),),
                      walkers=(one_walker(waypoints=((1.0, 1.0), (99.0, 1.0))),),
                      duration=1.0)
        with pytest.raises(InvalidScenario, match=r"walkers\[0\].waypoints\[1\]"):
            list(labelled_frames(sc))

    def test_negative_sigma(self):
        bad = [({"noise": NoiseSpec(pos_sigma=-1.0)}, "noise.pos_sigma"),
               ({"noise": NoiseSpec(points_per_target=-1.0)},
                "noise.points_per_target"),
               ({"noise": NoiseSpec(ghost_rate=-1.0)}, "noise.ghost_rate"),
               ({"noise": NoiseSpec(dropout_prob=-0.1)}, "noise.dropout_prob"),
               ({"noise": NoiseSpec(dropout_prob=1.5)}, "noise.dropout_prob"),
               ({"radars": (overhead_radar(frame_rate=0.0),)},
                r"radars\[0\].frame_rate"),
               ({"radars": (overhead_radar(max_range=-1.0),)},
                r"radars\[0\].max_range")]
        for kw, path in bad:
            sc = Scenario(**{"radars": (overhead_radar(),), "duration": 1.0,
                             **kw})
            with pytest.raises(InvalidScenario, match=path):
                list(labelled_frames(sc))

    @pytest.mark.parametrize("kw,path", [
        pytest.param({"radars": (overhead_radar(),
                                 overhead_radar(radar_id="r1"),
                                 overhead_radar())},
                     "radars[2].radar_id", id="duplicate-radar_id"),
        # ghosts are drawn from simulation.GHOST_FLOOR (0.2 m) up to the
        # ceiling
        pytest.param({"room_height": 0.2}, "room_height",
                     id="ceiling-at-ghost-floor"),
        pytest.param({"room_height": 0.1}, "room_height",
                     id="ceiling-below-ghost-floor"),
        pytest.param({"seed": -1}, "seed", id="negative-seed"),
    ])
    def test_rejected_before_log_opens(self, kw, path, tmp_path):
        sc = Scenario(**{"radars": (overhead_radar(),), "duration": 1.0,
                         **kw})
        log = tmp_path / "sim.log"
        with pytest.raises(InvalidScenario, match=f"^{re.escape(path)}: "):
            simulate(sc, log)
        assert not log.exists()


def with_value(obj, steps, value):
    """``obj`` with the number at ``steps`` (the parts of a path as
    :class:`InvalidScenario` names it) replaced by ``value``."""
    if not steps:
        return value
    step, rest = steps[0], steps[1:]
    if step.startswith("["):
        items = list(obj)
        items[int(step[1:-1])] = with_value(items[int(step[1:-1])], rest,
                                            value)
        return tuple(items)
    return dataclasses.replace(
        obj, **{step: with_value(getattr(obj, step), rest, value)})


NUMBER_PATHS = [
    "room_x[0]", "room_x[1]", "room_y[0]", "room_y[1]", "room_height",
    "body_height", "duration",
    *(f"radars[1].pose.{name}" for name in
      ("x", "y", "z", "yaw", "pitch", "roll")),
    *(f"radars[1].{name}" for name in
      ("azimuth_fov", "elevation_fov", "max_range", "frame_rate", "phase")),
    "walkers[0].speed", "walkers[0].entry_time",
    "walkers[0].waypoints[0][0]", "walkers[0].waypoints[1][1]",
    "walkers[0].dwells[0][0]", "walkers[0].dwells[0][1]",
    *(f"noise.{name}" for name in
      ("pos_sigma", "points_per_target", "ghost_rate", "dropout_prob")),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", NUMBER_PATHS)
def test_non_finite_number_rejected(path, value, tmp_path):
    good = Scenario(radars=(overhead_radar(), overhead_radar(radar_id="r1")),
                    walkers=(one_walker(dwells=((2.0, 4.0),)),),
                    duration=1.0)
    simulation.validate_scenario(good)
    sc = with_value(good, re.findall(r"\w+|\[\d+\]", path), value)
    with pytest.raises(InvalidScenario,
                       match=f"^{re.escape(path)}: must be finite$"):
        list(labelled_frames(sc))
    log = tmp_path / "sim.log"
    with pytest.raises(InvalidScenario):
        simulate(sc, log)
    assert not log.exists()


class TestFrameGeneration:
    def test_seed_determinism_byte_identical(self, tmp_path):
        sc = paper_scenario(seed=3)
        sc = Scenario(radars=sc.radars, walkers=sc.walkers, noise=sc.noise,
                      duration=5.0, seed=3)
        p1, p2 = tmp_path / "a.log", tmp_path / "b.log"
        simulate(sc, p1, tmp_path / "a.truth")
        simulate(sc, p2, tmp_path / "b.truth")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.truth").read_bytes() == \
            (tmp_path / "b.truth").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = paper_scenario(seed=3)
        for seed, name in ((3, "a.log"), (4, "b.log")):
            sc = Scenario(radars=base.radars, walkers=base.walkers,
                          noise=base.noise, duration=5.0, seed=seed)
            simulate(sc, tmp_path / name)
        assert (tmp_path / "a.log").read_bytes() != \
            (tmp_path / "b.log").read_bytes()

    def test_out_of_fov_walker_invisible(self):
        # narrow-FoV radar aimed along +y from the origin corner; a walker
        # parked behind it can never appear
        radar = RadarSpec(radar_id="r0", pose=Pose(x=6.0, y=0.1, z=1.0),
                          azimuth_fov=math.radians(20),
                          elevation_fov=math.radians(20), max_range=10.0)
        sc = Scenario(radars=(radar,),
                      walkers=(one_walker(waypoints=((0.5, 0.05),)),),
                      noise=quiet_noise(), doppler_zero_suppression=False,
                      duration=2.0, seed=1)
        assert all(len(f.points) == 0 for f in labelled_frames(sc))

    def test_suppression_hides_stationary_walker(self):
        sc = Scenario(radars=(overhead_radar(),),
                      walkers=(one_walker(waypoints=((3.0, 3.0),)),),
                      noise=quiet_noise(), doppler_zero_suppression=True,
                      duration=2.0, seed=1)
        assert all(len(f.points) == 0 for f in labelled_frames(sc))

    def test_suppression_off_shows_stationary_walker(self):
        sc = Scenario(radars=(overhead_radar(),),
                      walkers=(one_walker(waypoints=((3.0, 3.0),)),),
                      noise=quiet_noise(), doppler_zero_suppression=False,
                      duration=2.0, seed=1)
        frames = list(labelled_frames(sc))
        assert any(len(f.points) for f in frames)
        for f in frames:
            assert all(lab == "walker:0" for lab in f.labels)

    def test_zero_noise_points_land_on_body(self):
        sc = Scenario(radars=(overhead_radar(),),
                      walkers=(one_walker(),), noise=quiet_noise(),
                      doppler_zero_suppression=False, duration=3.0, seed=1)
        for f in labelled_frames(sc):
            if len(f.points) == 0:
                continue
            t = f.ts_ns / 1e9
            expect = walker_positions(one_walker(), [t])[0]
            radar = overhead_radar()
            tree = TransformTree({radar.radar_id: radar.pose})
            for x, y, z in tree.to_world(f.radar_id, f.points):
                # quantization of the wire format dominates the error
                assert abs(x - expect[0]) < 0.05
                assert abs(y - expect[1]) < 0.05
                assert abs(z - 1.0) < 0.05

    def test_ghost_labels(self):
        sc = Scenario(radars=(overhead_radar(),), walkers=(),
                      noise=quiet_noise(ghost_rate=3.0), duration=2.0, seed=1)
        labels = [lab for f in labelled_frames(sc) for lab in f.labels]
        assert labels and set(labels) == {"ghost"}

    def test_frames_sorted_and_labels_aligned(self):
        sc = paper_scenario(seed=2)
        sc = Scenario(radars=sc.radars, walkers=sc.walkers, noise=sc.noise,
                      duration=3.0, seed=2)
        frames = list(labelled_frames(sc))
        ts = [f.ts_ns for f in frames]
        assert ts == sorted(ts)
        assert {f.radar_id for f in frames} == {"wall_a", "wall_b", "ceiling"}
        for f in frames:
            assert f.points.shape == (len(f.labels), 5)

    def test_mask_keeps_wire_range_symmetric(self):
        # -1.28 rad quantizes to -128, which the codec accepts but the
        # simulator does not; +1.27 rad (raw 127) passes both
        rows = [[1.0, -1.28, 0.0, 0.0, 10.0], [1.0, 1.27, 0.0, 0.0, 10.0]]
        raw = tlv.quantize(rows)
        assert raw[:, 1].tolist() == [-128.0, 127.0]
        tlv.encode_points(rows)
        assert _encodable(raw).tolist() == [False, True]

    def test_radial_speeds_match_scalar_form(self):
        # the per-tick form the stacked one replaces, bit for bit
        rng = np.random.default_rng(0)
        vel = rng.normal(size=(3000, 3))
        vel[:, 2] = 0.0
        to_radar = rng.normal(size=(3000, 3)) * rng.uniform(0, 8, (3000, 1))
        to_radar[:3] = [[0.0, 0.0, 0.0], [1e-12, 0.0, 0.0], [3.0, 4.0, 0.0]]
        expect = [float(v @ t) / max(float(np.linalg.norm(t)), 1e-9)
                  for v, t in zip(vel, to_radar)]
        assert _radial_speeds(vel, to_radar).tolist() == expect


def clutter(sc: Scenario) -> Scenario:
    """``sc`` with its first walker only and 40 ghosts per radar frame."""
    return dataclasses.replace(
        sc, walkers=sc.walkers[:1],
        noise=dataclasses.replace(sc.noise, ghost_rate=40.0))


def render(sc, path):
    frames = list(labelled_frames(sc))
    simulate(sc, path)
    return frames, path.read_bytes()


class TestChunking:
    """The number of ticks rendered per chunk changes no output."""

    @pytest.mark.parametrize("sc", [
        pytest.param(dataclasses.replace(paper_scenario(), duration=20.0),
                     id="paper-20s"),
        pytest.param(clutter(dataclasses.replace(paper_scenario(seed=3),
                                                 duration=20.0)),
                     id="clutter-20s"),
        # 204 ticks per radar and 612 in all: no chunk size divides them
        pytest.param(dataclasses.replace(paper_scenario(seed=1),
                                         duration=20.45),
                     id="paper-ragged"),
        pytest.param(dataclasses.replace(
            paper_scenario(), walkers=(), duration=5.0,
            noise=dataclasses.replace(NoiseSpec(), ghost_rate=0.0)),
            id="empty"),
    ])
    def test_chunk_size_changes_no_output(self, sc, tmp_path, monkeypatch):
        sizes = [1, 7, simulation._CHUNK_TICKS]
        renders = []
        for size in sizes:
            monkeypatch.setattr(simulation, "_CHUNK_TICKS", size)
            renders.append(render(sc, tmp_path / f"{size}.log"))
        (frames, blob), *others = renders
        n_ticks = sum(int(sc.duration * r.frame_rate) for r in sc.radars)
        assert len(frames) == n_ticks
        for other_frames, other_blob in others:
            assert other_blob == blob
            assert len(other_frames) == len(frames)
            for a, b in zip(frames, other_frames):
                assert (a.ts_ns, a.radar_id, a.labels) == \
                    (b.ts_ns, b.radar_id, b.labels)
                assert np.array_equal(a.points, b.points)
        if not sc.walkers and sc.noise.ghost_rate == 0:
            assert all(len(f.points) == 0 for f in frames)

    def test_ragged_duration_leaves_partial_chunks(self):
        sc = dataclasses.replace(paper_scenario(seed=1), duration=20.45)
        per_radar = {int(sc.duration * r.frame_rate) for r in sc.radars}
        total = sum(int(sc.duration * r.frame_rate) for r in sc.radars)
        for size in (7, simulation._CHUNK_TICKS):
            assert total % size and all(n % size for n in per_radar)


def test_render_memory_does_not_grow_with_duration(tmp_path):
    # tracemalloc peak of simulate at 10x the duration within 1.5x of
    # the peak at 1x: a render holds a chunk of ticks, not the scenario
    sc = Scenario(radars=(overhead_radar(),), walkers=(one_walker(),),
                  noise=quiet_noise(ghost_rate=0.5),
                  doppler_zero_suppression=False, seed=1)

    def peak(duration):
        tracemalloc.start()
        try:
            simulate(dataclasses.replace(sc, duration=duration),
                     tmp_path / "sim.log")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate(dataclasses.replace(sc, duration=1.0), tmp_path / "sim.log")
    # after that warm-up, the first render allocates nothing once only
    short, long = peak(30.0), peak(300.0)
    assert long <= 1.5 * short, (short, long)


class TestGroundTruth:
    def test_counts_step_with_entries(self):
        sc = paper_scenario()
        rows = ground_truth_series(sc)
        by_t = {r["t_s"]: r["count"] for r in rows}
        assert by_t[0.0] == 1
        assert by_t[14.5] == 1 and by_t[15.0] == 2
        assert by_t[29.5] == 2 and by_t[30.0] == 3
        assert by_t[44.5] == 3 and by_t[45.0] == 4
        assert max(by_t.values()) == 4

    def test_walker_rows_carry_position(self):
        rows = ground_truth_series(paper_scenario(), tick=1.0)
        row = rows[50]
        assert row["count"] == len(row["walkers"])
        for wrow in row["walkers"]:
            assert 0.0 <= wrow["x"] <= 12.0 and 0.0 <= wrow["y"] <= 6.0


class TestEvaluate:
    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            evaluate([], [(0.0, 1)])

    def test_span_bound(self):
        # a day-long log at the 0.5 s step fits; a longer span than the
        # bound is rejected before its samples are allocated
        day = evaluate([(0.0, 1), (86400.0, 1)], [(0.0, 1)])
        assert (day.mae, day.peak_estimate) == (0.0, 1.0)
        for t1 in (1e9, 1e300, 0.5 * simulation.MAX_EVAL_SAMPLES):
            with pytest.raises(simulation.SpanTooLong):
                evaluate([(0.0, 1), (t1, 1)], [(0.0, 1)])

    def test_identical_series_mae_zero(self):
        series = [(float(t), t % 3) for t in range(0, 60)]
        m = evaluate(series, series, smoothing_seconds=5.0)
        assert m.mae == 0.0
        assert m.convergence_time_s == 0.0
        assert m.peak_estimate == 2.0

    def test_constant_offset_never_converges(self):
        truth = [(float(t), 2) for t in range(0, 100)]
        est = [(float(t), 4) for t in range(0, 100)]
        m = evaluate(est, truth, smoothing_seconds=5.0)
        assert m.convergence_time_s is None
        assert m.mae == pytest.approx(2.0)

    def test_window_longer_than_series(self):
        # a finite window of any size averages the whole series so far
        truth = [(float(t), 1) for t in range(0, 100)]
        est = [(float(t), 1 if t >= 40 else 6) for t in range(0, 100)]
        whole = evaluate(est, truth, smoothing_seconds=100.0)
        assert evaluate(est, truth, smoothing_seconds=1e300) == whole

    def test_late_lock_on(self):
        truth = [(float(t), 1) for t in range(0, 100)]
        est = [(float(t), 1 if t >= 40 else 6) for t in range(0, 100)]
        m = evaluate(est, truth, smoothing_seconds=1.0)
        assert m.convergence_time_s == pytest.approx(40.5, abs=1.0)
        assert m.mae <= 0.5
        assert m.peak_estimate == 6.0

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.one_of(
        st.integers(0, 40).map(lambda k: k * 0.25),
        st.integers(-1, 21).map(lambda k: k * 0.5 + 1e-9)),
        st.integers(0, 6)), min_size=1, max_size=30), st.integers(1, 12))
    def test_sampling_and_smoothing_match_loops(self, series, window):
        # steps on a 0.25 s lattice and exactly 1e-9 s after a sample
        # time, so a step lands on, just before and just after a sample,
        # and duplicate step times occur
        series = sorted(series)
        times = np.arange(-0.5, 11.0, 0.5)
        got = _step_sample(series, times)
        assert got.tolist() == loop_step_sample(series, times).tolist()
        assert _moving_average(got, window).tolist() == \
            loop_moving_average(got, window).tolist()

    def test_to_dict_keys(self):
        m = evaluate([(0.0, 1)], [(0.0, 1)])
        assert set(m.to_dict()) == {"mae", "convergence_time_s",
                                    "peak_estimate"}
