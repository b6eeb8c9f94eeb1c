import numpy as np
from hypothesis import given, settings, strategies as st

from _reference import brute_buffer_survival, brute_buffer_survival_window
from radarfuse.filtering import (BufferConfig, BufferFilter, ThresholdConfig,
                                 threshold_filter)
from radarfuse.geometry import WorldPoint


def wp(x=0.0, y=0.0, z=1.0, doppler=0.0, snr=15.0, ts_ns=0, radar_id="r0"):
    return WorldPoint(x=x, y=y, z=z, doppler=doppler, snr=snr,
                      radar_id=radar_id, ts_ns=ts_ns)


class TestThresholdFilter:
    def test_snr_boundary_inclusive(self):
        cfg = ThresholdConfig(snr_min=10.0)
        kept = threshold_filter([wp(snr=9.9), wp(snr=10.0)], cfg)
        assert [p.snr for p in kept] == [10.0]

    def test_doppler_absolute(self):
        cfg = ThresholdConfig(doppler_abs_max=5.0)
        kept = threshold_filter([wp(doppler=-6.0), wp(doppler=4.9)], cfg)
        assert [p.doppler for p in kept] == [4.9]

    def test_empty(self):
        assert threshold_filter([], ThresholdConfig()) == []

    def test_range_max_uses_radar_origin(self):
        cfg = ThresholdConfig(range_max=5.0)
        pts = [wp(x=3.0), wp(x=9.0), wp(x=3.0, y=4.0)]
        kept = threshold_filter(pts, cfg, radar_origin=(0.0, 0.0, 1.0))
        assert kept == [pts[0], pts[2]]   # exactly range_max away is kept

    def test_order_preserved_subset(self):
        pts = [wp(snr=s) for s in (12, 3, 15, 7, 20)]
        kept = threshold_filter(pts, ThresholdConfig(snr_min=8))
        assert kept == [pts[0], pts[2], pts[4]]


@settings(max_examples=100)
@given(snrs=st.lists(st.floats(0, 40), max_size=30),
       snr_min=st.floats(0, 40))
def test_threshold_idempotent_and_monotone(snrs, snr_min):
    pts = [wp(snr=s) for s in snrs]
    cfg = ThresholdConfig(snr_min=snr_min)
    once = threshold_filter(pts, cfg)
    assert threshold_filter(once, cfg) == once
    assert all(p in pts for p in once)
    stricter = ThresholdConfig(snr_min=min(snr_min + 5.0, 40.0))
    assert len(threshold_filter(pts, stricter)) <= len(once)


class TestBufferFilter:
    def test_supported_point_kept(self):
        f = BufferFilter(BufferConfig(window_frames=2, support_radius=0.5,
                                      min_support=1))
        assert f.push(0, [wp(x=0, y=0, z=1)]) is None
        assert f.push(1, [wp(x=0.1, y=0, z=1)]) is None
        ts, kept = f.push(2, [])
        assert ts == 0
        assert len(kept) == 1

    def test_spontaneous_point_dropped(self):
        f = BufferFilter(BufferConfig(window_frames=2, support_radius=0.5,
                                      min_support=1))
        f.push(0, [wp(x=0, y=0, z=1)])
        f.push(1, [])
        ts, kept = f.push(2, [])
        assert ts == 0
        assert kept == []

    def test_latency_exactly_f_frames(self):
        f = BufferFilter(BufferConfig(window_frames=3))
        for i in range(3):
            assert f.push(i, []) is None
        ts, _ = f.push(3, [])
        assert ts == 0

    def test_out_of_order_dropped_and_counted(self):
        f = BufferFilter(BufferConfig(window_frames=1, min_support=1))
        assert f.push(10, [wp(x=0, y=0, z=1)]) is None
        assert f.push(5, [wp(x=0, y=0, z=1)]) is None
        assert f.out_of_order_dropped == 1
        # the dropped frame neither lends support nor comes out later
        ts, kept = f.push(11, [])
        assert (ts, kept) == (10, [])
        assert f.flush() == [(11, [])]

    def test_emitted_subset_of_input(self):
        f = BufferFilter(BufferConfig(window_frames=2, min_support=1))
        frames = [[wp(x=0.05 * i + 0.01 * j, y=0, z=1, ts_ns=i)
                   for j in range(3)] for i in range(6)]
        for i, frame in enumerate(frames):
            out = f.push(i, frame)
            if out is not None:
                ts, kept = out
                assert all(p in frames[ts] for p in kept)

    def test_scripted_walker_and_ghosts_match_brute_force(self):
        # walker advancing 0.1 m per frame with two points per frame;
        # four isolated ghosts injected in the middle frames
        rng = np.random.default_rng(3)
        cfg = BufferConfig(window_frames=3, support_radius=0.3, min_support=2)
        frames = []
        ghost_spots = {1: (5.0, 5.0), 2: (8.0, 1.0), 3: (2.0, 4.4),
                       4: (9.0, 3.3)}
        for i in range(9):
            x = 0.1 * i
            pts = [wp(x=x, y=0.0, z=1.0, ts_ns=i),
                   wp(x=x, y=0.05, z=1.0, ts_ns=i)]
            if i in ghost_spots:
                gx, gy = ghost_spots[i]
                pts.append(wp(x=gx, y=gy, z=1.0, ts_ns=i))
            frames.append((i, pts))

        f = BufferFilter(cfg)
        emitted = {}
        for ts, pts in frames:
            out = f.push(ts, pts)
            if out is not None:
                emitted[out[0]] = out[1]
        for ts, pts in f.flush():
            emitted[ts] = pts

        for fi, (ts, pts) in enumerate(frames):
            for pi, p in enumerate(pts):
                expect = brute_buffer_survival(frames, fi, pi,
                                               cfg.support_radius,
                                               cfg.min_support)
                assert (p in emitted[ts]) == expect, (fi, pi)

        # and the spec-level claim: ghosts gone, early walker points kept
        for fi in range(1, 5):
            ghost = frames[fi][1][-1]
            assert ghost not in emitted[fi]
        for fi in range(6):
            for p in frames[fi][1][:2]:
                assert p in emitted[fi]

    def test_clutter_frames_match_windowed_oracle(self):
        # clutter-sized frames (0-80 points, so support queries cross the
        # 32-row block) plus anchors above the room whose only support
        # lies exactly at support_radius, or a hair beyond it
        rng = np.random.default_rng(11)
        cfg = BufferConfig(window_frames=3, support_radius=0.625,
                           min_support=2)
        sizes = [0, 80, 33, 1, 32, 64, 0, 31] + list(rng.integers(0, 81, 24))
        frames = [(i, [wp(x, y, z, ts_ns=i) for x, y, z in rng.uniform(
            (0.0, 0.0, 0.0), (12.0, 6.0, 2.35), size=(n, 3))])
            for i, n in enumerate(sizes)]
        exact, beyond = [], []
        for i in range(0, 24, 3):
            ax = 0.5 + 1.5 * i / 3
            for dz, anchors in ((0.0, exact), (2.0 ** -20, beyond)):
                a = wp(ax, 1.0 + 3.0 * (dz > 0), 5.0)
                frames[i][1].insert(i % 5, a)
                frames[i + 1][1].append(wp(ax + 0.375, a.y + 0.5, 5.0))
                frames[i + 2][1].append(wp(ax, a.y, 5.0 - 0.625 - dz))
                anchors.append((i, a))

        f = BufferFilter(cfg)
        emitted = [f.push(ts, pts) for ts, pts in frames]
        emitted = dict(e for e in emitted if e is not None)
        emitted.update(f.flush())

        for fi, (ts, pts) in enumerate(frames):
            expect = [p for pi, p in enumerate(pts)
                      if brute_buffer_survival_window(
                          frames, fi, pi, cfg.support_radius,
                          cfg.min_support, cfg.window_frames)]
            assert emitted[ts] == expect, fi
        assert all(a in emitted[i] for i, a in exact)
        assert not any(a in emitted[i] for i, a in beyond)
        kept = sum(map(len, emitted.values()))
        assert 0 < kept < sum(len(pts) for _, pts in frames)
