import numpy as np
from hypothesis import given, settings, strategies as st

from _reference import brute_buffer_survival, brute_buffer_survival_window
from radarfuse.filtering import (BufferConfig, BufferFilter, ThresholdConfig,
                                 threshold_filter)

def row(r=2.0, az=0.0, el=0.0, doppler=0.0, snr=15.0):
    """One point-array row (range, azimuth, elevation, doppler, snr)."""
    return (r, az, el, doppler, snr)


def rows(*r):
    """An (n, 5) point array."""
    return np.array(r, dtype=float).reshape(-1, 5)


def positions(*xyz):
    """An (n, 3) position frame."""
    return np.array(xyz, dtype=float).reshape(-1, 3)


def has_row(a, r):
    return bool((a == r).all(axis=1).any())


class TestThresholdFilter:
    def test_snr_boundary_inclusive(self):
        cfg = ThresholdConfig(snr_min=10.0)
        kept = threshold_filter(rows(row(snr=9.9), row(snr=10.0)), cfg)
        assert kept[:, 4].tolist() == [10.0]

    def test_doppler_absolute(self):
        cfg = ThresholdConfig(doppler_abs_max=5.0)
        kept = threshold_filter(rows(row(doppler=-6.0), row(doppler=4.9)),
                                cfg)
        assert kept[:, 3].tolist() == [4.9]

    def test_empty(self):
        for cfg in (ThresholdConfig(), ThresholdConfig(range_max=5.0)):
            assert threshold_filter(rows(), cfg).shape == (0, 5)

    def test_range_max_is_reported_range(self):
        cfg = ThresholdConfig(range_max=5.0)
        beyond = np.nextafter(5.0, np.inf)
        # angles do not enter: range is the radar's reported range
        pts = rows(row(r=3.0), row(r=beyond, az=0.5), row(r=5.0, el=-1.0),
                   row(r=9.0), row(r=beyond))
        kept = threshold_filter(pts, cfg)
        # exactly range_max away is kept, a hair beyond it is not
        assert np.array_equal(kept, pts[[0, 2]])

    def test_order_preserved_subset(self):
        pts = rows(*(row(snr=s) for s in (12, 3, 15, 7, 20)))
        kept = threshold_filter(pts, ThresholdConfig(snr_min=8))
        assert np.array_equal(kept, pts[[0, 2, 4]])


@settings(max_examples=100)
@given(snrs=st.lists(st.floats(0, 40), max_size=30),
       snr_min=st.floats(0, 40))
def test_threshold_idempotent_and_monotone(snrs, snr_min):
    pts = rows(*(row(snr=s) for s in snrs))
    cfg = ThresholdConfig(snr_min=snr_min)
    once = threshold_filter(pts, cfg)
    assert np.array_equal(threshold_filter(once, cfg), once)
    assert all(has_row(pts, p) for p in once)
    stricter = ThresholdConfig(snr_min=min(snr_min + 5.0, 40.0))
    assert len(threshold_filter(pts, stricter)) <= len(once)


class TestBufferFilter:
    def test_supported_point_kept(self):
        f = BufferFilter(BufferConfig(window_frames=2, support_radius=0.5,
                                      min_support=1))
        assert f.push(0, positions((0, 0, 1))) is None
        assert f.push(1, positions((0.1, 0, 1))) is None
        ts, kept = f.push(2, positions())
        assert ts == 0
        assert len(kept) == 1

    def test_spontaneous_point_dropped(self):
        f = BufferFilter(BufferConfig(window_frames=2, support_radius=0.5,
                                      min_support=1))
        f.push(0, positions((0, 0, 1)))
        f.push(1, positions())
        ts, kept = f.push(2, positions())
        assert ts == 0
        assert kept.shape == (0, 3)

    def test_latency_exactly_f_frames(self):
        f = BufferFilter(BufferConfig(window_frames=3))
        for i in range(3):
            assert f.push(i, positions()) is None
        ts, _ = f.push(3, positions())
        assert ts == 0

    def test_out_of_order_dropped_and_counted(self):
        f = BufferFilter(BufferConfig(window_frames=1, min_support=1))
        assert f.push(10, positions((0, 0, 1))) is None
        assert f.push(5, positions((0, 0, 1))) is None
        assert f.out_of_order_dropped == 1
        # the dropped frame neither lends support nor comes out later
        ts, kept = f.push(11, positions())
        assert (ts, kept.shape) == (10, (0, 3))
        assert [(ts, p.shape) for ts, p in f.flush()] == [(11, (0, 3))]

    def test_emitted_subset_of_input(self):
        f = BufferFilter(BufferConfig(window_frames=2, min_support=1))
        frames = [positions(*((0.05 * i + 0.01 * j, 0, 1) for j in range(3)))
                  for i in range(6)]
        for i, frame in enumerate(frames):
            out = f.push(i, frame)
            if out is not None:
                ts, kept = out
                assert all(has_row(frames[ts], p) for p in kept)

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
            pts = [(x, 0.0, 1.0), (x, 0.05, 1.0)]
            if i in ghost_spots:
                gx, gy = ghost_spots[i]
                pts.append((gx, gy, 1.0))
            frames.append((i, positions(*pts)))

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
                assert has_row(emitted[ts], p) == expect, (fi, pi)

        # and the spec-level claim: ghosts gone, early walker points kept
        for fi in range(1, 5):
            ghost = frames[fi][1][-1]
            assert not has_row(emitted[fi], ghost)
        for fi in range(6):
            for p in frames[fi][1][:2]:
                assert has_row(emitted[fi], p)

    def test_clutter_frames_match_windowed_oracle(self):
        # clutter-sized frames (0-80 points, so support queries cross the
        # 32-row block) plus anchors above the room whose only support
        # lies exactly at support_radius, or a hair beyond it
        rng = np.random.default_rng(11)
        cfg = BufferConfig(window_frames=3, support_radius=0.625,
                           min_support=2)
        sizes = [0, 80, 33, 1, 32, 64, 0, 31] + list(rng.integers(0, 81, 24))
        frames = [(i, [tuple(p) for p in rng.uniform(
            (0.0, 0.0, 0.0), (12.0, 6.0, 2.35), size=(n, 3))])
            for i, n in enumerate(sizes)]
        exact, beyond = [], []
        for i in range(0, 24, 3):
            ax = 0.5 + 1.5 * i / 3
            for dz, anchors in ((0.0, exact), (2.0 ** -20, beyond)):
                a = (ax, 1.0 + 3.0 * (dz > 0), 5.0)
                frames[i][1].insert(i % 5, a)
                frames[i + 1][1].append((ax + 0.375, a[1] + 0.5, 5.0))
                frames[i + 2][1].append((ax, a[1], 5.0 - 0.625 - dz))
                anchors.append((i, a))
        frames = [(ts, positions(*pts)) for ts, pts in frames]

        f = BufferFilter(cfg)
        emitted = [f.push(ts, pts) for ts, pts in frames]
        emitted = dict(e for e in emitted if e is not None)
        emitted.update(f.flush())

        for fi, (ts, pts) in enumerate(frames):
            expect = [p for pi, p in enumerate(pts)
                      if brute_buffer_survival_window(
                          frames, fi, pi, cfg.support_radius,
                          cfg.min_support, cfg.window_frames)]
            assert np.array_equal(emitted[ts], positions(*expect)), fi
        assert all(has_row(emitted[i], a) for i, a in exact)
        assert not any(has_row(emitted[i], a) for i, a in beyond)
        kept = sum(map(len, emitted.values()))
        assert 0 < kept < sum(len(pts) for _, pts in frames)
