import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from _reference import brute_associate, brute_track_step
from radarfuse.tracking import (EventKind, NonPSDCovariance,
                                OutOfOrderWindow, TargetTrack, Tracker,
                                TrackerConfig, TrackStatus, associate, birth,
                                min_eigenvalue, predict, update)

SEC = 1_000_000_000


def make_track(track_id=0, pos=(0, 0, 0), vel=(0, 0, 0), var=1.0,
               status=TrackStatus.CONFIRMED, ts=0):
    return TargetTrack(track_id=track_id,
                       state=np.array([*pos, *vel], dtype=float),
                       axis_cov=(var, 0.0, var), status=status, hits=1,
                       last_update_ns=ts)


class TestPredict:
    def test_constant_velocity(self):
        t = predict(make_track(pos=(0, 0, 0), vel=(1, 0, 0)), 1.0,
                    TrackerConfig())
        np.testing.assert_allclose(t.position, [1, 0, 0])
        np.testing.assert_allclose(t.velocity, [1, 0, 0])

    def test_zero_dt_is_identity(self):
        orig = make_track(vel=(1, 2, 3))
        t = predict(orig, 0.0, TrackerConfig())
        np.testing.assert_array_equal(t.state, orig.state)
        np.testing.assert_array_equal(t.covariance, orig.covariance)

    def test_trace_grows(self):
        cfg = TrackerConfig(process_noise_accel=2.0)
        orig = make_track()
        t = predict(orig, 0.5, cfg)
        assert np.trace(t.covariance) > np.trace(orig.covariance)


def match(tracks, centroids, cfg):
    """``associate`` over the tracks' positions, as (track_id, centroid
    index) pairs, and the unmatched centroid indices."""
    positions = [t.position.tolist() for t in tracks]
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 3).tolist()
    matches, unmatched = associate(positions, [t.track_id for t in tracks],
                                   centroids, cfg)
    return [(tracks[i].track_id, ci) for i, ci in matches], unmatched


class TestGate:
    def test_zero_distance(self):
        assert associate([(0.0, 0.0, 0.0)], [7], [(0.0, 0.0, 0.0)],
                         TrackerConfig()) == ([(0, 0)], [])

    def test_boundary_inclusive(self):
        # a centroid exactly gate_distance away matches; 1e-9 beyond, not
        cfg = TrackerConfig(gate_distance=1.0)
        track = [(0.0, 0.0, 0.0)]
        assert associate(track, [0], [(1.0, 0.0, 0.0)], cfg) == ([(0, 0)], [])
        assert associate(track, [0], [(1.0 + 1e-9, 0.0, 0.0)], cfg) == \
            ([], [0])


class TestUpdate:
    def test_scalar_identity(self):
        # textbook 1D case: prior mean 0 var 1, measurement 1 var 1
        cfg = TrackerConfig(measurement_noise=1.0)
        track = make_track(var=1.0)
        out = update(track, (1.0, 0.0, 0.0), SEC, cfg)
        assert abs(out.state[0] - 0.5) < 1e-12
        assert abs(out.covariance[0, 0] - 0.5) < 1e-12

    def test_zero_innovation_shrinks_covariance(self):
        cfg = TrackerConfig()
        track = make_track(pos=(2, 3, 4))
        out = update(track, (2, 3, 4), SEC, cfg)
        np.testing.assert_allclose(out.position, [2, 3, 4], atol=1e-12)
        assert np.trace(out.covariance) < np.trace(track.covariance)

    def test_huge_measurement_noise_freezes_state(self):
        cfg = TrackerConfig(measurement_noise=1e9)
        track = make_track(pos=(1, 1, 1))
        out = update(track, (5, 5, 5), SEC, cfg)
        np.testing.assert_allclose(out.position, [1, 1, 1], atol=1e-6)

    def test_hits_and_confirmation(self):
        cfg = TrackerConfig(confirm_hits=2)
        track = make_track(status=TrackStatus.TENTATIVE)
        out = update(track, (0, 0, 0), SEC, cfg)
        assert out.hits == 2
        assert out.status is TrackStatus.CONFIRMED


def test_covariance_is_read_only():
    track = make_track()
    cov = track.covariance
    with pytest.raises(ValueError):
        cov[0, 0] = 7.0
    with pytest.raises(ValueError):
        track.covariance[3:, 3:] = np.eye(3)
    assert track.axis_cov == (1.0, 0.0, 1.0)


PSD_THRESHOLD = -1e-9


@st.composite
def axis_block(draw):
    """A symmetric 2x2 block (a, b, c), PSD or indefinite: drawn entry
    by entry, or rotated by any angle from two eigenvalues, each at any
    scale or within 1e-6 of the PSD threshold."""
    scale = st.floats(-100.0, 100.0)
    if draw(st.booleans()):
        return draw(scale), draw(scale), draw(scale)
    eigen = st.one_of(scale, st.floats(PSD_THRESHOLD - 1e-6,
                                       PSD_THRESHOLD + 1e-6))
    lo, hi = draw(eigen), draw(eigen)
    theta = draw(st.floats(0.0, math.pi))
    cs, sn = math.cos(theta), math.sin(theta)
    return (lo * cs * cs + hi * sn * sn, (hi - lo) * cs * sn,
            lo * sn * sn + hi * cs * cs)


@settings(max_examples=500, deadline=None)
@given(axis_block())
@example((1.0, 0.0, 1.0))
@example((0.04, 0.2, 1.0))          # a singular block: the minimum is ~0
@example((-1.0, 0.0, -1.0))
def test_min_eigenvalue_matches_eigvalsh(block):
    # the closed form the PSD check uses, against LAPACK on the 6x6
    a, b, c = block
    want = float(np.linalg.eigvalsh(
        replace(make_track(), axis_cov=block).covariance).min())
    got = min_eigenvalue(a, b, c)
    margin = 1e-12 * max(abs(a), abs(c), 1.0)
    assert abs(got - want) <= margin
    if abs(want - PSD_THRESHOLD) > margin:
        assert (got < PSD_THRESHOLD) == (want < PSD_THRESHOLD)


class TestAssociate:
    def test_single_pair(self):
        cfg = TrackerConfig()
        matches, uc = match([make_track()], [(0.2, 0, 0)], cfg)
        assert len(matches) == 1 and uc == []

    def test_tie_breaks_to_lower_track_id(self):
        cfg = TrackerConfig()
        tracks = [make_track(track_id=5, pos=(-0.5, 0, 0)),
                  make_track(track_id=2, pos=(0.5, 0, 0))]
        matches, uc = match(tracks, [(0.0, 0, 0)], cfg)
        assert matches == [(2, 0)]

    def test_crossing_matches_min_sum_assignment(self):
        cfg = TrackerConfig(gate_distance=2.0)
        track_pos = [(0, 0, 0), (2, 0, 0), (4, 0, 0)]
        cent_pos = [(0.3, 0, 0), (2.2, 0, 0), (3.8, 0, 0)]
        tracks = [make_track(track_id=i, pos=p)
                  for i, p in enumerate(track_pos)]
        matches, _ = match(tracks, cent_pos, cfg)
        got = dict(matches)

        def cost(perm):
            return sum(math.dist(track_pos[i], cent_pos[perm[i]])
                       for i in range(3))
        best = min(itertools.permutations(range(3)), key=cost)
        assert got == {i: best[i] for i in range(3)}


@st.composite
def association_case(draw):
    """Tracks with distinct ids and centroids on a small lattice, so
    distances tie exactly and land exactly on the gate; the centroids
    may repeat, and either side may be empty."""
    scale = draw(st.sampled_from([0.3, 0.5, 1.0]))
    lattice = st.tuples(*[st.integers(-2, 2)] * 3).map(
        lambda p: tuple(scale * v for v in p))
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=6))
    tracks = [make_track(track_id=i, pos=draw(lattice)) for i in ids]
    cents = draw(st.lists(lattice, max_size=6))
    if cents:
        cents += draw(st.lists(st.sampled_from(cents), max_size=3))
    gate = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    return tracks, cents, gate


@settings(max_examples=300, deadline=None)
@given(association_case())
def test_associate_matches_brute_force(case):
    tracks, cents, gate = case
    matches, unmatched = match(
        tracks, np.array(cents, dtype=float).reshape(-1, 3),
        TrackerConfig(gate_distance=gate))
    ref_matches, ref_unmatched = brute_associate(tracks, cents, gate)
    assert matches == ref_matches
    assert unmatched == ref_unmatched


class TestTrackerStep:
    def test_new_centroids_create_tentative_tracks(self):
        tr = Tracker(TrackerConfig())
        snap, events = tr.step([(0, 0, 0), (5, 5, 0)], 0)
        assert len(snap) == 2
        assert all(t.status is TrackStatus.TENTATIVE for t in snap)
        assert [e.kind for e in events] == [EventKind.CREATED] * 2

    def test_stale_track_deleted(self):
        cfg = TrackerConfig(miss_timeout=1.0, confirm_hits=1)
        tr = Tracker(cfg)
        tr.step([(0, 0, 0)], 0)
        snap, events = tr.step([], int(1.5 * SEC))
        assert snap == []
        assert any(e.kind is EventKind.DELETED for e in events)

    def test_max_targets_cap(self):
        cfg = TrackerConfig(max_targets=2)
        tr = Tracker(cfg)
        snap, _ = tr.step([(0, 0, 0), (3, 0, 0), (6, 0, 0)], 0)
        assert len(snap) == 2
        assert tr.dropped_new_targets == 1

    def test_track_ids_never_reused(self):
        cfg = TrackerConfig(miss_timeout=0.4, confirm_hits=1)
        tr = Tracker(cfg)
        seen = set()
        for k in range(6):
            snap, _ = tr.step([(0, 0, 0)] if k % 2 == 0 else [],
                              k * SEC)
            seen.update(t.track_id for t in snap)
        assert len(seen) >= 3   # recreated each time, fresh ids

    def test_timed_out_track_is_not_revived(self):
        tr = Tracker(TrackerConfig())
        tr.step([(1, 1, 1)], 0)
        snap, events = tr.step([(1.05, 1, 1)], 1000 * SEC)
        assert [(e.kind, e.track_id) for e in events] == \
            [(EventKind.DELETED, 0), (EventKind.CREATED, 1)]
        assert tr.next_id == 2
        assert [t.track_id for t in snap] == [1]

    def test_snapshot_survives_next_step(self):
        tr = Tracker(TrackerConfig(confirm_hits=2))
        tr.step([(1, 1, 1)], 0)
        (track,), _ = tr.step([(1.1, 1, 1)], SEC // 2)
        state, cov = track.state.copy(), track.covariance.copy()
        hits, status = track.hits, track.status
        (nxt,), _ = tr.step([(1.2, 1, 1)], SEC)
        assert nxt.hits == hits + 1
        np.testing.assert_array_equal(track.state, state)
        np.testing.assert_array_equal(track.covariance, cov)
        assert (track.hits, track.status) == (hits, status)

    def test_non_psd_covariance_resets_track(self):
        cfg = TrackerConfig(confirm_hits=2)
        tr = Tracker(cfg)
        tr.step([(1, 1, 1)], 0)
        tr.step([(1.1, 1, 1)], SEC // 10)
        # a covariance no update can bring back to PSD
        tr.tracks[0] = replace(tr.tracks[0], axis_cov=(-1.0, 0.0, -1.0))
        with pytest.raises(NonPSDCovariance):
            update(predict(tr.tracks[0], 0.1, cfg), (1.2, 1, 1), 0, cfg)
        (track,), events = tr.step([(1.2, 1, 1)], 2 * SEC // 10)
        assert tr.covariance_resets == 1
        assert events == []
        assert (track.track_id, track.hits, track.status) == \
            (0, 2, TrackStatus.CONFIRMED)
        assert track.last_update_ns == 2 * SEC // 10
        state, cov = birth((1.2, 1, 1), cfg)
        np.testing.assert_array_equal(track.state, state)
        assert track.axis_cov == cov
        # the restarted filter updates normally again
        (track,), _ = tr.step([(1.3, 1, 1)], 3 * SEC // 10)
        assert track.hits == 3 and tr.covariance_resets == 1

    def test_out_of_order_window(self):
        tr = Tracker(TrackerConfig())
        tr.step([], 2 * SEC)
        with pytest.raises(OutOfOrderWindow):
            tr.step([], SEC)

    def test_determinism(self):
        def run():
            tr = Tracker(TrackerConfig())
            log = []
            rng = np.random.default_rng(9)
            for k in range(40):
                cents = [tuple(rng.uniform(0, 5, 3)) for _ in range(3)]
                _, events = tr.step(cents, k * SEC // 2)
                log.extend((e.kind, e.track_id, e.ts_ns) for e in events)
            return log
        assert run() == run()


@st.composite
def window_sequence(draw):
    """A tracker config and a run of windows: each a time step (0 on
    the first, may be 0 or tiny later, or past the timeout), a centroid
    list (may be empty) in a small room, so tracks meet centroids, fill
    ``max_targets`` and time out, and an optional track whose
    covariance is replaced by -I before the window."""
    cfg = TrackerConfig(
        gate_distance=draw(st.sampled_from([0.5, 1.0, 2.0, 20.0])),
        miss_timeout=draw(st.sampled_from([0.3, 1.0, 10.0])),
        confirm_hits=draw(st.integers(1, 3)),
        max_targets=draw(st.integers(1, 6)),
        process_noise_accel=draw(st.sampled_from([0.5, 2.0])),
        measurement_noise=draw(st.sampled_from([0.05, 0.15])))
    coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
    step_ns = st.sampled_from([0, 1_000_000, 100_000_000, 500_000_000,
                               1_500_000_000])
    windows = []
    for k in range(draw(st.integers(1, 12))):
        dt_ns = 0 if k == 0 else draw(step_ns)
        cents = draw(st.lists(st.tuples(coord, coord, coord), max_size=6))
        poison = draw(st.one_of(st.none(), st.integers(0, 5)))
        windows.append((dt_ns, cents, poison))
    return cfg, windows


def snapshot_bits(tracks):
    return [(t.track_id, t.state.tobytes(), t.covariance.tobytes(), t.hits,
             t.status, t.last_update_ns) for t in tracks]


@settings(max_examples=300, deadline=None)
@given(window_sequence())
# track 0 jumps 10 m in 0.5 s, past the velocity clamp, and track 1's
# covariance is poisoned before its next update
@example((TrackerConfig(gate_distance=20.0, confirm_hits=2),
          [(0, [(1, 1, 1), (1, 5, 1)], None),
           (SEC // 2, [(11, 1, 1), (1, 5.1, 1)], None),
           (SEC // 10, [(1, 5.2, 1)], 1)]))
def test_step_matches_per_track_reference(case):
    cfg, windows = case
    tr, ref = Tracker(cfg), Tracker(cfg)
    ts = 10 * SEC
    for dt_ns, cents, poison in windows:
        ts += dt_ns
        if poison is not None and poison < len(tr.tracks):
            for t in (tr, ref):
                t.tracks[poison] = replace(t.tracks[poison],
                                           axis_cov=(-1.0, 0.0, -1.0))
        got = tr.step(np.array(cents, dtype=float).reshape(-1, 3), ts)
        want = brute_track_step(ref, cents, ts)
        assert snapshot_bits(got[0]) == snapshot_bits(want[0])
        assert got[1] == want[1]
        assert snapshot_bits(tr.tracks) == snapshot_bits(ref.tracks)
        assert (tr.next_id, tr.covariance_resets, tr.dropped_new_targets) \
            == (ref.next_id, ref.covariance_resets, ref.dropped_new_targets)


def test_noise_free_convergence():
    cfg = TrackerConfig(process_noise_accel=1e-6, measurement_noise=1e-6)
    track = make_track(pos=(0, 0, 0), vel=(0, 0, 0), var=1.0)
    errors = []
    for k in range(1, 9):
        truth = np.array([0.1 * k, 0.2 * k, 0.0])
        track = predict(track, 1.0, cfg)
        track = update(track, truth, k * SEC, cfg)
        errors.append(float(np.linalg.norm(track.position - truth)))
    assert errors[-1] < 1e-6
    for a, b in zip(errors[2:], errors[3:]):
        assert b <= a + 1e-12


def test_covariance_psd_through_random_sequences():
    rng = np.random.default_rng(17)
    cfg = TrackerConfig()
    track = make_track(var=0.5)
    for k in range(200):
        track = predict(track, float(rng.uniform(0, 0.6)), cfg)
        if rng.random() < 0.7:
            track = update(track, tuple(track.position + rng.normal(0, 0.3, 3)),
                           k * SEC, cfg)
        p = track.covariance
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-9


def nis_fraction_in_band(runs=500, steps=12, seed=23):
    """Monte Carlo NIS coverage with a matched simulation model."""
    rng = np.random.default_rng(seed)
    cfg = TrackerConfig(process_noise_accel=1.0, measurement_noise=0.2)
    dt = 0.5
    h = np.zeros((3, 6))
    h[0, 0] = h[1, 1] = h[2, 2] = 1.0
    r = cfg.measurement_noise ** 2 * np.eye(3)
    lo, hi = stats.chi2.ppf([0.025, 0.975], df=3)
    f = np.eye(6)
    f[0, 3] = f[1, 4] = f[2, 5] = dt
    qa = cfg.process_noise_accel ** 2
    q = np.zeros((6, 6))
    for a in range(3):
        q[a, a] = qa * dt ** 4 / 4
        q[a, a + 3] = q[a + 3, a] = qa * dt ** 3 / 2
        q[a + 3, a + 3] = qa * dt ** 2
    in_band = total = 0
    for _ in range(runs):
        truth = np.zeros(6)
        truth[3:] = rng.uniform(-1, 1, 3)
        track = replace(make_track(pos=tuple(truth[:3]
                                             + rng.normal(0, 0.2, 3))),
                        axis_cov=(0.2 ** 2, 0.0, 1.0))
        for k in range(steps):
            truth = f @ truth + rng.multivariate_normal(np.zeros(6), q)
            z = truth[:3] + rng.normal(0, cfg.measurement_noise, 3)
            track = predict(track, dt, cfg)
            innov = z - h @ track.state
            s = h @ track.covariance @ h.T + r
            nis = float(innov @ np.linalg.solve(s, innov))
            if lo <= nis <= hi:
                in_band += 1
            total += 1
            track = update(track, z, (k + 1) * SEC, cfg)
    return in_band / total


def test_nis_consistency():
    assert nis_fraction_in_band() >= 0.90
