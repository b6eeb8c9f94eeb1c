import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _reference import brute_dbscan, brute_optics, core_partition
from radarfuse import clustering
from radarfuse.clustering import (_BLOCK_ROWS, MAX_WINDOW_POINTS, NOISE,
                                  ClusterAlgorithm, ClusterConfig,
                                  WindowClusterer, _centroids, dbscan,
                                  extract_eps_cut, optics)
from radarfuse.geometry import sq_distances


def positions(*xyz):
    """An (n, 3) position frame."""
    return np.array(xyz, dtype=float).reshape(-1, 3)


BOUNDARY_CASES = ("lattice", "duplicates", "min_pts_above_n")


def instance(case):
    """(positions, eps, min_pts): a random window for an int seed, else
    a boundary input: a 0.5 m lattice with eps 0.5 (d² == eps² exactly),
    duplicate points, or min_pts above n."""
    if case == "lattice":
        rng = np.random.default_rng(1)
        grid = np.array([[x, y, z] for x in range(8) for y in range(8)
                         for z in range(2)]) * 0.5
        return grid[rng.permutation(len(grid))[:70]], 0.5, 3
    if case == "duplicates":
        rng = np.random.default_rng(2)
        base = rng.uniform(0, 3, size=(20, 3))
        return base[rng.integers(0, 20, 90)], 0.6, 4
    if case == "min_pts_above_n":
        rng = np.random.default_rng(3)
        return rng.uniform(0, 1, size=(10, 3)), 0.5, 11
    rng = np.random.default_rng(case)
    n = int(rng.integers(0, 120))
    pts = rng.uniform(0, 6, size=(n, 3))
    eps = float(rng.uniform(0.3, 1.2))
    min_pts = int(rng.integers(1, 6))
    return pts, eps, min_pts


def lattice_points(n, seed):
    """n points on a 0.5 m lattice, 30 of them repeats, in random order:
    with eps 0.5, many pairs lie exactly eps apart (d² == eps²)."""
    rng = np.random.default_rng(seed)
    grid = np.array([[x, y, z] for x in range(12) for y in range(12)
                     for z in range(3)]) * 0.5
    pts = grid[rng.permutation(len(grid))[:n - 30]]
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), 30)]])
    return pts[rng.permutation(n)]


def random_frames(pts, rng, sizes=(1, 10)):
    """``pts`` split into consecutive frames of random sizes in
    ``range(*sizes)``."""
    cuts = np.cumsum(rng.integers(*sizes, size=len(pts)))
    return np.split(pts, cuts[cuts < len(pts)])


def assert_same_result(got, want):
    assert got.labels.tolist() == want.labels.tolist()
    assert got.is_core.tolist() == want.is_core.tolist()
    # bit for bit
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.centroids.shape == want.centroids.shape


def brute_counts(pts, eps):
    """Each point's neighbours within eps, itself included, one row of
    squared distances at a time."""
    return [int((((pts - p) ** 2).sum(1) <= eps * eps).sum()) for p in pts]


def kept_counts(wc):
    """The list that the neighbour counts kept by ``wc``'s adjacency
    builder are appended to, one copy per window it closes."""
    kept = []
    finish = wc._adjacency.finish

    def recording_finish(positions):
        adj, counts = finish(positions)
        kept.append(counts.copy())
        return adj, counts

    wc._adjacency.finish = recording_finish
    return kept


def check_frames_as_one_window(frames, eps, min_pts):
    """Push ``frames`` as one window through a clusterer: its result is
    brute-force DBSCAN's, and ``dbscan``'s of the frames concatenated,
    and the neighbour counts it kept are the brute-force ones."""
    wc = WindowClusterer(ClusterConfig(eps=eps, min_pts=min_pts))
    kept = kept_counts(wc)
    for frame in frames:
        assert wc.push(0, frame) == []
    pts = np.concatenate(frames)
    out = wc.flush()
    if not len(pts):
        assert out == []
        return
    (res,) = out
    ref_labels, ref_core = brute_dbscan(pts, eps, min_pts)
    assert res.is_core.tolist() == ref_core
    assert res.labels.tolist() == ref_labels
    assert_same_result(res, dbscan(pts, eps, min_pts))
    (counts,) = kept
    assert counts.tolist() == brute_counts(pts, eps)


class TestDbscan:
    def test_small_instance(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [5, 5, 0]])
        res = dbscan(pts, eps=0.5, min_pts=3)
        assert res.labels[:3].tolist() == [0, 0, 0]
        assert res.labels[3] == NOISE
        assert len(res.centroids) == 1
        assert tuple(res.centroids[0]) == pytest.approx(
            (0.0333333, 0.0333333, 0.0), abs=1e-6)
        assert res.labels.tolist().count(0) == 3

    def test_empty(self):
        res = dbscan(np.empty((0, 3)), eps=0.5, min_pts=3)
        assert res.labels.tolist() == [] and res.is_core.tolist() == []
        assert res.centroids.shape == (0, 3)

    def test_min_pts_one_connected_components(self):
        pts = np.array([[0, 0, 0], [0.4, 0, 0], [0.8, 0, 0], [5, 0, 0]])
        res = dbscan(pts, eps=0.5, min_pts=1)
        assert all(res.is_core)
        assert res.labels[0] == res.labels[1] == res.labels[2]
        assert res.labels[3] != res.labels[0]
        assert res.labels[3] != NOISE

    @pytest.mark.parametrize("seed", [*range(25), *BOUNDARY_CASES])
    def test_matches_brute_force(self, seed):
        pts, eps, min_pts = instance(seed)
        res = dbscan(pts, eps, min_pts)
        ref_labels, ref_core = brute_dbscan(pts, eps, min_pts)
        assert res.is_core.tolist() == ref_core
        # same cluster numbering, border points included
        assert res.labels.tolist() == ref_labels

    def test_memory_bounded_at_max_window(self):
        # the 1 B per pair adjacency (4 MiB at 2048 points) plus the
        # float temporaries of its last row block, the widest (4 MiB),
        # not an n x n float matrix
        pts = np.random.default_rng(0).uniform(0, 3, (MAX_WINDOW_POINTS, 3))
        tracemalloc.start()
        try:
            dbscan(pts, 0.45, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_matches_brute_force_across_row_blocks(self):
        # two full row blocks and a partial one, on a 0.5 m lattice with
        # eps 0.5 (d² == eps² exactly) and some points repeated, so the
        # mirrored half of the adjacency holds exact-eps pairs
        n = 2 * _BLOCK_ROWS + 44
        pts = lattice_points(n, 4)
        d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
        block = np.arange(n) // _BLOCK_ROWS
        assert ((d2 == 0.25) & (block[:, None] != block[None])).any()
        res = dbscan(pts, 0.5, 4)
        ref_labels, ref_core = brute_dbscan(pts, 0.5, 4)
        assert res.is_core.tolist() == ref_core
        assert res.labels.tolist() == ref_labels


@st.composite
def lattice_window(draw, max_cells=60):
    """(positions, eps, min_pts): points on a 0.5 m lattice, so that many
    pair distances equal eps exactly (d² == eps² in floats), with some
    points repeated; the window may be empty."""
    cell = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2))
    cells = draw(st.lists(cell, max_size=max_cells))
    if cells:
        cells += draw(st.lists(st.sampled_from(cells), max_size=15))
    positions = np.array(cells, dtype=float).reshape(-1, 3) * 0.5
    return (positions, draw(st.sampled_from([0.5, 1.0, 1.5])),
            draw(st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(lattice_window())
@example((np.empty((0, 3)), 0.5, 3))
# all noise: no point has a neighbour but itself
@example((np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
          0.5, 2))
def test_dbscan_matches_brute_force_on_lattice(case):
    pts, eps, min_pts = case
    res = dbscan(pts, eps, min_pts)
    ref_labels, ref_core = brute_dbscan(pts, eps, min_pts)
    assert res.is_core.tolist() == ref_core
    assert res.labels.tolist() == ref_labels


@settings(max_examples=100, deadline=None)
@given(lattice_window(max_cells=300), st.randoms(use_true_random=False))
def test_window_clusterer_matches_brute_force_on_lattice(case, rnd):
    # the same window fed as random frames, so row blocks are built as
    # the frames arrive and their boundaries fall anywhere in a frame
    pts, eps, min_pts = case
    cuts = sorted(rnd.randrange(len(pts) + 1)
                  for _ in range(rnd.randrange(20)))
    check_frames_as_one_window(np.split(pts, cuts), eps, min_pts)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 400), st.integers(0, 6))
def test_centroids_match_member_means(seed, n, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, rng.uniform(0.01, 100), size=(n, 3))
    labels = rng.integers(NOISE, k, size=n) if k else np.full(n, NOISE)
    labels[:min(n, k)] = np.arange(min(n, k))   # no empty cluster
    want = np.array([pts[labels == lab].mean(axis=0)
                     for lab in range(labels.max(initial=NOISE) + 1)])
    assert np.array_equal(_centroids(pts, labels), want.reshape(-1, 3))


class TestOptics:
    def test_single_point(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        order = optics(pts, min_pts=1, max_eps=2.0)
        index, reachability, _ = order
        assert len(index) == 1
        assert reachability[0] == float("inf")
        res = extract_eps_cut(order, eps=0.5, positions=pts)
        assert res.labels.tolist() == [0]

    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal([0, 0, 0], 0.05, size=(5, 3))
        b = rng.normal([5, 0, 0], 0.05, size=(5, 3))
        pts = np.vstack([a, b])
        order = optics(pts, min_pts=3, max_eps=2.0)
        res = extract_eps_cut(order, eps=0.5, positions=pts)
        labels = res.labels
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]
        assert NOISE not in labels

    def test_chain_at_exact_eps(self):
        pts = np.array([[0.5 * i, 0.0, 0.0] for i in range(6)])
        order = optics(pts, min_pts=2, max_eps=2.0)
        res = extract_eps_cut(order, eps=0.5, positions=pts)
        assert len(set(res.labels)) == 1 and res.labels[0] != NOISE

    @pytest.mark.parametrize("case", [*range(10), *BOUNDARY_CASES])
    def test_matches_brute_optics(self, case):
        pts, eps, min_pts = instance(case)
        order = optics(pts, min_pts, max_eps=4 * eps)
        got = list(zip(*(a.tolist() for a in order)))
        assert got == brute_optics(pts, min_pts, 4 * eps)

    def test_matches_brute_optics_across_row_blocks(self):
        # two full row blocks and a partial one
        pts = np.random.default_rng(9).uniform(0, 8, (2 * _BLOCK_ROWS + 44, 3))
        got = list(zip(*(a.tolist() for a in optics(pts, 4, 1.5))))
        assert got == brute_optics(pts, 4, 1.5)

    def test_memory_bounded_at_max_window(self):
        # the 8 B per pair distance matrix (32 MiB at 2048 points) plus
        # one row block's temporaries, not a second n x n matrix
        pts = np.random.default_rng(0).uniform(0, 1, (MAX_WINDOW_POINTS, 3))
        tracemalloc.start()
        try:
            optics(pts, 4, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    @pytest.mark.parametrize("seed", range(20))
    def test_eps_cut_matches_dbscan_core_partition(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 150))
        pts = rng.uniform(0, 5, size=(n, 3))
        eps = float(rng.uniform(0.3, 1.0))
        min_pts = int(rng.integers(1, 6))
        db = dbscan(pts, eps, min_pts)
        op = extract_eps_cut(optics(pts, min_pts, max_eps=5.0 * np.sqrt(3)),
                             eps, pts)
        assert np.array_equal(op.is_core, db.is_core)
        assert core_partition(op.labels, op.is_core) == \
            core_partition(db.labels, db.is_core)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)),
                min_size=0, max_size=40),
       st.randoms(use_true_random=False))
def test_permutation_stability(coords, rnd):
    pts = np.array([[x, y, 0.0] for x, y in coords]).reshape(-1, 3)
    res_a = dbscan(pts, 0.6, 3)
    perm = list(range(len(pts)))
    rnd.shuffle(perm)
    res_b = dbscan(pts[perm], 0.6, 3)
    part_a = core_partition(res_a.labels, res_a.is_core)
    part_b_permuted = core_partition(res_b.labels, res_b.is_core)
    part_b = frozenset(frozenset(perm[i] for i in grp)
                       for grp in part_b_permuted)
    assert part_a == part_b


def test_centroid_inside_member_bbox():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 3, size=(80, 3))
    res = dbscan(pts, 0.7, 3)
    for label, c in enumerate(res.centroids):
        members = pts[[i for i, l in enumerate(res.labels) if l == label]]
        assert np.all(c >= members.min(axis=0) - 1e-12)
        assert np.all(c <= members.max(axis=0) + 1e-12)


class TestWindowClusterer:
    def cfg(self, **kw):
        return ClusterConfig(window_seconds=0.5, min_pts=1, **kw)

    def test_window_boundaries(self):
        wc = WindowClusterer(self.cfg())
        sec = 1_000_000_000
        results = []
        for t in (0.0, 0.2, 0.4, 0.6):
            results += wc.push(int(t * sec), positions((t, 0.0, 0.0)))
        results += wc.flush()
        assert len(results) == 2
        # first window holds the three frames in [0, 0.5)
        assert sum(lab != NOISE for lab in results[0].labels) == 3
        assert sum(lab != NOISE for lab in results[1].labels) == 1
        assert results[0].ts_ns == int(0.5 * sec)

    def test_empty_window_no_output(self):
        wc = WindowClusterer(self.cfg())
        sec = 1_000_000_000
        out = wc.push(0, positions((0, 0, 0)))
        # several empty windows skipped
        out += wc.push(3 * sec, positions((1, 1, 0)))
        out += wc.flush()
        assert len(out) == 2

    def test_zero_row_frames_close_with_nothing(self):
        # a window whose frames all hold zero rows emits no result, and
        # zero-row frames beside points leave that window's result as is
        wc = WindowClusterer(self.cfg())
        w = int(0.5 * 1_000_000_000)
        out = []
        for ts in (0, w // 4, w // 2):
            out += wc.push(ts, positions())
        for ts, frame in ((w, positions()), (w + 1, positions((2, 2, 0))),
                          (w + 2, positions())):
            out += wc.push(ts, frame)
        out += wc.push(2 * w, positions())
        out += wc.flush()
        assert [r.ts_ns for r in out] == [2 * w]
        assert out[0].labels.tolist() == [0]
        assert out[0].centroids.tolist() == [[2.0, 2.0, 0.0]]

    def test_gap_jumps_to_window(self):
        # a gap of 10**12 windows closes one window and returns at once
        wc = WindowClusterer(self.cfg())
        w = int(0.5 * 1_000_000_000)
        assert wc.push(0, positions((0, 0, 0))) == []
        far = 10**12 * w + w // 2
        out = wc.push(far, positions((1, 1, 0)))
        assert [r.ts_ns for r in out] == [w]
        assert [r.ts_ns for r in wc.flush()] == [10**12 * w + w]

    def test_window_capped_at_max_points(self):
        # the first MAX_WINDOW_POINTS points in merge order are clustered
        # (a blob at the origin); the rest, a blob far away, are dropped
        wc = WindowClusterer(self.cfg())
        rng = np.random.default_rng(11)
        total = 50_000
        pts = rng.normal(0, 0.05, size=(total, 3))
        pts[MAX_WINDOW_POINTS:] += 10.0
        out = []
        for i, frame in enumerate(np.array_split(pts, 7)):
            out += wc.push(i, frame)
        out += wc.flush()
        (res,) = out
        assert len(res.labels) == MAX_WINDOW_POINTS
        assert wc.dropped_points == total - MAX_WINDOW_POINTS
        assert np.all(np.abs(res.centroids) < 1.0)
        # the next window starts empty again
        out = wc.push(10**9, positions((1, 1, 1))) + wc.flush()
        assert len(out[0].labels) == 1
        assert wc.dropped_points == total - MAX_WINDOW_POINTS

    @pytest.mark.parametrize("n", [_BLOCK_ROWS, 2 * _BLOCK_ROWS,
                                   2 * _BLOCK_ROWS + 44])
    def test_frames_straddling_row_blocks(self, n):
        # one window fed as frames of 1-9 rows, so block boundaries fall
        # inside frames, on a lattice with exact-eps pairs across them
        pts = lattice_points(n, 5)
        d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
        block = np.arange(n) // _BLOCK_ROWS
        assert n == _BLOCK_ROWS or \
            ((d2 == 0.25) & (block[:, None] != block[None])).any()
        frames = random_frames(pts, np.random.default_rng(n))
        assert {1, 9} <= {len(f) for f in frames}
        check_frames_as_one_window(frames, 0.5, 4)

    def test_no_stale_rows_between_windows(self):
        # one clusterer through windows of every shape; each result must
        # be a fresh dbscan of that window's points alone, and each
        # window's kept counts its brute-force neighbour counts: the
        # buffer grows in the 600-point window, the 5000-point one is
        # capped, one window holds only zero-row frames and the last is
        # flushed mid-block
        rng = np.random.default_rng(12)
        cfg = ClusterConfig(eps=0.5, min_pts=4)
        w = int(0.5 * 1_000_000_000)
        big = np.random.default_rng(13).normal(0, 0.3, (5000, 3))
        windows = [lattice_points(40, 7),
                   np.vstack([lattice_points(300, 14),
                              lattice_points(300, 15) + 0.25]),
                   lattice_points(2 * _BLOCK_ROWS + 44, 6),
                   lattice_points(2 * _BLOCK_ROWS + 44, 8) + 0.25,
                   lattice_points(_BLOCK_ROWS, 9),
                   big,
                   np.empty((0, 3)),
                   lattice_points(_BLOCK_ROWS + 50, 10)]
        wc = WindowClusterer(cfg)
        kept = kept_counts(wc)
        out = []
        for k, pts in enumerate(windows):
            for frame in random_frames(pts, rng, (0, 300)):
                out += wc.push(k * w, frame)
            out += wc.push(k * w + w // 2, np.empty((0, 3)))
        out += wc.flush()                     # mid-block
        clustered = [pts[:MAX_WINDOW_POINTS] for pts in windows if len(pts)]
        assert [r.ts_ns for r in out] == \
            [(k + 1) * w for k, pts in enumerate(windows) if len(pts)]
        assert wc.dropped_points == len(big) - MAX_WINDOW_POINTS
        for res, counts, pts in zip(out, kept, clustered, strict=True):
            assert_same_result(res, dbscan(pts, cfg.eps, cfg.min_pts,
                                           res.ts_ns))
            assert counts.tolist() == brute_counts(pts, cfg.eps)

    def test_window_close_builds_under_one_block(self, monkeypatch):
        # a 250-point window fed as 10-point frames: its rows are built
        # as their pending work reaches a block's worth, so the push
        # that closes it builds fewer entries than one block (30 500 if
        # blocks waited for 128 pending rows)
        pts = lattice_points(250, 16)
        wc = WindowClusterer(ClusterConfig(eps=0.5, min_pts=4))
        for frame in np.split(pts, 25):
            assert wc.push(0, frame) == []
        built = []

        def counted(a, b):
            built.append(len(a) * len(b))
            return sq_distances(a, b)

        monkeypatch.setattr(clustering, "sq_distances", counted)
        (res,) = wc.push(10**9, positions())
        assert 0 < sum(built) < _BLOCK_ROWS**2
        ref_labels, ref_core = brute_dbscan(pts, 0.5, 4)
        assert res.is_core.tolist() == ref_core
        assert res.labels.tolist() == ref_labels
        assert_same_result(res, dbscan(pts, 0.5, 4))

    def test_memory_bounded_over_max_windows(self):
        # the clusterer's adjacency buffer (4 MiB at 2048 points) plus
        # one row block's float temporaries, window after window, with
        # nothing kept from one window to the next
        pts = np.random.default_rng(0).uniform(0, 3, (MAX_WINDOW_POINTS, 3))
        frames = np.array_split(pts, 40)
        w = int(0.5 * 1_000_000_000)
        held = []
        tracemalloc.start()
        try:
            wc = WindowClusterer(ClusterConfig(eps=0.45, min_pts=4))
            for k in range(4):
                for frame in frames:
                    assert len(wc.push(k * w, frame)) <= 1
                held.append(tracemalloc.get_traced_memory()[0])
            assert len(wc.flush()) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20
        assert max(held[1:]) <= held[1] + 64 * 2**10

    def test_two_walkers_recovered(self):
        rng = np.random.default_rng(42)
        truth = [np.array([1.0, 1.0, 1.0]), np.array([4.0, 1.0, 1.0])]
        points = positions(*(center + rng.normal(0, 0.1, 3)
                             for center in truth for _ in range(10)))
        for algorithm in ClusterAlgorithm:
            wc = WindowClusterer(ClusterConfig(
                window_seconds=0.5, algorithm=algorithm, eps=0.5, min_pts=4))
            (res,) = wc.push(0, points) + wc.flush()
            assert len(res.centroids) == 2
            got = sorted(res.centroids[:, 0])
            for g, t in zip(got, [1.0, 4.0]):
                assert abs(g - t) < 0.15
