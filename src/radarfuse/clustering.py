"""Density-based clustering of fused points over tumbling time windows.

Both DBSCAN and OPTICS are implemented directly (3D Euclidean metric)
as array operations over one window, which holds a few hundred points
and never more than ``MAX_WINDOW_POINTS``.  Distances come from
:func:`radarfuse.geometry.sq_distances`.  DBSCAN thresholds it into an
``n x n`` boolean eps adjacency one row block at a time, each block
against every earlier point and itself, mirrored into the columns
above it, so each pair distance is computed once; the window clusterer
builds a window's pending rows as soon as they hold a block's worth of
entries (``_BLOCK_ROWS**2``, pending rows x window points).  Each block
adds its row sums, and its column sums into the earlier rows, to the
kept neighbour counts that mark core points.  Each cluster is seeded
at the lowest core point not yet in a cluster (an ``argmax`` over a
mask), whose adjacency row is the first hop, and grown by frontier
expansion over the core points.  OPTICS fills its ``n x n`` float
distance matrix and takes its core distances in the same row blocks,
then takes ``n`` argmin steps over one reachability array, returning
the ordering as three arrays.  OPTICS cluster extraction is an
eps-cut, which makes its core-point partition provably comparable to
DBSCAN at the same eps and is exercised as a cross-check in the tests.
A window is one ``(N, 3)`` position array, each frame's rows copied in
as it arrives, and closing it builds fewer than ``_BLOCK_ROWS**2``
DBSCAN adjacency entries.  Its result carries per-point labels and
core flags as arrays and its centroids as one ``(k, 3)`` array, row
``k`` the mean position of cluster ``k`` (one ``bincount`` over
(label, axis) cells), which the tracker takes as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import sq_distances

NOISE = -1

# A window holds at most this many points: the clusterer drops the ones
# past it, in merge order, and counts them in ``dropped_points``.  It is
# over 5x the largest windows seen, 374 points on the paper log and 120
# on its clutter variant.  At this size DBSCAN holds its boolean
# adjacency, 1 B per point pair (4 MiB), its neighbour counts (2 B per
# point) and the float distances of one row block (at most 4 MiB: a
# block is at most _BLOCK_ROWS rows, however many rows are pending, and
# the last block spans every column).
# The window clusterer keeps its adjacency buffer between windows; it
# grows at least twofold when a window needs more rows, never past
# this size, so the bound holds across windows too.
# OPTICS holds the whole float distance matrix, 8 B per point pair
# (32 MiB), plus the temporaries of one row block.
MAX_WINDOW_POINTS = 2048

# DBSCAN builds its adjacency, and OPTICS its distance matrix and core
# distances, this many rows at a time, so their float temporaries stay
# small however large the window.  The window clusterer builds a
# window's pending DBSCAN rows once they hold _BLOCK_ROWS**2 entries
# (pending rows x window points), so closing a window builds fewer
# entries than one square block, however large the window
_BLOCK_ROWS = 128

OPTICS_MAX_EPS = 2.0  # m, the pipeline's OPTICS radius (eps if larger)


class ClusterAlgorithm(str, Enum):
    DBSCAN = "dbscan"
    OPTICS = "optics"


@dataclass(frozen=True)
class ClusterConfig:
    window_seconds: float = 0.5
    algorithm: ClusterAlgorithm = ClusterAlgorithm.DBSCAN
    eps: float = 0.45
    min_pts: int = 4

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass
class ClusterResult:
    labels: np.ndarray         # (N,) int per point; NOISE (-1) for outliers
    centroids: np.ndarray      # (k, 3); row k is cluster k's mean position
    ts_ns: int                 # window end
    is_core: np.ndarray        # (N,) bool


def _centroids(positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row k is the mean position of the points labelled k.  One
    ``bincount`` over (label, axis) cells sums the coordinates; each
    cell adds a cluster's members in index order, as
    ``positions[labels == k].mean(axis=0)`` does, so the floats match."""
    bins = labels + 1            # NOISE goes to bin 0, then dropped
    size = labels.max(initial=NOISE) + 2
    counts = np.bincount(bins, minlength=size)[1:]
    cells = 3 * bins[:, None] + np.arange(3)
    sums = np.bincount(cells.ravel(), weights=positions.ravel(),
                       minlength=3 * size)[3:].reshape(-1, 3)
    return sums / counts[:, None]


class _EpsAdjacency:
    """The boolean eps adjacency of a growing window and its points'
    neighbour counts, built in one buffer, which is kept from window to
    window and grown as they need, up to ``capacity`` rows.

    Pending rows are built once they hold at least ``_BLOCK_ROWS**2``
    entries (pending rows x window points), at most ``_BLOCK_ROWS``
    rows per block.  Each block of new rows is thresholded against
    every point of the window up to its last row, into
    ``adj[lo:hi, :hi]``, and its part left of the diagonal block is
    mirrored into ``adj[:lo, lo:hi]``, so each pair distance is computed
    once ((b - a)**2 is the same float as (a - b)**2).  The block's row
    sums are its new rows' counts so far, and its column sums left of
    the diagonal block add the new rows to the earlier rows' counts.
    ``finish`` builds the rest and starts the next window empty.
    """

    def __init__(self, eps: float, capacity: int):
        self._eps2 = eps * eps
        self._capacity = capacity    # the most points a window holds
        self._adj = np.empty((0, 0), dtype=bool)
        # a count is at most capacity, so the least unsigned type holding
        # it is exact
        self._counts = np.empty(capacity, dtype=np.min_scalar_type(capacity))
        self._rows = 0               # rows of the window built so far

    def extend(self, positions: np.ndarray):
        """Build the rows pending in ``positions``, the window's points
        so far, if they hold at least ``_BLOCK_ROWS**2`` entries."""
        n = len(positions)
        if (n - self._rows) * n >= _BLOCK_ROWS * _BLOCK_ROWS:
            self._build(positions)

    def finish(self, positions: np.ndarray):
        """``(adj, counts)``: the ``(n, n)`` adjacency of the window's
        ``n`` positions and its ``(n,)`` row sums, the neighbour
        counts."""
        self._build(positions)
        n, self._rows = self._rows, 0
        return self._adj[:n, :n], self._counts[:n]

    def _build(self, positions: np.ndarray):
        n = len(positions)
        while self._rows < n:
            self._block(positions, min(self._rows + _BLOCK_ROWS, n))

    def _block(self, positions: np.ndarray, hi: int):
        lo, adj, counts = self._rows, self._adj, self._counts
        if hi > len(adj):
            # grow the buffer at least twofold, keeping the rows built
            size = min(max(hi, 2 * len(adj)), self._capacity)
            grown = np.empty((size, size), dtype=bool)
            grown[:lo, :lo] = adj[:lo, :lo]
            adj = self._adj = grown
        rows = adj[lo:hi, :hi]
        np.less_equal(sq_distances(positions[lo:hi], positions[:hi]),
                      self._eps2, out=rows)
        adj[:lo, lo:hi] = rows[:, :lo].T
        rows = rows.view(np.uint8)
        rows.sum(1, dtype=counts.dtype, out=counts[lo:hi])
        counts[:lo] += rows[:, :lo].sum(0, dtype=counts.dtype)
        self._rows = hi


def dbscan(positions: np.ndarray, eps: float, min_pts: int,
           ts_ns: int = 0) -> ClusterResult:
    """Classic DBSCAN with deterministic input-index scan order.

    Clusters are numbered by their lowest core index, and a border point
    joins the first cluster that reaches it, as a breadth-first scan in
    index order would assign them.
    """
    positions = np.asarray(positions, dtype=float)
    adj, counts = _EpsAdjacency(eps, len(positions)).finish(positions)
    return _dbscan(positions, adj, counts, min_pts, ts_ns)


def _dbscan(positions: np.ndarray, adj: np.ndarray, counts: np.ndarray,
            min_pts: int, ts_ns: int) -> ClusterResult:
    """DBSCAN of ``positions`` given their symmetric eps adjacency and
    its row sums, the neighbour counts."""
    n = len(positions)
    core = counts >= min_pts
    unclustered = core.copy()    # core points in no cluster yet
    labels = np.full(n, NOISE)
    cluster = 0
    while unclustered.any():
        # grow from the lowest unclustered core point, whose neighbours
        # are the first hop: each hop's neighbours join the cluster, and
        # its unclustered core points among them are the next hop
        seed = unclustered.argmax()
        unclustered[seed] = False
        reached = adj[seed].copy()
        frontier = reached & unclustered
        while frontier.any():
            unclustered ^= frontier
            reach = adj[frontier].any(0)
            reached |= reach
            frontier = reach & unclustered
        labels[reached & (labels == NOISE)] = cluster
        cluster += 1
    return ClusterResult(labels=labels,
                         centroids=_centroids(positions, labels),
                         ts_ns=ts_ns, is_core=core)


def optics(positions: np.ndarray, min_pts: int, max_eps: float):
    """OPTICS ordering with core and reachability distances.

    Returns three arrays, one entry per point in processing order: its
    index, its reachability (inf for the first point of each component)
    and its core distance (inf if never a core point under max_eps).
    The next point is the unprocessed one of least reachability, the
    lowest index on ties; when none is reachable, the lowest unprocessed
    index starts a new component.
    """
    n = len(positions)
    positions = np.asarray(positions, dtype=float)
    inf = float("inf")
    dist = np.empty((n, n))
    core_dist = np.full(n, inf)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block = dist[rows]
        block[...] = sq_distances(positions[rows], positions)
        block[block > max_eps * max_eps] = inf
        np.sqrt(block, out=block)
        if min_pts <= n:
            core_dist[rows] = np.partition(block, min_pts - 1,
                                           axis=1)[:, min_pts - 1]

    processed = np.zeros(n, dtype=bool)
    reach = np.full(n, inf)      # of unprocessed points; inf once processed
    order = np.empty(n, dtype=int)
    reachability = np.empty(n)
    for k in range(n):
        i = int(reach.argmin())
        if reach[i] == inf:
            i = int(processed.argmin())
        order[k] = i
        reachability[k] = reach[i]
        processed[i] = True
        reach[i] = inf
        if core_dist[i] != inf:
            np.minimum(reach, np.maximum(dist[i], core_dist[i]), out=reach,
                       where=~processed)
    return order, reachability, core_dist[order]


def extract_eps_cut(ordering, eps: float, positions: np.ndarray,
                    ts_ns: int = 0) -> ClusterResult:
    """DBSCAN-equivalent clustering at radius eps from the
    ``(order, reachability, core_distance)`` arrays of :func:`optics`."""
    index, reach, core_dist = ordering
    core = core_dist <= eps
    starts = reach > eps
    # a core point past eps starts the next cluster; any other point past
    # eps is noise; a point within eps joins the current cluster
    cluster = np.cumsum(starts & core) - 1
    labels = np.empty(len(index), dtype=int)
    labels[index] = np.where(starts & ~core, NOISE, cluster)
    is_core = np.empty(len(index), dtype=bool)
    is_core[index] = core
    return ClusterResult(labels=labels,
                         centroids=_centroids(positions, labels),
                         ts_ns=ts_ns, is_core=is_core)


class WindowClusterer:
    """Tumbling-window driver: (n, 3) frames in, one ClusterResult per
    window holding a point out.  Window w covers [w0, w0 + window).
    Points past ``MAX_WINDOW_POINTS`` in a window are counted in
    ``dropped_points`` and not clustered.  A window's points are copied
    into one array as they arrive; under DBSCAN their eps adjacency and
    neighbour counts are built a row block at a time as they arrive too,
    so closing a window builds fewer than ``_BLOCK_ROWS**2`` entries."""

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self._window_ns = int(round(cfg.window_seconds * 1e9))
        self._start: int | None = None
        self._positions = np.empty((MAX_WINDOW_POINTS, 3))
        self._points = 0                      # rows of _positions in use
        self._adjacency = (_EpsAdjacency(cfg.eps, MAX_WINDOW_POINTS)
                           if cfg.algorithm is ClusterAlgorithm.DBSCAN
                           else None)
        self.dropped_points = 0

    def push(self, ts_ns: int, positions: np.ndarray) -> list[ClusterResult]:
        out = []
        start = ts_ns - ts_ns % self._window_ns
        if self._start is None:
            self._start = start
        elif start > self._start:
            # the windows in between are empty: jump to the one holding ts_ns
            res = self._close_window()
            if res is not None:
                out.append(res)
            self._start = start
        room = MAX_WINDOW_POINTS - self._points
        if len(positions) > room:
            self.dropped_points += len(positions) - room
            positions = positions[:room]
        if len(positions):
            end = self._points + len(positions)
            self._positions[self._points:end] = positions
            self._points = end
            if self._adjacency is not None:
                self._adjacency.extend(self._positions[:end])
        return out

    def _close_window(self):
        if not self._points:
            return None
        positions = self._positions[:self._points]
        self._points = 0
        ts_ns = self._start + self._window_ns
        cfg = self.cfg
        if self._adjacency is not None:
            return _dbscan(positions, *self._adjacency.finish(positions),
                           cfg.min_pts, ts_ns)
        ordering = optics(positions, cfg.min_pts, max(OPTICS_MAX_EPS, cfg.eps))
        return extract_eps_cut(ordering, cfg.eps, positions, ts_ns)

    def flush(self):
        res = self._close_window()
        return [res] if res is not None else []
