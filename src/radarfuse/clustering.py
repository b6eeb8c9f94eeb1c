"""Density-based clustering of fused points over tumbling time windows.

Both DBSCAN and OPTICS are implemented directly (3D Euclidean metric;
neighbourhoods come from one row-blocked numpy distance pass,
:func:`radarfuse.geometry.sq_distance_rows`).  OPTICS cluster
extraction is an eps-cut, which makes its core-point partition provably
comparable to DBSCAN at the same eps and is exercised as a cross-check
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import sq_distance_rows

NOISE = -1


class ClusterAlgorithm(str, Enum):
    DBSCAN = "dbscan"
    OPTICS = "optics"


@dataclass(frozen=True)
class ClusterConfig:
    window_seconds: float = 0.5
    algorithm: ClusterAlgorithm = ClusterAlgorithm.DBSCAN
    eps: float = 0.45
    min_pts: int = 4
    optics_max_eps: float = 2.0

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.optics_max_eps < self.eps:
            raise ValueError("optics_max_eps must be >= eps")


@dataclass(frozen=True)
class Centroid:
    x: float
    y: float
    z: float
    members: int
    ts_ns: int

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass
class ClusterResult:
    labels: list[int]          # per input point; NOISE (-1) for outliers
    centroids: list[Centroid]
    ts_ns: int                 # window end
    is_core: list[bool] = field(default_factory=list)


def _centroids(positions, labels, ts_ns) -> list[Centroid]:
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        if lab != NOISE:
            by_label.setdefault(lab, []).append(i)
    out = []
    for lab in sorted(by_label):
        idx = by_label[lab]
        mean = positions[idx].mean(axis=0)
        out.append(Centroid(
            x=float(mean[0]), y=float(mean[1]), z=float(mean[2]),
            members=len(idx), ts_ns=ts_ns))
    return out


def dbscan(positions: np.ndarray, eps: float, min_pts: int,
           ts_ns: int = 0) -> ClusterResult:
    """Classic DBSCAN with deterministic input-index scan order."""
    n = len(positions)
    if n == 0:
        return ClusterResult(labels=[], centroids=[], ts_ns=ts_ns, is_core=[])
    positions = np.asarray(positions, dtype=float)
    eps2 = eps * eps
    neigh = [np.flatnonzero(row <= eps2).tolist()
             for row in sq_distance_rows(positions, positions)]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        queue = list(neigh[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == NOISE:
                labels[j] = cluster
                if core[j]:
                    queue.extend(neigh[j])
        cluster += 1
    return ClusterResult(labels=labels,
                         centroids=_centroids(positions, labels, ts_ns),
                         ts_ns=ts_ns, is_core=core)


@dataclass
class OpticsPoint:
    index: int
    reachability: float      # inf for the first point of each component
    core_distance: float     # inf if never a core point under max_eps


def optics(positions: np.ndarray, min_pts: int, max_eps: float) -> list[OpticsPoint]:
    """OPTICS ordering with core and reachability distances."""
    n = len(positions)
    if n == 0:
        return []
    positions = np.asarray(positions, dtype=float)
    inf = float("inf")
    max_eps2 = max_eps * max_eps
    core_dist = []
    neigh = []   # per point: (index, distance) pairs within max_eps, ascending
    for row in sq_distance_rows(positions, positions):
        idx = np.flatnonzero(row <= max_eps2)
        ds = np.sqrt(row[idx]).tolist()
        neigh.append(list(zip(idx.tolist(), ds)))
        core_dist.append(sorted(ds)[min_pts - 1] if len(ds) >= min_pts
                         else inf)

    processed = [False] * n
    reach = [inf] * n
    order: list[OpticsPoint] = []

    for start in range(n):
        if processed[start]:
            continue
        # seed list as a dict for decrease-key; deterministic tie-break on index
        seeds: dict[int, float] = {start: inf}
        while seeds:
            i = min(seeds, key=lambda k: (seeds[k], k))
            r = seeds.pop(i)
            processed[i] = True
            reach[i] = r
            order.append(OpticsPoint(index=i, reachability=r,
                                     core_distance=core_dist[i]))
            if core_dist[i] == inf:
                continue
            for j, d in neigh[i]:
                if processed[j]:
                    continue
                new_r = max(core_dist[i], d)
                if j not in seeds or new_r < seeds[j]:
                    seeds[j] = new_r
    return order


def extract_eps_cut(order: list[OpticsPoint], eps: float, min_pts: int,
                    positions=None, ts_ns: int = 0) -> ClusterResult:
    """DBSCAN-equivalent clustering from an OPTICS ordering at radius eps."""
    n = len(order)
    labels_by_index: dict[int, int] = {}
    core_by_index: dict[int, bool] = {}
    cluster = -1
    for op in order:
        is_core = op.core_distance <= eps
        core_by_index[op.index] = is_core
        if op.reachability > eps:
            if is_core:
                cluster += 1
                labels_by_index[op.index] = cluster
            else:
                labels_by_index[op.index] = NOISE
        else:
            labels_by_index[op.index] = cluster
    labels = [labels_by_index[i] for i in range(n)]
    is_core = [core_by_index[i] for i in range(n)]
    if positions is None:
        centroids = []
    else:
        centroids = _centroids(np.asarray(positions, dtype=float), labels,
                               ts_ns)
    return ClusterResult(labels=labels, centroids=centroids, ts_ns=ts_ns,
                         is_core=is_core)


def cluster_points(points, cfg: ClusterConfig, ts_ns: int) -> ClusterResult:
    """Cluster one window of WorldPoints with the configured algorithm."""
    positions = np.array([[p.x, p.y, p.z] for p in points], dtype=float)
    if cfg.algorithm is ClusterAlgorithm.DBSCAN:
        return dbscan(positions, cfg.eps, cfg.min_pts, ts_ns)
    order = optics(positions, cfg.min_pts, cfg.optics_max_eps)
    return extract_eps_cut(order, cfg.eps, cfg.min_pts, positions, ts_ns)


class WindowClusterer:
    """Tumbling-window driver: frames in, one ClusterResult per non-empty
    window out.  Window w covers [w0, w0 + window) by timestamp."""

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self._window_ns = int(round(cfg.window_seconds * 1e9))
        self._start: int | None = None
        self._points: list = []

    def push(self, ts_ns: int, points) -> list[ClusterResult]:
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
        self._points.extend(points)
        return out

    def _close_window(self):
        if not self._points:
            return None
        res = cluster_points(self._points, self.cfg,
                             ts_ns=self._start + self._window_ns)
        self._points = []
        return res

    def flush(self):
        res = self._close_window()
        return [res] if res is not None else []
