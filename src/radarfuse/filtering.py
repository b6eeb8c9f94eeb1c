"""Per-radar rejection of implausible and spurious detections.

Two stages, run per radar stream before fusion:

* threshold filter: one boolean mask over a frame's decoded ``(n, 5)``
  point array (layout in :mod:`radarfuse.tlv`) drops low SNR,
  implausible doppler and (optionally) excessive reported range; it
  runs before to-world, so only the kept points are mapped.
* buffer filter: hold each frame's ``(n, 3)`` world positions for F
  subsequent frames and keep only points that gather enough spatial
  support in those later frames.  Ghosts flash once and vanish; real
  bodies keep shedding nearby points.  A frame's support is one count
  per row of its squared-distance matrix to the later frames
  (:func:`radarfuse.geometry.sq_distances`), a boolean row sum; a
  frame with no positions is emitted as it is, with no matrix built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import sq_distances


@dataclass(frozen=True)
class ThresholdConfig:
    snr_min: float = 8.0            # dB
    doppler_abs_max: float = 5.0    # m/s
    range_max: float | None = None  # m, the radar's reported range

    def __post_init__(self):
        if self.snr_min < 0:
            raise ValueError("snr_min must be >= 0")
        if self.doppler_abs_max <= 0:
            raise ValueError("doppler_abs_max must be > 0")


@dataclass(frozen=True)
class BufferConfig:
    window_frames: int = 3     # F
    support_radius: float = 0.4  # m
    min_support: int = 2       # k

    def __post_init__(self):
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        if self.support_radius <= 0:
            raise ValueError("support_radius must be > 0")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")


def threshold_filter(points: np.ndarray, cfg: ThresholdConfig) -> np.ndarray:
    """The rows of an ``(n, 5)`` point array that pass all thresholds,
    in order; a point at exactly ``range_max`` is kept."""
    keep = ((points[:, 4] >= cfg.snr_min)
            & (np.abs(points[:, 3]) <= cfg.doppler_abs_max))
    if cfg.range_max is not None:
        keep &= points[:, 0] <= cfg.range_max
    return points[keep]


class BufferFilter:
    """Forward-support ghost filter with a fixed latency of F frames.

    ``push`` accepts the ``(n, 3)`` positions of the frame for time t
    and, once frames t+1..t+F have all arrived, emits the filtered frame
    for t - F (a (ts, positions) pair) or None while the pipeline is
    still filling.  A frame stamped before the last one is dropped and
    counted in ``out_of_order_dropped``.
    """

    def __init__(self, cfg: BufferConfig):
        self.cfg = cfg
        self._r2 = cfg.support_radius * cfg.support_radius
        # (ts, positions) per frame not yet emitted
        self._pending: deque[tuple[int, np.ndarray]] = deque()
        self._last_ts: int | None = None
        self.out_of_order_dropped = 0

    def _evaluate(self, frame) -> tuple[int, np.ndarray]:
        """Judge a frame just taken off ``_pending`` against the frames
        still in it, which are the later ones."""
        ts, positions = frame
        if not len(positions):
            return frame
        # positions[:0] keeps the (0, 3) shape once no later frame is left
        later = np.concatenate([positions[:0]] + [p for _, p in self._pending])
        support = (sq_distances(positions, later) <= self._r2).sum(1)
        return ts, positions[support >= self.cfg.min_support]

    def push(self, ts_ns: int, positions: np.ndarray):
        if self._last_ts is not None and ts_ns < self._last_ts:
            self.out_of_order_dropped += 1
            return None
        self._last_ts = ts_ns
        self._pending.append((ts_ns, positions))
        if len(self._pending) <= self.cfg.window_frames:
            return None
        return self._evaluate(self._pending.popleft())

    def flush(self):
        """Emit the trailing frames, judged on whatever support remains."""
        out = []
        while self._pending:
            out.append(self._evaluate(self._pending.popleft()))
        return out
