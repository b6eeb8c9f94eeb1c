"""Rigid-body poses and the transform tree mapping radar frames to world.

Axis convention (documented once, used everywhere): in a radar's local
frame +Y is boresight, +Z is up, +X is right.  Azimuth sweeps the XY
plane, elevation rises out of it.  A pose's rotation is applied as
yaw about Z, then pitch about the carried X axis, then roll about the
carried Y (boresight) axis, so a wall radar tilted down 5 degrees is
simply ``pitch = -5 deg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tlv import RadarPoint


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class Pose:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def matrix(self) -> np.ndarray:
        return _rot_z(self.yaw) @ _rot_x(self.pitch) @ _rot_y(self.roll)

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def apply(self, point) -> np.ndarray:
        return self.matrix() @ np.asarray(point, dtype=float) + self.translation


def spherical_to_cartesian(p: RadarPoint) -> np.ndarray:
    """Local Cartesian coordinates; boresight (+Y) at zero azimuth/elevation."""
    ce = math.cos(p.elevation)
    return np.array([
        p.range_m * ce * math.sin(p.azimuth),
        p.range_m * ce * math.cos(p.azimuth),
        p.range_m * math.sin(p.elevation),
    ])


@dataclass(frozen=True)
class WorldPoint:
    x: float
    y: float
    z: float
    doppler: float
    snr: float
    radar_id: str
    ts_ns: int


# Rows of ``a`` per block in :func:`sq_distance_rows`: the temporary is
# at most _ROW_BLOCK x len(b) x 3 floats, whatever len(a).
_ROW_BLOCK = 32


def sq_distance_rows(a: np.ndarray, b: np.ndarray):
    """For each row of ``a`` in order, the squared Euclidean distances
    to every row of ``b`` (both (n, 3) float arrays).

    This is the one fixed-radius neighbour query of the package: callers
    compare a row with ``r * r``, so a point exactly ``r`` away counts.
    """
    for s in range(0, len(a), _ROW_BLOCK):
        d = a[s:s + _ROW_BLOCK, None, :] - b[None, :, :]
        yield from (d * d).sum(-1)


class TransformTree:
    """Radar frames to world: one fixed pose per radar.

    Built once from {radar_id: Pose}; each pose's rotation matrix and
    translation are computed eagerly, so a lookup is a dict read.
    """

    def __init__(self, poses: dict[str, Pose]):
        self._frames = {radar_id: (pose.matrix(), pose.translation)
                        for radar_id, pose in poses.items()}

    def to_world(self, p: RadarPoint) -> WorldPoint:
        rotation, translation = self._frames[p.radar_id]
        pos = rotation @ spherical_to_cartesian(p) + translation
        return WorldPoint(x=float(pos[0]), y=float(pos[1]), z=float(pos[2]),
                          doppler=p.doppler, snr=p.snr,
                          radar_id=p.radar_id, ts_ns=p.ts_ns)
