"""Rigid-body poses and the transform tree mapping radar frames to world.

Axis convention (documented once, used everywhere): in a radar's local
frame +Y is boresight, +Z is up, +X is right.  Azimuth sweeps the XY
plane, elevation rises out of it.  A pose's rotation is applied as
yaw about Z, then pitch about the carried X axis, then roll about the
carried Y (boresight) axis, so a wall radar tilted down 5 degrees is
simply ``pitch = -5 deg``.

From the decoder to the tracker a frame is one float array.
:meth:`TransformTree.to_world` maps a radar's decoded ``(n, 5)`` point
array (layout in :mod:`radarfuse.tlv`) to the ``(n, 5)`` array of its
world rows ``(x, y, z, doppler, snr)``, and from the buffer filter on a
frame is the ``(n, 3)`` array of its positions, the first three
columns.

:func:`sq_distances` is the package's one neighbour query: the full
squared-distance matrix between two point sets, which clustering, the
filters and the track gate compare with a radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def spherical_to_cartesian(r: float, az: float, el: float) -> np.ndarray:
    """Local Cartesian coordinates; boresight (+Y) at zero azimuth/elevation."""
    ce = math.cos(el)
    return np.array([r * ce * math.sin(az), r * ce * math.cos(az),
                     r * math.sin(el)])


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(len(a), len(b))`` matrix of squared Euclidean distances
    between the rows of ``a`` and ``b`` (both (n, 3) float arrays).

    This is the one fixed-radius neighbour query of the package: callers
    compare it with ``r * r``, so a point exactly ``r`` away counts.
    The squares are summed one axis at a time, x then y then z, the
    order ``(d * d).sum(-1)`` uses, so every entry is bit-identical to
    the 3-D difference form with no ``(n, m, 3)`` temporary.  Each axis
    is written as ``b`` broadcast down the rows minus ``a`` across them,
    in place: ``(b - a)**2`` is the same float as ``(a - b)**2``, and a
    row copy plus an in-place subtract is cheaper than an outer
    subtract.  Each input is copied once into Fortran order, so every
    column it is read by is contiguous.
    """
    a = np.array(a, dtype=float, order="F")
    b = np.array(b, dtype=float, order="F")
    out = np.empty((len(a), len(b)))
    out[...] = b[:, 0]
    out -= a[:, 0, None]
    out *= out
    d = np.empty_like(out)
    for k in (1, 2):
        d[...] = b[:, k]
        d -= a[:, k, None]
        d *= d
        out += d
    return out


class TransformTree:
    """Radar frames to world: one fixed pose per radar.

    Built once from {radar_id: Pose}; each pose's rotation matrix and
    translation are computed eagerly, so a lookup is a dict read.
    """

    def __init__(self, poses: dict[str, Pose]):
        self._frames = {radar_id: (pose.matrix(), pose.translation)
                        for radar_id, pose in poses.items()}

    def to_world(self, radar_id: str, points: np.ndarray) -> np.ndarray:
        """The world rows of one frame of radar ``radar_id``: its point
        array with range, azimuth and elevation replaced by x, y, z."""
        rotation, translation = self._frames[radar_id]
        rows = np.array(points, dtype=float)
        for row, (r, az, el) in zip(rows, rows[:, :3].tolist()):
            row[:3] = rotation @ spherical_to_cartesian(r, az, el) + translation
        return rows
