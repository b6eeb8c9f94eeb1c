import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import brute_to_world
from radarfuse.config import load_config, paper_config_doc
from radarfuse.geometry import (Pose, TransformTree, spherical_to_cartesian,
                                sq_distances)


def frame(range_m, azimuth=0.0, elevation=0.0):
    """A one-point frame: its ``(1, 5)`` point array."""
    return np.array([[range_m, azimuth, elevation, 0.0, 10.0]])


class TestSpherical:
    def test_boresight(self):
        np.testing.assert_allclose(spherical_to_cartesian(1.0, 0.0, 0.0),
                                   [0, 1, 0], atol=1e-12)

    def test_azimuth_axis(self):
        np.testing.assert_allclose(
            spherical_to_cartesian(2.0, math.pi / 2, 0.0),
            [2, 0, 0], atol=1e-12)

    def test_zenith(self):
        np.testing.assert_allclose(
            spherical_to_cartesian(1.0, 0.0, math.pi / 2),
            [0, 0, 1], atol=1e-12)

    @given(r=st.floats(0, 100), az=st.floats(-math.pi, math.pi),
           el=st.floats(-math.pi / 2, math.pi / 2))
    def test_norm_preservation(self, r, az, el):
        out = spherical_to_cartesian(r, az, el)
        assert np.linalg.norm(out) == pytest.approx(r, abs=1e-9)


def apply(pose, v):
    return pose.matrix() @ np.asarray(v, dtype=float) + pose.translation


class TestApplyPose:
    def test_identity(self):
        np.testing.assert_allclose(apply(Pose(), [1, 2, 3]), [1, 2, 3])

    def test_pure_translation(self):
        np.testing.assert_allclose(apply(Pose(x=10), [1, 2, 3]), [11, 2, 3])

    def test_quarter_turn_yaw(self):
        np.testing.assert_allclose(apply(Pose(yaw=math.pi / 2), [0, 1, 0]),
                                   [-1, 0, 0], atol=1e-12)

    def test_rotation_orthonormal(self):
        pose = Pose(yaw=0.3, pitch=-1.2, roll=2.2)
        r = pose.matrix()
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


class TestTransformTree:
    def test_wall_radar_tilt(self):
        # 5 degree downward tilt: boresight point 5 m out lands
        # 5*cos(5deg) forward and 5*sin(5deg) below the mount
        tree = TransformTree({"wall": Pose(z=2.35, pitch=math.radians(-5))})
        ((_, y, z),) = tree.to_world("wall", frame(5.0))
        assert y == pytest.approx(5 * math.cos(math.radians(5)), abs=1e-9)
        assert z == pytest.approx(2.35 - 5 * math.sin(math.radians(5)),
                                  abs=1e-9)

    def test_ceiling_radar(self):
        tree = TransformTree({
            "ceil": Pose(x=6, y=3, z=2.35, pitch=-math.pi / 2)})
        h = 1.35
        (xyz,) = tree.to_world("ceil", frame(h))
        np.testing.assert_allclose(xyz, [6, 3, 2.35 - h], atol=1e-9)

    def test_to_world_zero_range(self):
        tree = TransformTree({
            "r0": Pose(x=1, y=2, z=3, yaw=0.7, pitch=-0.3)})
        (xyz,) = tree.to_world("r0", frame(0.0))
        np.testing.assert_allclose(xyz, [1, 2, 3], atol=1e-12)

    def test_to_world_carries_metadata(self):
        tree = TransformTree({"r0": Pose()})
        points = np.array([[2.0, 0.1, 0.0, -1.5, 33.0]])
        positions = tree.to_world("r0", points)
        # positions only: doppler and snr stay in the point array
        assert positions.shape == (1, 3)
        assert np.array_equal(positions[0],
                              spherical_to_cartesian(2.0, 0.1, 0.0))
        assert points.tolist() == [[2.0, 0.1, 0.0, -1.5, 33.0]]  # unchanged


_PAPER_RADARS = load_config(paper_config_doc()).radars


@pytest.mark.parametrize("radar", _PAPER_RADARS, ids=lambda r: r.radar_id)
@pytest.mark.parametrize("n", [0, 1, 37, 400])
def test_to_world_matches_per_point_oracle(radar, n):
    rng = np.random.default_rng(n)
    points = np.column_stack([rng.uniform(0, 16, n),
                              rng.uniform(-1.27, 1.27, (n, 2)),
                              rng.uniform(-9, 9, n), rng.uniform(0, 100, n)])
    tree = TransformTree({r.radar_id: r.pose for r in _PAPER_RADARS})
    positions = tree.to_world(radar.radar_id, points)
    expect = np.array([brute_to_world(radar.pose, row)
                       for row in points.tolist()]).reshape(-1, 3)
    assert positions.shape == (n, 3)
    assert np.array_equal(positions, expect)


pose_strategy = st.builds(
    Pose,
    x=st.floats(-10, 10), y=st.floats(-10, 10), z=st.floats(-10, 10),
    yaw=st.floats(-math.pi, math.pi),
    pitch=st.floats(-math.pi, math.pi),
    roll=st.floats(-math.pi, math.pi),
)
vec_strategy = st.tuples(st.floats(-20, 20), st.floats(-20, 20),
                         st.floats(-20, 20))


@settings(max_examples=200)
@given(pose=pose_strategy, a=vec_strategy, b=vec_strategy)
def test_isometry(pose, a, b):
    da = np.linalg.norm(np.array(a) - np.array(b))
    db = np.linalg.norm(apply(pose, a) - apply(pose, b))
    assert db == pytest.approx(da, abs=1e-9)


_rng = np.random.default_rng(3)
_lattice = np.stack(np.meshgrid(*[np.arange(4) * 0.5] * 3),
                    -1).reshape(-1, 3)
# the paper log's largest clustering window, measured against itself as
# DBSCAN and OPTICS do
_window = np.random.default_rng(374).uniform(0, 6, (374, 3))


@pytest.mark.parametrize("a,b", [
    pytest.param(_rng.uniform(-8, 8, (57, 3)), _rng.uniform(-8, 8, (41, 3)),
                 id="random"),
    pytest.param(_lattice, _lattice, id="lattice"),
    pytest.param(np.repeat(_rng.uniform(0, 5, (6, 3)), 4, axis=0),
                 _rng.uniform(0, 5, (9, 3)), id="duplicates"),
    pytest.param(np.empty((0, 3)), _lattice, id="empty-a"),
    pytest.param(_lattice, np.empty((0, 3)), id="empty-b"),
    pytest.param(_rng.uniform(-8, 8, (33, 5))[:, :3],
                 np.asfortranarray(_rng.uniform(-8, 8, (29, 3))),
                 id="column-view-and-fortran"),
    pytest.param(_window, _window, id="largest-paper-window"),
])
def test_sq_distances_bit_identical(a, b):
    out = sq_distances(a, b)
    assert out.shape == (len(a), len(b))
    assert out.flags.c_contiguous
    # the lattice puts neighbours at d^2 == 0.25 exactly, where an
    # inclusive radius query turns on the last bit
    assert np.array_equal(out, ((a[:, None] - b[None]) ** 2).sum(-1))

